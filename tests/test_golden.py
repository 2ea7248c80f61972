"""Same answers: a fixed slice of the seed-7 benchmark items, rerun through
cli.run and compared with the answers stored in data/golden_seed7.json.

The slice is the first 40 `solve-1d-n64` items (8 of them modulated), the
README sweep and the next three `sweep-1d-n256` items, the first ten
`verify-mixed` items and the 2-D n=16 solve (s=0.75, m=1, p=3).  The file
stores each item's config and flags, so these tests import nothing from
perfbench; scripts/golden_digest.py writes it.

Per item the exit code, the error class, the sweep statuses and verify's
pass map must match exactly; the level or alphas, C and m0 within REL
relative; and the first AXIS_MODES moduli |c_k| along each axis (and the
diagonal) of every solution written, which translations and sign flips
keep, within MODULI_REL of the solution's largest |c|.  Trace lengths and Newton
counts are not compared: one rounding moves them.

A change that moves an answer regenerates the file, and its CHANGES.md entry
lists every item that moved and by how much.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from fractorus import cli
from fractorus.errors import FractorusError, ParseError, ValidationError
from fractorus.grids import object_from_json

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_seed7.json"
REL = 1e-12
MODULI_REL = 1e-10
AXIS_MODES = 8


def _moduli(coeffs: np.ndarray) -> list:
    """|c_k| at k = j d, j = 0 .. AXIS_MODES - 1, for d each axis and, in
    N >= 2, the diagonal (1, ..., 1), where the 2-D solve's solution lives."""
    dirs = np.eye(coeffs.ndim, dtype=int).tolist() + ([[1] * coeffs.ndim] if coeffs.ndim > 1 else [])
    return [[float(abs(coeffs[tuple(j * np.array(d))])) for j in range(AXIS_MODES)] for d in dirs]


def run_item(config: dict, flags: dict, out: Path) -> dict:
    """The answers of `fractorus <mode>` on config: cli.main's exit code, the
    class of an error that left cli.run, and what the outputs under out hold.
    Solutions are read as (moduli, largest |c|)."""
    doc = {"exit": None, "error": None}
    try:
        doc["exit"] = cli.run(cli.parse_config(json.dumps(config)), output_dir=out, **flags)
    except (ParseError, ValidationError) as ex:
        doc["exit"], doc["error"] = cli.EXIT_CONFIG, type(ex).__name__
    except cli._SOLVER_ERRORS as ex:
        doc["exit"], doc["error"] = cli.EXIT_SOLVER, type(ex).__name__
    except FractorusError as ex:
        doc["exit"], doc["error"] = cli.EXIT_VERIFY, type(ex).__name__
    if (out / "energy.json").exists():
        doc["level"] = json.loads((out / "energy.json").read_text())["level"]
    if (out / "sweep.csv").exists():
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        doc["alphas"] = [float(r["alpha"]) for r in rows]
        doc["statuses"] = [r["status"] for r in rows]
    if (out / "sobolev.json").exists():
        doc["sobolev"] = json.loads((out / "sobolev.json").read_text())
    if (out / "verify_report.json").exists():
        doc["properties"] = {pr["name"]: pr["passed"] for pr in
                             json.loads((out / "verify_report.json").read_text())["properties"]}
    solutions = {}
    for name in ["solution.json", "limit.json"] + [f"sol_m{m:g}.json" for m in
                                                   config.get("m_list", [])]:
        if (out / name).exists():
            c = object_from_json(json.loads((out / name).read_text())).coeffs
            solutions[name] = (_moduli(c), float(np.max(np.abs(c))))
    doc["moduli"] = solutions
    return doc


def _close(got, want) -> bool:
    if not math.isfinite(want):  # nan, the alpha of a failed mass, or an overflow
        return repr(got) == repr(want)
    return abs(got - want) <= REL * abs(want)


def assert_same_answers(got: dict, want: dict):
    """got, from run_item, against want, its stored form with the moduli alone."""
    exact = ("exit", "error", "statuses", "properties")
    assert {k: got.get(k) for k in exact} == {k: want.get(k) for k in exact}
    assert ("level" in got) == ("level" in want)
    if "level" in want:
        assert _close(got["level"], want["level"]), (got["level"], want["level"])
    assert len(got.get("alphas", [])) == len(want.get("alphas", []))
    assert all(map(_close, got.get("alphas", []), want.get("alphas", []))), (
        got["alphas"], want["alphas"])
    assert got.get("sobolev", {}).keys() == want.get("sobolev", {}).keys()
    for key, value in want.get("sobolev", {}).items():
        assert _close(got["sobolev"][key], value), (key, got["sobolev"][key], value)
    assert got["moduli"].keys() == want["moduli"].keys()
    for name, (moduli, cmax) in got["moduli"].items():
        diff = np.abs(np.array(moduli) - np.array(want["moduli"][name]))
        assert np.max(diff) <= MODULI_REL * cmax, (name, moduli, want["moduli"][name])


def stored_form(doc: dict) -> dict:
    """run_item's answers as the file stores them: moduli without their
    largest |c|, which only scales the tolerance."""
    return {**doc, "moduli": {name: moduli for name, (moduli, _) in doc["moduli"].items()}}


ITEMS = json.loads(GOLDEN.read_text())["items"]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


@pytest.mark.parametrize("item", ITEMS, ids=[item["id"] for item in ITEMS])
def test_golden_item_keeps_its_answers(outputs, item):
    got = run_item(item["config"], item["flags"], outputs / item["id"].replace("/", "-"))
    assert_same_answers(got, item["answers"])

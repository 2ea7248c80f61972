"""CLI: config parsing, run modes, exit codes, artifact round-trips."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fractorus import cli
from fractorus.errors import ParseError, ValidationError
from fractorus.grids import Spectrum, TorusGrid, object_from_json, spectrum_to_json

MINIMAL = {
    "grid": {"N": 1, "T": 6.283185307179586, "n": 64},
    "frac": {"s": 0.5, "m": 1.0},
    "nonlinearity": {"kind": "pure_power", "p": 3, "mu": 4, "r0": 1},
    "solver": {},
    "mode": "solve",
    "seed": 7,
}


def _doc(**overrides):
    doc = json.loads(json.dumps(MINIMAL))
    doc.update(overrides)
    return json.dumps(doc)


def test_parse_minimal():
    cfg = cli.parse_config(_doc())
    assert cfg.grid.n == 64
    assert cfg.frac.s == 0.5
    assert cfg.nonlinearity.p == 3.0
    assert cfg.mode == "solve"


def test_parse_malformed():
    with pytest.raises(ParseError):
        cli.parse_config("{not json")


def test_parse_unknown_key():
    doc = json.loads(json.dumps(MINIMAL))
    doc["grid"]["radius"] = 3
    with pytest.raises(ValidationError) as exc:
        cli.parse_config(json.dumps(doc))
    assert "$.grid.radius" in str(exc.value)


def test_parse_supercritical_growth():
    doc = json.loads(json.dumps(MINIMAL))
    doc["nonlinearity"] = {"kind": "pure_power", "p": 5}
    doc["frac"] = {"s": 0.25, "m": 1.0}  # critical growth is 3
    with pytest.raises(ValidationError) as exc:
        cli.parse_config(json.dumps(doc))
    assert "$.nonlinearity" in str(exc.value)


def test_parse_bad_mode():
    with pytest.raises(ValidationError):
        cli.parse_config(_doc(mode="train"))


def test_parse_sweep_needs_m_list():
    with pytest.raises(ValidationError):
        cli.parse_config(_doc(mode="sweep"))
    cfg = cli.parse_config(_doc(mode="sweep", m_list=[0.5, 0.1]))
    assert cfg.m_list == [0.5, 0.1]
    with pytest.raises(ValidationError):
        cli.parse_config(_doc(mode="sweep", m_list=[0.1, 0.5]))


def test_verify_mode(tmp_path):
    cfg = cli.parse_config(_doc(mode="verify"))
    code = cli.run(cfg, output_dir=tmp_path)
    assert code == cli.EXIT_OK
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["passed"] is True
    assert report["n_properties"] >= 20
    assert all(p["passed"] for p in report["properties"])


def test_solve_mode_artifacts(tmp_path):
    cfg = cli.parse_config(_doc())
    code = cli.run(cfg, output_dir=tmp_path, solver_trace=True, dump_extension=True)
    assert code == cli.EXIT_OK
    sol = object_from_json(json.loads((tmp_path / "solution.json").read_text()))
    assert isinstance(sol, Spectrum)
    erep = json.loads((tmp_path / "energy.json").read_text())
    assert erep["status"] == "Converged"
    assert erep["residual"] < 1e-8
    assert erep["level"] > 0
    assert (tmp_path / "solver_trace.csv").exists()
    ext = json.loads((tmp_path / "extension.json").read_text())
    assert len(ext["slices"]) == len(ext["y"])


def test_trace_determinism(tmp_path):
    # identical config + seed: byte-identical solver traces
    for sub in ("a", "b"):
        cfg = cli.parse_config(_doc())
        cli.run(cfg, output_dir=tmp_path / sub, solver_trace=True)
    a = (tmp_path / "a" / "solver_trace.csv").read_bytes()
    b = (tmp_path / "b" / "solver_trace.csv").read_bytes()
    assert a == b


def test_sweep_mode(tmp_path):
    cfg = cli.parse_config(_doc(mode="sweep", m_list=[0.5, 0.1]))
    code = cli.run(cfg, output_dir=tmp_path)
    assert code == cli.EXIT_OK
    rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert rows[0] == "m,alpha,hs_norm_T,l2_norm,residual,status"
    assert len(rows) == 3
    assert (tmp_path / "limit.json").exists()
    assert (tmp_path / "sol_m0.5.json").exists()


def test_sweep_mass_above_m0_exits_config(tmp_path):
    cfg = cli.parse_config(_doc(mode="sweep", m_list=[50.0, 0.1]))
    with pytest.raises(ValidationError):
        cli.run(cfg, output_dir=tmp_path)


def test_diagnose_mode(tmp_path):
    cfg = cli.parse_config(_doc())
    cli.run(cfg, output_dir=tmp_path)
    dcfg = cli.parse_config(_doc(mode="diagnose",
                                 solution_file=str(tmp_path / "solution.json")))
    code = cli.run(dcfg, output_dir=tmp_path)
    assert code == cli.EXIT_OK
    doc = json.loads((tmp_path / "diagnose.json").read_text())
    assert len(doc["bootstrap"]) >= 3
    assert doc["holder_alpha"] is None or 0 < doc["holder_alpha"] < 1


def test_main_exit_codes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_doc(mode="verify"))
    assert cli.main(["verify", "--config", str(cfg_path), "--output", str(tmp_path)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert cli.main(["solve", "--config", str(bad)]) == cli.EXIT_CONFIG
    sweep_bad = tmp_path / "sweep_bad.json"
    sweep_bad.write_text(_doc(mode="sweep", m_list=[50.0, 0.1]))
    assert cli.main(["sweep", "--config", str(sweep_bad),
                     "--output", str(tmp_path)]) == cli.EXIT_CONFIG


def _with(path, value, **overrides):
    doc = json.loads(_doc(**overrides))
    *parents, key = path
    sec = doc
    for name in parents:
        sec = sec[name]
    sec[key] = value
    return doc


MALFORMED = [
    pytest.param("solve", _with(("grid", "N"), "x"), id="grid.N"),
    pytest.param("solve", _with(("frac", "s"), "x"), id="frac.s"),
    pytest.param("solve", _with(("nonlinearity", "p"), "x"), id="nonlinearity.p"),
    pytest.param("solve", _with(("nonlinearity",), {"kind": "modulated_power", "p": 3,
                                                    "a_values": [1.0, 2.0]}),
                 id="nonlinearity.a_values"),
    pytest.param("solve", _with(("solver", "max_iters"), "x"), id="solver.max_iters"),
    pytest.param("solve", _with(("solver", "grid_A"), "ab"), id="solver.grid_A"),
    pytest.param("solve", _with(("seed",), "x"), id="seed"),
    pytest.param("solve", _with(("seed",), -1), id="seed-negative"),
    pytest.param("sweep", _with(("m_list",), ["a"], mode="sweep"), id="m_list"),
    pytest.param("sweep", _with(("m_list",), [0.5, "nan"], mode="sweep"), id="m_list-nan"),
    pytest.param("sweep", _with(("m_list",), [0.1], mode="sweep"), id="m_list-one-mass"),
    pytest.param("solve", _with(("grid", "n"), 64.9), id="grid.n-fraction"),
    pytest.param("verify", _with(("grid", "n"), 10**40, mode="verify"), id="grid.n-huge"),
    pytest.param("solve", _with(("grid", "N"), True), id="grid.N-bool"),
    pytest.param("solve", _with(("solver", "max_iters"), 1.5), id="solver.max_iters-fraction"),
    pytest.param("solve", _with(("seed",), 1.5), id="seed-fraction"),
    pytest.param("solve", _with(("seed",), True), id="seed-bool"),
    pytest.param("solve", _with(("grid", "T"), "inf"), id="grid.T-inf"),
    pytest.param("solve", _with(("grid", "T"), 10**400), id="grid.T-overflow"),
    pytest.param("sweep", _with(("m_list",), [10**400, 0.1], mode="sweep"),
                 id="m_list-overflow"),
    pytest.param("solve", _with(("frac", "m"), "nan"), id="frac.m-nan"),
    pytest.param("solve", _with(("frac", "m"), 0.0), id="frac.m-zero-solve"),
    pytest.param("solve", _with(("nonlinearity", "r0"), "nan"), id="nonlinearity.r0-nan"),
    pytest.param("solve", _with(("solver", "ps_tol"), "nan"), id="solver.ps_tol-nan"),
    pytest.param("solve", _with(("solver", "R"), "inf"), id="solver.R-inf"),
    pytest.param("diagnose", _with(("solution_file",), 5, mode="diagnose"),
                 id="solution_file-type"),
    pytest.param("diagnose", _with(("solution_file",), "{tmp}/absent.json", mode="diagnose"),
                 id="solution_file-missing"),
    pytest.param("diagnose", _with(("solution_file",), "{tmp}", mode="diagnose"),
                 id="solution_file-directory"),
    pytest.param("diagnose", _with(("solution_file",), "{tmp}/not-json.txt", mode="diagnose"),
                 id="solution_file-not-json"),
    pytest.param("diagnose", _with(("solution_file",), "{tmp}/other-grid.json", mode="diagnose"),
                 id="solution_file-other-grid"),
    pytest.param("diagnose", _with(("solution_file",), "{tmp}/nan.json", mode="diagnose"),
                 id="solution_file-nan"),
    pytest.param("sweep", _with(("mode",), "solve"), id="sweep-on-solve-config"),
    pytest.param("solve", {k: v for k, v in _with(("mode",), "verify").items()
                           if k != "nonlinearity"}, id="solve-on-verify-config"),
]


@pytest.mark.parametrize("mode,doc", MALFORMED)
def test_main_malformed_config_exits_config(tmp_path, capsys, mode, doc):
    (tmp_path / "not-json.txt").write_text("u = cos(x)\n")
    other = Spectrum(TorusGrid(2, 2 * np.pi, 8), np.zeros((8, 8), complex))
    (tmp_path / "other-grid.json").write_text(json.dumps(spectrum_to_json(other)))
    nan = Spectrum(TorusGrid(1, 2 * np.pi, 64), np.full(64, np.nan, complex))
    (tmp_path / "nan.json").write_text(json.dumps(spectrum_to_json(nan)))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc).replace("{tmp}", str(tmp_path)))
    code = cli.main([mode, "--config", str(cfg_path), "--output", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert len(err.splitlines()) == 1 and err.startswith("config error: ")
    assert "Traceback" not in err


# Any JSON value, for keys that get a value of the wrong type.
_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)
# Values at the edges of the types: json.loads reads NaN and Infinity, and
# 10**400 is a JSON number too large for a float.
_EDGE = st.sampled_from([float("nan"), float("-inf"), 10**400, -1, 0, True, 64.5, "x"])

_CONFIG_PATHS = [("grid",), ("grid", "N"), ("grid", "T"), ("grid", "n"), ("frac",),
                 ("frac", "s"), ("frac", "m"), ("nonlinearity",), ("nonlinearity", "kind"),
                 ("nonlinearity", "p"), ("nonlinearity", "mu"), ("nonlinearity", "r0"),
                 ("nonlinearity", "a_values"), ("solver",), ("solver", "R"),
                 ("solver", "R_prime"), ("solver", "ps_tol"), ("solver", "max_iters"),
                 ("mode",), ("m_list",), ("seed",), ("solution_file",)]


@st.composite
def _config_docs(draw):
    """A valid config document, then up to four edits, each replacing a value
    by an edge value or any JSON value, deleting a key or adding an unknown one."""
    N, n = draw(st.integers(1, 3)), draw(st.sampled_from([4, 8]))
    # s in [0.3, 0.5] keeps every p < 1.5 subcritical for N <= 3
    nl = {"kind": "pure_power", "p": draw(st.floats(1.1, 1.45)), "r0": 1.0}
    if draw(st.booleans()):
        nl = {**nl, "kind": "modulated_power",
              "a_values": draw(st.lists(st.floats(0.5, 2.0), min_size=n**N, max_size=n**N))}
    doc = {
        "grid": {"N": N, "T": draw(st.floats(0.1, 10.0)), "n": n},
        "frac": {"s": draw(st.floats(0.3, 0.5)), "m": draw(st.floats(0.1, 2.0))},
        "nonlinearity": nl,
        "solver": {"R": draw(st.floats(0.0, 5.0)), "ps_tol": draw(st.floats(1e-12, 1e-4)),
                   "max_iters": draw(st.integers(1, 100))},
        "mode": draw(st.sampled_from(["verify", "solve", "sweep", "diagnose"])),
        "m_list": sorted(draw(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5,
                                       unique=True)), reverse=True),
        "seed": draw(st.integers(0, 2**40)),
        "solution_file": draw(st.text(max_size=8)),
    }
    for _ in range(draw(st.integers(0, 4))):
        *parents, key = draw(st.sampled_from(_CONFIG_PATHS))
        sec = doc
        for name in parents:
            sec = sec.get(name) if isinstance(sec, dict) else None
        if not isinstance(sec, dict):
            continue
        edit = draw(st.sampled_from(["edge", "replace", "delete", "unknown"]))
        if edit == "edge":
            sec[key] = draw(_EDGE)
        elif edit == "replace":
            sec[key] = draw(_ANY_JSON)
        elif edit == "delete":
            sec.pop(key, None)
        else:
            sec["unknown"] = draw(_ANY_JSON)
    return doc


@settings(max_examples=300, deadline=None)
@given(doc=_config_docs())
def test_parse_config_fuzz(doc):
    # a config document parses or is refused with one of the two config errors
    try:
        cfg = cli.parse_config(json.dumps(doc))
    except (ParseError, ValidationError):
        return
    assert isinstance(cfg, cli.RunConfig)


def test_output_files_roundtrip(tmp_path):
    cfg = cli.parse_config(_doc())
    cli.run(cfg, output_dir=tmp_path)
    for name in ("solution.json",):
        obj = object_from_json(json.loads((tmp_path / name).read_text()))
        assert isinstance(obj, Spectrum)
        assert np.all(np.isfinite(obj.coeffs.view(float)))

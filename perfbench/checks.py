"""One CLI invocation per item, and the independent check of its outputs.

An operation is one solve, one sweep mass row, the sweep's m = 0 limit, or one
verify property.  Each operation gets an `Op` with its failure cause: the
exception class, the solver `status`, the verify property name, or the name
of the output check it failed.  `wrong` marks an operation whose run claimed
success while a check recomputed from its output files disagrees, or that
escaped the CLI's documented error handling; any such operation makes the
run incorrect.
"""

from __future__ import annotations

import csv
import json
import shutil
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from fractorus import cli, linking
from fractorus.errors import FractorusError, ParseError, ValidationError
from fractorus.grids import FracParams, hs_norm, object_from_json

LEVEL_TOL = 1e-8
MIN_HS_NORM = 1e-3
REFERENCES = json.loads((Path(__file__).resolve().parent / "references.json").read_text())


@dataclass
class Op:
    label: str
    ok: bool
    cause: Optional[str] = None
    wrong: bool = False


@dataclass
class Outcome:
    code: int
    error: Optional[str] = None  # class name of an exception that left cli.run
    unexpected: bool = False     # not a FractorusError: cli.main would crash


def run_item(item: dict, out: Path) -> Outcome:
    """`fractorus <mode>` on the item's config, with cli.main's exit codes."""
    try:
        cfg = cli.parse_config(json.dumps(item["config"]))
        return Outcome(cli.run(cfg, output_dir=out, **item["flags"]))
    except (ParseError, ValidationError) as ex:
        return Outcome(cli.EXIT_CONFIG, type(ex).__name__)
    except cli._SOLVER_ERRORS as ex:
        return Outcome(cli.EXIT_SOLVER, type(ex).__name__)
    except FractorusError as ex:
        return Outcome(cli.EXIT_VERIFY, type(ex).__name__)
    except Exception as ex:  # cli.main would end in a traceback
        traceback.print_exc()
        return Outcome(1, type(ex).__name__, unexpected=True)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def check_item(item: dict, outcome: Outcome, out: Path) -> list:
    mode = item["config"]["mode"]
    if outcome.unexpected:
        return [Op(mode, False, outcome.error, wrong=True)]
    return _CHECKERS[mode](item, outcome, out)


def _read_json(path: Path):
    return json.loads(path.read_text()) if path.exists() else None


def _solution_checks(path: Path, frac: FracParams, spec, tol: float, norm_params=None):
    """Names of the failed checks on a stored solution (empty when it passes)."""
    doc = _read_json(path)
    if doc is None:
        return ["solution_missing"]
    u = object_from_json(doc)
    failed = []
    if not linking.residual_norm(u, frac, spec) < tol:
        failed.append("residual")
    if not hs_norm(u, norm_params or frac) > MIN_HS_NORM:
        failed.append("hs_norm")
    return failed


def _check_level(failed: list, level, reference):
    if not (level is not None and level > 0):
        failed.append("level")
    elif reference is not None and abs(level - reference) > LEVEL_TOL:
        failed.append("reference_level")


def _check_solve(item, outcome, out):
    if outcome.error is not None:
        return [Op("solve", False, outcome.error)]
    energy = _read_json(out / "energy.json") or {}
    status = energy.get("status")
    if outcome.code != cli.EXIT_OK or status != "Converged":
        return [Op("solve", False, status or f"exit_{outcome.code}",
                   wrong=outcome.code == cli.EXIT_OK)]
    cfg = cli.parse_config(json.dumps(item["config"]))
    failed = _solution_checks(out / "solution.json", cfg.frac, cfg.nonlinearity,
                              cfg.solver.ps_tol)
    ref = REFERENCES.get(item["reference"]) if item["reference"] else None
    _check_level(failed, energy.get("level"), ref["level"] if ref else None)
    return [Op("solve", not failed, ",".join(failed) or None, wrong=bool(failed))]


def _check_sweep(item, outcome, out):
    m_list = item["config"]["m_list"]
    labels = [f"m={m:g}" for m in m_list] + ["m=0"]
    table = out / "sweep.csv"
    if not table.exists():
        cause = outcome.error or f"exit_{outcome.code}"
        return [Op(lab, False, cause, wrong=outcome.error is None) for lab in labels]
    cfg = cli.parse_config(json.dumps(item["config"]))
    ref = REFERENCES.get(item["reference"]) if item["reference"] else None
    with open(table, newline="") as fh:
        rows = list(csv.DictReader(fh))
    ops = []
    for j, label in enumerate(labels[:-1]):
        row = rows[j] if j < len(rows) else None
        if row is None or row["status"] != "Converged":
            ops.append(Op(label, False, row["status"] if row else "row_missing",
                          wrong=row is None))
            continue
        m = float(row["m"])
        failed = _solution_checks(out / f"sol_m{m:g}.json", FracParams(cfg.frac.s, m),
                                  cfg.nonlinearity, cfg.solver.ps_tol)
        _check_level(failed, float(row["alpha"]), ref["alpha"][j] if ref else None)
        ops.append(Op(label, not failed, ",".join(failed) or None, wrong=bool(failed)))
    if outcome.error is not None:
        ops.append(Op("m=0", False, outcome.error))
    elif outcome.code != cli.EXIT_OK:
        ops.append(Op("m=0", False, "limit_not_run"))
    else:
        failed = _solution_checks(out / "limit.json", FracParams(cfg.frac.s, 0.0),
                                  cfg.nonlinearity, cfg.solver.ps_tol,
                                  norm_params=FracParams(cfg.frac.s, 1.0))
        ops.append(Op("m=0", not failed, ",".join(failed) or None, wrong=bool(failed)))
    return ops


def _check_verify(item, outcome, out):
    if outcome.error is not None:
        return [Op("verify", False, outcome.error)]
    report = _read_json(out / "verify_report.json")
    if report is None:
        return [Op("verify", False, "report_missing", wrong=True)]
    ops = [Op(pr["name"], bool(pr["passed"]), None if pr["passed"] else pr["name"])
           for pr in report["properties"]]
    expected = cli.EXIT_OK if all(op.ok for op in ops) else cli.EXIT_VERIFY
    if outcome.code != expected:
        ops.append(Op("verify_exit_code", False, f"exit_{outcome.code}", wrong=True))
    return ops


_CHECKERS = {"solve": _check_solve, "sweep": _check_sweep, "verify": _check_verify}

"""Run one benchmark item list through the CLI and print a digest per item.

Usage: python3 scripts/item_digest.py WORKLOAD SEED SECONDS

The items are those of `perfbench/workloads.generate` for the workload, the
seed and the item count that a `--seconds SECONDS` benchmark run uses.  Each
item runs through `perfbench/checks.run_item` into a temporary directory.
That maps the item's exceptions to cli.main's exit codes, and to exit 1 with
the exception's class where cli.main would end in a traceback.  One JSON line
is printed per item:

    {"item": i, "exit": code, "error": class name or null,
     "level": float | null,                       (solve)
     "alphas": [...], "statuses": [...],          (sweep)
     "sobolev": {"C_sharp": float, "m0": float},  (sweep)
     "properties": {name: passed},                (verify)
     "trace_rows": rows of solver_trace.csv or null,
     "newton_steps": Newton steps taken inside the item,
     "pad_calls": calls of the band sampler `pad_coeffs` inside the item,
     "pad_rows": rows those calls sampled, one per row of a batched call,
     "pad_sites": {site: pad calls}, each call charged to the innermost
                  search site on its call stack (PAD_SITES), else "other",
     "multiplier_builds": multiplier tables built inside the item (the misses
                          of the `grids.multiplier` cache),
     "theta_integrals": calls of `theta._split_pieces` inside the item, the
                        half-line integrals of a profile actually computed,
     "outputs_sha256": SHA-256 of every file the item writes, a .json file
                       by its parsed content, any other file by its bytes}

`pad_calls` counts every band sample: the dealiasing pads, the Sobolev
ascent's samples and `inverse_transform`, the pad at m = n.  The searches
combine samples they hold, so the ascent samples each start and each ascent
direction once, not each trial, and its lockstep rounds pad the starts'
directions together: one call per round.  At seed 11 and 20 s that makes
3,963 calls sampling 5,428 rows over the `sweep-1d-n256` items (571 calls
sampling 2,007 rows in the ascent, 2,721 MINRES applies) and 462 calls and
rows over the `verify-mixed` items.
`pad_sites` splits the calls by search site, so the pad census of a workload
is the sum of its items' `pad_sites`.

`theta_integrals` counts the rule evaluations of `split_energy`, two per
miss of its cache (one at each node count).  That cache, like the one
ThetaProfile per exponent, lives for the whole process, so only the first
item at an exponent s pays for theta's integral: over the seed-7
`verify-mixed` items, which use four exponents, the count is 8.

Running it in two checkouts with the same arguments and diffing the output
compares their items: exit codes, levels, alphas and the sweep's
critical-Sobolev estimate to the last digit, verify properties, trace lengths,
Newton work, sampling work, multiplier builds, the content of every JSON
output and the bytes of every other output (`solver_trace.csv` among them).
The script imports the `fractorus` source of the checkout it sits in.
"""

import csv
import hashlib
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from fractorus import grids, linking, theta  # noqa: E402
from checks import run_item  # noqa: E402
import workloads  # noqa: E402


# the search sites `pad_sites` charges a pad to; a MINRES apply runs inside
# _minres, called by _newton_step.  The one pad of the linking rectangle's
# basis [yhat, z] is the search's own, so it counts as "other"
PAD_SITES = {"_peak": "_peak", "_sphere_step": "_sphere_step",
             "refine_point": "refine_point",
             "_minres": "_minres/_newton_step", "_newton_step": "_minres/_newton_step",
             "estimate_sobolev_constant": "estimate_sobolev_constant"}


def _pad_site() -> str:
    """The PAD_SITES entry of the innermost site on the caller's stack."""
    frame = sys._getframe(1)
    while frame is not None:
        site = PAD_SITES.get(frame.f_code.co_name)
        if site:
            return site
        frame = frame.f_back
    return "other"


def _count_calls(fn, modules, rows=lambda *args: 1):
    """Replace fn in every module that binds it by name (each looks it up at
    call time) and return the list of rows(*args) per call so far."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(rows(*args))
        return fn(*args, **kwargs)

    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is fn:
                setattr(mod, attr, counted)
    return calls


def _outputs_sha256(out: Path) -> str:
    """SHA-256 over the relative path, size and data of every file under out,
    in path order.  The data of a .json file is its parsed content encoded
    again with sorted keys, so its layout does not count; that of any other
    file is its bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.suffix == ".json":
            data = json.dumps(json.loads(data), sort_keys=True).encode()
        h.update(f"{path.relative_to(out).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def _digest(out: Path, outcome) -> dict:
    doc = {"exit": outcome.code, "error": outcome.error}
    energy = out / "energy.json"
    if energy.exists():
        doc["level"] = json.loads(energy.read_text())["level"]
    sweep = out / "sweep.csv"
    if sweep.exists():
        with open(sweep, newline="") as fh:
            rows = list(csv.DictReader(fh))
        doc["alphas"] = [float(r["alpha"]) for r in rows]
        doc["statuses"] = [r["status"] for r in rows]
    sobolev = out / "sobolev.json"
    if sobolev.exists():
        doc["sobolev"] = json.loads(sobolev.read_text())
    report = out / "verify_report.json"
    if report.exists():
        doc["properties"] = {pr["name"]: pr["passed"]
                             for pr in json.loads(report.read_text())["properties"]}
    trace = out / "solver_trace.csv"
    doc["trace_rows"] = (sum(1 for _ in open(trace)) - 1) if trace.exists() else None
    return doc


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    workload, seed, seconds = args[0], int(args[1]), float(args[2])
    items = workloads.generate(workload, seed, workloads.item_count(workload, seconds))
    modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "fractorus"]
    steps = _count_calls(linking._newton_step, modules)
    pads = _count_calls(grids.pad_coeffs, modules,
                        lambda coeffs, grid, m: (coeffs.size // grid.size, _pad_site()))
    integrals = _count_calls(theta._split_pieces, modules)
    builds = grids._multiplier.cache_info
    with tempfile.TemporaryDirectory() as tmp:
        for i, item in enumerate(items):
            out = Path(tmp) / f"item{i}"
            before = len(steps), len(pads), builds().misses, len(integrals)
            doc = {"item": i, **_digest(out, run_item(item, out)),
                   "newton_steps": len(steps) - before[0], "pad_calls": len(pads) - before[1],
                   "pad_rows": sum(rows for rows, _ in pads[before[1]:]),
                   "pad_sites": dict(sorted(Counter(site for _, site in pads[before[1]:]).items())),
                   "multiplier_builds": builds().misses - before[2],
                   "theta_integrals": len(integrals) - before[3],
                   "outputs_sha256": _outputs_sha256(out)}
            print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

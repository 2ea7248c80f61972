"""Write tests/data/golden_seed7.json, the stored answers of tests/test_golden.py.

Usage: python3 scripts/golden_digest.py

The items are those of `perfbench/workloads.generate` at seed 7 with the item
counts of a `--seconds 20` benchmark run: the first 40 `solve-1d-n64` items,
the first four `sweep-1d-n256` items (the README sweep and the next three) and
the first ten `verify-mixed` items, then the 2-D n=16 solve (s=0.75, m=1,
p=3, seed 7).  Each runs through `tests/test_golden.run_item`, and the file
stores its config, its flags and its answers.  Run it only for a change that
moves answers, and list in CHANGES.md every item that moved.
"""

import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import workloads  # noqa: E402
from test_golden import GOLDEN, run_item, stored_form  # noqa: E402

SLICE = [("solve-1d-n64", 40), ("sweep-1d-n256", 4), ("verify-mixed", 10)]
SOLVE_2D_N16 = {"grid": {"N": 2, "T": 2.0 * math.pi, "n": 16}, "frac": {"s": 0.75, "m": 1.0},
                "nonlinearity": {"kind": "pure_power", "p": 3.0}, "mode": "solve", "seed": 7}


def main() -> int:
    items = []
    for workload, count in SLICE:
        made = workloads.generate(workload, 7, workloads.item_count(workload, 20.0))
        items += [{"id": f"{workload}/{i}", **item} for i, item in enumerate(made[:count])]
    items.append({"id": "solve-2d-n16/0", "config": SOLVE_2D_N16, "flags": {}})
    with tempfile.TemporaryDirectory() as tmp:
        doc = {"items": [{"id": item["id"], "config": item["config"], "flags": item["flags"],
                          "answers": stored_form(run_item(item["config"], item["flags"],
                                                          Path(tmp) / str(i)))}
                         for i, item in enumerate(items)]}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

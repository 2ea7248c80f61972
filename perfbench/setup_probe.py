"""One set-up as `run.py` measures it: a fresh process that imports, generates
the workload's inputs and runs the warm-up solve, then exits (1 if the
warm-up output fails its check)."""

import argparse
import os
import shutil
import sys

import bootstrap

if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args()
    bootstrap.cap_threads()
    bootstrap.use_checkout_source()
    import run

    work = bootstrap.OUT_DIR / "work" / f"probe-{os.getpid()}"
    try:
        _, warm = run.prepare(args.workload, args.seed, args.seconds, 0, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(0 if all(op.ok for op in warm) else 1)

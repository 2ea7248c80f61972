"""Process set-up shared by the benchmark entry points; imports no numpy.

It caps the BLAS thread pools before numpy loads and puts the checkout's
`src/` first on the import path, so the benchmark always measures the source
tree it sits in.  A directory without that source tree is refused.
"""

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads() -> int:
    """Cap every BLAS pool at nproc, whatever the environment already sets."""
    cap = nproc()
    for var in THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


def use_checkout_source():
    """Import `fractorus` from this checkout's `src/`, or exit with code 2."""
    if not (SRC / "fractorus" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no fractorus source under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))

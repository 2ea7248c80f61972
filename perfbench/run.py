"""fractorus benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload solve-1d-n64 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  `--trace 0` times the items untraced and
prints the end-to-end metrics; `--trace 1` runs every item untraced and then
traced, and prints the per-layer metrics and the tracing overhead.  Either
way every output is checked, a result file with an environment stamp is
written under `.perfbench_out/results/`, and the last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

import bootstrap

SETUP_SAMPLES = 7
PROBE_TIMEOUT_S = 120


def prepare(workload: str, seed: int, seconds: float, trace: int, work):
    """Set-up as a CLI user pays it: imports, input generation, one warm-up solve.

    Returns the items and the operations of the checked warm-up.
    """
    import checks
    import workloads

    count = workloads.item_count(workload, seconds / 2 if trace else seconds)
    items = workloads.generate(workload, seed, count)
    out = checks.fresh_dir(work / "warmup")
    warm = checks.check_item(workloads.WARMUP, checks.run_item(workloads.WARMUP, out), out)
    return items, warm


def measure_setup(args) -> float:
    """Wall time of one fresh process that only does `prepare`."""
    cmd = [sys.executable, str(bootstrap.BENCH_DIR / "setup_probe.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=bootstrap.ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=PROBE_TIMEOUT_S)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr[-500:]}")
    return dt


def probe_slots(n_items: int, n_probes: int) -> list:
    """How many set-up probes follow each item, spread evenly over the run."""
    slots = [0] * n_items
    for j in range(n_probes):
        slots[(2 * j + 1) * n_items // (2 * n_probes)] += 1
    return slots


def time_item(item, i, work, tracer=None):
    """(seconds, ops) of item i; only cli.parse_config + cli.run is timed."""
    import checks

    out = checks.fresh_dir(work / "item")
    if tracer is not None:
        tracer.current_item = i
        tracer.install()
    try:
        t0 = time.perf_counter()
        outcome = checks.run_item(item, out)
        dt = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.remove()
    return dt, checks.check_item(item, outcome, out)


def env_stamp(args, n_items: int, blas_threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = bootstrap.SRC / "fractorus"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "nproc": bootstrap.nproc(),
        "cpu_model": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "items": n_items,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    """HEAD of the checkout; None when the checkout is not a git repository.

    The ceiling keeps git from looking above the checkout for a repository.
    """
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(bootstrap.ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=bootstrap.ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def summarize_ops(records, warm) -> dict:
    ops = [op for _, item_ops in records for op in item_ops]
    failed = [op for op in ops if not op.ok]
    wrong = [op for op in ops if op.wrong] + [op for op in warm if not op.ok]
    return {
        "attempted": len(ops),
        "failed": len(failed),
        "failed_frac": len(failed) / len(ops),
        "causes": dict(Counter(op.cause for op in failed).most_common()),
        "wrong": [f"{op.label}: {op.cause}" for op in wrong],
        "correct": not wrong,
    }


def end_to_end(records, setup) -> dict:
    import numpy

    times = [dt for dt, _ in records]
    ops = [op for _, item_ops in records for op in item_ops]
    return {
        "wall_s": (sum(times), "s"),
        "item_p50_s": (statistics.median(times), "s"),
        "item_p75_s": (float(numpy.percentile(times, 75.0)), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (sum(op.ok for op in ops) / len(ops), "ratio"),
    }


def traced_run(items, work):
    """Per-layer metrics: every item runs once untraced and once traced."""
    import tracing

    tracer = tracing.Tracer()
    # One untimed pass of the first item takes the first-size costs out of
    # the comparison; the passes are then interleaved, so both see the same
    # cache state.
    time_item(items[0], -1, work)
    plain, traced = [], []
    for i, item in enumerate(items):
        # Alternate which pass goes first, so neither always gets the warmer
        # caches or one side of a drift in machine speed.
        if i % 2:
            traced.append(time_item(item, i, work, tracer))
            plain.append(time_item(item, i, work))
        else:
            plain.append(time_item(item, i, work))
            traced.append(time_item(item, i, work, tracer))
    wall_plain = sum(dt for dt, _ in plain)
    wall_traced = sum(dt for dt, _ in traced)
    metrics = tracer.metrics()
    metrics["trace_overhead_s"] = (wall_traced - wall_plain, "s")
    extra = {"untraced_wall_s": wall_plain, "traced_wall_s": wall_traced,
             "spans": len(tracer.start)}
    return metrics, plain + traced, extra, tracer


def timed_run(items, work, args):
    """End-to-end metrics: every item untraced, with the set-up probes spread
    among the items, so a drift in machine speed reaches them as it reaches
    the items."""
    setup, records = [], []
    for i, (item, probes) in enumerate(zip(items, probe_slots(len(items), SETUP_SAMPLES))):
        records.append(time_item(item, i, work))
        setup.extend(measure_setup(args) for _ in range(probes))
    metrics = end_to_end(records, setup)
    times = [dt for dt, _ in records]
    extra = {
        "setup_samples_s": setup,
        "item_times_s": times,
        "samples_beyond_p75": sum(t > metrics["item_p75_s"][0] for t in times),
        "item_causes": [[op.cause for op in ops if not op.ok] for _, ops in records],
    }
    return metrics, records, extra


def main(argv=None) -> int:
    blas_threads = bootstrap.cap_threads()
    bootstrap.use_checkout_source()
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    work = bootstrap.OUT_DIR / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = bootstrap.OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}"
    try:
        items, warm = prepare(args.workload, args.seed, args.seconds, args.trace, work)
        doc = {"env": env_stamp(args, len(items), blas_threads)}
        if args.trace:
            metrics, records, extra, tracer = traced_run(items, work)
            tracer.save(results / f"{name}-spans.npz")
            extra["spans_file"] = f"{name}-spans.npz"
        else:
            metrics, records, extra = timed_run(items, work, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    summary = summarize_ops(records, warm)
    doc.update(extra, **summary)
    doc["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (results / f"{name}-trace{args.trace}.json").write_text(json.dumps(doc, indent=1) + "\n")

    for key, (value, unit) in metrics.items():
        print(f"{key:48s} {value:.6g} {unit}")
    print(f"failed {summary['failed']}/{summary['attempted']} operations: {summary['causes']}")
    for line in summary["wrong"]:
        print(f"WRONG {line}")
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": doc["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

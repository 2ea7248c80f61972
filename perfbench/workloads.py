"""Seeded inputs of the four benchmark workloads.

Every workload is a closed loop with one caller: an item is one `fractorus`
CLI invocation (a config document plus the CLI flags), and the next item
starts when the previous one returns.  Inputs depend only on the workload
name, the seed and the item count, so one seed always gives byte-identical
inputs.  No generated instance is filtered out or re-drawn when it fails.
"""

from __future__ import annotations

import math

import numpy as np

T = 2.0 * math.pi

# Per-item time at the commit that defined the benchmark (2-core Xeon,
# OpenBLAS, Python 3.11).  A run of `--seconds S` does S / NOMINAL_ITEM_S
# items, so the amount of work is fixed by S and never by the code under
# test: a faster program shows as a shorter wall_s.
NOMINAL_ITEM_S = {
    "solve-1d-n64": 0.075,
    "solve-2d-n32": 6.0,
    "sweep-1d-n256": 0.65,
    "verify-mixed": 0.3,
}
WORKLOADS = tuple(NOMINAL_ITEM_S)

# The standard solve of scripts/solve_standard.py; every process runs it once
# as its warm-up and checks its level.
WARMUP = {
    "config": {
        "grid": {"N": 1, "T": T, "n": 64},
        "frac": {"s": 0.5, "m": 1.0},
        "nonlinearity": {"kind": "pure_power", "p": 3.0, "mu": 4.0},
        "mode": "solve",
        "seed": 1,
    },
    "flags": {"solver_trace": True},
    "reference": "standard-1d-n64",
}

# The README sweep (n=256, seed 9); the first item of every sweep run.
README_SWEEP_M = [0.5, 0.1, 0.02, 0.004]

VERIFY_GRIDS = [(1, 64, 0.25), (1, 64, 0.4), (1, 64, 0.5),
                (2, 16, 0.25), (2, 16, 0.5), (2, 16, 0.75)]


def item_count(workload: str, seconds: float) -> int:
    return max(1, int(seconds / NOMINAL_ITEM_S[workload]))


def generate(workload: str, seed: int, count: int) -> list:
    """The `count` items of one run of the workload for `seed`."""
    if workload not in NOMINAL_ITEM_S:
        raise ValueError(f"unknown workload {workload!r}")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _MAKERS[workload](rng, seed, count)


def _strata(rng, k):
    """k uniform draws in [0, 1), one in each of k equal strata, in random order.

    A Latin-hypercube draw: every parameter still covers its whole range,
    and every run gets the same even spread of values.
    """
    return (rng.permutation(k) + rng.uniform(size=k)) / k


def _balanced(rng, values, k):
    return [float(v) for v in rng.permutation(np.resize(values, k))]


def _item(config, reference=None, solver_trace=False):
    return {"config": config, "flags": {"solver_trace": solver_trace},
            "reference": reference}


def _solve_1d(rng, seed, count):
    # Covers odd-integer padding (p=3, exact), the 3/2 rule (p=2, 2.5) and,
    # one item in five, the modulated family a = 1 + cos(x + phi)/2.  Each
    # family draws its own stratified s, m and balanced p.  Every modulated
    # item is slower than almost every pure one, so with one in four the 75th
    # percentile would fall on the seam between the two families and follow
    # the fastest modulated item; with one in five it lies inside the pure
    # family.
    n = 64
    x = np.arange(n) * (T / n)
    modulated = np.arange(count) % 5 == 4
    s, m, p = np.empty(count), np.empty(count), np.empty(count)
    for family in (~modulated, modulated):
        k = int(family.sum())
        s[family] = 0.3 + 0.2 * _strata(rng, k)
        m[family] = 0.25 + 0.75 * _strata(rng, k)
        p[family] = _balanced(rng, [2.0, 2.5, 3.0], k)
    phi = T * _strata(rng, count)
    seeds = rng.integers(2**31, size=count)
    items = []
    for i in range(count):
        nl = {"kind": "pure_power", "p": float(p[i])}
        if modulated[i]:
            nl = {"kind": "modulated_power", "p": float(p[i]),
                  "a_values": [float(v) for v in 1.0 + 0.5 * np.cos(x + phi[i])]}
        config = {"grid": {"N": 1, "T": T, "n": n},
                  "frac": {"s": float(s[i]), "m": float(m[i])},
                  "nonlinearity": nl, "mode": "solve", "seed": int(seeds[i])}
        items.append(_item(config, solver_trace=True))
    return items


def _solve_2d(rng, seed, count):
    # A fixed instance (s=0.75 keeps p=3 subcritical in 2-D); only the
    # solver seed moves, and the level is checked against the reference.
    return [_item({"grid": {"N": 2, "T": T, "n": 32}, "frac": {"s": 0.75, "m": 1.0},
                   "nonlinearity": {"kind": "pure_power", "p": 3.0},
                   "mode": "solve", "seed": seed + i},
                  reference="solve-2d-n32", solver_trace=True)
            for i in range(count)]


def _sweep(rng, seed, count):
    base = {"grid": {"N": 1, "T": T, "n": 256}, "frac": {"s": 0.5, "m": 1.0},
            "nonlinearity": {"kind": "pure_power", "p": 3.0, "mu": 4.0},
            "mode": "sweep"}
    items = [_item({**base, "m_list": README_SWEEP_M, "seed": 9},
                   reference="readme-sweep")]
    k = count - 1
    starts = 0.3 + 0.3 * _strata(rng, k)
    lengths = _balanced(rng, [4, 5, 6], k)
    seeds = rng.integers(2**31, size=k)
    for start, length, sd in zip(starts, lengths, seeds):
        m_list = [float(v) for v in np.geomspace(start, 0.004, int(length))]
        items.append(_item({**base, "m_list": m_list, "seed": int(sd)}))
    return items


def _verify(rng, seed, count):
    # The grids cycle; each grid draws its own stratified m and p.
    grid_of = np.arange(count) % len(VERIFY_GRIDS)
    m, u = np.empty(count), np.empty(count)
    for g in range(len(VERIFY_GRIDS)):
        k = int((grid_of == g).sum())
        m[grid_of == g] = 0.25 + 0.75 * _strata(rng, k)
        u[grid_of == g] = _strata(rng, k)
    seeds = rng.integers(2**31, size=count)
    items = []
    for i in range(count):
        N, n, s = VERIFY_GRIDS[grid_of[i]]
        growth = 2.0 * N / (N - 2.0 * s) - 1.0 if N > 2.0 * s else math.inf
        p = 1.2 + u[i] * (min(growth, 4.0) - 0.05 - 1.2)
        config = {"grid": {"N": N, "T": T, "n": n}, "frac": {"s": s, "m": float(m[i])},
                  "nonlinearity": {"kind": "pure_power", "p": float(p)},
                  "mode": "verify", "seed": int(seeds[i])}
        items.append(_item(config))
    return items


_MAKERS = {
    "solve-1d-n64": _solve_1d,
    "solve-2d-n32": _solve_2d,
    "sweep-1d-n256": _sweep,
    "verify-mixed": _verify,
}

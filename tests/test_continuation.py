"""Mass continuation, Sobolev constant, bootstrap and Holder diagnostics."""

import dataclasses

import numpy as np
import pytest

from fractorus import continuation, linking
from fractorus.errors import (
    DomainError,
    InsufficientDecay,
    LimitCollapsed,
    NotCauchy,
)
from fractorus.grids import (
    Field,
    FracParams,
    Spectrum,
    TorusGrid,
    field_from_function,
    forward_transform,
    hs_norm,
    inverse_transform,
    lq_norm,
    multiplier,
    pad_coeffs,
    random_spectrum,
)
from fractorus.nonlinearity import Discretization, NonlinearitySpec


@pytest.fixture(scope="module")
def sweep_setup():
    grid = TorusGrid(1, 2 * np.pi, 64)
    p = FracParams(0.5, 1.0)
    spec = NonlinearitySpec(kind="pure_power", p=3.0)
    cfg = linking.LinkingConfig()
    return grid, p, spec, cfg


@pytest.fixture(scope="module")
def sweep_records(sweep_setup):
    grid, p, spec, cfg = sweep_setup
    est = continuation.estimate_sobolev_constant(grid, p)
    recs = continuation.sweep_m([0.5, 0.1, 0.02, 0.004], p, spec, cfg, grid, m0=est.m0)
    return est, recs


def test_sobolev_estimate_arithmetic(sweep_setup):
    grid, p, _, _ = sweep_setup
    est = continuation.estimate_sobolev_constant(grid, p)
    assert est.C_sharp > 0
    assert abs(est.m0 - 1.0 / (2.0 * est.C_sharp**2)) < 1e-15


def test_sobolev_single_mode_lower_bound(sweep_setup):
    # any admissible candidate gives a lower bound; cos x is one of them
    grid, p, _, _ = sweep_setup
    est = continuation.estimate_sobolev_constant(grid, p)
    u = forward_transform(field_from_function(grid, np.cos))
    den = np.sqrt(np.sum((grid.omega**2 * grid.ksq()) ** p.s * np.abs(u.coeffs) ** 2))
    probe = lq_norm(inverse_transform(u), 16.0) / den
    assert est.C_sharp >= probe - 1e-10


def test_sobolev_monotone_under_refinement():
    p = FracParams(0.5, 1.0)
    coarse = continuation.estimate_sobolev_constant(
        TorusGrid(1, 2 * np.pi, 16), p, rng=np.random.default_rng(5)
    )
    fine = continuation.estimate_sobolev_constant(
        TorusGrid(1, 2 * np.pi, 32), p, rng=np.random.default_rng(5)
    )
    assert fine.C_sharp >= coarse.C_sharp - 1e-6


def test_sobolev_ascent_evaluates_each_iterate_once(monkeypatch):
    # an accepted trial's samples and an unmoved iterate's direction are
    # reused, so no sample or transform is ever asked for the same input twice;
    # every row of a batched pad counts as one sample
    seen = {"pad": [], "forward": []}
    pad, forward = continuation.pad_coeffs, continuation.forward_transform

    def pad_once(coeffs, grid, m):
        seen["pad"] += [row.tobytes() for row in coeffs.reshape((-1,) + grid.shape)]
        return pad(coeffs, grid, m)

    def forward_once(f):
        seen["forward"].append(f.values.tobytes())
        return forward(f)

    monkeypatch.setattr(continuation, "pad_coeffs", pad_once)
    monkeypatch.setattr(continuation, "forward_transform", forward_once)
    continuation.estimate_sobolev_constant(
        TorusGrid(1, 2 * np.pi, 64), FracParams(0.5, 1.0), rng=np.random.default_rng(9)
    )
    for inputs in seen.values():
        assert inputs and len(set(inputs)) == len(inputs)


def _sequential_sobolev(grid, p, rng, trials=continuation.SOBOLEV_TRIALS):
    """The Sobolev ascent with one pad per trial: (C_sharp, m0), which the
    ascent, whose trials combine the samples of the iterate and of the
    direction, matches up to rounding."""
    q = p.critical_exponent(grid.N)
    if not np.isfinite(q):
        q = 16.0
    wts = multiplier(grid, FracParams(p.s, 0.0))

    def evaluate(c):
        with np.errstate(over="ignore", invalid="ignore"):
            u = Field(grid, pad_coeffs(c, grid, grid.n))
            num, den2 = lq_norm(u, q), np.sum(wts * np.abs(c) ** 2).real
            return u, num, den2, num / np.sqrt(den2)

    best = 0.0
    for _ in range(continuation.SOBOLEV_STARTS):
        c = random_spectrum(grid, rng, decay=0.3, zero_mean=True).coeffs.copy()
        u, num, den2, val = evaluate(c)
        step, d = 0.5, None
        for _ in range(trials):
            if d is None:
                g_num = forward_transform(
                    Field(grid, np.abs(u.values) ** (q - 1.0) * np.sign(u.values))).coeffs
                try:
                    d = g_num * (num ** (1.0 - q)) - (wts * c) / den2
                except (OverflowError, ZeroDivisionError):
                    break
            cand = c + step * d
            cand[(0,) * grid.N] = 0.0
            trial = evaluate(cand)
            if val < trial[-1] < np.inf:
                c, (u, num, den2, val), d = cand, trial, None
                step = min(step * 1.3, 2.0)
            else:
                step *= 0.5
                if step < 1e-10:
                    break
        best = max(best, val)
    return float(best), float(1.0 / (2.0 * best**2))


_ASCENT_GRIDS = {1: 32, 2: 8, 3: 4}  # n per dimension N


def _assert_matches_the_sequential_loop(grid, p, seed, trials=continuation.SOBOLEV_TRIALS):
    # pad(c + t d) and pad(c) + t pad(d) differ in the last bit
    est = continuation.estimate_sobolev_constant(grid, p, rng=np.random.default_rng(seed))
    want = _sequential_sobolev(grid, p, np.random.default_rng(seed), trials)
    assert np.allclose((est.C_sharp, est.m0), want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("T", [2 * np.pi, 1.0, 7.3], ids=["2pi", "1", "7.3"])
@pytest.mark.parametrize("N, s", [(N, s) for N in (1, 2, 3) for s in (0.25, 0.5, 0.99)
                                  if N >= 2 * s])
def test_sobolev_ascent_matches_the_sequential_loop(monkeypatch, N, s, T):
    # the starts are independent ascents; 3 of them per seed keep the 3-D cases short
    monkeypatch.setattr(continuation, "SOBOLEV_STARTS", 3)
    grid, p = TorusGrid(N, T, _ASCENT_GRIDS[N]), FracParams(s, 1.0)
    for seed in range(3):
        _assert_matches_the_sequential_loop(grid, p, seed)


@pytest.mark.parametrize("trials", [2, 4])
def test_sobolev_ascent_matches_the_sequential_loop_under_a_small_budget(monkeypatch, trials):
    monkeypatch.setattr(continuation, "SOBOLEV_TRIALS", trials)
    _assert_matches_the_sequential_loop(TorusGrid(1, 2 * np.pi, 32), FracParams(0.5, 1.0), 4,
                                        trials)


def test_sobolev_non_finite_direction_raises_at_its_first_trial(monkeypatch):
    # the samples of a direction enter every trial along it, so non-finite
    # ones raise as Field does at the first trial, before any other sample
    # or transform
    grid, p = TorusGrid(1, 2 * np.pi, 64), FracParams(0.5, 1.0)
    pad, forward = continuation.pad_coeffs, continuation.forward_transform
    calls = []

    def poisoned(coeffs, g, m):
        calls.append("pad")
        out = pad(coeffs, g, m)
        if calls.count("pad") == 3:  # the second direction of the first start
            out[5] = np.nan
        return out

    def counted(f):
        calls.append("forward")
        return forward(f)

    monkeypatch.setattr(continuation, "pad_coeffs", poisoned)
    monkeypatch.setattr(continuation, "forward_transform", counted)
    with pytest.raises(DomainError, match="field values must be finite"):
        continuation.estimate_sobolev_constant(grid, p, rng=np.random.default_rng(2))
    assert calls == ["pad", "forward", "pad", "forward", "pad"]


def test_sweep_records(sweep_records):
    est, recs = sweep_records
    assert len(recs) == 4
    assert all(r.status == "Converged" for r in recs)
    alphas = [r.alpha for r in recs]
    assert all(a > 0 for a in alphas)
    assert max(alphas) / min(alphas) < 10.0
    # uniform-bound surrogate: trace norms bounded along the branch
    norms = [r.hs_norm_T for r in recs]
    assert norms[-1] / norms[0] < 10.0
    assert all(r.residual < 1e-8 for r in recs)


def test_sweep_validations(sweep_setup):
    grid, p, spec, cfg = sweep_setup
    assert continuation.sweep_m([], p, spec, cfg, grid) == []
    with pytest.raises(DomainError):
        continuation.sweep_m([0.1, 0.5], p, spec, cfg, grid)  # not decreasing
    with pytest.raises(DomainError):
        continuation.sweep_m([0.9, 0.5], p, spec, cfg, grid, m0=0.6)  # m >= m0


def test_sweep_failed_row_keeps_message(sweep_setup):
    grid, p, spec, _ = sweep_setup
    cfg = linking.LinkingConfig(max_iters=1, ps_tol=1e-30)
    (rec,) = continuation.sweep_m([0.5], p, spec, cfg, grid)
    assert rec.solution is None
    assert rec.status == "Failed: MaxIters at m=0.5"


def test_sweep_trivial_warm_point_fails_its_mass(sweep_setup, monkeypatch):
    # a first point scaled by 1e-10 is already below the polish tolerance at the
    # next mass, and its level lies below that mass's certified ridge level; the
    # replaced state reads its level and residual from that point
    grid, p, spec, cfg = sweep_setup
    search = linking.minimax_search

    def tiny(*args):
        st = search(*args)
        return dataclasses.replace(st, point=st.point.disc.at(1e-10 * st.point.U))

    monkeypatch.setattr(linking, "minimax_search", tiny)
    recs = continuation.sweep_m([0.5, 0.1], p, spec, cfg, grid)
    assert recs[1].solution is None
    assert recs[1].status == "Failed: NoNontrivialSolution at m=0.1"


def test_sweep_and_limit_compute_each_ridge_once(sweep_setup, monkeypatch):
    # the search, the three warm-started masses and the m = 0 limit each
    # read the certified ridge of their own Discretization, computed once
    grid, p, spec, cfg = sweep_setup
    ridge, seen = Discretization.ridge, []
    compute = ridge.fn

    def counted(disc):
        seen.append(disc)
        return compute(disc)

    monkeypatch.setattr(ridge, "fn", counted)
    recs = continuation.sweep_m([0.5, 0.1, 0.02, 0.004], p, spec, cfg, grid)
    assert [r.status for r in recs] == ["Converged"] * 4
    continuation.extract_limit(recs, p, spec, tol=cfg.ps_tol)
    assert len(seen) == len({id(d) for d in seen}) == 5
    assert [d.params.m for d in seen] == [0.5, 0.1, 0.02, 0.004, 0.0]


@pytest.mark.parametrize("lam", [1e-14, 1e-30])
def test_sweep_and_limit_are_covariant_under_scaling(sweep_setup, sweep_records, lam):
    # the sweep on period T/lam at the masses lam m: with s = 1/2, p = 3 and
    # N = 1 its alphas scale by lam^{4s/(p-1)+2s-N} = lam, and its dual
    # residuals, so ps_tol here, by lam^{2s/(p-1)+s-N/2} = lam^{1/2}
    grid, p, spec, _ = sweep_setup
    _, base = sweep_records
    cfg = linking.LinkingConfig(ps_tol=1e-8 * lam**0.5)
    p_lam = FracParams(p.s, lam * p.m)
    recs = continuation.sweep_m([lam * r.m for r in base], p_lam, spec, cfg,
                                TorusGrid(1, grid.T / lam, grid.n))
    assert [r.status for r in recs] == ["Converged"] * 4
    for r, b in zip(recs, base):
        assert abs(r.alpha - lam * b.alpha) <= 1e-12 * lam * b.alpha
    continuation.extract_limit(recs, p_lam, spec, tol=cfg.ps_tol)


def test_sweep_propagates_programming_errors(sweep_setup, monkeypatch):
    grid, p, spec, cfg = sweep_setup

    def broken(*args, **kwargs):
        raise RuntimeError("bug")

    monkeypatch.setattr(linking, "minimax_search", broken)
    with pytest.raises(RuntimeError, match="bug"):
        continuation.sweep_m([0.5], p, spec, cfg, grid)


def test_extract_limit(sweep_setup, sweep_records):
    grid, p, spec, cfg = sweep_setup
    _, recs = sweep_records
    u = continuation.extract_limit(recs, p, spec, tol=1e-8)
    p0 = FracParams(0.5, 0.0)
    assert linking.residual_norm(u, p0, spec) < 1e-8
    assert hs_norm(u, p) > 1e-6
    assert u.mean_coeff == 0.0
    lam_hat = min(r.alpha for r in recs)
    assert continuation.nonlinear_action(spec, u) >= 2.0 * lam_hat - 1e-8


def test_extract_limit_growing_increments_are_not_cauchy(sweep_setup, sweep_records):
    grid, p, spec, _ = sweep_setup
    _, recs = sweep_records
    far = Spectrum(grid, 1e3 * recs[-1].solution.coeffs)
    with pytest.raises(NotCauchy):
        continuation.extract_limit(recs[:-1] + [dataclasses.replace(recs[-1], solution=far)],
                                   p, spec)


def test_extract_limit_a_twentyfold_increment_is_not_cauchy(sweep_setup, sweep_records):
    # the last increment stretched to 20 times the largest earlier one: above
    # the factor 10 that the branch's Cauchy check allows
    grid, p, spec, _ = sweep_setup
    _, recs = sweep_records
    pm1 = FracParams(0.5, 1.0)
    sols = [r.solution.coeffs for r in recs]
    top = max(hs_norm(Spectrum(grid, a - b), pm1) for a, b in zip(sols[:-2], sols[1:-1]))
    step = sols[-1] - sols[-2]
    far = Spectrum(grid, sols[-2] + 20.0 * top / hs_norm(Spectrum(grid, step), pm1) * step)
    with pytest.raises(NotCauchy):
        continuation.extract_limit(recs[:-1] + [dataclasses.replace(recs[-1], solution=far)],
                                   p, spec)


def test_extract_limit_inactive_limit_collapses(sweep_setup, sweep_records):
    # branch levels 1e3 times too high: the nontrivial limit's action
    # int f(u) u dx falls short of twice the smallest of them
    grid, p, spec, _ = sweep_setup
    _, recs = sweep_records
    high = [dataclasses.replace(r, alpha=1e3 * r.alpha) for r in recs]
    with pytest.raises(LimitCollapsed, match="superquadratic activity bound"):
        continuation.extract_limit(high, p, spec, tol=1e-8)


def test_extract_limit_needs_two_records(sweep_setup, sweep_records):
    grid, p, spec, cfg = sweep_setup
    _, recs = sweep_records
    with pytest.raises(DomainError):
        continuation.extract_limit(recs[:1], p, spec)


def test_bootstrap_closed_forms(sweep_setup):
    grid, p, _, _ = sweep_setup
    u = forward_transform(field_from_function(grid, np.cos))
    table = dict(continuation.bootstrap_diagnostic(inverse_transform(u), [2.0, 4.0]))
    assert abs(table[2.0] - np.sqrt(np.pi)) < 1e-12
    assert abs(table[4.0] - (3 * np.pi / 4) ** 0.25) < 1e-12
    zero = inverse_transform(Spectrum(grid, np.zeros(grid.shape, complex)))
    assert all(v == 0.0 for _, v in continuation.bootstrap_diagnostic(zero, [2.0, 8.0]))
    with pytest.raises(DomainError, match=">= 2"):
        continuation.bootstrap_diagnostic(zero, [1.5, 2.0])


def test_ladder_arithmetic():
    # N=1, s=0.25: ratio 1/(1-0.5) = 2, so q_k = 2^{k+1}
    assert continuation.ladder_exponents(1, 0.25) == [2.0, 4.0, 8.0, 16.0]
    with pytest.raises(DomainError):
        continuation.ladder_exponents(1, 0.5)


def test_holder_proxy_smooth_field(sweep_setup):
    grid, _, _, _ = sweep_setup
    u = forward_transform(field_from_function(grid, np.cos))
    # an analytic field saturates the cap
    assert continuation.holder_proxy(u, inverse_transform(u)) > 0.9


def test_holder_proxy_rough_field():
    # synthetic field with |c_k| ~ |k|^{-1}: modulus exponent near 1/2
    g = TorusGrid(1, 2 * np.pi, 256)
    rng = np.random.default_rng(7)
    k = g.axis_wavenumbers().astype(float)
    c = np.zeros(g.shape, complex)
    kk = np.arange(1, g.n // 4)
    phases = np.exp(2j * np.pi * rng.random(kk.size))
    c[kk] = phases / kk
    c[-kk] = np.conj(c[kk])
    u = Spectrum(g, c)
    alpha = continuation.holder_proxy(u, inverse_transform(u))
    assert abs(alpha - 0.5) < 0.25


def test_holder_proxy_insufficient_decay():
    g = TorusGrid(1, 2 * np.pi, 32)
    c = np.zeros(g.shape, complex)
    c[g.n // 2 - 1] = 1.0  # near-Nyquist saturation
    c[-(g.n // 2 - 1)] = 1.0
    u = Spectrum(g, c)
    with pytest.raises(InsufficientDecay):
        continuation.holder_proxy(u, inverse_transform(u))


def test_holder_proxy_refuses_a_fifteen_percent_top_band():
    # 15 % of the energy at |k| = 15 > n/4, the rest at |k| = 1: above the 10 % allowed
    g = TorusGrid(1, 2 * np.pi, 32)
    c = np.zeros(g.shape, complex)
    c[1] = c[-1] = np.sqrt(0.85)
    c[g.n // 2 - 1] = c[-(g.n // 2 - 1)] = np.sqrt(0.15)
    u = Spectrum(g, c)
    with pytest.raises(InsufficientDecay, match="0.15"):
        continuation.holder_proxy(u, inverse_transform(u))


def test_holder_proxy_of_a_zero_field_raises():
    g = TorusGrid(1, 2 * np.pi, 32)
    zero = Spectrum(g, np.zeros(g.shape, complex))
    with pytest.raises(DomainError, match="nontrivial field"):
        continuation.holder_proxy(zero, inverse_transform(zero))


def test_extract_limit_degenerate_probe_collapses(sweep_setup, sweep_records):
    # records whose solutions are scaled to near-zero collapse under m = 0 polish
    grid, p, spec, cfg = sweep_setup
    _, recs = sweep_records
    tiny = [
        continuation.ContinuationRecord(
            m=r.m, alpha=r.alpha, hs_norm_T=r.hs_norm_T, l2_norm=r.l2_norm,
            residual=r.residual, status=r.status,
            solution=Spectrum(grid, 1e-10 * r.solution.coeffs),
        )
        for r in recs
    ]
    with pytest.raises(LimitCollapsed, match="collapsed to the trivial solution"):
        continuation.extract_limit(tiny, p, spec, tol=1e-8)

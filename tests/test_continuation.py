"""Mass continuation, Sobolev constant, bootstrap and Holder diagnostics."""

import numpy as np
import pytest

from fractorus import continuation, linking
from fractorus.errors import DomainError, InsufficientDecay, LimitCollapsed
from fractorus.grids import (
    FracParams,
    Spectrum,
    TorusGrid,
    field_from_function,
    forward_transform,
    hs_norm,
    random_spectrum,
)
from fractorus.nonlinearity import NonlinearitySpec


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
    est = continuation.estimate_sobolev_constant(grid, p, n_starts=3, iters=60)
    assert est.C_sharp > 0
    assert abs(est.m0 - 1.0 / (2.0 * est.C_sharp**2)) < 1e-15


def test_sobolev_single_mode_lower_bound(sweep_setup):
    # any admissible candidate gives a lower bound; cos x is one of them
    grid, p, _, _ = sweep_setup
    est = continuation.estimate_sobolev_constant(grid, p, n_starts=3, iters=60)
    u = forward_transform(field_from_function(grid, np.cos))
    from fractorus.grids import inverse_transform, lq_norm

    den = np.sqrt(np.sum((grid.omega**2 * grid.ksq()) ** p.s * np.abs(u.coeffs) ** 2))
    probe = lq_norm(inverse_transform(u), 16.0) / den
    assert est.C_sharp >= probe - 1e-10


def test_sobolev_monotone_under_refinement():
    p = FracParams(0.5, 1.0)
    coarse = continuation.estimate_sobolev_constant(
        TorusGrid(1, 2 * np.pi, 16), p, n_starts=4, iters=120, rng=np.random.default_rng(5)
    )
    fine = continuation.estimate_sobolev_constant(
        TorusGrid(1, 2 * np.pi, 32), p, n_starts=4, iters=120, rng=np.random.default_rng(5)
    )
    assert fine.C_sharp >= coarse.C_sharp - 1e-6


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
    (rec,) = continuation.sweep_m([0.5], p, spec, linking.LinkingConfig(max_iters=1), grid)
    assert rec.solution is None
    assert rec.status == "Failed: DomainError: solver status MaxIters at m=0.5"


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


def test_extract_limit_needs_two_records(sweep_setup, sweep_records):
    grid, p, spec, cfg = sweep_setup
    _, recs = sweep_records
    with pytest.raises(DomainError):
        continuation.extract_limit(recs[:1], p, spec)


def test_bootstrap_closed_forms(sweep_setup):
    grid, p, _, _ = sweep_setup
    u = forward_transform(field_from_function(grid, np.cos))
    table = dict(continuation.bootstrap_diagnostic(u, [2.0, 4.0]))
    assert abs(table[2.0] - np.sqrt(np.pi)) < 1e-12
    assert abs(table[4.0] - (3 * np.pi / 4) ** 0.25) < 1e-12
    zero = Spectrum(grid, np.zeros(grid.shape, complex))
    assert all(v == 0.0 for _, v in continuation.bootstrap_diagnostic(zero, [2.0, 8.0]))


def test_ladder_arithmetic():
    # N=1, s=0.25: ratio 1/(1-0.5) = 2, so q_k = 2^{k+1}
    assert continuation.ladder_exponents(1, 0.25, count=4) == [2.0, 4.0, 8.0, 16.0]
    with pytest.raises(DomainError):
        continuation.ladder_exponents(1, 0.5)


def test_holder_proxy_smooth_field(sweep_setup):
    grid, _, _, _ = sweep_setup
    u = forward_transform(field_from_function(grid, np.cos))
    assert continuation.holder_proxy(u) > 0.9  # analytic field saturates the cap


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
    alpha = continuation.holder_proxy(u)
    assert abs(alpha - 0.5) < 0.25


def test_holder_proxy_insufficient_decay():
    g = TorusGrid(1, 2 * np.pi, 32)
    c = np.zeros(g.shape, complex)
    c[g.n // 2 - 1] = 1.0  # near-Nyquist saturation
    c[-(g.n // 2 - 1)] = 1.0
    with pytest.raises(InsufficientDecay):
        continuation.holder_proxy(Spectrum(g, c))


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
    with pytest.raises(LimitCollapsed):
        continuation.extract_limit(tiny, p, spec, tol=1e-8)

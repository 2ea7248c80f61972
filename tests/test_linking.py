"""Minimax solver: linking geometry, deformation flow, Newton polish."""

import numpy as np
import pytest

from fractorus import energy, linking
from fractorus.errors import BoundaryNotNegative, DomainError, NoPositiveRidge
from fractorus.grids import (
    FracParams,
    Spectrum,
    TorusGrid,
    field_from_function,
    forward_transform,
    hs_norm,
    multiplier,
    random_spectrum,
)
from fractorus.nonlinearity import NonlinearitySpec


def _hs_dist(a, b, p):
    m = multiplier(a.grid, p)
    return float(np.sqrt(np.sum(m * np.abs(a.coeffs - b.coeffs) ** 2)))


def test_pick_z_direction(grid64, params_half):
    z = linking.pick_z_direction(grid64, params_half)
    assert abs(hs_norm(z, params_half) - 1.0) < 1e-12
    assert z.mean_coeff == 0.0
    # single sine mode in 1-D: only |k| = 1 carries mass
    nz = np.nonzero(np.abs(z.coeffs) > 1e-12)[0]
    assert set(nz.tolist()) == {1, grid64.n - 1}


def test_ridge_quadratic_probe(grid64, params_half):
    # f = 0: min over unit directions of (1/2)|r d|^2-ish is (1/2) C_gap r^2,
    # exact because the axis mode attains the coercivity floor
    eta, rho = linking.ridge_estimate(grid64, params_half, None)
    cg = energy.coercivity_constant(grid64, params_half)
    assert abs(rho - 0.5 * cg * eta**2) < 1e-10 * rho


def test_ridge_positive_standard(grid64, params_half, cubic):
    eta, rho = linking.ridge_estimate(grid64, params_half, cubic)
    assert eta > 0 and rho > 0


def test_ridge_bad_radii(grid64, params_half, cubic):
    with pytest.raises(DomainError):
        linking.ridge_estimate(grid64, params_half, cubic, probe_radii=[2.0, 1.0])


def test_minimax_standard_config(grid64, params_half, cubic):
    cfg = linking.LinkingConfig()
    st = linking.minimax_search(grid64, params_half, cubic, cfg,
                                rng=np.random.default_rng(1))
    assert st.status == "Converged"
    assert st.grad_norm < cfg.ps_tol
    assert st.level > 0
    assert hs_norm(st.iterate, params_half) > 1e-3
    levels = [h[0] for h in st.history]
    assert all(b <= a + 1e-12 for a, b in zip(levels, levels[1:]))
    # level sits inside the sampled bracket
    _, rho = linking.ridge_estimate(grid64, params_half, cubic)
    assert rho - 1e-6 <= st.level <= st.delta_hat + 1e-12


def test_minimax_boundary_pinned(grid64, params_half, cubic):
    cfg = linking.LinkingConfig()
    st = linking.minimax_search(grid64, params_half, cubic, cfg,
                                rng=np.random.default_rng(1))
    # reconstruct the initial surface from the reported caps; boundary must
    # be bitwise untouched
    yhat = linking._unit_constant(grid64, params_half)
    z = linking.pick_z_direction(grid64, params_half)
    nc, nr = cfg.grid_A
    cs = np.linspace(-st.R_prime, st.R_prime, nc)
    rs = np.linspace(0.0, st.R, nr)
    U0 = linking._surface(cs, rs, yhat, z)
    assert np.array_equal(st.surface[st.frozen], U0[st.frozen])
    assert st.frozen.sum() == 2 * nc + 2 * nr - 4


def test_minimax_degenerate_probe_collapses(grid64, params_half):
    st = linking.minimax_search(grid64, params_half, None,
                                linking.LinkingConfig(max_iters=500))
    assert st.status == "NoNontrivialSolution"
    assert st.iterate.l2_norm() == 0.0


def test_minimax_fixed_caps_too_small(grid64, params_half, cubic):
    cfg = linking.LinkingConfig(R=0.05, R_prime=0.05)
    with pytest.raises(BoundaryNotNegative):
        linking.minimax_search(grid64, params_half, cubic, cfg,
                               rng=np.random.default_rng(1))


def test_odd_symmetry_level(grid64, params_half, cubic):
    st = linking.minimax_search(grid64, params_half, cubic, linking.LinkingConfig(),
                                rng=np.random.default_rng(1))
    u = st.iterate
    minus = Spectrum(grid64, -u.coeffs)
    lev_u = energy.evaluate(u, params_half, cubic).value
    lev_m = energy.evaluate(minus, params_half, cubic).value
    assert abs(lev_u - lev_m) < 1e-10


def test_newton_fixed_point(grid64, params_half, cubic):
    st = linking.minimax_search(grid64, params_half, cubic, linking.LinkingConfig(),
                                rng=np.random.default_rng(1))
    again = linking.newton_refine(st.iterate, params_half, cubic, tol=1e-10)
    assert _hs_dist(again, st.iterate, params_half) < 1e-6


def test_newton_zero_start_is_trivial(grid64, params_half, cubic):
    zero = Spectrum(grid64, np.zeros(grid64.shape, complex))
    out = linking.newton_refine(zero, params_half, cubic, tol=1e-10)
    assert out.l2_norm() == 0.0  # caller must reject via nontriviality check


def test_newton_converges_from_cosine(grid64, params_half, cubic):
    u0 = forward_transform(field_from_function(grid64, np.cos))
    u = linking.newton_refine(u0, params_half, cubic, tol=1e-11)
    assert linking.residual_norm(u, params_half, cubic) < 1e-10
    assert hs_norm(u, params_half) > 1e-3


def test_residual_norm_cases(grid64, params_half, cubic):
    zero = Spectrum(grid64, np.zeros(grid64.shape, complex))
    assert linking.residual_norm(zero, params_half, cubic) == 0.0
    # linear probe: residual of the pure quadratic functional at any u is the
    # weighted shifted-multiplier action; check the dual weighting explicitly
    u = forward_transform(field_from_function(grid64, np.cos))
    r = linking.residual_norm(u, params_half, None)
    ms = multiplier(grid64, params_half, shifted=True)
    mm = multiplier(grid64, params_half)
    want = np.sqrt(np.sum(ms**2 / mm * np.abs(u.coeffs) ** 2))
    assert abs(r - want) < 1e-12


def test_align_spectra(grid64, params_half, rng):
    u = random_spectrum(grid64, rng, decay=0.8, zero_mean=True)
    k = grid64.axis_wavenumbers().astype(float)
    tau = 1.2345
    shifted = Spectrum(grid64, -u.coeffs * np.exp(1j * grid64.omega * k * tau))
    back = linking.align_spectra(u, shifted, params_half)
    assert _hs_dist(back, u, params_half) < 1e-8


def test_linking_config_validation():
    with pytest.raises(DomainError):
        linking.LinkingConfig(grid_A=(2, 5))
    with pytest.raises(DomainError):
        linking.LinkingConfig(descent_step=-1.0)
    with pytest.raises(DomainError):
        linking.LinkingConfig(R=-1.0)


def test_minimax_requires_mass(grid64, cubic):
    p0 = FracParams(0.5, 0.0)
    with pytest.raises(DomainError):
        linking.minimax_search(grid64, p0, cubic, linking.LinkingConfig())

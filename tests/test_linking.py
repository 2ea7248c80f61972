"""Minimax solver: linking geometry, deformation flow, Newton polish."""

import numpy as np
import pytest

from fractorus import energy, linking
from fractorus.errors import BoundaryNotNegative, DomainError, NoPositiveRidge
from fractorus.grids import (
    Field,
    FracParams,
    Spectrum,
    TorusGrid,
    fft_coeffs,
    field_from_function,
    forward_transform,
    hs_norm,
    ifft_values,
    multiplier,
    random_spectrum,
)
from fractorus.nonlinearity import (
    Discretization,
    NonlinearitySpec,
    irfft_samples,
    rfft_samples,
)


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


def test_minimax_boundary_nonpositive(grid64, params_half, cubic):
    cfg = linking.LinkingConfig()
    st = linking.minimax_search(grid64, params_half, cubic, cfg,
                                rng=np.random.default_rng(1))
    # resample the linking rectangle on the reported caps: its boundary is
    # nonpositive and its maximum is the reported delta_hat
    yhat = linking._unit_constant(grid64, params_half)
    z = linking.pick_z_direction(grid64, params_half)
    nc, nr = linking.GRID_A
    cs = np.linspace(-st.R_prime, st.R_prime, nc)
    rs = np.linspace(0.0, st.R, nr)
    U = cs[:, None, None] * yhat.coeffs + rs[None, :, None] * z.coeffs
    lv = Discretization(grid64, params_half, cubic).levels(U)
    boundary = np.concatenate([lv[0], lv[-1], lv[:, 0], lv[:, -1]])
    assert np.max(boundary) <= 0.0
    assert np.max(lv) == st.delta_hat


# Two modulated items of the solve-1d-n64 benchmark workload (seed 1, items
# 44 and 204): n = 64, T = 2 pi, a = 1 + cos(x + phi)/2, solver seed as given.
# The first ended in NoNontrivialSolution under the pointwise surface descent,
# the second in NoPositiveRidge.
NO_SOLUTION_ITEM = dict(s=0.38851616720454096, m=0.7682371184978705, p=2.0,
                        phi=3.866433675361602, seed=1156760689)
NO_RIDGE_ITEM = dict(s=0.30080986761586437, m=0.3549532513198762, p=2.5,
                     phi=2.790078220681327, seed=1529971783)


def _modulated_item(item):
    g = TorusGrid(1, 2 * np.pi, 64)
    x = np.arange(64) * (2 * np.pi / 64)
    a = Field(g, 1.0 + 0.5 * np.cos(x + item["phi"]))
    spec = NonlinearitySpec(kind="modulated_power", p=item["p"], a=a)
    return g, FracParams(item["s"], item["m"]), spec, np.random.default_rng(item["seed"])


@pytest.fixture(scope="module")
def minimax_cases():
    g = TorusGrid(1, 2 * np.pi, 64)
    p = FracParams(0.5, 1.0)
    spec = NonlinearitySpec(kind="pure_power", p=3.0)
    cases = {"standard": (g, p, spec, np.random.default_rng(1)),
             "modulated": _modulated_item(NO_SOLUTION_ITEM)}
    out = {}
    for name, (g, p, spec, rng) in cases.items():
        st = linking.minimax_search(g, p, spec, linking.LinkingConfig(), rng=rng)
        out[name] = (g, p, spec, st)
    return out


def test_minimax_converges_on_modulated_item(minimax_cases):
    g, p, spec, st = minimax_cases["modulated"]
    cfg = linking.LinkingConfig()
    assert st.status == "Converged"
    assert linking.residual_norm(st.iterate, p, spec) < cfg.ps_tol
    disc = Discretization(g, p, spec)
    _, rho = linking._ridge_estimate(disc, rng=np.random.default_rng(NO_SOLUTION_ITEM["seed"]))
    assert rho <= st.level <= st.delta_hat
    levels = [h[0] for h in st.history]
    assert len(levels) > 2  # the descent did work before the polish was accepted
    assert all(b <= a + 1e-12 for a, b in zip(levels, levels[1:]))


def test_ridge_rechoice_finds_positive_ridge():
    g, p, spec, rng = _modulated_item(NO_RIDGE_ITEM)
    eta, rho = linking._ridge_estimate(Discretization(g, p, spec), rng=rng)
    assert eta > 0 and rho > 0


@pytest.mark.parametrize("case", ["standard", "modulated"])
def test_minimax_returns_a_peak(minimax_cases, case):
    g, p, spec, st = minimax_cases[case]
    disc = Discretization(g, p, spec)
    yhat = linking._unit_constant(g, p).coeffs
    u = st.iterate.coeffs
    # the last trace row is the peak (c, r) of the returned iterate
    c, r = st.trace[-1][3:]
    v = (u - c * yhat) / r
    assert v[0] == pytest.approx(0.0, abs=1e-15)
    assert float(disc.hs_norms(v)) == pytest.approx(1.0, rel=1e-12)

    def level(dc, dr):
        return float(disc.levels((c + dc) * yhat + (r + dr) * v))

    W = np.stack([yhat, v])
    g2 = np.real(np.sum(np.conj(W) * disc.grad(u), axis=-1))
    assert np.max(np.abs(g2)) < 1e-9
    h = 1e-3
    H = np.empty((2, 2))
    H[0, 0] = (level(h, 0) - 2 * level(0, 0) + level(-h, 0)) / h**2
    H[1, 1] = (level(0, h) - 2 * level(0, 0) + level(0, -h)) / h**2
    H[0, 1] = H[1, 0] = (level(h, h) - level(h, -h) - level(-h, h) + level(-h, -h)) / (4 * h**2)
    assert np.max(np.linalg.eigvalsh(H)) < 0.0


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
        linking.LinkingConfig(R=-1.0)


def test_minimax_requires_mass(grid64, cubic):
    p0 = FracParams(0.5, 0.0)
    with pytest.raises(DomainError):
        linking.minimax_search(grid64, p0, cubic, linking.LinkingConfig())


# ---------------------------------------------------------------------------
# the matrix-free Newton step

def _newton_case(N, n, kind):
    g = TorusGrid(N, 2 * np.pi, n)
    if kind == "pure":
        spec = NonlinearitySpec(kind="pure_power", p=3.0)
    else:
        a = field_from_function(g, lambda *xs: 1.0 + 0.5 * np.cos(xs[0] + 0.3))
        spec = NonlinearitySpec(kind="modulated_power", p=2.5, a=a)
    disc = Discretization(g, FracParams(0.5, 1.0), spec)
    u = random_spectrum(g, np.random.default_rng(0), decay=0.3)
    return g, disc, u


def _dense_jacobian(g, disc, u):
    """J on real grid samples, one identity column at a time."""
    M = g.size
    C = fft_coeffs(g, np.eye(M).reshape((M,) + g.shape))
    cols = ifft_values(g, disc.shifted * C - disc.jacobian_apply(u.coeffs, C))
    return cols.reshape(M, M).T


@pytest.mark.parametrize("N,n", [(1, 64), (2, 16)])
@pytest.mark.parametrize("kind", ["pure", "modulated"])
def test_linearization_matches_jacobian_apply(N, n, kind):
    g, disc, u = _newton_case(N, n, kind)
    w = np.random.default_rng(1).standard_normal((3,) + g.shape)
    W = fft_coeffs(g, w)
    want = ifft_values(g, disc.shifted * W - disc.jacobian_apply(u.coeffs, W))
    got = irfft_samples(disc.linearization(u.coeffs)(rfft_samples(w, N)), g.shape)
    # w has content on every Nyquist plane
    ny = (Ellipsis,) + (n // 2,) * N
    assert np.min(np.abs(W[ny])) > 1e-3
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("N,n", [(1, 16), (2, 8)])
@pytest.mark.parametrize("kind", ["pure", "modulated"])
def test_newton_step_meets_forcing_term(N, n, kind):
    g, disc, u = _newton_case(N, n, kind)
    R = Spectrum(g, disc.grad(u.coeffs))
    step = linking._newton_step(disc, u, R, R.l2_norm())
    s = ifft_values(g, step.coeffs).ravel()
    r = ifft_values(g, R.coeffs).ravel()
    J = _dense_jacobian(g, disc, u)
    eta = min(linking.FORCING_MAX, R.l2_norm())
    assert np.linalg.norm(J @ s + r) <= eta * np.linalg.norm(r)

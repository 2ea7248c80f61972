"""Minimax solver: linking geometry, deformation flow, Newton polish."""

import numpy as np
import pytest

from fractorus import energy, linking, nonlinearity
from fractorus.errors import BoundaryNotNegative, DivergedRefinement, DomainError
from fractorus.grids import (
    Field,
    FracParams,
    Spectrum,
    TorusGrid,
    field_from_function,
    forward_transform,
    hs_norm,
    multiplier,
    random_spectrum,
)
from fractorus.nonlinearity import Discretization, NonlinearitySpec
from test_discretization import _hermitian_basis


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


def test_ridge_positive_standard(grid64, params_half, cubic):
    eta, rho = linking.ridge_estimate(grid64, params_half, cubic)
    assert eta > 0 and rho > 0


def _ridge_by_radius(grid, p, spec):
    """ridge_estimate with the directions padded at each radius: the reference."""
    disc = Discretization(grid, p, spec)
    radii = np.geomspace(1e-2, 4.0, 40)
    rng = np.random.default_rng(0)
    dirs = [linking._axis_mode(grid, p), linking.pick_z_direction(grid, p)]
    for _ in range(linking.RIDGE_DIRS):
        d = random_spectrum(grid, rng, decay=0.5, zero_mean=True)
        dirs.append(Spectrum(grid, d.coeffs / disc.hs_norms(d.coeffs)))
    D = np.stack([d.coeffs for d in dirs])
    lv = np.stack([disc.at(r * D).level for r in radii])
    i = int(np.argmax(np.min(lv, axis=1)))
    j = int(np.argmin(lv[i]))
    eta, pt, step = float(radii[i]), disc.at(radii[i] * D[j]), 0.25
    for _ in range(200):
        moved = linking._sphere_step(pt, pt, eta, 1.0, step, lambda w: (w,))
        if moved is None:
            break
        step, pt, _ = moved
    return eta, float(pt.level)


@pytest.mark.parametrize("N,n,spec", [(1, 64, "cubic"), (2, 32, "cubic")])
def test_ridge_estimate_pads_its_directions_once(monkeypatch, request, N, n, spec, params_half):
    grid, spec = TorusGrid(N, 2 * np.pi, n), request.getfixturevalue(spec)
    eta_ref, rho_ref = _ridge_by_radius(grid, params_half, spec)
    shapes, pad = [], nonlinearity.pad_coeffs

    def recorded(coeffs, grid, m):
        shapes.append(coeffs.shape)
        return pad(coeffs, grid, m)

    monkeypatch.setattr(nonlinearity, "pad_coeffs", recorded)
    eta, rho = linking.ridge_estimate(grid, params_half, spec)
    assert abs(eta - eta_ref) <= 1e-12 * eta_ref
    assert abs(rho - rho_ref) <= 1e-12 * abs(rho_ref)
    # the 18 directions are sampled in one pad, not once per radius
    batches = [s for s in shapes if len(s) > N]
    assert batches == [(linking.RIDGE_DIRS + 2,) + grid.shape]


def test_minimax_standard_config(grid64, params_half, cubic):
    cfg = linking.LinkingConfig()
    st = linking.minimax_search(grid64, params_half, cubic, cfg)
    assert st.status == "Converged"
    assert st.grad_norm < cfg.ps_tol
    assert st.level > 0
    assert hs_norm(st.iterate, params_half) > 1e-3
    levels = [h[0] for h in st.history]
    assert all(b <= a + 1e-12 for a, b in zip(levels, levels[1:]))
    # level sits inside the sampled bracket
    _, rho = linking.ridge_estimate(grid64, params_half, cubic)
    assert rho - 1e-6 <= st.level <= st.delta_hat + 1e-12


def test_minimax_pads_each_array_once(monkeypatch, grid64, params_half, cubic):
    # the level, gradient and linearization at a point share one padding of
    # it, so no pad is asked for the input of the call before it
    seen, pad = [], nonlinearity.pad_coeffs

    def recorded(coeffs, grid, m):
        seen.append((coeffs.shape, coeffs.tobytes()))
        return pad(coeffs, grid, m)

    for module in (nonlinearity, linking):
        monkeypatch.setattr(module, "pad_coeffs", recorded)
    st = linking.minimax_search(grid64, params_half, cubic, linking.LinkingConfig())
    assert st.status == "Converged"
    assert len(seen) > 1 and all(a != b for a, b in zip(seen, seen[1:]))


def test_minimax_boundary_nonpositive(grid64, params_half, cubic):
    cfg = linking.LinkingConfig()
    st = linking.minimax_search(grid64, params_half, cubic, cfg)
    # resample the linking rectangle on the reported caps, combining the
    # samples of [yhat, z] as the search does: its boundary is nonpositive,
    # its maximum is the reported delta_hat, and its levels are those of the
    # rectangle padded point by point up to rounding
    disc = Discretization(grid64, params_half, cubic)
    yhat = linking._unit_constant(grid64, params_half)
    z = linking.pick_z_direction(grid64, params_half)
    nc, nr = linking.GRID_A
    cs = np.linspace(-st.R_prime, st.R_prime, nc)
    rs = np.linspace(0.0, st.R, nr)
    rect = disc.at(np.stack([yhat.coeffs, z.coeffs])).combine(
        np.stack(np.meshgrid(cs, rs, indexing="ij"), axis=-1))
    lv = rect.level
    boundary = np.concatenate([lv[0], lv[-1], lv[:, 0], lv[:, -1]])
    assert np.max(boundary) <= 0.0
    assert np.max(lv) == st.delta_hat
    direct = disc.at(rect.U).level
    assert np.max(np.abs(lv - direct)) <= 1e-12 * np.max(np.abs(direct))


# Two modulated items of the solve-1d-n64 benchmark workload (seed 1, items
# 44 and 204): n = 64, T = 2 pi, a = 1 + cos(x + phi)/2.  The first ended in
# NoNontrivialSolution under the pointwise surface descent, the second in
# NoPositiveRidge under the sampled ridge estimate.
NO_SOLUTION_ITEM = dict(s=0.38851616720454096, m=0.7682371184978705, p=2.0,
                        phi=3.866433675361602)
NO_RIDGE_ITEM = dict(s=0.30080986761586437, m=0.3549532513198762, p=2.5,
                     phi=2.790078220681327)


def _modulated_item(item):
    g = TorusGrid(1, 2 * np.pi, 64)
    x = np.arange(64) * (2 * np.pi / 64)
    a = Field(g, 1.0 + 0.5 * np.cos(x + item["phi"]))
    spec = NonlinearitySpec(kind="modulated_power", p=item["p"], a=a)
    return g, FracParams(item["s"], item["m"]), spec


@pytest.fixture(scope="module")
def minimax_cases():
    g = TorusGrid(1, 2 * np.pi, 64)
    p = FracParams(0.5, 1.0)
    spec = NonlinearitySpec(kind="pure_power", p=3.0)
    cases = {"standard": (g, p, spec), "modulated": _modulated_item(NO_SOLUTION_ITEM)}
    out = {}
    for name, (g, p, spec) in cases.items():
        st = linking.minimax_search(g, p, spec, linking.LinkingConfig())
        out[name] = (g, p, spec, st)
    return out


def test_minimax_converges_on_modulated_item(minimax_cases):
    g, p, spec, st = minimax_cases["modulated"]
    cfg = linking.LinkingConfig()
    assert st.status == "Converged"
    assert linking.residual_norm(st.iterate, p, spec) < cfg.ps_tol
    _, rho_lb = linking._ridge_bound(Discretization(g, p, spec))
    assert st.rho == rho_lb
    assert 0.0 < rho_lb <= st.level <= st.delta_hat
    levels = [h[0] for h in st.history]
    assert len(levels) > 2  # the descent did work before the polish was accepted
    assert all(b <= a + 1e-12 for a, b in zip(levels, levels[1:]))


def test_minimax_converges_on_no_ridge_item():
    g, p, spec = _modulated_item(NO_RIDGE_ITEM)
    cfg = linking.LinkingConfig()
    st = linking.minimax_search(g, p, spec, cfg)
    assert st.status == "Converged"
    assert linking.residual_norm(st.iterate, p, spec) < cfg.ps_tol
    assert 0.0 < st.rho <= st.level <= st.delta_hat


def _ridge_case(N, kind):
    n, s = {1: (64, 0.5), 2: (16, 0.75), 3: (8, 0.9)}[N]
    g = TorusGrid(N, 2 * np.pi, n)
    if kind == "pure":
        spec = NonlinearitySpec(kind="pure_power", p=3.0)
    else:
        a = field_from_function(g, lambda *xs: 1.0 + 0.5 * np.cos(xs[0] + 0.3))
        spec = NonlinearitySpec(kind="modulated_power", p=2.5, a=a)
    return g, FracParams(s, 1.0), spec


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("kind", ["pure", "modulated"])
def test_ridge_bound_below_sampled_sphere_levels(N, kind):
    g, p, spec = _ridge_case(N, kind)
    disc = Discretization(g, p, spec)
    eta, rho = linking._ridge_bound(disc)
    assert 0.0 < rho < np.inf
    rng = np.random.default_rng(N)
    for decay in (0.0, 0.3, 1.0):
        D = np.stack([random_spectrum(g, rng, decay=decay, zero_mean=True).coeffs
                      for _ in range(64)])
        D *= eta / disc.hs_norms(D).reshape((-1,) + (1,) * N)
        assert rho <= np.min(disc.at(D).level)


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
        return float(disc.at((c + dc) * yhat + (r + dr) * v).level)

    W = np.stack([yhat, v])
    g2 = np.real(np.sum(np.conj(W) * disc.at(u).grad, axis=-1))
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
        linking.minimax_search(grid64, params_half, cubic, cfg)


def test_minimax_fixed_caps_are_used_as_given(grid64, params_half, cubic):
    # R = 0.5 lies inside the certified ridge radius: the caps are not enlarged
    eta, _ = linking._ridge_bound(Discretization(grid64, params_half, cubic))
    assert 0.5 < eta
    cfg = linking.LinkingConfig(R=0.5, R_prime=10.0)
    with pytest.raises(BoundaryNotNegative) as exc:
        linking.minimax_search(grid64, params_half, cubic, cfg)
    assert (exc.value.R, exc.value.R_prime) == (0.5, 10.0)


def test_odd_symmetry_level(grid64, params_half, cubic):
    st = linking.minimax_search(grid64, params_half, cubic, linking.LinkingConfig())
    u = st.iterate
    minus = Spectrum(grid64, -u.coeffs)
    lev_u = energy.evaluate(u, params_half, cubic).value
    lev_m = energy.evaluate(minus, params_half, cubic).value
    assert abs(lev_u - lev_m) < 1e-10


def test_newton_fixed_point(grid64, params_half, cubic):
    st = linking.minimax_search(grid64, params_half, cubic, linking.LinkingConfig())
    again = linking.newton_refine(st.iterate, params_half, cubic, tol=1e-10)
    assert _hs_dist(again, st.iterate, params_half) < 1e-6


def test_newton_zero_start_is_trivial(grid64, params_half, cubic):
    zero = Spectrum(grid64, np.zeros(grid64.shape, complex))
    out = linking.newton_refine(zero, params_half, cubic, tol=1e-10)
    assert out.l2_norm() == 0.0  # caller must reject via nontriviality check


def test_newton_stops_at_first_failed_line_search(monkeypatch):
    # the first start of criterion 08's draws stalls; a failed line search
    # leaves u and |R|_* unchanged, so no step may be taken twice from them
    g = TorusGrid(1, 2 * np.pi, 8)
    p, spec = FracParams(0.5, 1.0), NonlinearitySpec(kind="pure_power", p=3.0)
    rng = np.random.default_rng(42)
    u0 = random_spectrum(g, rng, decay=0.2)
    u0 = Spectrum(g, u0.coeffs * (0.5 + 2.0 * rng.random()))
    calls, newton_step = [], linking._newton_step

    def recorded(pt):
        calls.append((pt.U.copy(), pt.gnorm))
        return newton_step(pt)

    monkeypatch.setattr(linking, "_newton_step", recorded)
    with pytest.raises(DivergedRefinement, match="stalled"):
        linking.newton_refine(u0, p, spec, tol=1e-11, max_iters=80)
    assert len(calls) > 1
    assert all(not (np.array_equal(a, b) and ra == rb)
               for (a, ra), (b, rb) in zip(calls, calls[1:]))


def test_newton_converges_from_cosine(grid64, params_half, cubic):
    u0 = forward_transform(field_from_function(grid64, np.cos))
    u = linking.newton_refine(u0, params_half, cubic, tol=1e-11)
    assert linking.residual_norm(u, params_half, cubic) < 1e-10
    assert hs_norm(u, params_half) > 1e-3


def test_residual_norm_cases(grid64, params_half, cubic):
    zero = Spectrum(grid64, np.zeros(grid64.shape, complex))
    assert linking.residual_norm(zero, params_half, cubic) == 0.0
    # the residual is the shifted-multiplier action less the nonlinear
    # gradient; check the dual weighting explicitly
    u = forward_transform(field_from_function(grid64, np.cos))
    r = linking.residual_norm(u, params_half, cubic)
    ms = multiplier(grid64, params_half, shifted=True)
    mm = multiplier(grid64, params_half)
    R = ms * u.coeffs - nonlinearity.nonlinear_gradient(cubic, u).coeffs
    want = np.sqrt(np.sum(np.abs(R) ** 2 / mm))
    assert abs(r - want) < 1e-12


@pytest.mark.parametrize("N,n,tau", [
    pytest.param(1, 64, (1.2345,), id="1d"),
    pytest.param(2, 16, (1.2345, -0.777), id="2d"),
    pytest.param(3, 8, (0.31, 2.2, -1.05), id="3d"),
])
def test_align_spectra(N, n, tau, params_half, rng):
    # off-grid shifts: the grid search alone leaves an O(T/n) error
    g = TorusGrid(N, 2 * np.pi, n)
    u = random_spectrum(g, rng, decay=0.8, zero_mean=True)
    k = np.meshgrid(*[g.axis_wavenumbers().astype(float)] * N, indexing="ij")
    phase = np.exp(1j * g.omega * sum(ki * ti for ki, ti in zip(k, tau)))
    shifted = Spectrum(g, -u.coeffs * phase)
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
# the matrix-free Newton step on the band

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


@pytest.mark.parametrize("N,n", [(1, 16), (2, 8), (3, 4)])
@pytest.mark.parametrize("kind", ["pure", "modulated"])
def test_newton_step_meets_forcing_term(N, n, kind):
    g, disc, u = _newton_case(N, n, kind)
    pt = disc.at(u.coeffs)
    R, rnorm = pt.grad, float(pt.gnorm)
    s = linking._newton_step(pt)
    eta = min(linking.FORCING_MAX, rnorm)
    assert disc.dual_norms(pt.linearization(disc.at(s)) + R) <= eta * rnorm


@pytest.mark.parametrize("kind", ["pure", "modulated"])
def test_minres_solves_the_dense_band_system(kind):
    g, disc, u = _newton_case(2, 8, kind)
    E = _hermitian_basis(g)  # a real basis of the band
    pt = disc.at(u.coeffs)

    def J(w):
        return pt.linearization(disc.at(w))

    A = np.real(np.conj(E).reshape(len(E), -1) @ J(E).reshape(len(E), -1).T)
    b = pt.grad
    c = np.linalg.solve(A, np.real(np.conj(E).reshape(len(E), -1) @ b.ravel()))
    want = np.tensordot(c, E, 1)
    got = linking._minres(J, lambda r: disc.inv_full * r, b, 0.0, len(E))
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

"""Minimax solver: linking geometry, deformation flow, Newton polish."""

import dataclasses
import types

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
    # resample the linking rectangle on the cap of the whole-rectangle loop,
    # combining the samples of [yhat, z] as the search does: its boundary is
    # nonpositive, its maximum is the reported delta_hat, and its levels are
    # those of the rectangle padded point by point up to rounding
    disc = Discretization(grid64, params_half, cubic)
    basis = _basis(disc)
    R = _caps_by_rectangle(basis, disc.ridge[0])[0]
    nc, nr = linking.GRID_A
    cs = np.linspace(-R, R, nc)
    rs = np.linspace(0.0, R, nr)
    rect = basis.combine(np.stack(np.meshgrid(cs, rs, indexing="ij"), axis=-1))
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
# Seed-7 items 4 and 84 of the same workload, with the levels the search
# reaches; a search that moves them to a higher critical point fails here.
LEVELED_ITEMS = {
    "item-4": (dict(s=0.3622796396339298, m=0.9447314930350936, p=2.5,
                    phi=5.1305071911816285), 0.049209491633018534),
    "item-84": (dict(s=0.39989091124465553, m=0.2862561306829273, p=2.0,
                     phi=3.9282154979827), 0.1733455053335098),
}


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
    _, rho_lb = Discretization(g, p, spec).ridge
    assert st.rho == rho_lb
    assert 0.0 < rho_lb <= st.level <= st.delta_hat
    levels = [h[0] for h in st.history]
    assert len(levels) > 2  # the descent did work before the polish was accepted
    assert all(b <= a + 1e-12 for a, b in zip(levels, levels[1:]))


def test_solver_state_reads_its_point(minimax_cases):
    # a state with another point, here on the discretization of another mass,
    # reports that point's level, residual, spectrum and ridge level
    g, p, spec, st = minimax_cases["standard"]
    disc = Discretization(g, FracParams(p.s, 0.5 * p.m), spec)
    q = disc.at(2.0 * st.point.U)
    moved = dataclasses.replace(st, point=q)
    assert moved.level == float(q.level) != st.level
    assert moved.grad_norm == float(q.gnorm) != st.grad_norm
    assert np.array_equal(moved.iterate.coeffs, q.U)
    assert moved.rho == disc.ridge[1] != st.rho
    assert (moved.status, moved.trace, moved.delta_hat) == (st.status, st.trace, st.delta_hat)


def test_minimax_converges_on_no_ridge_item():
    g, p, spec = _modulated_item(NO_RIDGE_ITEM)
    cfg = linking.LinkingConfig()
    st = linking.minimax_search(g, p, spec, cfg)
    assert st.status == "Converged"
    assert linking.residual_norm(st.iterate, p, spec) < cfg.ps_tol
    assert 0.0 < st.rho <= st.level <= st.delta_hat


@pytest.mark.parametrize("name", list(LEVELED_ITEMS))
def test_modulated_item_keeps_its_level(name):
    item, level = LEVELED_ITEMS[name]
    st = linking.minimax_search(*_modulated_item(item), linking.LinkingConfig())
    assert st.status == "Converged"
    assert st.level <= level * (1.0 + 1e-9)


@pytest.mark.parametrize("N,n,p", [
    pytest.param(1, 16, 1.1, id="1d-n16-p1.1"),
    pytest.param(1, 16, 1.2, id="1d-n16-p1.2"),
    pytest.param(1, 16, 1.3, id="1d-n16-p1.3"),
    pytest.param(2, 8, 1.1, id="2d-n8-p1.1"),
])
def test_minimax_converges_near_p_1(N, n, p):
    # the solution exists for every p > 1; near 1 its level and the certified
    # ridge fall far below 1, so no threshold in absolute units may gate it
    spec = NonlinearitySpec(kind="pure_power", p=p)
    cfg = linking.LinkingConfig()
    st = linking.minimax_search(TorusGrid(N, 2 * np.pi, n), FracParams(0.4, 1.0), spec, cfg)
    assert st.status == "Converged"
    assert st.grad_norm < cfg.ps_tol and 0.0 < st.rho <= st.level


# (N, n, s, m, p) of the scaling table of ROADMAP item 3
_SCALED_CONFIGS = {
    "1d-standard": (1, 64, 0.5, 1.0, 3.0),
    "1d-s0.4": (1, 64, 0.4, 0.6, 2.5),
    "1d-s0.3": (1, 64, 0.3, 0.25, 2.0),
    "2d-s0.75": (2, 16, 0.75, 1.0, 3.0),
}


@pytest.mark.parametrize("name", list(_SCALED_CONFIGS))
def test_minimax_is_covariant_under_scaling(name):
    # If u solves the problem on period T with mass m, then lam^{2s/(p-1)} u(lam y)
    # solves it on period T/lam with mass lam m, at the same n: the symbol scales
    # by lam^{2s}.  Levels scale by lam^{4s/(p-1)+2s-N}, and H^s norms and dual
    # residuals by lam^{2s/(p-1)+s-N/2}, by which ps_tol is scaled here.
    # Both ends need ps_tol scaled: at the default ps_tol, an absolute dual
    # norm, lam = 1e30 stalls and lam = 1e-20 ends Converged 6.3 % above the
    # scaled level, at its first peak (README, extreme periods).
    N, n, s, m, p = _SCALED_CONFIGS[name]
    spec = NonlinearitySpec(kind="pure_power", p=p)

    def solve(lam):
        cfg = linking.LinkingConfig(ps_tol=1e-8 * lam ** (2 * s / (p - 1) + s - N / 2))
        return linking.minimax_search(TorusGrid(N, 2 * np.pi / lam, n), FracParams(s, lam * m),
                                      spec, cfg)

    base = solve(1.0)
    assert base.status == "Converged"
    for lam in (1e-60, 1e-30, 1e-20, 1e-6, 1e-3, 0.1, 10.0, 1e3, 1e6, 1e30, 1e60):
        st = solve(lam)
        want = base.level * lam ** (4 * s / (p - 1) + 2 * s - N)
        assert st.status == "Converged", lam
        assert abs(st.level - want) <= 1e-12 * want, lam


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
    eta, rho = disc.ridge
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


# the level of the search run on the 2-D n=32 grid itself (s=0.75, m=1, p=3)
SOLVE_2D_N32_LEVEL = 5.86026590646053


@pytest.fixture(scope="module")
def solve_2d_n32():
    g, p = TorusGrid(2, 2 * np.pi, 32), FracParams(0.75, 1.0)
    spec = NonlinearitySpec(kind="pure_power", p=3.0)
    return g, p, spec, linking.minimax_search(g, p, spec, linking.LinkingConfig())


def test_coarse_to_fine_solve_2d_n32(solve_2d_n32):
    g, p, spec, st = solve_2d_n32
    cfg = linking.LinkingConfig()
    assert st.status == "Converged" and st.coarse_n == 16
    assert abs(st.level - SOLVE_2D_N32_LEVEL) <= 1e-12 * SOLVE_2D_N32_LEVEL
    assert st.grad_norm < cfg.ps_tol
    assert linking.residual_norm(st.iterate, p, spec) < cfg.ps_tol
    # one trace row, the fine point's; the coarse search's level is coarse_level
    assert st.history == [(st.level, st.grad_norm)]
    assert st.level <= st.coarse_level * (1.0 + linking.COARSE_RISE)
    assert st.rho == Discretization(g, p, spec).ridge[1]
    assert st.rho - 1e-9 <= st.level <= st.delta_hat + 1e-12


@pytest.fixture(scope="module")
def direct_2d_n32(solve_2d_n32):
    g, p, spec, _ = solve_2d_n32
    with pytest.MonkeyPatch.context() as m:
        m.setattr(linking, "COARSE_MIN_POINTS", g.size)  # no coarser grid is large enough
        return linking.minimax_search(g, p, spec, linking.LinkingConfig())


@pytest.mark.parametrize("force", ["fine-polish-diverges", "coarse-max-iters",
                                   "fine-level-above-coarse"])
def test_rejected_fine_point_falls_back_to_the_direct_search(monkeypatch, solve_2d_n32,
                                                             direct_2d_n32, force):
    g, p, spec, _ = solve_2d_n32
    direct = direct_2d_n32
    assert direct.coarse_n is None
    assert abs(direct.level - SOLVE_2D_N32_LEVEL) <= 1e-12 * SOLVE_2D_N32_LEVEL
    search, refine, forced = linking._search, linking.refine_point, []

    def coarse_search(grid, *args):
        st = search(grid, *args)
        if grid != g:
            forced.append(grid)
            if force == "coarse-max-iters":
                return dataclasses.replace(st, status="MaxIters")
            if force == "fine-level-above-coarse":  # the same point, read 1 % lower:
                # the fine polish lies 1 % above it, ten times COARSE_RISE
                low = nonlinearity.Point(st.point.disc, st.point.U, st.point.vals)
                low.__dict__["level"] = st.level * 0.99
                return dataclasses.replace(st, point=low)
        return st

    def fine_polish(pt, tol, max_iters=60):
        if pt.disc.grid == g and not forced:  # the polish of the prolonged point
            forced.append(pt)
            raise DivergedRefinement("forced")
        return refine(pt, tol, max_iters)

    if force == "fine-polish-diverges":
        monkeypatch.setattr(linking, "refine_point", fine_polish)
    else:
        monkeypatch.setattr(linking, "_search", coarse_search)
    st = linking.minimax_search(g, p, spec, linking.LinkingConfig())
    assert len(forced) == 1
    assert st.trace == direct.trace
    assert (st.status, st.level, st.rho, st.delta_hat) == (
        direct.status, direct.level, direct.rho, direct.delta_hat)
    assert st.coarse_n is None and st.coarse_level is None
    assert np.array_equal(st.iterate.coeffs, direct.iterate.coeffs)


def test_fine_point_slightly_above_the_coarse_level_is_kept(monkeypatch, solve_2d_n32):
    # the coarse point read 0.05 % below the fine level: within COARSE_RISE, so
    # the fine polish is kept, and a 1 % rise is not (the test above)
    g, p, spec, st = solve_2d_n32
    search = linking._search

    def coarse_search(grid, *args):
        got = search(grid, *args)
        if grid != g:
            low = nonlinearity.Point(got.point.disc, got.point.U, got.point.vals)
            low.__dict__["level"] = st.level / (1.0 + 5e-4)
            return dataclasses.replace(got, point=low)
        return got

    monkeypatch.setattr(linking, "_search", coarse_search)
    again = linking.minimax_search(g, p, spec, linking.LinkingConfig())
    assert again.coarse_n == 16 and again.level == st.level


def test_coarse_to_fine_solve_is_one_call_of_minimax_search(monkeypatch, solve_2d_n32):
    # a wrapper of the public name, like a tracer's, sees one call per solve
    g, p, spec, st = solve_2d_n32
    search, calls = linking.minimax_search, []

    def counted(*args):
        calls.append(args[0])
        return search(*args)

    monkeypatch.setattr(linking, "minimax_search", counted)
    again = linking.minimax_search(g, p, spec, linking.LinkingConfig())
    assert calls == [g] and again.coarse_n == 16 and again.level == st.level


def test_modulated_3d_n16_searches_on_its_own_grid():
    # n/2 = 8 points per axis (512 in all) resolve too little: searched there
    # and polished here, this instance ends at a critical point of level 38.4,
    # not at the 4.63 that the search on the 16-point grid reaches
    g = TorusGrid(3, 2 * np.pi, 16)
    a = Field(g, 1.0 + 0.5 * np.cos(sum(g.points()) + 2.82))
    spec = NonlinearitySpec(kind="modulated_power", p=2.0, a=a)
    st = linking.minimax_search(g, FracParams(0.68, 0.36), spec, linking.LinkingConfig())
    assert st.status == "Converged" and st.coarse_n is None
    assert abs(st.level - 4.627852072595148) <= 1e-9 * st.level


def _basis(disc):
    """The basis point [yhat, z] of the search's linking rectangle."""
    g, p = disc.grid, disc.params
    return disc.at(np.stack([linking._unit_constant(g, p).coeffs,
                             linking.pick_z_direction(g, p).coeffs]))


def _caps_by_rectangle(basis, eta, force=lambda x, quad, nl: (quad, nl)):
    """_calibrate_caps with every cap sampled on its whole rectangle: the
    reference, returning the cap R, the sampled c and r and the levels.  The
    quadratic and nonlinear parts of the level at the points x are
    force(x, quad, nl)."""
    R = 2.0 * eta
    nc, nr = linking.GRID_A
    while True:
        with np.errstate(all="ignore"):
            cs = np.linspace(-R, R, nc)
            rs = np.linspace(0.0, R, nr)
            x = np.stack(np.meshgrid(cs, rs, indexing="ij"), axis=-1)
            pt = basis.combine(x)
            quad, nl = force(x, pt.quadratic, pt.nonlinear_energy)
            lv = quad - nl
        mask = np.ones((nc, nr), dtype=bool)
        mask[1:-1, 1:-1] = False
        worst = float(np.max(lv[mask]))
        if worst <= 0.0:
            return R, cs, rs, lv
        if not worst < np.inf:
            idx = np.unravel_index(np.argmax(np.where(mask, lv, -np.inf)), lv.shape)
            raise BoundaryNotNegative(
                R, witness={"c": float(cs[idx[0]]), "r": float(rs[idx[1]]), "level": worst}
            )
        R *= 2.0


def _caps_case(name):
    if name == "1d-modulated":
        g, p, spec = _modulated_item(NO_SOLUTION_ITEM)
    elif name == "1d-pure-p2.5":
        g, p = TorusGrid(1, 2 * np.pi, 64), FracParams(0.45, 0.7)
        spec = NonlinearitySpec(kind="pure_power", p=2.5)
    elif name == "3d-pure-p1.02":
        g, p = TorusGrid(3, 6.247, 8), FracParams(0.459, 0.271)
        spec = NonlinearitySpec(kind="pure_power", p=1.02)
    else:
        g, p, spec = _ridge_case(2 if name == "2d-pure" else 1, "pure")
    disc = Discretization(g, p, spec)
    return _basis(disc), disc.ridge[0]


# where 2^(k(p+1)) is no power of two, the doublings k and the relative
# rounding to which the levels of the doubled cap agree: 2^3.5 at k = 1, and at
# p = 1.02, where eta_lb = 2.8e-7, more doublings than a budget of 40 allowed
_ROUNDED_CAPS = {"1d-pure-p2.5": (1, 1e-15), "3d-pure-p1.02": (49, 4e-15)}


@pytest.mark.parametrize("name", ["1d-pure", "1d-modulated", "2d-pure", *_ROUNDED_CAPS])
def test_calibrated_caps_match_the_whole_rectangle_loop(monkeypatch, name):
    basis, eta = _caps_case(name)
    R, cs, rs, lv = _caps_by_rectangle(basis, eta)
    i, j = np.unravel_index(int(np.argmax(lv)), lv.shape)
    rows, combine = [], nonlinearity.Point.combine

    def counted(self, x):
        rows.append(len(x))
        return combine(self, x)

    monkeypatch.setattr(nonlinearity.Point, "combine", counted)
    delta_hat, c, r = linking._calibrate_caps(basis, eta)
    # the start is the largest sample of the last cap's rectangle
    assert (c, r) == (cs[i], rs[j])
    doublings = round(np.log2(R / (2.0 * eta)))
    if name in _ROUNDED_CAPS:
        want, rounding = _ROUNDED_CAPS[name]
        assert doublings == want
        assert abs(delta_hat - lv[i, j]) <= rounding * np.max(np.abs(lv))
    else:  # 2^(k(p+1)) is a power of two: the levels are bit for bit
        assert doublings >= 1
        assert delta_hat == lv[i, j]
    # the rectangle of the first cap is sampled once, one combine per c,
    # whatever the number of doublings
    nc, nr = linking.GRID_A
    assert rows == [nr] * nc


# the quadratic and nonlinear parts forced at the sample points x = (c, r):
# a level not finite on a side of the rectangle, or positive on every r > 0
# until the levels overflow, so that no cap passes: quad = r^2 sum_k shifted_k
# |z_k|^2 / 2 times 1e200 stays above nl until 4^k quad overflows, at k = 181
_FORCED_PARTS = {
    "inf": lambda x, quad, nl: (np.where(x[..., 0] < 0.0, np.inf, quad), nl),
    "nan": lambda x, quad, nl: (quad, np.where(x[..., 0] > 0.0, np.nan, nl)),
    "positive-until-overflow": lambda x, quad, nl: (quad * 1e200, nl),
}


@pytest.mark.parametrize("force", list(_FORCED_PARTS))
def test_failing_caps_raise_as_the_whole_rectangle_loop(monkeypatch, force):
    basis, eta = _caps_case("1d-pure")
    forced, combine = _FORCED_PARTS[force], nonlinearity.Point.combine
    with pytest.raises(BoundaryNotNegative) as want:
        _caps_by_rectangle(basis, eta, forced)

    def forced_combine(self, x):
        pt = combine(self, x)
        # the computed-once parts are read from the instance dict first
        pt.__dict__["quadratic"], pt.__dict__["nonlinear_energy"] = forced(
            x, pt.quadratic, pt.nonlinear_energy)
        return pt

    monkeypatch.setattr(nonlinearity.Point, "combine", forced_combine)
    with pytest.raises(BoundaryNotNegative) as got:
        linking._calibrate_caps(basis, eta)
    assert got.value.R == want.value.R
    assert repr(got.value.witness) == repr(want.value.witness)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("energy not finite ")
    if force == "positive-until-overflow":
        assert got.value.R == 2.0 * eta * 2.0**181 and got.value.witness["level"] == np.inf
    else:  # the first cap's boundary carries the level, at r = 0
        assert got.value.R == 2.0 * eta and got.value.witness["r"] == 0.0


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

    def recorded(pt, tol):
        calls.append((pt.U.copy(), pt.gnorm))
        return newton_step(pt, tol)

    monkeypatch.setattr(linking, "_newton_step", recorded)
    with pytest.raises(DivergedRefinement, match="stalled"):
        linking.newton_refine(u0, p, spec, tol=1e-11, max_iters=80)
    assert len(calls) > 1
    assert all(not (np.array_equal(a, b) and ra == rb)
               for (a, ra), (b, rb) in zip(calls, calls[1:]))


@pytest.fixture
def polish_start(grid64, params_half, cubic):
    """The standard solution scaled by 1.01: a start that Newton polishes back."""
    pt = linking.minimax_search(grid64, params_half, cubic, linking.LinkingConfig()).point
    return pt.disc.at(1.01 * pt.U)


def test_polish_accepts_refine_points_own_result(monkeypatch, polish_start):
    refine, seen = linking.refine_point, []

    def recorded(pt, tol, max_iters=60):
        seen.append((tol, refine(pt, tol, max_iters)))
        return seen[-1][1]

    monkeypatch.setattr(linking, "refine_point", recorded)
    out = linking.polish(polish_start, 1e-8)
    assert [tol for tol, _ in seen] == [1e-8 * linking.POLISH_TOL_FACTOR]
    assert out is seen[0][1]
    assert linking._stops(out, 1e-8)


def test_polish_rejects_a_level_above_its_ceiling(polish_start):
    level = float(linking.polish(polish_start, 1e-8).level)
    assert linking.polish(polish_start, 1e-8, np.nextafter(level, -np.inf)) is None
    assert float(linking.polish(polish_start, 1e-8, level).level) == level


def test_polish_rejects_a_level_below_the_certified_ridge(polish_start):
    # a point scaled by 1e-10 is already below the polish tolerance, at a level
    # far below rho_lb
    tiny = polish_start.disc.at(1e-10 * polish_start.U)
    assert linking.refine_point(tiny, 1e-9) is tiny
    assert tiny.level < polish_start.disc.ridge[1]
    assert linking.polish(tiny, 1e-8) is None


def test_polish_propagates_a_diverged_refinement():
    # the stalling start of test_newton_stops_at_first_failed_line_search
    g = TorusGrid(1, 2 * np.pi, 8)
    p, spec = FracParams(0.5, 1.0), NonlinearitySpec(kind="pure_power", p=3.0)
    rng = np.random.default_rng(42)
    u0 = random_spectrum(g, rng, decay=0.2).coeffs * (0.5 + 2.0 * rng.random())
    with pytest.raises(DivergedRefinement, match="stalled"):
        linking.polish(Discretization(g, p, spec).at(u0), 1e-10)


def test_reading_the_iterate_leaves_the_point_writeable(grid64, params_half, cubic):
    st = linking.minimax_search(grid64, params_half, cubic, linking.LinkingConfig())
    u = st.iterate
    assert st.point.U.flags.writeable
    assert not u.coeffs.flags.writeable and not np.shares_memory(u.coeffs, st.point.U)
    assert np.array_equal(u.coeffs, st.point.U)


def test_newton_at_zero_mass_keeps_the_mean_coefficient(grid64, cubic):
    # at m = 0 no step moves the mean mode: the refined spectrum keeps the
    # nonzero mean coefficient of the start bitwise while its other modes move
    u0 = forward_transform(field_from_function(grid64, lambda x: 0.05 + 0.5 * np.cos(x)))
    p0 = FracParams(0.5, 0.0)
    u = linking.newton_refine(u0, p0, cubic, tol=1e-3)
    assert linking.residual_norm(u, p0, cubic) < 1e-3 < linking.residual_norm(u0, p0, cubic)
    assert u0.coeffs[0] != 0.0 and u.coeffs[0].tobytes() == u0.coeffs[0].tobytes()


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
    for bad in ({"ps_tol": 0.0}, {"ps_tol": -1e-8}, {"ps_tol": np.inf}, {"ps_tol": np.nan},
                {"max_iters": 0}):
        with pytest.raises(DomainError):
            linking.LinkingConfig(**bad)


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


def test_newton_step_meets_forcing_term_on_a_rough_start():
    # white-noise coefficients at s = 1/4: MINRES needs 46 of the 64 iterations
    # the grid allows, so a cap below the grid size would stop it short
    g = TorusGrid(1, 2 * np.pi, 64)
    disc = Discretization(g, FracParams(0.25, 1.0), NonlinearitySpec(kind="pure_power", p=3.0))
    pt = disc.at(random_spectrum(g, np.random.default_rng(0), decay=0.0).coeffs)
    rnorm = float(pt.gnorm)
    s = linking._newton_step(pt)
    assert disc.dual_norms(pt.linearization(disc.at(s)) + pt.grad) <= min(1e-2, rnorm) * rnorm


def test_minres_on_a_null_direction_returns_the_zero_step(grid64, cubic):
    # at m = 0 the constant mode spans the kernel of the linearization at 0:
    # no x lowers |b - J x|, and the rotation's norm is 0, floored at TINY
    disc = Discretization(grid64, FracParams(0.5, 0.0), cubic)
    zero = disc.at(np.zeros(grid64.shape, complex))
    b = np.zeros(grid64.shape, complex)
    b[0] = 1.0
    x = linking._minres(lambda w: zero.linearization(disc.at(w)), disc.precondition, b, 0.0, 8)
    assert np.array_equal(x, np.zeros_like(b))


def test_align_spectra_keeps_the_best_grid_shift(params_half):
    # two unrelated rough spectra: Newton from the best grid shift ends at a
    # far lower correlation, so the grid shift is kept
    g = TorusGrid(2, 2 * np.pi, 8)
    rng = np.random.default_rng(35)
    ref, cand = (random_spectrum(g, rng, decay=0.0, zero_mean=True) for _ in range(2))
    full = multiplier(g, params_half)
    best = np.max(np.abs(np.fft.fftn(full * np.conj(ref.coeffs) * cand.coeffs).real))
    back = linking.align_spectra(ref, cand, params_half)
    assert np.real(np.sum(full * np.conj(ref.coeffs) * back.coeffs)) >= best * (1.0 - 1e-12)


# ---------------------------------------------------------------------------
# the step rules of the search, each on a forced instance its constant decides

@pytest.fixture
def sphere_point(grid64, params_half, cubic):
    """A point of the zero-mean H^s sphere of radius 1/2."""
    disc = Discretization(grid64, params_half, cubic)
    return disc.at(0.5 * linking.pick_z_direction(grid64, params_half).coeffs)


@pytest.mark.parametrize("step,reads,want", [
    pytest.param(1.0, lambda lvl: [lvl - 1.0], 1.5, id="next-step-1.5t"),
    pytest.param(4.0, lambda lvl: [lvl - 1.0], 4.0, id="next-step-at-most-4"),
    # one ulp below the level is a decrease, but not by ARMIJO_SLOPE t |tang|^2
    pytest.param(1.0, lambda lvl: [np.nextafter(lvl, -np.inf), lvl - 1.0], 0.75,
                 id="sufficient-decrease"),
    pytest.param(1.0, lambda lvl: [lvl] * 29 + [lvl - 1.0], 1.5 * 2.0**-29, id="29-halvings"),
    pytest.param(1.0, lambda lvl: [lvl] * 30, None, id="no-31st-trial"),
])
def test_sphere_step_rules(sphere_point, step, reads, want):
    # the trials read these levels in turn, in place of the peak's
    levels = iter(reads(float(sphere_point.level)))
    moved = linking._sphere_step(sphere_point, sphere_point, 0.5, 1.0, step,
                                 lambda w: (types.SimpleNamespace(level=next(levels)),))
    assert (moved and moved[0]) == want


class _Plane:
    """A stand-in basis of _peak: the level f(c, r) of a plane with gradient
    grad and a zero Hessian, so every step of _peak is the gradient."""

    def __init__(self, f, grad):
        self.f, self.grad = f, grad

    def combine(self, x):
        pt = types.SimpleNamespace(level=self.f(x))
        pt.plane = lambda W: (np.array(self.grad, dtype=float), np.zeros((2, 2)))
        return pt


@pytest.mark.parametrize("slope,r", [
    pytest.param(1.0, 51.0, id="fifty-steps"),  # every step rises: the cap ends it
    # a rise g.d of 1e-12 |level| is resolved and climbed; one of 1e-16 |level| is not
    pytest.param(1e-6, 1.0 + 50e-6, id="rise-1e-12"),
    pytest.param(1e-8, 1.0, id="rise-1e-16"),
])
def test_peak_climbs_fifty_steps_while_the_rise_is_resolved(slope, r):
    plane = _Plane(lambda x: 1.0 + slope * x[1], (0.0, slope))
    _, c, got = linking._peak(plane, 0.0, 1.0)
    assert c == 0.0 and got == pytest.approx(r, rel=1e-12)


def test_peak_stays_at_positive_r():
    # the level rises toward r < 0, across the support line r = 0
    _, _, r = linking._peak(_Plane(lambda x: -x[1], (0.0, -1.0)), 0.0, 0.5)
    assert r > 0.0


@pytest.mark.parametrize("scale,match", [
    pytest.param(1e-7, "stalled", id="too-short"),  # decrease but no sufficient decrease
    pytest.param(2.0**10, None, id="ten-halvings"),  # lam = 2^-10 is the Newton step
])
def test_refine_point_backtracks(monkeypatch, polish_start, scale, match):
    newton_step, calls = linking._newton_step, []

    def scaled(pt, tol):
        calls.append(pt)
        return scale * newton_step(pt, tol)

    monkeypatch.setattr(linking, "_newton_step", scaled)
    if match:
        with pytest.raises(DivergedRefinement, match=match):
            linking.refine_point(polish_start, 1e-9)
        assert len(calls) == 1
    else:
        assert linking.refine_point(polish_start, 1e-9).gnorm < 1e-9


def test_polish_aims_at_a_tenth_of_the_tolerance(monkeypatch, polish_start):
    # half Newton steps halve the residual: the polish stops within a factor
    # of 2 of the tolerance it aims at, 1e-9 for a stopping tolerance 1e-8
    newton_step = linking._newton_step
    monkeypatch.setattr(linking, "_newton_step", lambda pt, tol: 0.5 * newton_step(pt, tol))
    assert linking.polish(polish_start, 1e-8).gnorm < 1e-9


def test_the_last_newton_step_aims_at_a_tenth_of_the_tolerance(monkeypatch, polish_start):
    # the last step of a polish to 1e-9 starts from |R|_* = 3.3e-8, where the
    # forcing term asks for |R|_*^2 = 1.1e-15: MINRES stops at the floor
    # 0.1 tol = 1e-10 instead, at a residual of 3.1e-11
    minres, seen = linking._minres, []

    def recorded(apply, precondition, b, tol, max_iters):
        x = minres(apply, precondition, b, tol, max_iters)
        r = b - apply(x)
        seen.append((tol, float(np.sqrt(np.vdot(r, precondition(r)).real))))
        return x

    monkeypatch.setattr(linking, "_minres", recorded)
    assert linking.refine_point(polish_start, 1e-9).gnorm < 1e-9
    target, reached = seen[-1]
    assert target == pytest.approx(1e-10, rel=1e-12)
    assert 1e-11 < reached <= target


def test_a_peak_below_the_ridge_level_ends_the_search(monkeypatch, grid64, params_half, cubic):
    # the first peak, forced to 3/4 of rho_lb: the search ends there,
    # NoNontrivialSolution, without a polish or a sphere step
    peak, rho = linking._peak, Discretization(grid64, params_half, cubic).ridge[1]

    def low_peak(W, c, r):
        pt, c, r = peak(W, c, r)
        lo, hi = 0.0, 1.0  # level(t U) rises from 0 at t = 0 past rho at t = 1
        for _ in range(60):
            t = 0.5 * (lo + hi)
            lo, hi = (t, hi) if pt.disc.at(t * pt.U).level < 0.75 * rho else (lo, t)
        return pt.disc.at(lo * pt.U), lo * c, lo * r

    monkeypatch.setattr(linking, "_peak", low_peak)
    monkeypatch.setattr(linking, "polish", None)
    monkeypatch.setattr(linking, "_sphere_step", None)
    st = linking.minimax_search(grid64, params_half, cubic, linking.LinkingConfig())
    assert st.status == "NoNontrivialSolution" and len(st.trace) == 1
    assert st.level == pytest.approx(0.75 * rho, rel=1e-12)

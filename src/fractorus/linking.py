"""Linking geometry and minimax search for the reduced functional.

The search runs entirely on the trace space: every critical trace extends
uniquely and minimally, so the saddle geometry of the cylinder functional
survives the reduction.  The linking set is the rectangle

    A = {c yhat + r z : |c| <= R', 0 <= r <= R}

with yhat the normalized constant mode and z a normalized zero-mean direction.
Its image flows by X-metric descent with the boundary pinned; the running
maximum over the deformed surface is the minimax level estimate and is
non-increasing by construction.  A damped Newton polish turns the surface
maximizer into a genuine discrete critical point.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .errors import (
    BoundaryNotNegative,
    DivergedRefinement,
    DomainError,
    NoPositiveRidge,
)
from .grids import (
    Field,
    FracParams,
    Spectrum,
    TorusGrid,
    field_from_function,
    forward_transform,
    hs_norm,
    inverse_transform,
    project_zero_mean,
    random_spectrum,
)
from .nonlinearity import Discretization, NonlinearitySpec

# Not used here; kept as names of this module because perfbench's tests check
# that the tracer wraps `linking.pad_coeffs` and `linking.energy.multiplier`.
from .nonlinearity import pad_coeffs  # noqa: F401
from . import energy  # noqa: F401

ARMIJO_SLOPE = 1e-4
ARMIJO_SHRINK = 0.5
COLLAPSE_TOL = 1e-8


@dataclass(frozen=True)
class LinkingConfig:
    """Geometry and stopping parameters of the minimax search.

    R = 0 or R_prime = 0 requests auto-calibration: both caps are doubled
    until the functional is nonpositive on the sampled boundary.
    """

    R: float = 0.0
    R_prime: float = 0.0
    grid_A: tuple = (9, 17)  # (n_c, n_r)
    descent_step: float = 0.5
    ps_tol: float = 1e-8
    max_iters: int = 2000
    polish_every: int = 20

    def __post_init__(self):
        nc, nr = self.grid_A
        if nc < 3 or nr < 3:
            raise DomainError(f"grid_A must be at least 3x3, got {self.grid_A}")
        if self.R < 0 or self.R_prime < 0:
            raise DomainError("caps R, R' must be nonnegative (0 = auto)")
        if self.descent_step <= 0 or self.ps_tol <= 0 or self.max_iters < 1:
            raise DomainError("descent_step, ps_tol, max_iters must be positive")


@dataclass
class SolverState:
    iterate: Spectrum
    level: float
    grad_norm: float
    history: list
    status: str  # Converged | MaxIters | NoNontrivialSolution
    trace: list = dc_field(default_factory=list)
    argmax: tuple = (0, 0)
    R: float = 0.0
    R_prime: float = 0.0
    delta_hat: float = 0.0  # sampled max of the level over the initial surface
    surface: Optional[np.ndarray] = None  # final deformed surface coefficients
    frozen: Optional[np.ndarray] = None  # boundary mask over grid_A


def pick_z_direction(grid: TorusGrid, p: FracParams) -> Spectrum:
    """Normalized zero-mean linking direction: the spectrum of prod_i sin(w x_i)."""
    w = grid.omega
    z = forward_transform(
        field_from_function(grid, lambda *xs: np.prod([np.sin(w * x) for x in xs], axis=0))
    )
    z = project_zero_mean(z)
    return Spectrum(grid, z.coeffs / hs_norm(z, p))


def _unit_constant(grid: TorusGrid, p: FracParams) -> Spectrum:
    """The normalized mean mode; requires m > 0 to carry positive norm."""
    if p.m == 0.0:
        raise DomainError("the mean mode is null at m = 0; linking needs m > 0")
    c = np.zeros(grid.shape, dtype=complex)
    c[(0,) * grid.N] = p.m ** (-p.s)
    return Spectrum(grid, c)


def _axis_mode(grid: TorusGrid, p: FracParams) -> Spectrum:
    """Normalized cos(w x_1): the |k| = 1 direction minimizing the gap ratio."""
    w = grid.omega
    u = forward_transform(field_from_function(grid, lambda *xs: np.cos(w * xs[0])))
    return Spectrum(grid, u.coeffs / hs_norm(u, p))


# ---------------------------------------------------------------------------
# batched surface arithmetic; leading axes enumerate surface points

def _surface(cs: np.ndarray, rs: np.ndarray, yhat: Spectrum, z: Spectrum) -> np.ndarray:
    """Stack c yhat + r z over the (c, r) parameter rectangle."""
    N = yhat.grid.N
    cb = cs.reshape((len(cs), 1) + (1,) * N)
    rb = rs.reshape((1, len(rs)) + (1,) * N)
    return cb * yhat.coeffs + rb * z.coeffs


def ridge_estimate(
    grid: TorusGrid,
    p: FracParams,
    spec: Optional[NonlinearitySpec],
    probe_radii=None,
    n_dirs: int = 16,
    rng: Optional[np.random.Generator] = None,
):
    """Sampled mountain-ridge radius eta and level rho on the zero-mean sphere.

    Directions include the |k| = 1 axis mode (the sharp coercivity minimizer)
    and the linking z-direction alongside random draws, so the sampled minimum
    is exact for the quadratic probe spec = None.
    """
    return _ridge_estimate(Discretization(grid, p, spec), probe_radii, n_dirs, rng)


def _ridge_estimate(disc: Discretization, probe_radii=None, n_dirs=16, rng=None):
    grid, p = disc.grid, disc.params
    if probe_radii is None:
        probe_radii = np.geomspace(1e-2, 4.0, 40)
    radii = np.asarray(probe_radii, dtype=float)
    if radii.size == 0 or np.any(radii <= 0) or np.any(np.diff(radii) <= 0):
        raise DomainError("probe_radii must be positive and increasing")
    if rng is None:
        rng = np.random.default_rng(0)
    dirs = [_axis_mode(grid, p), pick_z_direction(grid, p)]
    for _ in range(n_dirs):
        d = random_spectrum(grid, rng, decay=0.5, zero_mean=True)
        dirs.append(Spectrum(grid, d.coeffs / disc.hs_norms(d.coeffs)))
    D = np.stack([d.coeffs for d in dirs])
    mins = np.empty(radii.size)
    argdirs = np.empty(radii.size, dtype=int)
    for i, r in enumerate(radii):
        lv = disc.levels(r * D)
        argdirs[i] = int(np.argmin(lv))
        mins[i] = float(lv[argdirs[i]])
    best = int(np.argmax(mins))
    if mins[best] <= 0.0:
        raise NoPositiveRidge(
            f"sampled minimum is nonpositive at every radius (best {mins[best]:.3e})"
        )
    eta = float(radii[best])
    rho = _sphere_min(disc, eta, D[argdirs[best]], mins[best])
    if rho <= 0.0:
        raise NoPositiveRidge(f"sharpened sphere minimum is nonpositive ({rho:.3e})")
    return eta, rho


def _sphere_min(disc: Discretization, eta: float, v0: np.ndarray, lv0: float) -> float:
    """Projected descent of the level on the zero-mean sphere of radius eta.

    Sharpening the sampled direction minimum downward keeps the reported
    ridge level below the critical level it certifies.
    """
    v = eta * v0
    lv = lv0
    step = 0.25
    for _ in range(200):
        gX = disc.precondition(disc.grad(v))
        gX[(0,) * disc.grid.N] = 0.0  # stay on the zero-mean subspace
        inner = np.real(np.sum(disc.full * gX * np.conj(v))) / eta**2
        tang = gX - inner * v
        sz = disc.hs_norms(tang)
        if sz < 1e-14:
            break
        moved = False
        trial = step
        for _ in range(30):
            w = v - trial * tang
            w = eta * w / disc.hs_norms(w)
            lw = float(disc.levels(w))
            if lw < lv - ARMIJO_SLOPE * trial * sz**2:
                v, lv = w, lw
                step = min(trial * 1.5, 4.0)
                moved = True
                break
            trial *= ARMIJO_SHRINK
        if not moved:
            break
    return lv


def _calibrate_caps(disc: Discretization, yhat, z, cfg: LinkingConfig, eta: float):
    """Double R, R' until the sampled boundary of A is nonpositive."""
    R = cfg.R if cfg.R > 0 else max(2.0 * eta, 1.0)
    Rp = cfg.R_prime if cfg.R_prime > 0 else R
    fixed = cfg.R > 0 and cfg.R_prime > 0
    nc, nr = cfg.grid_A
    for _ in range(40):
        if R <= eta:
            R *= 2.0
            continue
        cs = np.linspace(-Rp, Rp, nc)
        rs = np.linspace(0.0, R, nr)
        U = _surface(cs, rs, yhat, z)
        lv = disc.levels(U)
        mask = np.zeros((nc, nr), dtype=bool)
        mask[0, :] = mask[-1, :] = True
        mask[:, 0] = mask[:, -1] = True
        worst = float(np.max(lv[mask]))
        if worst <= 0.0:
            return R, Rp, cs, rs, U, mask
        if fixed:
            idx = np.unravel_index(np.argmax(np.where(mask, lv, -np.inf)), lv.shape)
            raise BoundaryNotNegative(
                R, Rp, witness={"c": float(cs[idx[0]]), "r": float(rs[idx[1]]), "level": worst}
            )
        R *= 2.0
        Rp *= 2.0
    raise BoundaryNotNegative(R, Rp, witness={"level": worst})


def minimax_search(
    grid: TorusGrid,
    p: FracParams,
    spec: Optional[NonlinearitySpec],
    cfg: LinkingConfig,
    rho: Optional[float] = None,
    rng: Optional[np.random.Generator] = None,
) -> SolverState:
    """Constrained deformation of the linking surface toward a PS point.

    spec = None runs the quadratic degenerate probe: there is no linking
    geometry (the boundary gate is skipped and nothing is pinned) and the
    flow collapses to zero, reported as NoNontrivialSolution.
    """
    disc = Discretization(grid, p, spec)
    yhat = _unit_constant(grid, p)
    z = pick_z_direction(grid, p)
    nc, nr = cfg.grid_A

    if spec is not None:
        eta_guess, rho_hat = _ridge_estimate(disc, rng=rng)
        if rho is None:
            rho = rho_hat
        R, Rp, cs, rs, U, frozen = _calibrate_caps(disc, yhat, z, cfg, eta_guess)
    else:
        R = cfg.R if cfg.R > 0 else 1.0
        Rp = cfg.R_prime if cfg.R_prime > 0 else 1.0
        cs = np.linspace(-Rp, Rp, nc)
        rs = np.linspace(0.0, R, nr)
        U = _surface(cs, rs, yhat, z)
        frozen = np.zeros((nc, nr), dtype=bool)

    boundary_snapshot = U[frozen].copy()
    steps = np.full((nc, nr), cfg.descent_step)
    lead = (slice(None), slice(None)) + (None,) * grid.N
    history = []
    trace = []
    status = "MaxIters"
    lv = disc.levels(U)
    delta_hat = float(np.max(lv))

    for sweep in range(cfg.max_iters):
        # one Armijo-backtracked X-descent step per unfrozen point
        R_l2 = disc.grad(U)
        gX = disc.precondition(R_l2)
        slope = disc.dual_norms(R_l2) ** 2
        active = (~frozen) & (slope > 0.0)
        trial = steps.copy()
        new_U = U.copy()
        new_lv = lv.copy()
        pending = active.copy()
        for _ in range(30):
            if not np.any(pending):
                break
            cand = U - (trial * pending)[lead] * gX
            cand_lv = disc.levels(cand)
            ok = pending & (cand_lv <= lv - ARMIJO_SLOPE * trial * slope)
            new_U[ok] = cand[ok]
            new_lv[ok] = cand_lv[ok]
            steps[ok] = np.minimum(trial[ok] * 1.5, 10.0 * cfg.descent_step)
            pending &= ~ok
            trial = np.where(pending, trial * ARMIJO_SHRINK, trial)
        U, lv = new_U, new_lv

        # keep iterates in a safe ball without touching the pinned boundary
        norms = disc.hs_norms(U)
        far = (~frozen) & (norms > 10.0 * R)
        if np.any(far):
            scale = np.where(far, 10.0 * R / np.maximum(norms, 1e-300), 1.0)
            U = U * scale[lead]
            lv = disc.levels(U)

        U[frozen] = boundary_snapshot
        idx = np.unravel_index(int(np.argmax(lv)), lv.shape)
        level = float(lv[idx])
        arg = Spectrum(grid, U[idx])
        gnorm = _residual_norm(disc, arg.coeffs)
        history.append((level, gnorm))
        trace.append((sweep, level, gnorm, float(cs[idx[0]]), float(rs[idx[1]])))

        if spec is None:
            if float(np.max(disc.hs_norms(U))) < COLLAPSE_TOL or level < 1e-12:
                status = "NoNontrivialSolution"
                break
        elif disc.hs_norms(arg.coeffs) < COLLAPSE_TOL:
            status = "NoNontrivialSolution"
            break

        if gnorm < cfg.ps_tol and (rho is None or level >= rho - 1e-6):
            status = "Converged"
            break

        polish_now = grid.size <= 2048 or (sweep + 1) % cfg.polish_every == 0
        if spec is not None and polish_now and not frozen[idx]:
            try:
                polished = _newton_refine(disc, arg, tol=cfg.ps_tol * 0.1)
            except DivergedRefinement:
                polished = None
            if polished is not None:
                plev = float(disc.levels(polished.coeffs))
                if (
                    plev <= level + 1e-12
                    and plev > 0.0
                    and disc.hs_norms(polished.coeffs) > 1e-6
                ):
                    U[idx] = polished.coeffs
                    lv[idx] = plev

    idx = np.unravel_index(int(np.argmax(lv)), lv.shape)
    arg = Spectrum(grid, U[idx])
    state = SolverState(
        iterate=arg,
        level=float(lv[idx]),
        grad_norm=_residual_norm(disc, arg.coeffs),
        history=history,
        status=status,
        trace=trace,
        argmax=(int(idx[0]), int(idx[1])),
        R=R,
        R_prime=Rp,
        delta_hat=delta_hat,
        surface=U,
        frozen=frozen,
    )
    if status == "NoNontrivialSolution":
        state.iterate = Spectrum(grid, np.zeros(grid.shape, dtype=complex))
    return state


# ---------------------------------------------------------------------------
# Newton polishing

def _dense_jacobian(disc: Discretization, u: Spectrum) -> np.ndarray:
    """Real physical-space Jacobian of the L2 residual map, built by batching
    the operator over the identity."""
    g = disc.grid
    M = g.size
    scale_f = g.T ** (g.N / 2.0) / M
    scale_b = M / g.T ** (g.N / 2.0)
    I = np.eye(M).reshape((M,) + g.shape)
    C = np.fft.fftn(I, axes=disc.axes) * scale_f
    lin = np.fft.ifftn(disc.shifted * C, axes=disc.axes).real * scale_b
    nl = np.fft.ifftn(disc.jacobian_apply(u.coeffs, C), axes=disc.axes).real * scale_b
    return (lin - nl).reshape(M, M).T


def newton_refine(
    u0: Spectrum,
    p: FracParams,
    spec: NonlinearitySpec,
    tol: float = 1e-10,
    max_iters: int = 60,
    enforce_zero_mean: bool = False,
) -> Spectrum:
    """Damped Newton on the L2-metric residual, least-squares step.

    The least-squares solve absorbs the translation-orbit null space; at an
    exact discrete solution the input is returned after zero iterations.
    """
    disc = Discretization(u0.grid, p, spec)
    return _newton_refine(disc, u0, tol, max_iters, enforce_zero_mean)


def _newton_refine(
    disc: Discretization,
    u0: Spectrum,
    tol: float = 1e-10,
    max_iters: int = 60,
    enforce_zero_mean: bool = False,
) -> Spectrum:
    g = disc.grid
    u = u0
    if enforce_zero_mean:
        u = project_zero_mean(u)

    def resid(v: Spectrum) -> Spectrum:
        return Spectrum(g, disc.grad(v.coeffs))

    R = resid(u)
    rnorm = R.l2_norm()
    bad_streak = 0
    for _ in range(max_iters):
        if rnorm < tol:
            return u
        J = _dense_jacobian(disc, u)
        rvals = inverse_transform(R, check=False).values.ravel()
        step, *_ = np.linalg.lstsq(J, -rvals, rcond=None)
        step = step.reshape(g.shape)
        lam = 1.0
        improved = False
        for _ in range(25):
            cand_vals = inverse_transform(u, check=False).values + lam * step
            cand = forward_transform(Field(g, cand_vals))
            if enforce_zero_mean:
                cand = project_zero_mean(cand)
            Rc = resid(cand)
            rc = Rc.l2_norm()
            if rc < rnorm * (1.0 - ARMIJO_SLOPE * lam):
                u, R, rnorm = cand, Rc, rc
                improved = True
                break
            lam *= 0.5
        if improved:
            bad_streak = 0
        else:
            bad_streak += 1
            if bad_streak >= 5:
                raise DivergedRefinement(
                    f"residual stalled at {rnorm:.3e} (tol {tol:.1e})"
                )
    if rnorm < tol:
        return u
    raise DivergedRefinement(f"no convergence in {max_iters} iterations, residual {rnorm:.3e}")


def residual_norm(u: Spectrum, p: FracParams, spec: Optional[NonlinearitySpec]) -> float:
    """Dual-norm size of the Euler-Lagrange residual.

    Weights are 1/(w^2|k|^2+m^2)^s; the singular k = 0 mode at m = 0 keeps
    unit weight so nonzero-mean defects still register.
    """
    return _residual_norm(Discretization(u.grid, p, spec), u.coeffs)


def _residual_norm(disc: Discretization, coeffs: np.ndarray) -> float:
    return float(disc.dual_norms(disc.grad(coeffs)))


# ---------------------------------------------------------------------------
# orbit alignment (solutions come in translation/sign families)

def align_spectra(ref: Spectrum, cand: Spectrum, p: FracParams) -> Spectrum:
    """Translate and flip cand to best match ref in the H^s metric.

    Coarse search over grid shifts and sign, then (1-D only) a golden-section
    polish of the continuous shift.
    """
    g = ref.grid
    k = [g.axis_wavenumbers().astype(float)] * g.N
    mesh = np.meshgrid(*k, indexing="ij")
    disc = Discretization(g, p, None)

    def shifted(coeffs, taus):
        phase = np.exp(-1j * g.omega * sum(m * t for m, t in zip(mesh, taus)))
        return coeffs * phase

    def dist(coeffs):
        return float(disc.hs_norms(ref.coeffs - coeffs))

    best = (np.inf, cand.coeffs)
    offsets = np.arange(g.n) * (g.T / g.n)
    from itertools import product as iproduct

    for sign in (1.0, -1.0):
        for taus in iproduct(*([offsets] * g.N)):
            c = shifted(sign * cand.coeffs, taus)
            d = dist(c)
            if d < best[0]:
                best = (d, c, sign, taus)
    if g.N == 1:
        from scipy.optimize import minimize_scalar

        _, _, sign, taus = best
        t0 = taus[0]
        res = minimize_scalar(
            lambda t: dist(shifted(sign * cand.coeffs, (t,))),
            bracket=None,
            bounds=(t0 - g.T / g.n, t0 + g.T / g.n),
            method="bounded",
            options={"xatol": 1e-13},
        )
        c = shifted(sign * cand.coeffs, (float(res.x),))
        if dist(c) < best[0]:
            best = (dist(c), c)
    return Spectrum(g, best[1])

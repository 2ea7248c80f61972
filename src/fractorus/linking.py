"""Linking geometry and minimax search for the reduced functional.

The search runs entirely on the trace space: every critical trace extends
uniquely and minimally, so the saddle geometry of the cylinder functional
survives the reduction.  The linking set is the rectangle

    A = {c yhat + r z : |c| <= R, 0 <= r <= R}

with yhat the normalized constant mode and z a normalized zero-mean direction.
The local minimax method with support span{yhat} (Li & Zhou, SIAM J. Sci.
Comput. 23 (2001) 840-865) moves a direction v, from z, on the zero-mean unit
H^s sphere down the peak level max{I(c yhat + r v) : r > 0}; that level is the
non-increasing minimax estimate.  A damped Newton polish turns the peak into a
genuine discrete critical point.

The critical point is smooth, so it can be found on a coarser grid (nested
iteration; Brandt, Math. Comp. 31 (1977) 333-390): where n/2 is even, at
least COARSE_MIN_N and (n/2)^N >= COARSE_MIN_POINTS, minimax_search runs
itself on the grid of n/2 points per axis, with a(x) cut to that band,
zero-pads the coarse solution to n and finishes it with Newton on the fine
grid, whose step count does not grow with n (Allgower, Boehmer, Potra &
Rheinboldt, SIAM J. Numer. Anal. 23 (1986) 160-169).  It keeps that point
when polish accepts it: it meets the search's stopping test (_stops) with
the ridge level of the grid of n points, so it is nontrivial, and lies at
most COARSE_RISE of the coarse level above it; a larger rise marks a higher
critical point.  Otherwise (a coarse status other than Converged, a coarse
error, a diverged Newton) it runs the search on the grid itself, so every outcome but that
accepted point is the direct search's.  The accepted point can be another
critical point than the direct search's, near it in level.  Its trace is one
row, the fine point's; delta_hat is the coarse search's, and rho the fine grid's.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .errors import BoundaryNotNegative, DivergedRefinement, DomainError, FractorusError
from .grids import (
    FracParams,
    Spectrum,
    TorusGrid,
    field_from_function,
    forward_transform,
    hs_norm,
    multiplier,
    project_zero_mean,
    prolong,
)
from .nonlinearity import Discretization, NonlinearitySpec, Point

# Not used here; kept as names of this module because perfbench's tests check
# that the tracer wraps `linking.pad_coeffs` and `linking.energy.multiplier`.
from .nonlinearity import pad_coeffs  # noqa: F401
from . import energy  # noqa: F401

ARMIJO_SLOPE = 1e-4
ARMIJO_SHRINK = 0.5
GRID_A = (9, 17)  # (n_c, n_r) sample points of the linking rectangle
POLISH_AT = 1e-2  # after the first peak, polish once the dual residual is below this
POLISH_TOL_FACTOR = 0.1  # a Newton polish stops at this fraction of the stopping tolerance
ALIGN_NEWTON_STEPS = 8  # Newton steps polishing the grid shift in align_spectra
COARSE_MIN_POINTS = 256  # the search runs on the grid of n/2 points per axis if it has this many
COARSE_MIN_N = 16  # and at least this many per axis
COARSE_RISE = 1e-3  # a fine level above the coarse one by more than this fraction is rejected


@dataclass(frozen=True)
class LinkingConfig:
    """Stopping parameters of the minimax search; the cap of the linking
    rectangle is always calibrated (_calibrate_caps).  ps_tol bounds the
    dual residual of a converged point.  max_iters bounds the sweeps of the
    search on each grid: a coarse search that ends MaxIters or Stalled is
    followed by the search on the finer grid with the same budget.
    """

    ps_tol: float = 1e-8
    max_iters: int = 2000

    def __post_init__(self):
        if not (0.0 < self.ps_tol < np.inf) or self.max_iters < 1:
            raise DomainError("ps_tol, max_iters must be positive and finite")


@dataclass
class SolverState:
    """The result of minimax_search: its final point and what the search
    recorded on the way.  iterate, level, grad_norm and rho are read from
    point, rho being the certified ridge level of its grid
    (Discretization.ridge).  A coarse-to-fine solve (coarse_n set) reports
    one trace row, that of the Newton-polished point on this grid, and
    delta_hat of the coarse rectangle; coarse_level is the level of the
    coarse solve, whose difference from level estimates the resolution
    error.  Its point can be another critical point than the search on this
    grid reaches, near it in level.  A search on this grid leaves coarse_n
    and coarse_level None; any status but Converged returns the search's
    last point as it is (_search)."""

    point: Point
    status: str  # Converged | MaxIters | Stalled | NoNontrivialSolution
    trace: list = dc_field(default_factory=list)  # (sweep, level, gnorm, c, r) per sweep
    delta_hat: float = 0.0  # sampled max of the level over A, not a bound; gates the polishes
    coarse_n: Optional[int] = None  # points per axis of the coarse search
    coarse_level: Optional[float] = None

    @property
    def iterate(self) -> Spectrum:
        return Spectrum(self.point.disc.grid, self.point.U)

    @property
    def level(self) -> float:
        return float(self.point.level)

    @property
    def grad_norm(self) -> float:
        return float(self.point.gnorm)

    @property
    def rho(self) -> float:
        """Certified lower bound of I on the ridge sphere of the point's grid."""
        return self.point.disc.ridge[1]

    @property
    def history(self) -> list:
        """(level, gnorm) per sweep."""
        return [(level, gnorm) for _, level, gnorm, _, _ in self.trace]


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


def ridge_estimate(grid: TorusGrid, p: FracParams, spec: NonlinearitySpec):
    """Sampled ridge radius eta and level rho-hat on the zero-mean sphere, a
    diagnostic: an upper estimate of the infimum that Discretization.ridge
    bounds below.
    The two sampled directions are the |k| = 1 axis mode (the sharp
    coercivity minimizer) and the linking z-direction; no draw is random.
    Projected descent on the sphere of the best sampled radius then lowers
    the level from the lower of the two."""
    disc = Discretization(grid, p, spec)
    radii = np.geomspace(1e-2, 4.0, 40)
    D = np.stack([_axis_mode(grid, p).coeffs, pick_z_direction(grid, p).coeffs])
    lv = np.stack([disc.at(r * D).level for r in radii])
    i = int(np.argmax(np.min(lv, axis=1)))
    j = int(np.argmin(lv[i]))
    eta, pt, step = float(radii[i]), disc.at(radii[i] * D[j]), 0.25
    for _ in range(200):
        moved = _sphere_step(pt, pt, eta, 1.0, step, lambda w: (w,))
        if moved is None:
            break
        step, pt, _ = moved
    return eta, float(pt.level)


def _sphere_step(pt: Point, v: Point, radius, scale, step, value):
    """Projected Armijo step on the zero-mean H^s sphere of the given radius:
    tang is scale times the zero-mean X-gradient at the point pt with its
    part along the point v removed, and t halves from step until the point
    w = v - t tang, rescaled to the sphere and combined from the samples of
    v and tang (padded once), has value(w)[0].level < pt.level - ARMIJO_SLOPE
    t |tang|^2.  Returns (next step, w, value(w)), or None when no t passes."""
    disc = pt.disc
    gX = disc.precondition(pt.grad)
    gX[(0,) * disc.grid.N] = 0.0  # stay on the zero-mean subspace
    inner = np.real(np.sum(disc.full * gX * np.conj(v.U))) / radius**2
    tang = scale * (gX - inner * v.U)
    sz = disc.hs_norms(tang)
    line = Point.stack(v, disc.at(tang))
    trial = step
    for _ in range(30):
        w = line.combine(np.array([radius, -trial * radius]) / disc.hs_norms(v.U - trial * tang))
        out = value(w)
        if out[0].level < pt.level - ARMIJO_SLOPE * trial * sz**2:
            return min(trial * 1.5, 4.0), w, out
        trial *= ARMIJO_SHRINK
    return None


@np.errstate(all="ignore")  # a far cap's levels may overflow; the exits read them
def _calibrate_caps(basis: Point, eta: float):
    """(delta_hat, c, r) on the linking rectangle A = {|c| <= R, 0 <= r <= R}
    of the basis point [yhat, z]: the largest level sampled at c yhat + r z
    and the sample (c, r) that holds it, the first peak's start, once the
    sampled boundary of A is nonpositive.  R doubles from R0 = 2 eta.
    The rectangle of R0 is sampled once, one combine per sampled c, keeping
    the quadratic and nonlinear parts of its points.  F is homogeneous of
    degree p+1 (see nonlinearity), so the cap R0 2^k, whose samples are those
    of R0 times 2^k, has levels 4^k quad - 2^(k(p+1)) nl: as p+1 > 2 they turn
    nonpositive, or where nl = 0 overflow by k = 512.  Raises
    BoundaryNotNegative when a boundary level is not finite."""
    R0 = 2.0 * eta
    nc, nr = GRID_A
    cs0, rs0 = np.linspace(-R0, R0, nc), np.linspace(0.0, R0, nr)
    x = np.stack(np.meshgrid(cs0, rs0, indexing="ij"), axis=-1)
    quad, nl = np.moveaxis([(row.quadratic, row.nonlinear_energy)
                            for row in map(basis.combine, x)], 1, 0)  # one row point alive at a time
    mask = np.ones((nc, nr), dtype=bool)  # the boundary of the rectangle
    mask[1:-1, 1:-1] = False
    for k in itertools.count():
        R, cs, rs = R0 * 2.0**k, cs0 * 2.0**k, rs0 * 2.0**k
        lv = np.exp2(2.0 * k) * quad - np.exp2(k * (basis.disc.spec.p + 1.0)) * nl
        worst = float(np.max(lv[mask]))
        if worst <= 0.0:
            i, j = np.unravel_index(int(np.argmax(lv)), lv.shape)
            return float(lv[i, j]), float(cs[i]), float(rs[j])
        if not worst < np.inf:
            idx = np.unravel_index(np.argmax(np.where(mask, lv, -np.inf)), lv.shape)
            raise BoundaryNotNegative(
                R, witness={"c": float(cs[idx[0]]), "r": float(rs[idx[1]]), "level": worst}
            )


def _peak(W: Point, c: float, r: float):
    """P(v): the local maximum of I over c yhat + r v with r > 0, for the basis
    point W = [yhat, v], by damped Newton on the 2x2 system from (c, r), with
    no pad.  Where the 2x2 Hessian is not negative definite the step is the
    gradient instead; a step that does not raise I is halved.  Returns (point, c, r)."""
    x = np.array([c, r])
    pt = W.combine(x)
    for _ in range(50):
        g, H = pt.plane(W)  # derivatives of (c, r) -> I(c yhat + r v)
        newton = H[0, 0] < 0.0 and np.linalg.det(H) > 0.0
        d = np.linalg.solve(H, -g) if newton else g
        if g @ d <= 1e-14 * abs(pt.level):  # a rise the level cannot resolve
            break
        t = 1.0
        for _ in range(30):
            xt = x + t * d
            if xt[1] > 0.0 and (trial := W.combine(xt)).level > pt.level:
                break
            t *= ARMIJO_SHRINK
        else:
            break
        x, pt = xt, trial
    return pt, float(x[0]), float(x[1])


def _coordinates(disc: Discretization, u: np.ndarray, yhat: Spectrum):
    """(c, r) with u = c yhat + r v, v zero-mean of unit H^s norm."""
    c = float(np.real(np.sum(disc.full * u * np.conj(yhat.coeffs))))
    return c, float(disc.hs_norms(u - c * yhat.coeffs))


def _stops(pt: Point, tol: float) -> bool:
    """The search's stopping test: dual residual below tol and a finite level
    of at least rho_lb of pt.disc.ridge, below which no nontrivial critical
    point lies, so the point is nontrivial; false on a NaN level or residual."""
    return pt.gnorm < tol and pt.disc.ridge[1] <= pt.level < np.inf


def polish(pt: Point, tol: float, ceiling: float = np.inf) -> Optional[Point]:
    """The acceptance rule of every Newton-polished point: refine_point from pt
    to POLISH_TOL_FACTOR tol, and the point it reaches when that meets
    _stops(., tol) with a level of at most ceiling, else None.
    DivergedRefinement propagates."""
    out = refine_point(pt, tol * POLISH_TOL_FACTOR)
    return out if _stops(out, tol) and out.level <= ceiling else None


def _from_coarse_grid(disc: Discretization, yhat: Spectrum, cfg: LinkingConfig):
    """The search on the grid of n/2 points per axis, when n/2 is even,
    n/2 >= COARSE_MIN_N and (n/2)^N >= COARSE_MIN_POINTS, prolonged to this
    grid and finished there by polish, with the ceiling COARSE_RISE of the
    coarse level above it; a higher level marks a higher critical point than
    the coarse one.  Returns its SolverState, or None when the grid is too
    small, the coarse search does not converge or raises, the polish diverges,
    or polish rejects the point."""
    g, nc = disc.grid, disc.grid.n // 2
    if nc % 2 or nc < COARSE_MIN_N or nc**g.N < COARSE_MIN_POINTS:
        return None
    try:
        coarse = TorusGrid(g.N, g.T, nc)
        st = _search(coarse, disc.params, disc.spec.coarsened(coarse), cfg)
        if st.status != "Converged":
            return None
        pt = polish(disc.at(prolong(st.iterate, g).coeffs), cfg.ps_tol,
                    st.level + COARSE_RISE * abs(st.level))
    except FractorusError:
        return None
    if pt is None:
        return None
    return SolverState(
        point=pt,
        status="Converged",
        trace=[(0, float(pt.level), float(pt.gnorm), *_coordinates(disc, pt.U, yhat))],
        delta_hat=st.delta_hat,
        coarse_n=nc,
        coarse_level=st.level,
    )


def minimax_search(
    grid: TorusGrid,
    p: FracParams,
    spec: NonlinearitySpec,
    cfg: LinkingConfig,
) -> SolverState:
    """Local minimax descent of the peak level toward a PS point, run on the
    coarse grid first where _from_coarse_grid accepts that, else on this one."""
    return _search(grid, p, spec, cfg)


# the overflows of extreme periods leave levels that fail every stopping test
@np.errstate(over="ignore", invalid="ignore")
def _search(grid: TorusGrid, p: FracParams, spec: NonlinearitySpec, cfg: LinkingConfig):
    """minimax_search; _from_coarse_grid calls this body, so a solve is one
    call of the public name.  It ends NoNontrivialSolution once a finite level is below
    rho / (1 + 1e-12): no polish is accepted there, and a sweep only lowers the level."""
    disc = Discretization(grid, p, spec)
    eta, rho = disc.ridge
    yhat = _unit_constant(grid, p)
    fine = _from_coarse_grid(disc, yhat, cfg)
    if fine is not None:
        return fine
    basis = disc.at(np.stack([yhat.coeffs, pick_z_direction(grid, p).coeffs]))
    delta_hat, c, r = _calibrate_caps(basis, eta)
    Y, v = (Point(disc, basis.U[a], basis.vals[a]) for a in (0, 1))  # yhat and z
    pt, c, r = _peak(basis, c, r)

    trace = []
    step = 1.0
    for sweep in range(cfg.max_iters):
        gnorm = float(pt.gnorm)
        trace.append((sweep, float(pt.level), gnorm, c, r))

        if -np.inf < pt.level < rho / (1.0 + 1e-12):  # a level of -inf is an overflow
            status = "NoNontrivialSolution"
            break

        if _stops(pt, cfg.ps_tol):
            status = "Converged"
            break

        if sweep == 0 or cfg.ps_tol <= gnorm < POLISH_AT:
            try:  # a level <= delta_hat keeps off higher critical points
                polished = polish(pt, cfg.ps_tol, min(pt.level, delta_hat) * (1.0 + 1e-12))
            except DivergedRefinement:
                polished = None
            if polished is not None:  # it meets _stops: the next sweep ends Converged
                pt = polished
                c, r = _coordinates(disc, pt.U, yhat)
                continue

        # projected Armijo step of phi(v) = I(P(v)), whose X-gradient is r
        # times the tangential zero-mean part of the X-gradient at the peak
        moved = _sphere_step(pt, v, 1.0, r, step, lambda w: _peak(Point.stack(Y, w), c, r))
        if moved is None:
            status = "Stalled"  # _sphere_step found no descent step
            break
        step, v, (pt, c, r) = moved
    else:  # the point the last sweep moved to may already meet the stopping rule
        status = "Converged" if _stops(pt, cfg.ps_tol) else "MaxIters"
    return SolverState(point=pt, status=status, trace=trace, delta_hat=delta_hat)


# ---------------------------------------------------------------------------
# Newton polishing

FORCING_MAX = 1e-2  # cap of the inexact-Newton forcing term eta = min(FORCING_MAX, |R|_*)
KRYLOV_MAX_ITERS = 200  # MINRES stops after min(grid.size, this) iterations
TINY = np.finfo(float).tiny  # the floor of a MINRES rotation's norm


def _minres(apply, precondition, b: np.ndarray, tol: float, max_iters: int) -> np.ndarray:
    """Preconditioned MINRES from zero (Paige & Saunders, SIAM J. Numer. Anal.
    12 (1975) 617-629) for apply symmetric in the pairing <a, c> = Re sum
    conj(a) c, with precondition symmetric positive definite: the x in the
    Krylov space minimizing |b - apply(x)| in the norm sqrt(<r,
    precondition(r)>), stopping once that is <= tol.  The short Lanczos
    recurrence keeps a fixed handful of arrays shaped like b."""
    x = np.zeros_like(b)
    r1 = r2 = b
    y = precondition(b)
    beta = float(np.sqrt(np.vdot(b, y).real))
    phibar, oldb, dbar, eps, cs, sn = beta, 0.0, 0.0, 0.0, -1.0, 0.0
    w = w2 = np.zeros_like(b)
    for k in range(max_iters):
        if phibar <= tol or beta == 0.0:
            break
        v = y / beta
        y = apply(v)
        if k > 0:
            y = y - (beta / oldb) * r1
        alpha = np.vdot(v, y).real
        y = y - (alpha / beta) * r2
        r1, r2 = r2, y
        y = precondition(r2)
        oldb, beta = beta, float(np.sqrt(np.vdot(r2, y).real))
        # the Givens rotation that brings the next Lanczos column to triangular form
        oldeps, delta = eps, cs * dbar + sn * alpha
        gbar, eps, dbar = sn * dbar - cs * alpha, sn * beta, -cs * beta
        gamma = max(float(np.hypot(gbar, beta)), TINY)
        cs, sn = gbar / gamma, beta / gamma
        w1, w2 = w2, w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x = x + (cs * phibar) * w
        phibar *= sn  # the residual norm of x
    return x


def _newton_step(pt: Point) -> np.ndarray:
    """Inexact Newton step on the band at the point pt: MINRES on J s = -R, J
    = pt.linearization and R = pt.grad, preconditioned by the inverse full
    multiplier, to the dual residual |J s + R|_* <= eta |R|_* with eta =
    min(FORCING_MAX, |R|_*) and |R|_* = pt.gnorm."""
    disc, rnorm = pt.disc, float(pt.gnorm)
    eta = min(FORCING_MAX, rnorm)
    return _minres(lambda w: pt.linearization(disc.at(w)), disc.precondition, -pt.grad,
                   eta * rnorm, min(disc.grid.size, KRYLOV_MAX_ITERS))


def newton_refine(
    u0: Spectrum,
    p: FracParams,
    spec: NonlinearitySpec,
    tol: float = 1e-10,
    max_iters: int = 60,
) -> Spectrum:
    """Damped inexact Newton on the Euler-Lagrange residual, until its dual
    norm (that of residual_norm) is below tol.

    Each step is a matrix-free MINRES solve on the band (see _newton_step);
    the dual residual norm decides Armijo backtracking.  At m = 0 no step
    moves the mean mode, so the result keeps u0's mean coefficient.  At an
    exact discrete solution the input is returned after zero iterations.  Raises
    DivergedRefinement when no damping of a step lowers the residual, or
    after max_iters steps.
    """
    pt = Discretization(u0.grid, p, spec).at(u0.coeffs)
    return Spectrum(u0.grid, refine_point(pt, tol, max_iters).U)


def refine_point(pt: Point, tol: float, max_iters: int = 60) -> Point:
    """newton_refine from the evaluation point pt; returns the point it ends at.
    At m = 0 no step moves the mean mode."""
    for _ in range(max_iters):
        if pt.gnorm < tol:
            return pt
        step = _newton_step(pt)
        if pt.disc.params.m == 0.0:
            step[(0,) * pt.disc.grid.N] = 0.0
        line = Point.stack(pt, pt.disc.at(step))  # U + lam step combines their samples
        lam = 1.0
        for _ in range(25):
            cand = line.combine(np.array([1.0, lam]))
            if cand.gnorm < pt.gnorm * (1.0 - ARMIJO_SLOPE * lam):
                pt = cand
                break
            lam *= 0.5
        else:
            # pt is unchanged, so a retry would repeat this step
            raise DivergedRefinement(f"residual stalled at {pt.gnorm:.3e} (tol {tol:.1e})")
    if pt.gnorm < tol:
        return pt
    raise DivergedRefinement(f"no convergence in {max_iters} iterations, residual {pt.gnorm:.3e}")


def residual_norm(u: Spectrum, p: FracParams, spec: NonlinearitySpec) -> float:
    """Dual-norm size of the Euler-Lagrange residual.

    Weights are 1/(w^2|k|^2+m^2)^s; the singular k = 0 mode at m = 0 keeps
    unit weight so nonzero-mean defects still register.
    """
    return float(Discretization(u.grid, p, spec).at(u.coeffs).gnorm)


# ---------------------------------------------------------------------------
# orbit alignment (solutions come in translation/sign families)

def align_spectra(ref: Spectrum, cand: Spectrum, p: FracParams) -> Spectrum:
    """Translate and flip cand to best match ref in the H^s metric.

    The H^s distance from ref to sign * cand shifted by tau is least where
    sign * C(tau) is greatest, C(tau) = Re sum_k full_k conj(ref_k) cand_k
    e^{-i omega k.tau}.  C at every grid shift is one FFT; Newton steps on
    this trigonometric polynomial then polish the best grid shift of either
    sign.
    """
    g = ref.grid
    a = multiplier(g, p) * np.conj(ref.coeffs) * cand.coeffs
    corr = np.fft.fftn(a).real  # C at the grid shifts tau = j T / n
    j = np.unravel_index(int(np.argmax(np.abs(corr))), g.shape)
    sign = -1.0 if corr[j] < 0.0 else 1.0
    k = g.omega * np.stack([m.ravel() for m in np.meshgrid(
        *[g.axis_wavenumbers().astype(float)] * g.N, indexing="ij")])
    a = sign * a.ravel()

    def taylor(tau):  # sign * C(tau), its gradient and its Hessian in tau
        e = a * np.exp(-1j * (tau @ k))
        return e.real.sum(), np.imag(k @ e), -np.real((k * e) @ k.T)

    tau0 = tau = np.array(j, dtype=float) * (g.T / g.n)
    c0, grad, hess = taylor(tau0)
    c = c0
    for _ in range(ALIGN_NEWTON_STEPS):
        if np.max(np.linalg.eigvalsh(hess)) >= 0.0:
            break  # C is not concave here
        tau = tau - np.linalg.solve(hess, grad)
        c, grad, hess = taylor(tau)
    if c < c0:
        tau = tau0
    return Spectrum(g, sign * cand.coeffs * np.exp(-1j * (tau @ k)).reshape(g.shape))

"""Linking geometry and minimax search for the reduced functional.

The search runs entirely on the trace space: every critical trace extends
uniquely and minimally, so the saddle geometry of the cylinder functional
survives the reduction.  The linking set is the rectangle

    A = {c yhat + r z : |c| <= R', 0 <= r <= R}

with yhat the normalized constant mode and z a normalized zero-mean direction.
The local minimax method with support span{yhat} (Li & Zhou, SIAM J. Sci.
Comput. 23 (2001) 840-865) moves a direction v, from z, on the zero-mean unit
H^s sphere down the peak level max{I(c yhat + r v) : r > 0}; that level is the
non-increasing minimax estimate.  A damped Newton polish turns the peak into a
genuine discrete critical point.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (
    BoundaryNotNegative,
    DivergedRefinement,
    DomainError,
    NoPositiveRidge,
)
from .grids import (
    FracParams,
    Spectrum,
    TorusGrid,
    field_from_function,
    forward_transform,
    hs_norm,
    multiplier,
    project_zero_mean,
    random_spectrum,
)
from .nonlinearity import Discretization, NonlinearitySpec, Point

# Not used here; kept as names of this module because perfbench's tests check
# that the tracer wraps `linking.pad_coeffs` and `linking.energy.multiplier`.
from .nonlinearity import pad_coeffs  # noqa: F401
from . import energy  # noqa: F401

ARMIJO_SLOPE = 1e-4
ARMIJO_SHRINK = 0.5
COLLAPSE_TOL = 1e-8
GRID_A = (9, 17)  # (n_c, n_r) sample points of the linking rectangle
RIDGE_DIRS = 16  # random sphere directions besides the axis mode and z
POLISH_AT = 1e-2  # after the first peak, polish once the dual residual is below this
POLISH_TOL_FACTOR = 0.1  # a Newton polish stops at this fraction of the stopping tolerance
ALIGN_NEWTON_STEPS = 8  # Newton steps polishing the grid shift in align_spectra


@dataclass(frozen=True)
class LinkingConfig:
    """Geometry and stopping parameters of the minimax search.

    Caps R, R_prime > 0 are used as given: a positive level on the sampled
    boundary of the linking rectangle raises BoundaryNotNegative.  R = 0 or
    R_prime = 0 requests auto-calibration: an unset R starts at
    max(2 eta_lb, 1), with eta_lb the certified ridge radius, an unset
    R_prime at R, and both caps are doubled until the functional is
    nonpositive on the sampled boundary.
    """

    R: float = 0.0
    R_prime: float = 0.0
    ps_tol: float = 1e-8
    max_iters: int = 2000

    def __post_init__(self):
        if not (0.0 <= self.R < np.inf and 0.0 <= self.R_prime < np.inf):
            raise DomainError("caps R, R' must be nonnegative and finite (0 = auto)")
        if not (0.0 < self.ps_tol < np.inf) or self.max_iters < 1:
            raise DomainError("ps_tol, max_iters must be positive and finite")


@dataclass
class SolverState:
    iterate: Spectrum
    point: Point  # the evaluation point of iterate
    level: float
    grad_norm: float
    status: str  # Converged | MaxIters | Stalled | NoNontrivialSolution
    trace: list = dc_field(default_factory=list)  # (sweep, level, gnorm, c, r) per sweep
    R: float = 0.0
    R_prime: float = 0.0
    rho: float = 0.0  # certified lower bound of I on the ridge sphere (_ridge_bound)
    delta_hat: float = 0.0  # sampled max of the level over the linking rectangle

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
    diagnostic: an upper estimate of the infimum that _ridge_bound bounds below.
    Directions include the |k| = 1 axis mode (the sharp coercivity minimizer)
    and the linking z-direction alongside random draws; projected descent on
    its sphere then sharpens the best sampled radius once."""
    disc = Discretization(grid, p, spec)
    radii = np.geomspace(1e-2, 4.0, 40)
    rng = np.random.default_rng(0)
    dirs = [_axis_mode(grid, p), pick_z_direction(grid, p)]
    for _ in range(RIDGE_DIRS):
        d = random_spectrum(grid, rng, decay=0.5, zero_mean=True)
        dirs.append(Spectrum(grid, d.coeffs / disc.hs_norms(d.coeffs)))
    base = disc.at(np.stack([d.coeffs for d in dirs]))  # the pad is linear: pad D once
    D, vals = base.U, base.vals
    lv = np.stack([Point(disc, r * D, r * vals).level for r in radii])
    i = int(np.argmax(np.min(lv, axis=1)))
    j = int(np.argmin(lv[i]))
    eta, pt, step = float(radii[i]), disc.at(radii[i] * D[j]), 0.25
    for _ in range(200):
        moved = _sphere_step(pt, pt, eta, 1.0, step, lambda w: (w,))
        if moved is None:
            break
        step, pt, _ = moved
    return eta, float(pt.level)


def _ridge_bound(disc: Discretization):
    """Certified ridge (eta_lb, rho_lb): I >= rho_lb on the zero-mean sphere
    |u|_{H^s} = eta_lb.  At |u|_{H^s} = eta: quad >= gamma eta^2/2, gamma =
    min_{k != 0} shifted/full; |u| <= S eta at the padded points, S^2 = T^{-N}
    sum_{k != 0} 1/full (Cauchy-Schwarz; the Nyquist split only lowers |u|);
    the padded sum of u^2 is <= eta^2 / min full (Parseval, as m_pad > n).  So
    I >= gamma eta^2/2 - A eta^{p+1}, A = max(a) S^{p-1} / min full / (p+1),
    largest at eta_lb = (gamma / ((p+1) A))^{1/(p-1)}.  Raises NoPositiveRidge
    when rho_lb is not finite and positive: gamma rounds to 0, or eta under-
    or overflows as p -> 1."""
    g, p = disc.grid, disc.spec.p
    full, shifted = disc.full.ravel()[1:], disc.shifted.ravel()[1:]  # k != 0
    with np.errstate(all="ignore"):
        gamma = np.min(shifted / full)
        S = np.sqrt(np.sum(1.0 / full) / np.float64(g.T) ** g.N)
        A = np.max(disc.coeff_pad) * S ** (p - 1.0) / np.min(full) / (p + 1.0)
        eta = (gamma / ((p + 1.0) * A)) ** (1.0 / (p - 1.0))
        rho = 0.5 * gamma * eta**2 - A * eta ** (p + 1.0)
    if not 0.0 < rho < np.inf:
        raise NoPositiveRidge(f"certified ridge level {rho:.3e} at radius {eta:.3e} "
                              f"(coercivity {gamma:.3e}, p = {p!r})")
    return float(eta), float(rho)


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
    if sz < 1e-14:
        return None
    line = Point.stack(v, disc.at(tang))
    trial = step
    for _ in range(30):
        w = line.combine(np.array([radius, -trial * radius]) / disc.hs_norms(v.U - trial * tang))
        out = value(w)
        if out[0].level < pt.level - ARMIJO_SLOPE * trial * sz**2:
            return min(trial * 1.5, 4.0), w, out
        trial *= ARMIJO_SHRINK
    return None


def _calibrate_caps(disc: Discretization, yhat, z, cfg: LinkingConfig, eta: float):
    """The caps R, R', the sampled c and r, the levels at c yhat + r z and the
    basis point [yhat, z], padded once, once the sampled boundary of A is
    nonpositive.  Two given caps are tried as they are; otherwise both double
    from the given cap or from R = max(2 eta, 1).  Raises BoundaryNotNegative
    when that fails or a level is not finite."""
    R = cfg.R if cfg.R > 0 else max(2.0 * eta, 1.0)
    Rp = cfg.R_prime if cfg.R_prime > 0 else R
    fixed = cfg.R > 0 and cfg.R_prime > 0
    nc, nr = GRID_A
    basis = disc.at(np.stack([yhat.coeffs, z.coeffs]))
    for _ in range(40):
        with np.errstate(all="ignore"):
            cs = np.linspace(-Rp, Rp, nc)
            rs = np.linspace(0.0, R, nr)
            lv = basis.combine(np.stack(np.meshgrid(cs, rs, indexing="ij"), axis=-1)).level
        mask = np.ones((nc, nr), dtype=bool)  # the boundary of the rectangle
        mask[1:-1, 1:-1] = False
        worst = float(np.max(lv[mask]))
        if worst <= 0.0:
            return R, Rp, cs, rs, lv, basis
        if fixed or not worst < np.inf:
            idx = np.unravel_index(np.argmax(np.where(mask, lv, -np.inf)), lv.shape)
            raise BoundaryNotNegative(
                R, Rp, witness={"c": float(cs[idx[0]]), "r": float(rs[idx[1]]), "level": worst}
            )
        R *= 2.0
        Rp *= 2.0
    raise BoundaryNotNegative(R, Rp, witness={"level": worst})


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


# the overflows of extreme periods leave levels that fail every stopping test
@np.errstate(over="ignore", invalid="ignore")
def minimax_search(
    grid: TorusGrid,
    p: FracParams,
    spec: NonlinearitySpec,
    cfg: LinkingConfig,
) -> SolverState:
    """Local minimax descent of the peak level toward a PS point."""
    disc = Discretization(grid, p, spec)
    eta, rho = _ridge_bound(disc)
    yhat = _unit_constant(grid, p)
    z = pick_z_direction(grid, p)
    R, Rp, cs, rs, lv, basis = _calibrate_caps(disc, yhat, z, cfg, eta)
    delta_hat = float(np.max(lv))
    i, j = np.unravel_index(int(np.argmax(lv)), lv.shape)
    Y, v = (Point(disc, basis.U[a], basis.vals[a]) for a in (0, 1))  # yhat and z
    pt, c, r = _peak(basis, float(cs[i]), float(rs[j]))

    def stops(pt):  # false on a NaN or infinite level or residual
        return pt.gnorm < cfg.ps_tol and rho - 1e-6 <= pt.level <= delta_hat + 1e-12 < np.inf

    trace = []
    step = 1.0
    for sweep in range(cfg.max_iters):
        gnorm = float(pt.gnorm)
        trace.append((sweep, float(pt.level), gnorm, c, r))

        if disc.hs_norms(pt.U) < COLLAPSE_TOL:
            status = "NoNontrivialSolution"
            break

        if stops(pt):
            status = "Converged"
            break

        if sweep == 0 or cfg.ps_tol <= gnorm < POLISH_AT:
            try:
                polished = refine_point(pt, tol=cfg.ps_tol * POLISH_TOL_FACTOR)
            except DivergedRefinement:
                polished = disc.at(np.zeros_like(pt.U))  # trivial, so rejected below
            plev = float(polished.level)
            if 0.0 < plev <= min(pt.level, delta_hat) + 1e-12 and disc.hs_norms(polished.U) > 1e-6:
                pt, u = polished, polished.U
                c = float(np.real(np.sum(disc.full * u * np.conj(yhat.coeffs))))
                r = float(disc.hs_norms(u - c * yhat.coeffs))
                v = Point.stack(Y, pt).combine(np.array([-c, 1.0]) / r)  # (u - c yhat) / r
                continue

        # projected Armijo step of phi(v) = I(P(v)), whose X-gradient is r
        # times the tangential zero-mean part of the X-gradient at the peak
        moved = _sphere_step(pt, v, 1.0, r, step, lambda w: _peak(Point.stack(Y, w), c, r))
        if moved is None:
            status = "Stalled"  # _sphere_step found no descent step
            break
        step, v, (pt, c, r) = moved
    else:  # the point the last sweep moved to may already meet the stopping rule
        status = "Converged" if stops(pt) else "MaxIters"

    level = float(pt.level)
    if status == "NoNontrivialSolution":
        pt = disc.at(np.zeros(grid.shape, dtype=complex))
    return SolverState(
        iterate=Spectrum(grid, pt.U),
        point=pt,
        level=level,
        grad_norm=float(pt.gnorm),
        status=status,
        trace=trace,
        R=R,
        R_prime=Rp,
        rho=rho,
        delta_hat=delta_hat,
    )


# ---------------------------------------------------------------------------
# Newton polishing

FORCING_MAX = 1e-2  # cap of the inexact-Newton forcing term eta = min(FORCING_MAX, |R|_*)
KRYLOV_MAX_ITERS = 200  # MINRES stops after min(grid.size, this) iterations


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
        gamma = max(float(np.hypot(gbar, beta)), np.finfo(float).tiny)
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
    the dual residual norm decides Armijo backtracking.  At an exact
    discrete solution the input is returned after zero iterations.  Raises
    DivergedRefinement when no damping of a step lowers the residual, or
    after max_iters steps.
    """
    pt = Discretization(u0.grid, p, spec).at(u0.coeffs)
    return Spectrum(u0.grid, refine_point(pt, tol, max_iters).U)


def refine_point(pt: Point, tol: float, max_iters: int = 60,
                 enforce_zero_mean: bool = False) -> Point:
    """newton_refine from the evaluation point pt; returns the point it ends at.
    With enforce_zero_mean no step moves the mean mode."""
    for _ in range(max_iters):
        if pt.gnorm < tol:
            return pt
        step = _newton_step(pt)
        if enforce_zero_mean:
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

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
    ifft_values,
    project_zero_mean,
    random_spectrum,
)
from .nonlinearity import Discretization, NonlinearitySpec, irfft_samples, rfft_samples

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


@dataclass(frozen=True)
class LinkingConfig:
    """Geometry and stopping parameters of the minimax search.

    R = 0 or R_prime = 0 requests auto-calibration: both caps are doubled
    until the functional is nonpositive on the sampled boundary.
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
    level: float
    grad_norm: float
    history: list
    status: str  # Converged | MaxIters | NoNontrivialSolution
    trace: list = dc_field(default_factory=list)
    R: float = 0.0
    R_prime: float = 0.0
    delta_hat: float = 0.0  # sampled max of the level over the linking rectangle


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


def ridge_estimate(grid: TorusGrid, p: FracParams, spec: Optional[NonlinearitySpec]):
    """Sampled mountain-ridge radius eta and level rho on the zero-mean sphere.

    Directions include the |k| = 1 axis mode (the sharp coercivity minimizer)
    and the linking z-direction alongside random draws, so the sampled minimum
    is exact for the quadratic probe spec = None.
    """
    return _ridge_estimate(Discretization(grid, p, spec))


def _ridge_estimate(disc: Discretization, rng: Optional[np.random.Generator] = None):
    grid, p = disc.grid, disc.params
    radii = np.geomspace(1e-2, 4.0, 40)
    if rng is None:
        rng = np.random.default_rng(0)
    dirs = [_axis_mode(grid, p), pick_z_direction(grid, p)]
    for _ in range(RIDGE_DIRS):
        d = random_spectrum(grid, rng, decay=0.5, zero_mean=True)
        dirs.append(Spectrum(grid, d.coeffs / disc.hs_norms(d.coeffs)))
    D = np.stack([d.coeffs for d in dirs])
    mins = np.empty(radii.size)
    argdirs = np.empty(radii.size, dtype=int)
    for i, r in enumerate(radii):
        lv = disc.levels(r * D)
        argdirs[i] = int(np.argmin(lv))
        mins[i] = float(lv[argdirs[i]])
    # sharpen the best sampled radius; should its minimum come out
    # nonpositive, the next radii in decreasing order of sampled minimum
    for i in np.argsort(-mins, kind="stable"):
        if mins[i] <= 0.0:
            break
        rho = _sphere_min(disc, float(radii[i]), D[argdirs[i]], mins[i])
        if rho > 0.0:
            return float(radii[i]), rho
    raise NoPositiveRidge(
        f"no radius keeps a positive sharpened sphere minimum (best sampled {mins.max():.3e})"
    )


def _sphere_step(disc: Discretization, G, v, lv, radius, scale, step, value):
    """Projected Armijo step on the zero-mean H^s sphere of the given radius:
    tang is scale times the zero-mean X-gradient of the L2 gradient G with
    its part along v removed, and t halves from step until w = v - t tang,
    rescaled to the sphere, has value(w)[0] < lv - ARMIJO_SLOPE t |tang|^2.
    Returns (next step, w, value(w)), or None when no t passes."""
    gX = disc.precondition(G)
    gX[(0,) * disc.grid.N] = 0.0  # stay on the zero-mean subspace
    inner = np.real(np.sum(disc.full * gX * np.conj(v))) / radius**2
    tang = scale * (gX - inner * v)
    sz = disc.hs_norms(tang)
    if sz < 1e-14:
        return None
    trial = step
    for _ in range(30):
        w = v - trial * tang
        w = radius * w / disc.hs_norms(w)
        out = value(w)
        if out[0] < lv - ARMIJO_SLOPE * trial * sz**2:
            return min(trial * 1.5, 4.0), w, out
        trial *= ARMIJO_SHRINK
    return None


def _sphere_min(disc: Discretization, eta: float, v0: np.ndarray, lv0: float) -> float:
    """Projected descent of the level on the zero-mean sphere of radius eta.

    Sharpening the sampled direction minimum downward keeps the reported
    ridge level below the critical level it certifies.
    """
    v = eta * v0
    lv = lv0
    step = 0.25
    for _ in range(200):
        moved = _sphere_step(disc, disc.grad(v), v, lv, eta, 1.0, step,
                             lambda w: (float(disc.levels(w)),))
        if moved is None:
            break
        step, v, (lv,) = moved
    return lv


def _calibrate_caps(disc: Discretization, yhat, z, cfg: LinkingConfig, eta: float):
    """Double R, R' until the sampled boundary of A is nonpositive; returns
    the caps, the sampled c and r, and the levels at c yhat + r z."""
    R = cfg.R if cfg.R > 0 else max(2.0 * eta, 1.0)
    Rp = cfg.R_prime if cfg.R_prime > 0 else R
    fixed = cfg.R > 0 and cfg.R_prime > 0
    nc, nr = GRID_A
    for _ in range(40):
        if R <= eta:
            R *= 2.0
            continue
        cs = np.linspace(-Rp, Rp, nc)
        rs = np.linspace(0.0, R, nr)
        lv = disc.levels(np.multiply.outer(cs, yhat.coeffs)[:, None]
                         + np.multiply.outer(rs, z.coeffs))
        mask = np.ones((nc, nr), dtype=bool)  # the boundary of the rectangle
        mask[1:-1, 1:-1] = False
        worst = float(np.max(lv[mask]))
        if worst <= 0.0:
            return R, Rp, cs, rs, lv
        if fixed:
            idx = np.unravel_index(np.argmax(np.where(mask, lv, -np.inf)), lv.shape)
            raise BoundaryNotNegative(
                R, Rp, witness={"c": float(cs[idx[0]]), "r": float(rs[idx[1]]), "level": worst}
            )
        R *= 2.0
        Rp *= 2.0
    raise BoundaryNotNegative(R, Rp, witness={"level": worst})


def _peak(disc: Discretization, yhat: Spectrum, v: np.ndarray, c: float, r: float):
    """P(v): the local maximum of I over c yhat + r v with r > 0, by damped
    Newton on the 2x2 system from (c, r).  Where the 2x2 Hessian is not
    negative definite the step is the gradient instead; a step that does not
    raise I is halved.  Returns (level, c, r, u)."""
    W = np.stack([yhat.coeffs, v])
    Wc = np.conj(W).reshape(2, -1)
    x = np.array([c, r])
    u = np.tensordot(x, W, 1)
    lv = float(disc.levels(u))
    for _ in range(50):
        # derivatives of (c, r) -> I(c yhat + r v): g_a = <grad, W_a>, H_ab = <J W_b, W_a>
        g = np.real(Wc @ disc.grad(u).ravel())
        H = np.real(Wc @ (disc.shifted * W - disc.jacobian_apply(u, W)).reshape(2, -1).T)
        newton = H[0, 0] < 0.0 and np.linalg.det(H) > 0.0
        d = np.linalg.solve(H, -g) if newton else g
        if g @ d <= 1e-14 * abs(lv):  # a rise the level cannot resolve
            break
        t = 1.0
        for _ in range(30):
            xt = x + t * d
            ut = np.tensordot(xt, W, 1)
            lt = float(disc.levels(ut)) if xt[1] > 0.0 else -np.inf
            if lt > lv:
                break
            t *= ARMIJO_SHRINK
        else:
            break
        x, u, lv = xt, ut, lt
    return lv, float(x[0]), float(x[1]), u


def minimax_search(
    grid: TorusGrid,
    p: FracParams,
    spec: NonlinearitySpec,
    cfg: LinkingConfig,
    rng: Optional[np.random.Generator] = None,
) -> SolverState:
    """Local minimax descent of the peak level toward a PS point."""
    disc = Discretization(grid, p, spec)
    yhat = _unit_constant(grid, p)
    z = pick_z_direction(grid, p)

    eta_guess, rho = _ridge_estimate(disc, rng=rng)
    R, Rp, cs, rs, lv = _calibrate_caps(disc, yhat, z, cfg, eta_guess)
    delta_hat = float(np.max(lv))
    i, j = np.unravel_index(int(np.argmax(lv)), lv.shape)
    v = z.coeffs
    level, c, r, u = _peak(disc, yhat, v, float(cs[i]), float(rs[j]))

    history = []
    trace = []
    status = "MaxIters"
    step = 1.0
    for sweep in range(cfg.max_iters):
        G = disc.grad(u)
        gnorm = float(disc.dual_norms(G))
        history.append((level, gnorm))
        trace.append((sweep, level, gnorm, c, r))

        if disc.hs_norms(u) < COLLAPSE_TOL:
            status = "NoNontrivialSolution"
            break

        if gnorm < cfg.ps_tol and rho - 1e-6 <= level <= delta_hat + 1e-12:
            status = "Converged"
            break

        if sweep == 0 or cfg.ps_tol <= gnorm < POLISH_AT:
            try:
                polished = _newton_refine(disc, Spectrum(grid, u), tol=cfg.ps_tol * 0.1).coeffs
            except DivergedRefinement:
                polished = np.zeros_like(u)  # trivial, so rejected below
            plev = float(disc.levels(polished))
            if 0.0 < plev <= min(level, delta_hat) + 1e-12 and disc.hs_norms(polished) > 1e-6:
                u, level = polished, plev
                c = float(np.real(np.sum(disc.full * u * np.conj(yhat.coeffs))))
                r = float(disc.hs_norms(u - c * yhat.coeffs))
                v = (u - c * yhat.coeffs) / r
                continue

        # projected Armijo step of phi(v) = I(P(v)), whose X-gradient is r
        # times the tangential zero-mean part of the X-gradient at the peak
        moved = _sphere_step(disc, G, v, level, 1.0, r, step,
                             lambda w: _peak(disc, yhat, w, c, r))
        if moved is None:
            break  # the descent stalled
        step, v, (level, c, r, u) = moved

    if status == "NoNontrivialSolution":
        u = np.zeros(grid.shape, dtype=complex)
    return SolverState(
        iterate=Spectrum(grid, u),
        level=level,
        grad_norm=_residual_norm(disc, u),
        history=history,
        status=status,
        trace=trace,
        R=R,
        R_prime=Rp,
        delta_hat=delta_hat,
    )


# ---------------------------------------------------------------------------
# Newton polishing

FORCING_MAX = 1e-2  # cap of the inexact-Newton forcing term eta = min(FORCING_MAX, |R|)
KRYLOV_MAX_ITERS = 200  # GMRES runs unrestarted to min(grid.size, this) iterations


def _gmres(apply, b: np.ndarray, tol: float, max_iters: int) -> np.ndarray:
    """Unrestarted GMRES from zero: the y in the Krylov space of (apply, b)
    minimizing |b - apply(y)|, stopping once that residual is <= tol."""
    beta = float(np.linalg.norm(b))
    if beta == 0.0:
        return np.zeros_like(b)
    V = np.empty((max_iters + 1, b.size))
    V[0] = b / beta
    H = np.zeros((max_iters + 1, max_iters))
    rot = []  # Givens rotations (c, sn) that make H upper triangular
    rhs = [beta]  # the rotated right-hand side beta e_1
    k = 0
    while k < max_iters:
        w = apply(V[k])
        for _ in range(2):  # classical Gram-Schmidt, applied twice
            h = V[: k + 1] @ w
            w = w - h @ V[: k + 1]
            H[: k + 1, k] += h
        hn = float(np.linalg.norm(w))
        col = H[: k + 2, k]
        col[k + 1] = hn
        for i, (c, sn) in enumerate(rot):
            col[i], col[i + 1] = c * col[i] + sn * col[i + 1], c * col[i + 1] - sn * col[i]
        d = float(np.hypot(col[k], col[k + 1]))
        if d == 0.0:  # the Krylov space stopped growing and H is singular
            break
        c, sn = col[k] / d, col[k + 1] / d
        rot.append((c, sn))
        col[k], col[k + 1] = d, 0.0
        rhs.append(-sn * rhs[k])
        rhs[k] *= c
        k += 1
        if abs(rhs[k]) <= tol or hn == 0.0:
            break
        V[k] = w / hn
    y = np.linalg.solve(H[:k, :k], rhs[:k])  # upper triangular
    return y @ V[:k]


def _newton_step(disc: Discretization, u: Spectrum, R: Spectrum, rnorm: float) -> Spectrum:
    """Inexact Newton step: GMRES on J s = -r over the real grid samples,
    right-preconditioned by the inverse full multiplier, to the relative
    residual eta = min(FORCING_MAX, |R|); returned as the spectrum of s."""
    g = disc.grid
    lin = disc.linearization(u.coeffs)
    precond = disc.inv_full[..., : g.n // 2 + 1]

    def precondition(y):
        return rfft_samples(y.reshape(g.shape), g.N) * precond

    def apply(y):
        return irfft_samples(lin(precondition(y)), g.shape).ravel()

    b = -ifft_values(g, R.coeffs).ravel()
    eta = min(FORCING_MAX, rnorm)
    y = _gmres(apply, b, eta * float(np.linalg.norm(b)), min(g.size, KRYLOV_MAX_ITERS))
    return forward_transform(Field(g, irfft_samples(precondition(y), g.shape)))


def newton_refine(
    u0: Spectrum,
    p: FracParams,
    spec: NonlinearitySpec,
    tol: float = 1e-10,
    max_iters: int = 60,
    enforce_zero_mean: bool = False,
) -> Spectrum:
    """Damped inexact Newton on the L2-metric residual.

    Each step is a matrix-free GMRES solve on the real grid samples (see
    _newton_step); the residual norm decides Armijo backtracking.  At an
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
        step = _newton_step(disc, u, R, rnorm)
        if enforce_zero_mean:
            step = project_zero_mean(step)
        lam = 1.0
        improved = False
        for _ in range(25):
            cand = Spectrum(g, u.coeffs + lam * step.coeffs)
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

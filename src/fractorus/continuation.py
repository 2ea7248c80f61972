"""Mass continuation m -> 0 and regularity diagnostics.

The branch is tracked by warm-started linking solves at a decreasing list of
masses below m0 = 1/(2 C^2), C the discrete critical-Sobolev constant; the
massless limit is then polished at m = 0 with the mean mode pinned to zero
(constants are in the kernel there).  The bootstrap table and the Holder
proxy mirror the integrability ladder and the continuity statement as
diagnostics, not certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DomainError,
    FractorusError,
    InsufficientDecay,
    LimitCollapsed,
    NotCauchy,
)
from .grids import (
    Field,
    FracParams,
    Spectrum,
    TorusGrid,
    forward_transform,
    hs_norm,
    lq_norm,
    multiplier,
    pad_coeffs,
    project_zero_mean,
    random_spectrum,
)
from .nonlinearity import Discretization, NonlinearitySpec
from . import linking

SOBOLEV_STARTS, SOBOLEV_TRIALS = 10, 200  # random starts; trial steps per start


@dataclass(frozen=True)
class SobolevEstimate:
    C_sharp: float
    m0: float


@dataclass
class ContinuationRecord:
    m: float
    alpha: float
    hs_norm_T: float  # trace norm in the fixed m = 1 weighting
    l2_norm: float
    residual: float
    solution: Optional[Spectrum]
    status: str

    def row(self):
        return (self.m, self.alpha, self.hs_norm_T, self.l2_norm, self.residual, self.status)


# a trial whose samples overflow in the L^q norm, or whose den^2 rounds to a
# nonpositive value, has a quotient of inf or nan, and does not rise
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def estimate_sobolev_constant(
    grid: TorusGrid,
    p: FracParams,
    rng: Optional[np.random.Generator] = None,
) -> SobolevEstimate:
    """Discrete critical-Sobolev constant by projected Rayleigh ascent.

    Maximizes |u|_{L^q} / (sum w^{2s}|k|^{2s}|c_k|^2)^{1/2} with q the critical
    exponent over zero-mean spectra; the mass does not enter the quotient.
    Returns the best of 10 random starts of at most 200 trial steps each.

    The pad is linear, and the trials along one ascent direction d are
    c + t d for the step t, halved after each rejection.  So c is padded
    once per start and d once per direction: a trial's samples are u + t u_d
    and its den^2 is den^2 + 2 t Re<c, wts d> + t^2 <d, wts d>.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    q = p.critical_exponent(grid.N)
    if not np.isfinite(q):
        # boundary case N = 2s: every finite exponent is admissible; use a
        # large fixed surrogate so the constant stays finite and reportable
        q = 16.0
    wts = multiplier(grid, FracParams(p.s, 0.0))  # (omega^2 |k|^2)^s
    vol, zero = grid.cell_volume, (0,) * grid.N

    def lq(u):  # |u|_q of the samples u
        sq = np.sum(np.abs(u) ** q)
        # a non-finite sample makes the sum non-finite
        if not (math.isfinite(sq) or np.all(np.isfinite(u))):
            raise DomainError("field values must be finite")
        return float((sq * vol) ** (1.0 / q))

    best = 0.0
    for _ in range(SOBOLEV_STARTS):
        c = random_spectrum(grid, rng, decay=0.3, zero_mean=True).coeffs.copy()
        u = pad_coeffs(c, grid, grid.n)
        num, den2 = lq(u), np.vdot(c, wts * c).real
        val, step, d = num / np.sqrt(den2), 0.5, None
        for _ in range(SOBOLEV_TRIALS):
            if d is None:
                # gradient of num - log den, not of log(num/den) (g_num num^(-q));
                # kept, as the sweep masses are gated on its m0 (ROADMAP item 5)
                g_u = np.abs(u) ** (q - 1.0) * np.sign(u)
                if not np.all(np.isfinite(g_u)):
                    break  # |u|^(q-1) overflows: the start ends where it is
                g_num = forward_transform(Field(grid, g_u)).coeffs
                try:
                    d = g_num * (num ** (1.0 - q)) - (wts * c) / den2
                except (OverflowError, ZeroDivisionError):
                    break  # num ** (1 - q) is no float: the start ends where it is
                d[zero] = 0.0
                u_d = pad_coeffs(d, grid, grid.n)
                cross, dd = 2.0 * np.vdot(c, wts * d).real, np.vdot(d, wts * d).real
            trial = u + step * u_d
            t_num, t_den2 = lq(trial), den2 + step * cross + step**2 * dd
            quot = t_num / np.sqrt(t_den2)
            if val < quot < np.inf:
                c, u, num, den2, val, d = c + step * d, trial, t_num, t_den2, quot, None
                step = min(step * 1.3, 2.0)
            else:
                step *= 0.5
                if step < 1e-10:
                    break
        best = max(best, val)
    return SobolevEstimate(C_sharp=float(best), m0=float(1.0 / (2.0 * best**2)))


def check_mass_list(m_list, m0: Optional[float]):
    """A sweep's masses are positive, finite, strictly decreasing and, unless
    m0 is None, below m0."""
    if not all(0.0 < m < np.inf for m in m_list) or any(
        b >= a for a, b in zip(m_list, m_list[1:])
    ):
        raise DomainError("m_list must be positive, finite and strictly decreasing")
    if m0 is not None and any(m >= m0 for m in m_list):
        raise DomainError(f"all masses must lie below m0 = {m0:.6g}")


def sweep_m(
    m_list,
    p_base: FracParams,
    spec: NonlinearitySpec,
    cfg: linking.LinkingConfig,
    grid: TorusGrid,
    m0: Optional[float] = None,
):
    """Warm-started linking solves down a decreasing mass list."""
    m_list = list(m_list)
    check_mass_list(m_list, m0)

    ref_params = FracParams(p_base.s, 1.0)
    records = []
    warm = None  # the evaluation point of the last converged mass
    for m in m_list:
        p = FracParams(p_base.s, m)
        try:
            if warm is None:
                st = linking.minimax_search(grid, p, spec, cfg)
                if st.status != "Converged":
                    raise DomainError(f"solver status {st.status} at m={m}")
                pt = st.point
            else:  # warm-started from the samples of the last point
                pt = linking.refine_point(Discretization(grid, p, spec).rebase(warm),
                                          tol=cfg.ps_tol * linking.POLISH_TOL_FACTOR)
            sol, alpha = Spectrum(grid, pt.U), float(pt.level)
            if hs_norm(sol, p) < 1e-6 or alpha <= 0:
                raise DomainError(f"trivial branch point at m={m}")
            records.append(
                ContinuationRecord(
                    m=m,
                    alpha=alpha,
                    hs_norm_T=hs_norm(sol, ref_params),
                    l2_norm=sol.l2_norm(),
                    residual=float(pt.gnorm),
                    solution=sol,
                    status="Converged",
                )
            )
            warm = pt
        except FractorusError as ex:  # a failed mass is recorded and skipped
            records.append(
                ContinuationRecord(
                    m=m, alpha=float("nan"), hs_norm_T=float("nan"),
                    l2_norm=float("nan"), residual=float("nan"),
                    solution=None, status=f"Failed: {type(ex).__name__}: {ex}",
                )
            )
            warm = None
    return records


def extract_limit(
    records,
    p_base: FracParams,
    spec: NonlinearitySpec,
    tol: float = 1e-8,
) -> Spectrum:
    """Massless limit of the branch: polish the smallest-m solution at m = 0.

    The mean mode is pinned (kernel of the m = 0 operator); the result must
    be nontrivial and superquadratically active: int f(x,u) u dx >= 2 lambda
    within tol, with lambda the smallest branch level.
    """
    good = [r for r in records if r.status == "Converged" and r.solution is not None]
    if len(good) < 2:
        raise DomainError("extract_limit needs at least two converged records")

    # branch Cauchy check: successive differences should be contracting
    diffs = []
    pm1 = FracParams(p_base.s, 1.0)
    for a, b in zip(good, good[1:]):
        diff = Spectrum(a.solution.grid, a.solution.coeffs - b.solution.coeffs)
        diffs.append(hs_norm(diff, pm1))
    if len(diffs) >= 2 and diffs[-1] > 10.0 * max(diffs[:-1]):
        raise NotCauchy(f"branch increments grew: {diffs}")

    seed = project_zero_mean(good[-1].solution)
    pt = linking.refine_point(
        Discretization(seed.grid, FracParams(p_base.s, 0.0), spec).at(seed.coeffs),
        tol=tol * linking.POLISH_TOL_FACTOR, enforce_zero_mean=True)
    u = Spectrum(seed.grid, pt.U)
    if hs_norm(u, pm1) < 1e-6:
        raise LimitCollapsed("m = 0 refinement collapsed to the trivial solution")
    lam_hat = min(r.alpha for r in good)
    if float(pt.action) < 2.0 * lam_hat - tol:
        raise LimitCollapsed("superquadratic activity bound failed in the limit")
    return u


def nonlinear_action(spec: NonlinearitySpec, u: Spectrum) -> float:
    """int f(x, u) u dx, the nontriviality functional of the limit passage."""
    return float(Discretization(u.grid, None, spec).at(u.coeffs).action)


def bootstrap_diagnostic(f: Field, q_list):
    """Table of L^q norms of the trace samples f along the ladder."""
    rows = []
    for q in sorted(q_list):
        if q < 2 or not np.isfinite(q):
            raise DomainError(f"q_list entries must be finite and >= 2, got {q}")
        rows.append((float(q), lq_norm(f, q)))
    return rows


def ladder_exponents(N: int, s: float):
    """The first four rungs q_k = 2 (N/(N-2s))^k, k = 0..3; requires N > 2s."""
    if N <= 2 * s:
        raise DomainError("ladder needs N > 2s")
    ratio = N / (N - 2.0 * s)
    return [2.0 * ratio**k for k in range(4)]


def holder_proxy(u: Spectrum, f: Field) -> float:
    """Holder exponent estimate from the discrete modulus of continuity of f,
    the samples of the spectrum u.

    Diagnostic only; raises InsufficientDecay when the top half of the band
    carries more than 10% of the energy (truncation-dominated spectra carry
    no regularity information), and DomainError at n = 4, whose one step
    h = T/4 is the reference scale itself.
    """
    g = u.grid
    if g.n <= 4:
        raise DomainError(f"holder_proxy needs a step h < T/4, and n = {g.n} has none")
    if u.l2_norm() == 0.0:
        raise DomainError("holder_proxy needs a nontrivial field")
    kk = np.sqrt(g.ksq())
    e2 = np.abs(u.coeffs) ** 2
    top = float(np.sum(e2[kk > g.n / 4.0]) / np.sum(e2))
    if top > 0.10:
        raise InsufficientDecay(f"top-band energy fraction {top:.2f} exceeds 10%")
    vals = f.values
    # alpha such that osc ~ C h^alpha with C = max oscillation at h ~ T/4
    scale = float(np.max(vals) - np.min(vals))
    best = 1.0
    for j in range(1, max(2, g.n // 8)):
        h = j * g.T / g.n
        osc = 0.0
        for ax in range(g.N):
            osc = max(osc, float(np.max(np.abs(np.roll(vals, -j, axis=ax) - vals))))
        if osc <= 0.0:
            continue
        alpha = np.log(osc / scale) / np.log(h / (g.T / 4.0))
        if np.isfinite(alpha):
            best = min(best, max(alpha, 0.0))
    return float(min(max(best, 1e-3), 0.999))

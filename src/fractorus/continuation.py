"""Mass continuation m -> 0 and regularity diagnostics.

The branch is tracked by warm-started linking solves at a decreasing list of
masses below m0 = 1/(2 C^2), C the discrete critical-Sobolev constant, each
started from the secant through the two previous solutions; the
massless limit is then polished at m = 0 with the mean mode pinned to zero
(constants are in the kernel there).  The bootstrap table and the Holder
proxy mirror the integrability ladder and the continuity statement as
diagnostics, not certificates.
"""

from __future__ import annotations

import itertools
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
    hs_norm,
    lq_norm,
    multiplier,
    nyquist_weight,
    pad_coeffs,
    project_zero_mean,
    restrict_values,
)
from .nonlinearity import Discretization, NonlinearitySpec, nonlinear_energy
from . import linking

SOBOLEV_STARTS, SOBOLEV_TRIALS = 10, 200  # random starts; trial steps per start
SOBOLEV_ROUND_FLOATS = 2**13  # trial samples per round of the ascent, >= one trial per live start


@dataclass(frozen=True)
class SobolevEstimate:
    C_sharp: float
    m0: float


@dataclass
class ContinuationRecord:
    m: float
    status: str
    alpha: float = math.nan
    hs_norm_T: float = math.nan  # trace norm in the fixed m = 1 weighting
    l2_norm: float = math.nan
    residual: float = math.nan
    solution: Optional[Spectrum] = None

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
    The starts ascend in lockstep rounds.  A round takes the directions of
    the starts whose iterate moved with one transform and one pad, then
    samples the next trials of every live start at once: its step and the
    halvings after it, at most SOBOLEV_ROUND_FLOATS samples in all but at
    least one trial per start.  Each start reads its trials in order, in
    floats, up to the first that rises, as it would alone; so C and m0 are
    bit for bit those of the starts run one after another, one trial at a time.
    Raises DomainError when a sample is not finite, or when |u|^q
    underflows on every start, so that C^2 rounds to 0 and m0 is no float.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    q = p.critical_exponent(grid.N)
    if not np.isfinite(q):
        # boundary case N = 2s: every finite exponent is admissible; use a
        # large fixed surrogate so the constant stays finite and reportable
        q = 16.0
    wts = multiplier(grid, FracParams(p.s, 0.0))  # (omega^2 |k|^2)^s
    vol, nyq = grid.cell_volume, nyquist_weight(grid)
    mean, col = (slice(None),) + (0,) * grid.N, (-1,) + (1,) * grid.N  # of a batch of spectra

    def lq(sq, u):  # |u|_q of the samples u, from sq = sum |u|^q
        # a non-finite sample makes the sum non-finite
        if not (math.isfinite(sq) or np.all(np.isfinite(u))):
            raise DomainError("field values must be finite")
        return (sq * vol) ** (1.0 / q)

    # each start as random_spectrum(grid, rng, decay=0.3, zero_mean=True) draws it
    c = nyq * restrict_values(rng.standard_normal((SOBOLEV_STARTS,) + grid.shape), grid)
    c = c * np.exp(-0.3 * np.sqrt(grid.ksq()))
    c[mean] = 0.0
    u = pad_coeffs(c, grid, grid.n)
    num = [lq(sq, row) for sq, row in zip(_q_sums(u, q), u)]
    den2 = [np.vdot(row, wts * row).real for row in c]
    val = [float(a / np.sqrt(b)) for a, b in zip(num, den2)]
    den2 = [float(b) for b in den2]
    d, u_d = np.zeros_like(c), np.zeros_like(u)
    step, left, cross, dd = ([x] * SOBOLEV_STARTS for x in (0.5, SOBOLEV_TRIALS, 0.0, 0.0))
    live = [i for i in range(SOBOLEV_STARTS) if left[i] > 0]
    moved = live  # the live starts whose iterate moved: each needs a direction
    while live:
        if moved:
            # gradient of num - log den, not of log(num/den) (g_num num^(-q));
            # kept, as the sweep masses are gated on its m0 (ROADMAP item 10)
            g_u = np.abs(u_m := u[moved]) ** (q - 1.0) * np.sign(u_m)
            ok = np.all(np.isfinite(g_u.reshape(len(moved), -1)), axis=1)
            factor = np.zeros(len(moved))
            for j, i in enumerate(moved):
                try:
                    factor[j] = num[i] ** (1.0 - q)
                except (OverflowError, ZeroDivisionError):
                    ok[j] = False
            if not ok.all():  # |u|^(q-1) overflows or num ** (1 - q) is no float
                ended = {i for i, keep in zip(moved, ok) if not keep}
                live = [i for i in live if i not in ended]  # they end where they are
                moved = [i for i in moved if i not in ended]
        if moved:
            D = (nyq * restrict_values(g_u[ok], grid) * factor[ok].reshape(col)
                 - (wts * c[moved]) / np.reshape([den2[i] for i in moved], col))
            D[mean] = 0.0
            d[moved], u_d[moved] = D, pad_coeffs(D, grid, grid.n)
            for i, row, w_row in zip(moved, D, wts * D):
                cross[i] = 2.0 * float(np.vdot(c[i], w_row).real)
                dd[i] = float(np.vdot(row, w_row).real)
        if not live:
            break
        # each live start's trials: its step, then halvings down to the 1e-10
        # floor, within its budget and its share of the round
        share = max(1, SOBOLEV_ROUND_FLOATS // (len(live) * grid.size))
        steps, owner = [], []
        for i in live:
            t = step[i]
            for _ in range(min(share, left[i])):
                steps.append(t)
                owner.append(i)
                t *= 0.5
                if t < 1e-10:
                    break
        trial = u_d[owner] * np.reshape(steps, col)
        trial += u[owner]  # u + t u_d
        sq, moved, rose, at = _q_sums(trial, q), [], [], []
        for i, rows in itertools.groupby(range(len(owner)), owner.__getitem__):
            for k in rows:
                t = steps[k]
                t_num, t_den2 = lq(sq[k], trial[k]), den2[i] + t * cross[i] + t**2 * dd[i]
                left[i] -= 1
                # t_num / sqrt(t_den2) is inf or nan where t_den2 <= 0: no rise
                if t_den2 > 0.0 and val[i] < (quot := t_num / math.sqrt(t_den2)) < math.inf:
                    num[i], den2[i], val[i], step[i] = t_num, t_den2, quot, min(t * 1.3, 2.0)
                    moved.append(i)
                    rose.append(t)
                    at.append(k)
                    break
                step[i] = t * 0.5
                if step[i] < 1e-10:
                    left[i] = 0
                    break
        if moved:
            c[moved] += np.reshape(rose, col) * d[moved]
            u[moved] = trial[at]
        live = [i for i in live if left[i] > 0]
        moved = [i for i in moved if left[i] > 0]
    best = np.float64(max([0.0] + val))  # a nan quotient never rises above 0; C^2 may be inf
    if not best**2 > 0.0:
        raise DomainError(f"|u|^q underflows on every start of the Sobolev ascent at q = {q:.6g}")
    return SobolevEstimate(C_sharp=float(best), m0=float(1.0 / (2.0 * best**2)))


def _q_sums(U: np.ndarray, q: float) -> list:
    """sum |u|^q over each row u of the batch U, as floats."""
    return np.sum(np.abs(U.reshape(len(U), -1)) ** q, axis=1).tolist()


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
    """Linking solves down a decreasing mass list: minimax_search at the first mass and
    after a failed one, else linking.polish, with no ceiling, from a predicted point.
    Where the two previous masses m0 > m1 converged to U0 and U1, the prediction
    at m is the secant U1 + (m - m1)/(m1 - m0) (U1 - U0) (Allgower & Georg,
    Introduction to Numerical Continuation Methods, ch. 2); at the second mass
    and after a failed one it is the last solution U1.
    A failed mass is recorded as "Failed: <status> at m=<m>", NoNontrivialSolution
    for a warm point polish rejects, or "Failed: <class>: <message>" of an error."""
    m_list = list(m_list)
    check_mass_list(m_list, m0)

    ref_params = FracParams(p_base.s, 1.0)
    records = []
    branch = []  # (m, U) of the converged masses since the last failed one, at most two
    for m in m_list:
        p = FracParams(p_base.s, m)
        try:
            if not branch:
                st = linking.minimax_search(grid, p, spec, cfg)
                pt, status = st.point, st.status
            else:
                U = branch[-1][1]
                if len(branch) == 2:
                    (m_a, U_a), (m_b, U_b) = branch
                    U = U_b + ((m - m_b) / (m_b - m_a)) * (U_b - U_a)
                pt = linking.polish(Discretization(grid, p, spec).at(U), cfg.ps_tol)
                status = "NoNontrivialSolution" if pt is None else "Converged"
            if status == "Converged":
                sol = Spectrum(grid, pt.U)
                rec = ContinuationRecord(
                    m=m,
                    alpha=float(pt.level),
                    hs_norm_T=hs_norm(sol, ref_params),
                    l2_norm=sol.l2_norm(),
                    residual=float(pt.gnorm),
                    solution=sol,
                    status=status,
                )
            else:
                rec = ContinuationRecord(m=m, status=f"Failed: {status} at m={m}")
        except FractorusError as ex:
            rec = ContinuationRecord(m=m, status=f"Failed: {type(ex).__name__}: {ex}")
        records.append(rec)
        branch = (branch + [(m, pt.U)])[-2:] if rec.solution is not None else []
    return records


def extract_limit(
    records,
    p_base: FracParams,
    spec: NonlinearitySpec,
    tol: float = 1e-8,
) -> Spectrum:
    """Massless limit of the branch: polish the smallest-m solution at m = 0.

    The mean mode is pinned (kernel of the m = 0 operator); linking.polish must
    accept the result at m = 0, with no ceiling, and it must be superquadratically
    active: int f(x,u) u dx = (p+1) int F(x,u) dx (F is homogeneous, see
    nonlinearity) >= 2 lambda within tol, with lambda the smallest branch level.
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
    disc = Discretization(seed.grid, FracParams(p_base.s, 0.0), spec)
    pt = linking.polish(disc.at(seed.coeffs), tol)
    if pt is None:
        raise LimitCollapsed("m = 0 refinement collapsed to the trivial solution")
    lam_hat = min(r.alpha for r in good)
    if (spec.p + 1.0) * float(pt.nonlinear_energy) < 2.0 * lam_hat - tol:
        raise LimitCollapsed("superquadratic activity bound failed in the limit")
    return Spectrum(seed.grid, pt.U)


def nonlinear_action(spec: NonlinearitySpec, u: Spectrum) -> float:
    """int f(x, u) u dx, the nontriviality functional of the limit passage:
    (p+1) int F(x, u) dx, as F is homogeneous of degree p+1 (see nonlinearity)."""
    return (spec.p + 1.0) * nonlinear_energy(spec, u)


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

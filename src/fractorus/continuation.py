"""Mass continuation m -> 0 and regularity diagnostics.

The branch is tracked by warm-started linking solves at a decreasing list of
masses below m0 = 1/(2 C^2), C the discrete critical-Sobolev constant; the
massless limit is then polished at m = 0 with the mean mode pinned to zero
(constants are in the kernel there).  The bootstrap table and the Holder
proxy mirror the integrability ladder and the continuity statement as
diagnostics, not certificates.
"""

from __future__ import annotations

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
    FracParams,
    Spectrum,
    TorusGrid,
    hs_norm,
    inverse_transform,
    lq_norm,
    project_zero_mean,
    random_spectrum,
)
from .nonlinearity import Discretization, NonlinearitySpec
from . import energy, linking


@dataclass(frozen=True)
class SobolevEstimate:
    C_sharp: float
    m0: float

    def to_json(self) -> dict:
        return {"C_sharp": self.C_sharp, "m0": self.m0}


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


def estimate_sobolev_constant(
    grid: TorusGrid,
    p: FracParams,
    n_starts: int = 10,
    iters: int = 200,
    rng: Optional[np.random.Generator] = None,
) -> SobolevEstimate:
    """Discrete critical-Sobolev constant by projected Rayleigh ascent.

    Maximizes |u|_{L^q} / (sum w^{2s}|k|^{2s}|c_k|^2)^{1/2} with q the critical
    exponent over zero-mean spectra; the mass does not enter the quotient.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    q = p.critical_exponent(grid.N)
    if not np.isfinite(q):
        # boundary case N = 2s: every finite exponent is admissible; use a
        # large fixed surrogate so the constant stays finite and reportable
        q = 16.0
    wts = (grid.omega**2 * grid.ksq()) ** p.s
    zero = (0,) * grid.N

    def quotient(c):
        den = np.sqrt(np.sum(wts * np.abs(c) ** 2).real)
        u = inverse_transform(Spectrum(grid, c), check=False)
        return lq_norm(u, q) / den

    best = 0.0
    for _ in range(n_starts):
        c = random_spectrum(grid, rng, decay=0.3, zero_mean=True).coeffs.copy()
        val = quotient(c)
        step = 0.5
        for _ in range(iters):
            # ascent direction: gradient of log-quotient in coefficient space
            u = inverse_transform(Spectrum(grid, c), check=False)
            g_num = np.fft.fftn(np.abs(u.values) ** (q - 1.0) * np.sign(u.values)) * (
                grid.T ** (grid.N / 2.0) / grid.size
            )
            num = lq_norm(u, q)
            den2 = np.sum(wts * np.abs(c) ** 2).real
            d = g_num * (num ** (1.0 - q)) - (wts * c) / den2
            d[zero] = 0.0
            cand = c + step * d
            cand[zero] = 0.0
            v = quotient(cand)
            if v > val:
                c, val = cand, v
                step = min(step * 1.3, 2.0)
            else:
                step *= 0.5
                if step < 1e-10:
                    break
        best = max(best, val)
    return SobolevEstimate(C_sharp=float(best), m0=float(1.0 / (2.0 * best**2)))


def sweep_m(
    m_list,
    p_base: FracParams,
    spec: NonlinearitySpec,
    cfg: linking.LinkingConfig,
    grid: TorusGrid,
    m0: Optional[float] = None,
    rng: Optional[np.random.Generator] = None,
):
    """Warm-started linking solves down a decreasing mass list."""
    m_list = list(m_list)
    if not m_list:
        return []
    if any(m <= 0 for m in m_list) or any(
        b >= a for a, b in zip(m_list, m_list[1:])
    ):
        raise DomainError("m_list must be positive and strictly decreasing")
    if m0 is not None and any(m >= m0 for m in m_list):
        raise DomainError(f"all masses must lie below m0 = {m0}")
    if rng is None:
        rng = np.random.default_rng(0)

    ref_params = FracParams(p_base.s, 1.0)
    records = []
    warm = None
    for m in m_list:
        p = FracParams(p_base.s, m)
        try:
            if warm is None:
                st = linking.minimax_search(grid, p, spec, cfg, rng=rng)
                if st.status != "Converged":
                    raise DomainError(f"solver status {st.status} at m={m}")
                sol = st.iterate
                alpha = st.level
            else:
                sol = linking.newton_refine(warm, p, spec, tol=cfg.ps_tol * 0.1)
                alpha = energy.evaluate(sol, p, spec).value
            res = linking.residual_norm(sol, p, spec)
            if hs_norm(sol, p) < 1e-6 or alpha <= 0:
                raise DomainError(f"trivial branch point at m={m}")
            records.append(
                ContinuationRecord(
                    m=m,
                    alpha=float(alpha),
                    hs_norm_T=hs_norm(sol, ref_params),
                    l2_norm=sol.l2_norm(),
                    residual=res,
                    solution=sol,
                    status="Converged",
                )
            )
            warm = sol
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

    p0 = FracParams(p_base.s, 0.0)
    seed = project_zero_mean(good[-1].solution)
    u = linking.newton_refine(seed, p0, spec, tol=tol * 0.1, enforce_zero_mean=True)
    if hs_norm(u, pm1) < 1e-6:
        raise LimitCollapsed("m = 0 refinement collapsed to the trivial solution")
    if linking.residual_norm(u, p0, spec) >= tol:
        raise LimitCollapsed("m = 0 residual did not reach tolerance")
    lam_hat = min(r.alpha for r in good)
    if nonlinear_action(spec, u) < 2.0 * lam_hat - tol:
        raise LimitCollapsed("superquadratic activity bound failed in the limit")
    return u


def nonlinear_action(spec: NonlinearitySpec, u: Spectrum) -> float:
    """int f(x, u) u dx, the nontriviality functional of the limit passage."""
    return float(Discretization(u.grid, None, spec).action(u.coeffs))


def bootstrap_diagnostic(u: Spectrum, q_list, p: Optional[FracParams] = None):
    """Table of L^q trace norms along the integrability ladder."""
    rows = []
    f = inverse_transform(u, check=False)
    for q in sorted(q_list):
        if q < 2 or not np.isfinite(q):
            raise DomainError(f"q_list entries must be finite and >= 2, got {q}")
        rows.append((float(q), lq_norm(f, q)))
    return rows


def ladder_exponents(N: int, s: float, count: int = 6):
    """q_k = 2 (N/(N-2s))^k; requires N > 2s."""
    if N <= 2 * s:
        raise DomainError("ladder needs N > 2s")
    ratio = N / (N - 2.0 * s)
    return [2.0 * ratio**k for k in range(count)]


def holder_proxy(u: Spectrum) -> float:
    """Holder exponent estimate from the discrete modulus of continuity.

    Diagnostic only; raises InsufficientDecay when the top half of the band
    carries more than 10% of the energy (truncation-dominated spectra carry
    no regularity information).
    """
    g = u.grid
    if u.l2_norm() == 0.0:
        raise DomainError("holder_proxy needs a nontrivial field")
    kk = np.sqrt(g.ksq())
    e2 = np.abs(u.coeffs) ** 2
    top = float(np.sum(e2[kk > g.n / 4.0]) / np.sum(e2))
    if top > 0.10:
        raise InsufficientDecay(f"top-band energy fraction {top:.2f} exceeds 10%")
    vals = inverse_transform(u, check=False).values
    h_steps = range(1, max(2, g.n // 8))
    best = 1.0
    for j in h_steps:
        h = j * g.T / g.n
        osc = 0.0
        for ax in range(g.N):
            osc = max(osc, float(np.max(np.abs(np.roll(vals, -j, axis=ax) - vals))))
        if osc <= 0.0:
            continue
        # alpha such that osc ~ C h^alpha with C = max oscillation at h ~ T/4
        scale = float(np.max(vals) - np.min(vals))
        if scale <= 0:
            continue
        alpha = np.log(osc / scale) / np.log(h / (g.T / 4.0))
        if np.isfinite(alpha):
            best = min(best, max(alpha, 0.0))
    return float(min(max(best, 1e-3), 0.999))

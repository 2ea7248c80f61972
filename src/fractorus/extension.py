"""Half-cylinder extension of a periodic trace and its weighted energy.

The extension of u = sum c_k e_k is v(x,y) = sum c_k theta(sqrt(lam_k) y) e_k
with lam_k = omega^2|k|^2 + m^2.  Its weighted energy reduces mode by mode,
through the substitution t = sqrt(lam_k) y, to kappa(s) * |u|_{H^s}^2; that
chain of equalities is what the energy routines implement, so the sharp trace
inequality and its equality case can be checked numerically.  An extension
is the cylinder function sum c_k g(rate_k y) e_k whose one profile g of
t = rate_k y is theta, so every energy is sum lam_k^s |c_k|^2 times the one
split half-line integral of g, `theta.split_energy`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, QuadratureUnconverged, ZeroModeNoDecay
from .grids import (
    Field,
    FracParams,
    Spectrum,
    TorusGrid,
    hs_norm,
    inverse_transform,
    multiplier,
    project_zero_mean,
)
from .theta import (
    DEFAULT_NODES,
    extrapolate_to_zero,
    kappa,
    small_y_exponents,
    split_energy,
    theta_profile,
)

_CONVERGENCE_TOL = 1e-6


@dataclass(frozen=True)
class CylinderFunction:
    """Mode-separable function v = sum c_k g(rate_k y) e_k on the half-cylinder.

    base holds the coefficients c_k, and rate_k = sqrt(omega^2 |k|^2 + m^2).
    One profile g(t) and its derivative dg(t), callables on arrays of t > 0,
    serve every mode: through t = rate_k y a mode's energy is lam_k^s |c_k|^2
    times the one integral int t^{1-2s} (g'^2 + g^2) dt, so a mode of rate 0
    (k = 0 at m = 0) contributes no energy and is constant in y.  g0 is g(0+)
    when it is known (1 for theta), else None.
    """

    base: Spectrum
    params: FracParams
    g: Callable = dc_field(repr=False)
    dg: Callable = dc_field(repr=False)
    g0: Optional[float] = None

    def __post_init__(self):
        self.params.check_grid(self.grid)

    @property
    def grid(self) -> TorusGrid:
        return self.base.grid

    def g_at_zero(self) -> float:
        """g(0+): g0 when known, else extrapolated once from the smallest t."""
        if self.g0 is not None:
            return self.g0
        ts = np.array([1e-5, 1e-7, 1e-9])
        exps = sorted({2.0 * self.params.s, 1.0, 2.0})
        return extrapolate_to_zero(ts, self.g(ts)[:, None], exps)[0]

    def mode_rates(self) -> np.ndarray:
        """sqrt(omega^2 |k|^2 + m^2) per mode: the symbol of (-Lap + m^2)^{1/2}."""
        return multiplier(self.grid, FracParams(0.5, self.params.m))

    def slice_at(self, y: float) -> Field:
        """Field samples of v(., y); a mode at t = rate_k y = 0 takes g(0+)."""
        if y < 0:
            raise DomainError("y must be nonnegative")
        if y == 0.0:
            return inverse_transform(trace(self))
        t = self.mode_rates() * y
        damp = np.where(t > 0, self.g(np.where(t > 0, t, 1.0)), self.g_at_zero())
        return inverse_transform(Spectrum(self.grid, self.base.coeffs * damp))


def extend(u: Spectrum, p: FracParams) -> CylinderFunction:
    """Minimal-energy extension of u to the half-cylinder: profile theta."""
    if p.m == 0.0:
        if abs(u.mean_coeff) > 1e-12 * u.l2_norm():
            raise ZeroModeNoDecay("constant mode has no finite-energy extension at m = 0")
        u = project_zero_mean(u)
    prof = theta_profile(p.s)
    return CylinderFunction(u, p, prof.theta, prof.theta_prime, g0=1.0)


def cylinder_from_profiles(
    base: Spectrum, p: FracParams, g: Callable, dg: Callable
) -> CylinderFunction:
    """Separable cylinder function v = sum c_k g(rate_k y) e_k."""
    return CylinderFunction(base, p, g, dg)


def as_cylinder(v: CylinderFunction) -> CylinderFunction:
    """v as any cylinder function: its g(0+) is no longer taken as known."""
    return replace(v, g0=None)


# ---------------------------------------------------------------------------
# energies

def cylinder_energy(v: CylinderFunction) -> float:
    """Weighted energy int y^{1-2s} (|grad v|^2 + m^2 v^2) dx dy of a cylinder
    function, checked against the same rule at half the nodes.

    With t = rate_k y a mode's energy is lam_k^s |c_k|^2 times the split
    integral int t^{1-2s} g^2 dt + int t^{1-2s} g'^2 dt of the one profile g,
    so the energy is |c|^2_{H^s} times that integral.
    """
    norm_sq = hs_norm(v.base, v.params) ** 2
    fine, coarse = (norm_sq * e for e in split_energy(v.params.s, DEFAULT_NODES, v.g, v.dg))
    if abs(fine - coarse) > _CONVERGENCE_TOL * max(abs(fine), 1.0):
        raise QuadratureUnconverged(f"energy moved by {abs(fine - coarse):.2e} on refinement")
    return fine


# ---------------------------------------------------------------------------
# trace and conormal derivative

def trace(v: CylinderFunction) -> Spectrum:
    """Trace at y = 0: the coefficients times g(0+)."""
    return Spectrum(v.grid, v.g_at_zero() * v.base.coeffs)


def conormal_derivative(v: CylinderFunction, y_list) -> Spectrum:
    """Richardson-extrapolated spectrum of -y^{1-2s} dv/dy as y -> 0.

    Equals kappa(s) (-Lap + m^2)^s u mode by mode on an extension.
    """
    y = np.asarray(y_list, dtype=float)
    s = v.params.s
    rates = v.mode_rates().ravel()
    pos = rates > 0
    yc = y[:, None]
    q = np.zeros((y.size, rates.size))
    q[:, pos] = -(yc ** (1.0 - 2.0 * s)) * rates[pos] * v.dg(rates[pos] * yc)
    limits = extrapolate_to_zero(y, v.base.coeffs.ravel() * q, small_y_exponents(s))
    return Spectrum(v.grid, limits.reshape(v.grid.shape))


# ---------------------------------------------------------------------------
# sharp trace gaps

def sharp_trace_gap(v: CylinderFunction, p: FracParams) -> float:
    """||v||^2 - kappa(s) |Tr v|^2_{H^s}; zero exactly on minimal extensions."""
    return cylinder_energy(v) - kappa(p.s) * hs_norm(trace(v), p) ** 2


def ground_gap(v: CylinderFunction, p: FracParams) -> float:
    """||v||^2 - kappa(s) m^{2s} |Tr v|^2_{L^2}; zero iff v = C theta(my)."""
    if p.m == 0.0:
        raise DomainError("ground gap requires m > 0")
    return cylinder_energy(v) - kappa(p.s) * p.m ** (2.0 * p.s) * trace(v).l2_norm() ** 2

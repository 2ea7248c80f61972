"""Half-cylinder extension of a periodic trace and its weighted energy.

The extension of u = sum c_k e_k is v(x,y) = sum c_k theta(sqrt(lam_k) y) e_k
with lam_k = omega^2|k|^2 + m^2.  Its weighted energy reduces mode by mode,
through the substitution t = sqrt(lam_k) y, to kappa(s) * |u|_{H^s}^2; that
chain of equalities is what the energy routines implement, so the sharp trace
inequality and its equality case can be checked numerically.  An extension
and a cylinder function are both sum c_k g(rate_k y) e_k with one profile g
of t = rate_k y (theta for an extension), so the energy is
sum lam_k^s |c_k|^2 times the one split half-line integral of g,
`theta.split_energy`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .errors import DomainError, QuadratureUnconverged, ZeroModeNoDecay
from .grids import (
    Field,
    FracParams,
    Spectrum,
    TorusGrid,
    hs_norm,
    inverse_transform,
)
from .theta import (
    DEFAULT_NODES,
    ThetaProfile,
    extrapolate_to_zero,
    kappa,
    small_y_exponents,
    split_energy,
)

_CONVERGENCE_TOL = 1e-6


def _theta_at(prof: ThetaProfile, t: np.ndarray) -> np.ndarray:
    """theta(t), with theta(0) = 1 where t = 0: a rate-0 mode is constant in y."""
    return np.where(t > 0, prof.theta(np.where(t > 0, t, 1.0)), 1.0)


@dataclass(frozen=True)
class ExtensionField:
    """Analytic extension: base spectrum plus the per-mode theta profile."""

    base: Spectrum
    params: FracParams
    profile: ThetaProfile = dc_field(repr=False)

    @property
    def grid(self) -> TorusGrid:
        return self.base.grid

    def g(self, t):
        return self.profile.theta(t)

    def dg(self, t):
        return self.profile.theta_prime(t)

    def mode_rates(self) -> np.ndarray:
        """sqrt(omega^2 |k|^2 + m^2) per mode."""
        return np.sqrt(self.grid.omega**2 * self.grid.ksq() + self.params.m**2)

    def slice_at(self, y: float) -> Field:
        """Field samples of v(., y)."""
        if y < 0:
            raise DomainError("y must be nonnegative")
        if y == 0.0:
            return inverse_transform(self.base)
        damp = _theta_at(self.profile, self.mode_rates() * y)
        return inverse_transform(Spectrum(self.grid, self.base.coeffs * damp), check=False)


def extend(u: Spectrum, p: FracParams) -> ExtensionField:
    """Minimal-energy extension of u to the half-cylinder."""
    p.check_grid(u.grid)
    if p.m == 0.0:
        c0 = abs(u.mean_coeff)
        norm = u.l2_norm()
        if norm > 0 and c0 > 1e-12 * norm:
            raise ZeroModeNoDecay(
                "constant mode has no finite-energy extension at m = 0"
            )
        coeffs = u.coeffs.copy()
        coeffs[(0,) * u.grid.N] = 0.0
        u = Spectrum(u.grid, coeffs)
    return ExtensionField(base=u, params=p, profile=ThetaProfile(p.s))


@dataclass(frozen=True)
class CylinderFunction:
    """Mode-separable function v = sum c_k g(rate_k y) e_k on the half-cylinder.

    base holds the coefficients c_k, and rate_k = sqrt(omega^2 |k|^2 + m^2).
    One profile g(t) and its derivative dg(t), callables on arrays of t > 0,
    serve every mode: through t = rate_k y a mode's energy is lam_k^s |c_k|^2
    times the one integral int t^{1-2s} (g'^2 + g^2) dt, so a mode of rate 0
    (k = 0 at m = 0) contributes no energy.
    """

    base: Spectrum
    params: FracParams
    g: Callable = dc_field(repr=False)
    dg: Callable = dc_field(repr=False)

    @property
    def grid(self) -> TorusGrid:
        return self.base.grid


def cylinder_from_profiles(
    base: Spectrum, p: FracParams, g: Callable, dg: Callable
) -> CylinderFunction:
    """Separable cylinder function v = sum c_k g(rate_k y) e_k."""
    p.check_grid(base.grid)
    return CylinderFunction(base, p, g, dg)


def as_cylinder(v: ExtensionField) -> CylinderFunction:
    """The extension as a cylinder function with profile theta."""
    return cylinder_from_profiles(v.base, v.params, v.g, v.dg)


# ---------------------------------------------------------------------------
# energies

def cylinder_energy(v) -> float:
    """Weighted energy int y^{1-2s} (|grad v|^2 + m^2 v^2) dx dy of an
    extension or a cylinder function, checked against the same rule at half
    the nodes.

    With t = rate_k y a mode's energy is lam_k^s |c_k|^2 times the split
    integral int t^{1-2s} g^2 dt + int t^{1-2s} g'^2 dt of the one profile g,
    so the energy is |c|^2_{H^s} times that integral.
    """
    norm_sq = hs_norm(v.base, v.params) ** 2
    fine, coarse = (norm_sq * e for e in split_energy(v.params.s, DEFAULT_NODES, v.g, v.dg))
    if abs(fine - coarse) > _CONVERGENCE_TOL * max(abs(fine), 1.0):
        raise QuadratureUnconverged(
            f"energy moved by {abs(fine - coarse):.2e} on refinement"
        )
    return fine


# ---------------------------------------------------------------------------
# trace and conormal derivative

def trace(v) -> Spectrum:
    """Trace at y = 0: an extension's base, or a cylinder function's
    coefficients times g(0+), extrapolated once from the smallest t."""
    if isinstance(v, ExtensionField):
        return v.base
    ts = np.array([1e-5, 1e-7, 1e-9])
    g0 = extrapolate_to_zero(ts, v.g(ts)[:, None], sorted({2.0 * v.params.s, 1.0, 2.0}))[0]
    return Spectrum(v.grid, g0 * v.base.coeffs)


def conormal_derivative(v: ExtensionField, y_list) -> Spectrum:
    """Richardson-extrapolated spectrum of -y^{1-2s} dv/dy as y -> 0.

    Equals kappa(s) (-Lap + m^2)^s u mode by mode.
    """
    y = np.asarray(y_list, dtype=float)
    s = v.params.s
    rates = v.mode_rates().ravel()
    pos = rates > 0
    yc = y[:, None]
    q = np.zeros((y.size, rates.size))
    q[:, pos] = -(yc ** (1.0 - 2.0 * s)) * rates[pos] * v.profile.theta_prime(rates[pos] * yc)
    limits = extrapolate_to_zero(y, v.base.coeffs.ravel() * q, small_y_exponents(s))
    return Spectrum(v.grid, limits.reshape(v.grid.shape))


# ---------------------------------------------------------------------------
# sharp trace gaps

def sharp_trace_gap(v, p: FracParams) -> float:
    """||v||^2 - kappa(s) |Tr v|^2_{H^s}; zero exactly on minimal extensions."""
    energy = cylinder_energy(v)
    tr = trace(v)
    return energy - kappa(p.s) * hs_norm(tr, p) ** 2


def ground_gap(v, p: FracParams) -> float:
    """||v||^2 - kappa(s) m^{2s} |Tr v|^2_{L^2}; zero iff v = C theta(my)."""
    if p.m == 0.0:
        raise DomainError("ground gap requires m > 0")
    energy = cylinder_energy(v)
    tr = trace(v)
    return energy - kappa(p.s) * p.m ** (2.0 * p.s) * tr.l2_norm() ** 2

"""Half-cylinder extension of a periodic trace and its weighted energy.

The extension of u = sum c_k e_k is v(x,y) = sum c_k theta(sqrt(lam_k) y) e_k
with lam_k = omega^2|k|^2 + m^2.  Its weighted energy reduces mode by mode,
through the substitution t = sqrt(lam_k) y, to kappa(s) * |u|_{H^s}^2; that
chain of equalities is what the energy routines implement, so the sharp trace
inequality and its equality case can be checked numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
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
)
from .theta import (
    HalflineRule,
    ThetaProfile,
    extrapolate_to_zero,
    halfline_rule,
    kappa,
    profile_energy_integral,
    small_y_exponents,
)

DEFAULT_NODES = 400
_CONVERGENCE_TOL = 1e-6


def _lam(grid: TorusGrid, p: FracParams) -> np.ndarray:
    return grid.omega**2 * grid.ksq() + p.m**2


@dataclass(frozen=True)
class ExtensionField:
    """Analytic extension: base spectrum plus the per-mode theta profile."""

    base: Spectrum
    params: FracParams
    profile: ThetaProfile = dc_field(repr=False)

    @property
    def grid(self) -> TorusGrid:
        return self.base.grid

    def trace(self) -> Spectrum:
        """Exact by construction."""
        return self.base

    def mode_rates(self) -> np.ndarray:
        """sqrt(omega^2 |k|^2 + m^2) per mode."""
        return np.sqrt(_lam(self.grid, self.params))

    def slice_at(self, y: float) -> Field:
        """Field samples of v(., y)."""
        if y < 0:
            raise DomainError("y must be nonnegative")
        if y == 0.0:
            return inverse_transform(self.base)
        rates = self.mode_rates()
        damp = np.zeros_like(rates)
        pos = rates > 0
        damp[pos] = self.profile.theta(rates[pos] * y)
        damp[~pos] = 1.0  # massless mean mode (coefficient is zero anyway)
        return inverse_transform(Spectrum(self.grid, self.base.coeffs * damp), check=False)

    def interior_residual(self, y_samples) -> float:
        """Max per-unit-energy residual of -div(y^{1-2s} grad v) + m^2 y^{1-2s} v.

        For each mode the residual reduces to lam_k |c_k| times the theta ODE
        residual at sqrt(lam_k) y.
        """
        rates = self.mode_rates()
        c = np.abs(self.base.coeffs)
        energy = kappa(self.params.s) * hs_norm(self.base, self.params) ** 2
        if energy == 0.0:
            return 0.0
        worst = 0.0
        for y in np.asarray(y_samples, dtype=float):
            pos = rates > 0
            res = rates[pos] ** 2 * c[pos] * self.profile.ode_residual(rates[pos] * y)
            worst = max(worst, float(np.max(res)) if res.size else 0.0)
        return worst / energy


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
    """Mode-separable function v = sum c_k g(rate_k, y) e_k on the half-cylinder.

    y_nodes/y_weights realize int_0^inf y^{1-2s} h(y) dy for bounded h; the
    profile callables (signature (rate_array, y_array) -> values,
    broadcasting) keep the energy computation spectrally accurate.
    """

    grid: TorusGrid
    params: FracParams
    y_nodes: np.ndarray = dc_field(repr=False)
    y_weights: np.ndarray = dc_field(repr=False)
    mode_coeffs: np.ndarray = dc_field(repr=False)
    profile_fn: Callable = dc_field(repr=False)
    dprofile_fn: Callable = dc_field(repr=False)

    def __post_init__(self):
        y = np.asarray(self.y_nodes, dtype=float)
        if np.any(np.diff(y) <= 0) or np.any(y <= 0):
            raise DomainError("y_nodes must be strictly increasing positives")
        if np.any(np.asarray(self.y_weights) <= 0):
            raise DomainError("quadrature weights must be positive")


def cylinder_from_profiles(
    base: Spectrum,
    p: FracParams,
    profile_fn: Callable,
    dprofile_fn: Callable,
    nodes: int = DEFAULT_NODES,
) -> CylinderFunction:
    """Separable cylinder function v = sum c_k g(rate_k, y) e_k."""
    p.check_grid(base.grid)
    rule = halfline_rule(1.0 - 2.0 * p.s, nodes)
    return CylinderFunction(
        grid=base.grid,
        params=p,
        y_nodes=rule.y,
        y_weights=rule.w,
        mode_coeffs=base.coeffs,
        profile_fn=profile_fn,
        dprofile_fn=dprofile_fn,
    )


def as_cylinder(v: ExtensionField, nodes: int = DEFAULT_NODES) -> CylinderFunction:
    """Sample an analytic extension onto the standard quadrature cylinder."""
    prof = v.profile

    def g(rate, y):
        t = rate * y
        out = np.ones(np.broadcast_shapes(np.shape(rate), np.shape(y)))
        pos = np.broadcast_to(rate > 0, out.shape)
        tt = np.broadcast_to(t, out.shape)
        out[pos] = prof.theta(tt[pos])
        return out

    def gp(rate, y):
        t = rate * y
        out = np.zeros(np.broadcast_shapes(np.shape(rate), np.shape(y)))
        pos = np.broadcast_to(rate > 0, out.shape)
        tt = np.broadcast_to(t, out.shape)
        rr = np.broadcast_to(rate, out.shape)
        out[pos] = rr[pos] * prof.theta_prime(tt[pos])
        return out

    return cylinder_from_profiles(v.base, v.params, g, gp, nodes=nodes)


# ---------------------------------------------------------------------------
# energies

def _extension_energy(v: ExtensionField, nodes: int) -> float:
    s = v.params.s
    coarse = profile_energy_integral(s, max(nodes // 2, 50))
    fine = profile_energy_integral(s, nodes)
    if abs(fine - coarse) > _CONVERGENCE_TOL * max(abs(fine), 1.0):
        raise QuadratureUnconverged(
            f"profile integral moved by {abs(fine - coarse):.2e} on refinement"
        )
    lam = _lam(v.grid, v.params)
    return float(fine * np.sum(lam**s * np.abs(v.base.coeffs) ** 2))


def _separable_energy(v: CylinderFunction, nodes: Optional[int] = None) -> float:
    if nodes is None:
        rule_y, rule_w = v.y_nodes, v.y_weights
    else:
        rule = halfline_rule(1.0 - 2.0 * v.params.s, nodes)
        rule_y, rule_w = rule.y, rule.w
    rates = np.sqrt(_lam(v.grid, v.params))
    G = v.profile_fn(rates[..., None], rule_y)
    Gp = v.dprofile_fn(rates[..., None], rule_y)
    dens = Gp**2 + rates[..., None] ** 2 * G**2
    per_mode = np.sum(rule_w * dens, axis=-1)
    return float(np.sum(np.abs(v.mode_coeffs) ** 2 * per_mode))


def cylinder_energy(v, nodes: int = DEFAULT_NODES) -> float:
    """Weighted energy int y^{1-2s} (|grad v|^2 + m^2 v^2) dx dy."""
    if isinstance(v, ExtensionField):
        return _extension_energy(v, nodes)
    fine = _separable_energy(v)
    coarse = _separable_energy(v, nodes=max(len(v.y_nodes) // 2, 50))
    if abs(fine - coarse) > _CONVERGENCE_TOL * max(abs(fine), 1.0):
        raise QuadratureUnconverged(
            f"mode energies moved by {abs(fine - coarse):.2e} on refinement"
        )
    return fine


# ---------------------------------------------------------------------------
# trace and conormal derivative

def trace(v) -> Spectrum:
    """Trace at y = 0, by extrapolation from the smallest available heights."""
    if isinstance(v, ExtensionField):
        return v.base
    s = v.params.s
    exps = sorted({2.0 * s, 1.0, 2.0})
    ys = np.array([1e-9, 1e-7, 1e-5])
    rates = np.sqrt(_lam(v.grid, v.params))
    G = v.profile_fn(rates[..., None], ys)  # grid.shape + (3,)
    Q = np.moveaxis(G, -1, 0).reshape(len(ys), -1)
    limits = _fit_limits(ys, Q, exps)
    return Spectrum(v.grid, limits.reshape(v.grid.shape) * v.mode_coeffs)


def _fit_limits(ys, Q, exps):
    A = np.column_stack([np.ones_like(ys)] + [ys**b for b in exps[: len(ys) - 1]])
    sol, *_ = np.linalg.lstsq(A, Q, rcond=None)
    return sol[0]


def conormal_derivative(v: ExtensionField, y_list) -> Spectrum:
    """Richardson-extrapolated spectrum of -y^{1-2s} dv/dy as y -> 0.

    Equals kappa(s) (-Lap + m^2)^s u mode by mode.
    """
    y = np.asarray(y_list, dtype=float)
    if y.size < 2 or np.any(np.diff(y) >= 0) or np.any(y <= 0):
        raise DomainError("y_list must be decreasing positive reals")
    s = v.params.s
    rates = v.mode_rates()
    flat_rates = rates.ravel()
    flat_c = v.base.coeffs.ravel()
    Q = np.zeros((y.size, flat_c.size), dtype=complex)
    pos = flat_rates > 0
    for i, yi in enumerate(y):
        q = np.zeros_like(flat_rates)
        q[pos] = -(yi ** (1.0 - 2.0 * s)) * flat_rates[pos] * v.profile.theta_prime(
            flat_rates[pos] * yi
        )
        Q[i] = flat_c * q
    limits = extrapolate_to_zero(y, Q, small_y_exponents(s))
    return Spectrum(v.grid, limits.reshape(v.grid.shape))


# ---------------------------------------------------------------------------
# sharp trace gaps

def sharp_trace_gap(v, p: FracParams, nodes: int = DEFAULT_NODES) -> float:
    """||v||^2 - kappa(s) |Tr v|^2_{H^s}; zero exactly on minimal extensions."""
    energy = cylinder_energy(v, nodes=nodes)
    tr = trace(v)
    return energy - kappa(p.s) * hs_norm(tr, p) ** 2


def ground_gap(v, p: FracParams, nodes: int = DEFAULT_NODES) -> float:
    """||v||^2 - kappa(s) m^{2s} |Tr v|^2_{L^2}; zero iff v = C theta(my)."""
    if p.m == 0.0:
        raise DomainError("ground gap requires m > 0")
    energy = cylinder_energy(v, nodes=nodes)
    tr = trace(v)
    return energy - kappa(p.s) * p.m ** (2.0 * p.s) * tr.l2_norm() ** 2

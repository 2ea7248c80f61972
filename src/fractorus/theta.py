"""The extension profile theta(y) = (2/Gamma(s)) (y/2)^s K_s(y).

theta is the minimal-energy decay profile of every Fourier mode of the
half-cylinder extension.  It solves

    theta'' + ((1-2s)/y) theta' - theta = 0,   theta(0)=1,  theta(inf)=0,

and carries the constant kappa(s) = 2^{1-2s} Gamma(1-s)/Gamma(s), which shows
up three independent ways: as a Gamma-function formula, as the weighted energy
integral of the profile, and as -lim_{y->0} y^{1-2s} theta'(y).

Derivatives come from the modified-Bessel recurrences, never from finite
differences.  With K_nu' = (nu/y) K_nu - K_{nu+1} one gets the closed forms

    theta'(y)  = -(2/Gamma(s)) (y/2)^s K_{1-s}(y)
    theta''(y) = -(2/Gamma(s)) (y/2)^s [ K_{1-s}(y)/y - K_{2-s}(y) ]

so the ODE residual probes the numerical consistency of the K evaluations at
three distinct orders rather than being an algebraic identity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np
from scipy.special import kv, roots_jacobi

from .errors import DomainError, ExtrapolationDiverged

# Node count of the half-line rules; energies are checked against half as many.
DEFAULT_NODES = 400


def kappa(s: float) -> float:
    """2^{1-2s} Gamma(1-s)/Gamma(s); satisfies kappa(s)*kappa(1-s) = 1."""
    if not (0.0 < s < 1.0):
        raise DomainError(f"kappa requires s in (0,1), got {s}")
    return 2.0 ** (1.0 - 2.0 * s) * math.gamma(1.0 - s) / math.gamma(s)


def _positive_y(method):
    """Run method on y as a float array of y > 0; a scalar y gives a float."""
    @functools.wraps(method)
    def on_array(self, y):
        y = np.asarray(y, dtype=float)
        if np.any(y <= 0.0):
            raise DomainError("theta requires y > 0")
        out = method(self, y)
        return out if out.ndim else float(out)
    return on_array


@dataclass(frozen=True)
class ThetaProfile:
    """Evaluator for theta, theta', theta'' at a fixed exponent s.

    K_nu is scipy's kv at every y.  It keeps 1e-12 relative accuracy up to
    y ~ 697.8 and underflows to 0 beyond, where theta is below 1e-300; the
    half-line rules' nodes stop at y = 11.6.
    """

    s: float
    _pref: float = dc_field(init=False, repr=False)

    def __post_init__(self):
        if not (0.0 < self.s < 1.0):
            raise DomainError(f"s must lie in (0,1), got {self.s}")
        object.__setattr__(self, "_pref", 2.0 / math.gamma(self.s))

    def _envelope(self, y: np.ndarray) -> np.ndarray:
        return self._pref * (y / 2.0) ** self.s

    @_positive_y
    def theta(self, y):
        return self._envelope(y) * kv(self.s, y)

    @_positive_y
    def theta_prime(self, y):
        return -self._envelope(y) * kv(1.0 - self.s, y)

    @_positive_y
    def theta_second(self, y):
        return -self._envelope(y) * (kv(1.0 - self.s, y) / y - kv(2.0 - self.s, y))

    @_positive_y
    def ode_residual(self, y):
        """|theta'' + ((1-2s)/y) theta' - theta| with recurrence derivatives."""
        return np.abs(
            self.theta_second(y)
            + (1.0 - 2.0 * self.s) / y * self.theta_prime(y)
            - self.theta(y)
        )

    def conormal_limit_check(self, y_list) -> float:
        """Extrapolated y->0 limit of -y^{1-2s} theta'(y), which tends to kappa(s)."""
        y = np.asarray(y_list, dtype=float)
        q = -(y ** (1.0 - 2.0 * self.s)) * self.theta_prime(y)
        return float(extrapolate_to_zero(y, q[:, None], small_y_exponents(self.s))[0].real)


@functools.lru_cache(maxsize=16)  # a verify-mixed run uses 4 exponents s
def theta_profile(s: float) -> ThetaProfile:
    """The one ThetaProfile of exponent s: its bound methods, shared by every
    extension at s, key split_energy's cache."""
    return ThetaProfile(s)


def small_y_exponents(s: float) -> list[float]:
    """Leading correction exponents of -y^{1-2s} theta'(y) near 0."""
    return sorted({2.0 - 2.0 * s, 2.0, 4.0 - 2.0 * s, 4.0})


def extrapolate_to_zero(y: np.ndarray, Q: np.ndarray, exponents) -> np.ndarray:
    """Fit Q(y_i) ~ L + sum_j a_j y_i^{b_j} columnwise; return the limits L.

    y must be decreasing positive reals, and Q has shape (len(y), ncols).  The
    number of correction exponents is capped at len(y)-1 so the fit is never
    underdetermined.
    """
    y = np.asarray(y, dtype=float)
    if y.size < 2 or np.any(np.diff(y) >= 0) or np.any(y <= 0):
        raise DomainError("y_list must be decreasing positive reals")
    exps = list(exponents)[: max(1, len(y) - 1)]
    A = np.column_stack([np.ones_like(y)] + [y**b for b in exps])
    sol, *_ = np.linalg.lstsq(A, Q, rcond=None)
    limits = sol[0]
    # Cauchy guard: increments of the raw values must shrink toward y = 0 and
    # the fitted limit must stay near the settling tail.
    steps = np.abs(np.diff(Q, axis=0))
    if len(y) >= 3:
        scale = np.max(np.abs(Q), axis=0) + 1e-300
        growing = steps[-1] > 2.0 * steps[-2] + 1e-12 * scale
        if np.any(growing):
            raise ExtrapolationDiverged("raw values diverge as y decreases")
    drift = np.abs(Q[-1] - limits)
    bad = drift > 10.0 * (steps[-1] + np.abs(limits) * 1e-9 + 1e-300)
    if np.any(bad & (np.abs(limits) > 0)):
        raise ExtrapolationDiverged("successive limit estimates are not Cauchy")
    return limits


# ---------------------------------------------------------------------------
# weighted half-line quadrature

@dataclass(frozen=True)
class HalflineRule:
    """Rule w @ h(y) for integrals int_0^inf y^beta h(y) dy with h bounded and decaying.

    Built from Gauss-Jacobi nodes for the endpoint weight t^beta composed with
    the substitution y = -log(1-t), which handles both the algebraic endpoint
    behavior at 0 and the exponential decay at infinity.
    """

    beta: float
    nodes: int
    y: np.ndarray = dc_field(repr=False)
    w: np.ndarray = dc_field(repr=False)


@functools.lru_cache(maxsize=64)  # an energy check needs 4 rules per exponent s
def halfline_rule(beta: float, nodes: int = DEFAULT_NODES) -> HalflineRule:
    """The rule for weight y^beta at the given node count, built once per
    (beta, nodes); its y and w arrays are read-only."""
    if beta <= -1.0:
        raise DomainError(f"weight exponent must exceed -1, got {beta}")
    x, wj = roots_jacobi(nodes, 0.0, beta)
    t = (x + 1.0) / 2.0
    wj = wj / 2.0 ** (beta + 1.0)  # now sum wj h(t) ~ int_0^1 t^beta h dt
    y = -np.log1p(-t)
    # residual factor (y/t)^beta from the substitution, plus the Jacobian
    w = wj * (y / t) ** beta / (1.0 - t)
    y.setflags(write=False)
    w.setflags(write=False)
    return HalflineRule(beta=beta, nodes=nodes, y=y, w=w)


def _split_pieces(s: float, nodes: int, g: Callable, dg: Callable) -> np.ndarray:
    """[int t^{1-2s} g^2, int t^{2s-1} (t^{1-2s} g')^2, int t^{1-2s} g'^2]."""
    rule_a = halfline_rule(1.0 - 2.0 * s, nodes)
    rule_b = halfline_rule(2.0 * s - 1.0, nodes)
    return np.array([
        rule_a.w @ g(rule_a.y) ** 2,
        rule_b.w @ (rule_b.y ** (1.0 - 2.0 * s) * dg(rule_b.y)) ** 2,
        rule_a.w @ dg(rule_a.y) ** 2,
    ])


# A verify-mixed run needs 4 entries, one per exponent s for theta's bound
# methods; criterion 04's 100 closures only miss.
@functools.lru_cache(maxsize=16)
def split_energy(s: float, nodes: int, g: Callable, dg: Callable) -> tuple[float, float]:
    """int_0^inf t^{1-2s} (g'^2 + g^2) dt at `nodes` and at nodes // 2.

    The value piece puts weight t^{1-2s} on g^2.  The gradient piece has two
    forms: weight t^{2s-1} on q^2 with q = t^{1-2s} g', which suits
    theta (q -> -kappa(s), while theta'^2 ~ t^{4s-2} blows up for s < 1/2),
    and weight t^{1-2s} on g'^2, which suits a profile with g'(0) != 0 (its
    q^2 ~ t^{2-4s} blows up for s > 1/2).  Both estimates use the form that
    moves less between the two node counts.  g and dg take arrays of t > 0.
    They must be pure: the result is computed once per (s, nodes, g, dg), and
    a bound method matches a key only through the identity of its object, so
    theta's integral is shared through theta_profile(s).
    """
    fine = _split_pieces(s, nodes, g, dg)
    coarse = _split_pieces(s, nodes // 2, g, dg)
    grad = 1 + int(np.argmin(np.abs(fine[1:] - coarse[1:])))
    return float(fine[0] + fine[grad]), float(coarse[0] + coarse[grad])


def profile_energy_integral(s: float, nodes: int = DEFAULT_NODES) -> float:
    """int_0^inf y^{1-2s} (theta'(y)^2 + theta(y)^2) dy = kappa(s)."""
    prof = theta_profile(s)
    return split_energy(s, nodes, prof.theta, prof.theta_prime)[0]

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

K_nu and the Gauss-Jacobi rules are computed here with numpy alone: K_nu by
the trapezoid rule on its integral over t (`bessel_k`), the rules' nodes by
Newton's method on the three-term recurrence (`gauss_jacobi`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .errors import DomainError, ExtrapolationDiverged, QuadratureUnconverged

# Node count of the half-line rules; energies are checked against half as many.
DEFAULT_NODES = 400


def kappa(s: float) -> float:
    """2^{1-2s} Gamma(1-s)/Gamma(s); satisfies kappa(s)*kappa(1-s) = 1."""
    if not (0.0 < s < 1.0):
        raise DomainError(f"kappa requires s in (0,1), got {s}")
    return 2.0 ** (1.0 - 2.0 * s) * math.gamma(1.0 - s) / math.gamma(s)


# The trapezoid rule for K_nu (Gil, Segura & Temme, Numerical Methods for
# Special Functions, SIAM 2007, ch. 5).  Its nodes stop where
# exp(nu t - y (cosh t - 1)) falls below e^-40.  A step of 0.2 keeps every nu
# in (0, 2) to rounding (a step of 0.33 left 4e-11 at nu = 1.999); past
# y = (0.7/0.2)^2 the integrand narrows like a Gaussian of width 1/sqrt(y), and
# a step of 0.7/sqrt(y) resolves it.  Beyond y = 708, e^-y and K_nu(y) leave
# the normal floats, so a larger y does not refine the step.
_K_CUT = 40.0
_K_STEP = 0.2
_K_WIDTH = 0.7
_K_YMAX = 708.0
# The exponents are floored at -700: numpy's exp is several times slower where
# its result leaves the normal floats, and the floored terms, below 1e-304,
# move no sum that matters.
_K_FLOOR = -700.0
# Exponentials per block of rows: the memory of a call stays bounded whatever
# the number of arguments (an extension slice of a fine grid has one per mode).
_K_BLOCK = 2**16


@functools.lru_cache(maxsize=128)
def _k_nodes(orders: tuple, h: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """-2 sinh^2(t/2) at the nodes t = j h, j = 0..nodes, and per order nu the
    weights h cosh(nu t), halved at t = 0; read-only."""
    t = h * np.arange(nodes + 1)
    c = np.sinh(0.5 * t)
    c *= -2.0 * c
    w = h * np.cosh(np.multiply.outer(orders, t))
    w[:, 0] *= 0.5
    c.setflags(write=False)
    w.setflags(write=False)
    return c, w


def bessel_k(orders: tuple, y: np.ndarray) -> np.ndarray:
    """K_nu(y) for each nu in orders (0 <= nu < 2) at a float array y > 0,
    with shape (len(orders),) + y.shape.

    K_nu(y) = e^{-y} int_0^inf exp(-2y sinh^2(t/2)) cosh(nu t) dt by the
    trapezoid rule.  Every y and every order share one set of nodes: the
    smallest y sets how far they reach, the largest y their step, and the
    exponentials are computed once for all orders.  e^{-y} is applied last, so
    the result keeps its relative accuracy until e^{-y} leaves the normal
    floats (y ~ 708) and underflows to 0 beyond y ~ 745.  The nodes reach
    t ~ log(100/min y); a call keeps that accuracy while nu t stays below about
    690 there, for min y above 1e-148 at nu = 2 and above 1e-297 at nu = 1.
    A y below 1e-300 is a DomainError: not far below, the node range overflows.
    """
    lo, hi = y.min(), y.max()
    if not lo >= 1e-300:
        raise DomainError(f"K_nu requires y >= 1e-300, got min y = {lo}")
    # the step 0.7/sqrt(hi), at most 0.2, rounded down to 0.2 * 2^(-e/4): a
    # few node sets serve every call
    e = max(0, math.ceil(2.0 * math.log2(min(hi, _K_YMAX) * (_K_STEP / _K_WIDTH) ** 2)))
    h = _K_STEP * 2.0 ** (-0.25 * e)
    # past t_max, lo (cosh t - 1) exceeds the cut plus nu t
    t_max = math.acosh(1.0 + (_K_CUT + max(orders) * math.log(2.0 + 2.0 * _K_CUT / lo)) / lo)
    c, w = _k_nodes(orders, h, math.ceil(t_max / h))
    flat = y.ravel()
    out = np.empty((len(orders), flat.size))
    rows = max(1, _K_BLOCK // c.size)
    for i in range(0, flat.size, rows):
        x = np.multiply.outer(c, flat[i:i + rows])
        np.maximum(x, _K_FLOOR, out=x)
        np.exp(x, out=x)
        np.matmul(w, x, out=out[:, i:i + rows])
    out *= np.exp(-flat)
    return out.reshape((len(orders),) + y.shape)


def _on_array(method):
    """Run method on y as a float array; a scalar y gives a float.  The method's
    `bessel_k` call rejects y <= 0 (and y below 1e-300)."""
    @functools.wraps(method)
    def on_array(self, y):
        out = method(self, np.asarray(y, dtype=float))
        return out if out.ndim else float(out)
    return on_array


@dataclass(frozen=True)
class ThetaProfile:
    """Evaluator for theta, theta', theta'' at a fixed exponent s.

    Each method takes K_nu from one `bessel_k` call at the orders it needs: s
    for theta, 1-s for theta', 1-s and 2-s for theta'', all three for the ODE
    residual.  K_nu keeps 1e-13 relative accuracy up to y ~ 697.8, where theta
    is below 1e-300, and underflows to 0 beyond y ~ 745; the half-line rules'
    nodes stop at y = 11.6.
    """

    s: float
    _pref: float = dc_field(init=False, repr=False)

    def __post_init__(self):
        if not (0.0 < self.s < 1.0):
            raise DomainError(f"s must lie in (0,1), got {self.s}")
        object.__setattr__(self, "_pref", 2.0 / math.gamma(self.s))

    def _envelope(self, y: np.ndarray) -> np.ndarray:
        return self._pref * (y / 2.0) ** self.s

    @_on_array
    def theta(self, y):
        return self._envelope(y) * bessel_k((self.s,), y)[0]

    @_on_array
    def theta_prime(self, y):
        return -self._envelope(y) * bessel_k((1.0 - self.s,), y)[0]

    @_on_array
    def theta_second(self, y):
        k1, k2 = bessel_k((1.0 - self.s, 2.0 - self.s), y)
        return -self._envelope(y) * (k1 / y - k2)

    @_on_array
    def ode_residual(self, y):
        """|theta'' + ((1-2s)/y) theta' - theta| with recurrence derivatives,
        each of the orders s, 1-s and 2-s of K computed once."""
        k0, k1, k2 = bessel_k((self.s, 1.0 - self.s, 2.0 - self.s), y)
        env = self._envelope(y)
        theta, dtheta, d2theta = env * k0, -env * k1, -env * (k1 / y - k2)
        return np.abs(d2theta + (1.0 - 2.0 * self.s) / y * dtheta - theta)

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

def _jacobi_slope(n: int, beta: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) of the Jacobi polynomials P_k^{(0, beta)}, n >= 1:
    P_n and P_{n-1} by their three-term recurrence, the slope from both."""
    p0, p1 = np.ones_like(x), 0.5 * ((beta + 2.0) * x - beta)
    for k in range(2, n + 1):
        c = 2.0 * k + beta
        d = 2.0 * k * (k + beta) * (c - 2.0)
        a, b = (c - 1.0) * c * (c - 2.0) / d, (c - 1.0) * beta * beta / d
        e = 2.0 * (k - 1) * (k + beta - 1.0) * c / d
        p0, p1 = p1, (a * x - b) * p1 - e * p0
    c = 2.0 * n + beta
    return p1, n * ((-beta - c * x) * p1 + 2.0 * (n + beta) * p0) / (c * (1.0 - x) * (1.0 + x))


# Newton iterations allowed to gauss_jacobi; from Szego's zeros it took 4 or 5
# on a grid of n from 2 to 1000 and beta from -0.999 to 1.
_GJ_MAX_ITERS = 20


def gauss_jacobi(n: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes x and weights w of the n-point Gauss rule for
    int_{-1}^{1} (1+x)^beta f(x) dx, beta > -1.

    The nodes are the zeros of P_n^{(0, beta)}, found by Newton's method on
    the three-term recurrence from Szego's asymptotic zeros
    cos((k - 1/4) pi / (n + (beta + 1)/2)), each close enough to its own zero
    that no step needs to hold it off the others (Hale & Townsend, SIAM J.
    Sci. Comput. 35 (2013) A652-A674); nodes that do not end strictly
    increasing are a QuadratureUnconverged.  The weights are
    1 / ((1 - x^2) P_n'(x)^2) at the converged nodes, scaled to the exact total
    2^{beta+1} / (beta+1): as beta -> -1 nearly all of it sits on the node
    nearest -1, whose 1+x is known only to the rounding of x.  No LAPACK call:
    numpy's dense eigvalsh of the Jacobi matrix (Golub-Welsch) runs
    multithreaded BLAS, whose first call in a process can stall for a second.
    """
    x = np.cos((np.arange(n, 0, -1) - 0.25) * np.pi / (n + 0.5 * (beta + 1.0)))
    for _ in range(_GJ_MAX_ITERS):
        p, dp = _jacobi_slope(n, beta, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    else:
        raise QuadratureUnconverged(f"Gauss-Jacobi nodes for n={n}, beta={beta} did not settle")
    if not np.all(np.diff(x) > 0.0):
        raise QuadratureUnconverged(
            f"Gauss-Jacobi nodes for n={n}, beta={beta} are not strictly increasing")
    _, dp = _jacobi_slope(n, beta, x)
    w = 1.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    return x, w * (2.0 ** (beta + 1.0) / (beta + 1.0) / w.sum())


@functools.lru_cache(maxsize=64)  # an energy check needs 4 rules per exponent s
def halfline_rule(beta: float, nodes: int = DEFAULT_NODES) -> tuple[np.ndarray, np.ndarray]:
    """Nodes y and weights w of the rule w @ h(y) for int_0^inf y^beta h(y) dy
    with h bounded and decaying; built once per (beta, nodes), read-only.

    Gauss-Jacobi nodes for the endpoint weight t^beta composed with the
    substitution y = -log(1-t) handle both the algebraic endpoint behavior at
    0 and the exponential decay at infinity.
    """
    if beta <= -1.0:
        raise DomainError(f"weight exponent must exceed -1, got {beta}")
    x, wj = gauss_jacobi(nodes, beta)
    t = (x + 1.0) / 2.0
    wj = wj / 2.0 ** (beta + 1.0)  # now sum wj h(t) ~ int_0^1 t^beta h dt
    y = -np.log1p(-t)
    # residual factor (y/t)^beta from the substitution, plus the Jacobian
    w = wj * (y / t) ** beta / (1.0 - t)
    y.setflags(write=False)
    w.setflags(write=False)
    return y, w


def _split_pieces(s: float, nodes: int, g: Callable, dg: Callable) -> np.ndarray:
    """[int t^{1-2s} g^2, int t^{2s-1} (t^{1-2s} g')^2, int t^{1-2s} g'^2]."""
    ya, wa = halfline_rule(1.0 - 2.0 * s, nodes)
    yb, wb = halfline_rule(2.0 * s - 1.0, nodes)
    return np.array([
        wa @ g(ya) ** 2,
        wb @ (yb ** (1.0 - 2.0 * s) * dg(yb)) ** 2,
        wa @ dg(ya) ** 2,
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

"""Power-type nonlinearities f(x,t), their primitives, and dealiased evaluation.

Shipped families are |t|^{p-1} t and a(x) |t|^{p-1} t with a periodic strictly
positive modulation a.  f has one definition, f_eval, and F one, primitive;
verify_hypotheses samples those two to check the structural hypotheses
(periodicity, continuity, superlinearity at infinity with Ambrosetti-Rabinowitz
exponent mu <= p+1, sign condition t f >= 0) and reports the fitted growth
constants.  Point.nonlinear_energy sums a |u|^{p+1} before it divides by p+1,
the same F in another rounding, which the tests tie to primitive.

Pointwise products of band-limited fields are evaluated on one zero-padded
grid, of padded_size(n) points per axis, whatever p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from functools import partial
from typing import Optional

import numpy as np

from .errors import HypothesisViolated, ValidationError
from .grids import (
    Field,
    FracParams,
    Spectrum,
    TorusGrid,
    forward_transform,
    multiplier,
    nyquist_weight,
    pad_coeffs,
    restrict_values,
)

# The largest growth exponent, the range the tests cover.  From p = 54 on
# the (f3) check of verify_hypotheses fails on a continuous f: |t|^{p-1}
# underflows at its smallest sample t = 1e-6.
MAX_EXPONENT = 30.0

# Bytes of coefficients plus samples per block of Point.levels: glibc's
# default M_MMAP_THRESHOLD, above which each temporary is mmap'd fresh and
# faulted in page by page, below which malloc reuses its heap.
LEVEL_BLOCK_BYTES = 1 << 17


@dataclass(frozen=True)
class NonlinearitySpec:
    """Parameters of one shipped nonlinearity family."""

    kind: str  # "pure_power" | "modulated_power"
    p: float
    mu: Optional[float] = None  # defaults to p + 1
    r0: float = 1.0
    a: Optional[Field] = None

    def __post_init__(self):
        if self.kind not in ("pure_power", "modulated_power"):
            raise ValidationError(f"unknown nonlinearity kind {self.kind!r}")
        if not (1.0 < self.p <= MAX_EXPONENT):
            raise ValidationError(
                f"growth exponent p must lie in (1, {MAX_EXPONENT:g}], got {self.p}")
        if self.mu is None:
            object.__setattr__(self, "mu", self.p + 1.0)
        if not (2.0 < self.mu <= self.p + 1.0):
            raise ValidationError(
                f"AR exponent must satisfy 2 < mu <= p+1, got mu={self.mu}, p={self.p}"
            )
        if not (0.0 < self.r0 < np.inf):
            raise ValidationError(f"AR threshold r0 must be positive and finite, got {self.r0}")
        if self.kind == "modulated_power":
            if self.a is None:
                raise ValidationError("modulated_power requires a coefficient field")
            if np.min(self.a.values) <= 0:
                raise HypothesisViolated(
                    "f6",
                    witness=float(np.min(self.a.values)),
                    message="modulation changes sign: t f(x,t) >= 0 fails",
                )
        elif self.a is not None:
            raise ValidationError("pure_power takes no coefficient field")
        # verify_hypotheses samples f by default on [-10 r0, 10 r0]
        a_max = 1.0 if self.a is None else float(np.max(self.a.values))
        with np.errstate(over="ignore"):
            f_top = a_max * np.float64(10.0 * self.r0) ** self.p
        if not f_top < np.inf:
            raise ValidationError(f"AR threshold r0 = {self.r0}: f overflows at t = 10 r0, "
                                  f"max(a) (10 r0)^p = {f_top}")

    def check_growth(self, params: FracParams, grid: TorusGrid):
        """Subcritical growth p < 2 Sharp_s - 1 on the attached grid."""
        limit = params.critical_exponent(grid.N) - 1.0
        if not self.p < limit:
            raise ValidationError(
                f"p={self.p} must be < critical growth {limit} (N={grid.N}, s={params.s})"
            )

    def coarsened(self, grid: TorusGrid) -> NonlinearitySpec:
        """This nonlinearity on a coarser grid of the same torus: a(x) cut to
        its band, the modes beyond n_c/2 dropped and the images +-n_c/2
        summed onto its Nyquist mode, then sampled at its points."""
        if self.a is None:
            return self
        return replace(self, a=Field(grid, pad_coeffs(restrict_values(self.a.values, grid),
                                                      grid, grid.n)))

    def coefficient(self, grid: TorusGrid) -> np.ndarray:
        if self.kind == "pure_power":
            return np.ones(grid.shape)
        if self.a.grid != grid:
            raise ValidationError("coefficient field lives on a different grid")
        return self.a.values


def f_eval(spec: NonlinearitySpec, coeff: np.ndarray, t: np.ndarray) -> np.ndarray:
    """f(x,t) sampled on the grid; coeff is spec.coefficient(grid)."""
    return coeff * np.abs(t) ** (spec.p - 1.0) * t


def primitive(spec: NonlinearitySpec, coeff: np.ndarray, t: np.ndarray) -> np.ndarray:
    """F(x,t) = int_0^t f(x,tau) dtau sampled on the grid; coeff is
    spec.coefficient(grid).  Both families are homogeneous of degree p in t,
    so F = t f / (p+1) exactly."""
    return t * f_eval(spec, coeff, t) / (spec.p + 1.0)


# ---------------------------------------------------------------------------
# dealiased pseudospectral evaluation

def padded_size(n: int) -> int:
    """Points per axis of the padded grid of every nonlinear product: Orszag's
    3n/2, rounded up to even.  No finite padding is exact for |t|^{p-1} t
    unless p is an odd integer; for a smooth u the aliasing the 3/2 rule
    leaves in the band lies below the band's truncation error."""
    m = int(math.ceil(1.5 * n))
    return m + (m % 2)


# ---------------------------------------------------------------------------
# the discretized reduced functional

@dataclass(frozen=True, eq=False)
class Discretization:
    """Dealiased discretization of the reduced functional

        I(u) = 1/2 sum_k [(omega^2|k|^2+m^2)^s - m^{2s}] |c_k|^2 - int F(x,u) dx

    on one grid: the tables of grids.multiplier, the padded grid size
    padded_size(n), which no nonlinearity changes, a(x) sampled on the padded
    grid and the padded cell volume, built once; a(x) is
    read through spec.coefficient, which rejects a field of another grid.
    at(U), the evaluation point of U, pads U once: I, its gradient and its
    linearization at U all read those samples.  The pad is linear, so the
    searches build their trial points by Point.combine from points already
    padded, and pad only a new direction; the MINRES applies of the Newton
    polish form no linear family and pad each vector.  Every product is dealiased
    by the one real-FFT pad and restrict of grids, pad_coeffs and
    restrict_values.  The nonlinear parts of the gradient and linearization
    are the adjoint of the pad in the pairing Re sum_k conj(R_k) w_k:
    restrict_values times `pairing`, the nyquist_weight of the grid (the pad
    splits a coefficient on |k_i| = n/2 evenly onto +-n/2, the restriction
    sums the two).  So the gradient is the exact derivative of the level,
    and the Jacobian is symmetric on the band.  Coefficient arrays have the
    grid as their trailing N axes, and leading batch axes.
    params = None builds the nonlinear term only, and the multiplier methods
    are then unavailable.
    """

    grid: TorusGrid
    params: Optional[FracParams]
    spec: NonlinearitySpec
    shifted: Optional[np.ndarray] = dc_field(init=False, repr=False, default=None)
    full: Optional[np.ndarray] = dc_field(init=False, repr=False, default=None)
    inv_full: Optional[np.ndarray] = dc_field(init=False, repr=False, default=None)
    pairing: np.ndarray = dc_field(init=False, repr=False)
    m_pad: int = dc_field(init=False)
    coeff_pad: np.ndarray = dc_field(init=False, repr=False)
    cell: float = dc_field(init=False)
    axes: tuple = dc_field(init=False, repr=False)

    def __post_init__(self):
        g, spec = self.grid, self.spec
        put = partial(object.__setattr__, self)
        if self.params is not None:
            put("full", multiplier(g, self.params))
            put("shifted", multiplier(g, self.params, shifted=True))
            put("inv_full", np.where(self.full > 0.0, 1.0 / np.maximum(self.full, 1e-300), 1.0))
        put("pairing", nyquist_weight(g))
        m = padded_size(g.n)
        put("m_pad", m)
        put("cell", g.cell_at(m))
        put("axes", tuple(range(-g.N, 0)))
        put("coeff_pad", np.ones((m,) * g.N) if spec.kind == "pure_power"
            else pad_coeffs(forward_transform(Field(g, spec.coefficient(g))).coeffs, g, m))

    def at(self, U: np.ndarray) -> Point:
        """The evaluation point of the coefficient array U."""
        return Point(self, U, pad_coeffs(U, self.grid, self.m_pad))

    def rebase(self, pt: Point) -> Point:
        """pt, a point of a Discretization with this grid and nonlinearity, as a
        point of this one: its padded samples do not depend on the params."""
        if pt.disc.grid != self.grid or pt.disc.spec is not self.spec:
            raise ValueError("a point keeps its samples only on the same grid and nonlinearity")
        return Point(self, pt.U, pt.vals)

    def precondition(self, R: np.ndarray) -> np.ndarray:
        """X-metric gradient R_k / (omega^2|k|^2+m^2)^s; a zero-multiplier mode
        (k = 0 at m = 0) stays in the L2 metric."""
        return self.inv_full * R

    def dual_norms(self, R: np.ndarray) -> np.ndarray:
        """sqrt(sum_k |R_k|^2 / (omega^2|k|^2+m^2)^s); a zero-multiplier mode
        keeps unit weight so nonzero-mean defects still register."""
        return np.sqrt(np.sum(self.inv_full * np.abs(R) ** 2, axis=self.axes))

    def hs_norms(self, U: np.ndarray) -> np.ndarray:
        """|u|_{H^s} = sqrt(sum_k (omega^2|k|^2+m^2)^s |c_k|^2)."""
        return np.sqrt(np.sum(self.full * np.abs(U) ** 2, axis=self.axes))


class _computed_once:
    """A lazily computed attribute: the first read stores the value in the
    instance __dict__, where later reads find it.  functools.cached_property
    does the same under a lock before Python 3.12, which costs more than some
    of the values it guards."""

    def __init__(self, fn):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


@dataclass(frozen=True, eq=False)
class Point:
    """The functional of one Discretization at a coefficient array U (leading
    axes batched) with vals, its samples on the padded grid: those of
    Discretization.at, or combinations of them.
    Each quantity is computed when first read.  A point with rows along its
    leading axis is a basis: combine builds the points of its span, and plane
    reads the gradient and Hessian along its rows from samples."""

    disc: Discretization
    U: np.ndarray
    vals: np.ndarray

    @_computed_once
    def quadratic(self) -> np.ndarray:
        """1/2 sum_k [(omega^2|k|^2+m^2)^s - m^{2s}] |c_k|^2."""
        return 0.5 * np.sum(self.disc.shifted * np.abs(self.U) ** 2, axis=self.disc.axes)

    @_computed_once
    def nonlinear_energy(self) -> np.ndarray:
        """int F(x,u) dx with F = a |u|^{p+1}/(p+1), trapezoid rule on the padded grid;
        +inf where |u|^{p+1} overflows, so the level there is -inf."""
        d, p = self.disc, self.disc.spec.p
        with np.errstate(over="ignore"):
            return np.sum(d.coeff_pad * np.abs(self.vals) ** (p + 1.0), axis=d.axes) * (
                d.cell / (p + 1.0))

    @_computed_once
    def level(self) -> np.ndarray:
        """I(u)."""
        return self.quadratic - self.nonlinear_energy

    @_computed_once
    def nonlinear_gradient(self) -> np.ndarray:
        """The derivative of nonlinear_energy in the pairing Re sum_k conj(.) w_k:
        the band-limited coefficients of f(x, u(x)), dealiased by zero padding,
        times `pairing` (1/2 per Nyquist axis of k)."""
        d = self.disc
        return d.pairing * restrict_values(f_eval(d.spec, d.coeff_pad, self.vals), d.grid)

    @_computed_once
    def grad(self) -> np.ndarray:
        """L2 gradient R_k = [(omega^2|k|^2+m^2)^s - m^{2s}] c_k - nonlinear_gradient_k,
        the exact derivative of the level: d/dt I(U + t W) at t = 0 is
        Re sum_k conj(R_k) W_k for every Hermitian W with real Nyquist planes."""
        return self.disc.shifted * self.U - self.nonlinear_gradient

    @_computed_once
    def gnorm(self) -> np.ndarray:
        """The dual norm of grad: the residual norm."""
        return self.disc.dual_norms(self.grad)

    @_computed_once
    def fprime(self) -> np.ndarray:
        """d f / d t at (x, u(x)) on the padded grid."""
        d = self.disc
        return d.coeff_pad * d.spec.p * np.abs(self.vals) ** (d.spec.p - 1.0)

    def combine(self, x) -> Point:
        """The point x @ self of a basis, rows along the leading axis: the pad
        is linear, so its samples are x @ vals, and no pad is run."""
        def mix(a):
            return (x @ a.reshape(len(a), -1)).reshape(np.shape(x)[:-1] + a.shape[1:])
        return Point(self.disc, mix(self.U), mix(self.vals))

    def levels(self, x) -> np.ndarray:
        """combine(x).level, bit for bit, for x of shape (..., k), evaluated over
        consecutive blocks of the rows of x whose coefficients and samples fit in
        LEVEL_BLOCK_BYTES.  A block has at least 3 rows, so that an even split
        never leaves one row alone: numpy multiplies a single row by gemv,
        whose rounding differs from gemm's."""
        rows = np.reshape(x, (-1, np.shape(x)[-1]))
        size = max(3, LEVEL_BLOCK_BYTES // (self.U[0].nbytes + self.vals[0].nbytes))
        blocks = np.array_split(rows, math.ceil(len(rows) / size))
        return np.concatenate([self.combine(b).level for b in blocks]).reshape(np.shape(x)[:-1])

    @staticmethod
    def stack(*points: Point) -> Point:
        """Points of one Discretization as the rows of a basis."""
        return Point(points[0].disc, np.stack([pt.U for pt in points]),
                     np.stack([pt.vals for pt in points]))

    def plane(self, W: Point):
        """(g, H) of t -> I(U + t @ W.U) at t = 0 from samples, W a basis:
        g_a = Re<W_a, shifted U> - cell sum f(u) w_a = Re<W_a, grad> and
        H_ab = Re<W_a, shifted W_b> - cell sum f'(u) w_a w_b = Re<W_a, J W_b>."""
        d, k = self.disc, len(W.U)
        Wc, S = np.conj(W.U).reshape(k, -1), W.vals.reshape(k, -1)
        g = np.real(Wc @ (d.shifted * self.U).ravel()) - d.cell * (
            S @ f_eval(d.spec, d.coeff_pad, self.vals).ravel())
        H = np.real(Wc @ (d.shifted * W.U).reshape(k, -1).T) - d.cell * (
            (S * self.fprime.ravel()) @ S.T)
        return g, H

    def linearization(self, W: Point) -> np.ndarray:
        """The derivative of grad here along the direction W, a point whose
        padded samples w it reads: shifted * W - pairing * restrict_values(
        fprime w).  It is symmetric on the band in Re sum_k conj(V_k) W_k."""
        d = self.disc
        return d.shifted * W.U - d.pairing * restrict_values(self.fprime * W.vals, d.grid)

    @_computed_once
    def action(self) -> np.ndarray:
        """int f(x, u) u dx on the padded grid."""
        d = self.disc
        return np.sum(f_eval(d.spec, d.coeff_pad, self.vals) * self.vals, axis=d.axes) * d.cell


def nonlinear_energy(spec: NonlinearitySpec, u: Spectrum) -> float:
    """int F(x, u(x)) dx by the trapezoid rule on the dealiased grid."""
    return float(Discretization(u.grid, None, spec).at(u.coeffs).nonlinear_energy)


def nonlinear_gradient(spec: NonlinearitySpec, u: Spectrum) -> Spectrum:
    """The derivative of nonlinear_energy in the pairing Re sum_k conj(.) w_k:
    the band-limited spectrum of f(x, u(x)), dealiased by zero padding, with
    each Nyquist axis of k weighted 1/2."""
    return Spectrum(u.grid, Discretization(u.grid, None, spec).at(u.coeffs).nonlinear_gradient)


# ---------------------------------------------------------------------------
# hypothesis verification

def _falls_to_zero(t: np.ndarray, ratio: np.ndarray):
    """(verdict, slope, tail slope) for ratio(t) -> 0 as t -> 0 on positive,
    ascending samples t.  The slopes are least-squares fits of log ratio
    against log t over all samples and over their smallest decade.  The
    verdict asks for a positive slope, above the rounding noise of the fit,
    that holds down to the smallest t: a ratio falling like a power of t
    keeps its slope there, one levelling off at a nonzero constant loses it.
    """
    lt, lr = np.log(t), np.log(ratio)
    tail = lt <= lt[0] + math.log(10.0)
    slope = float(np.polyfit(lt, lr, 1)[0])
    tail_slope = float(np.polyfit(lt[tail], lr[tail], 1)[0])
    return bool(slope > 1e-12 and tail_slope >= 0.5 * slope), slope, tail_slope


@dataclass(frozen=True)
class HypothesisReport:
    passed: dict
    details: dict = dc_field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(self.passed.values())


def verify_hypotheses(
    spec: NonlinearitySpec,
    grid: TorusGrid,
    t_samples=None,
) -> HypothesisReport:
    """Sampled verification of the structural hypotheses (f1)-(f6).

    Raises HypothesisViolated on the first failing hypothesis; otherwise
    returns a report with the fitted growth constants, including the epsilon
    split |f| <= 2 eps |t| + (p+1) C_eps |t|^p for eps in {1, 0.1}.
    """
    r0 = spec.r0
    if t_samples is None:
        t_samples = np.concatenate(
            [np.linspace(-10 * r0, 10 * r0, 401), [-r0, r0]]
        )
    t = np.asarray(t_samples, dtype=float)
    flat = spec.coefficient(grid).ravel()
    x_idx = np.linspace(0, flat.size - 1, min(16, flat.size)).astype(int)
    # each distinct sampled value once, where it is first sampled: every check
    # below is a max, a min or an all over these rows
    x_idx = x_idx[np.sort(np.unique(flat[x_idx], return_index=True)[1])]
    a = flat[x_idx][:, None]
    # f and F at every (a, t), read by every hypothesis below
    f, F = f_eval(spec, a, t), primitive(spec, a, t)
    tf = t * f

    passed, details = {}, {}
    # (f1) periodicity: exact by construction (coefficient lives on the grid).
    passed["f1_periodic"] = True
    # (f2) continuity: the max jump of f in t on a refined grid, at most 10 h
    # times f's Lipschitz constant p max|f| / max|t| on the sampled interval.
    tt = np.linspace(t.min(), t.max(), 4001)
    fv = f_eval(spec, a, tt)
    jump = float(np.max(np.abs(np.diff(fv, axis=1))))
    passed["f2_continuous"] = jump <= 10.0 * spec.p * np.max(np.abs(fv)) * (
        tt[1] - tt[0]) / np.max(np.abs(tt))
    details["f2_max_jump"] = jump
    # (f3) f(x,t) = o(t): sup_x |f(x,+-t)/t| falls toward 0 as t -> 0.
    small = np.logspace(-6, -2, 21)
    fs = f_eval(spec, a[:, :, None], np.stack([small, -small]))
    passed["f3_small_o"], details["f3_slope"], details["f3_tail_slope"] = _falls_to_zero(
        small, np.max(np.abs(fs), axis=(0, 1)) / small)
    # (f4) growth |f| <= C (1 + |t|^p): fitted C.
    C_fit = float(np.max(np.abs(f) / (1.0 + np.abs(t) ** spec.p)))
    passed["f4_growth"] = np.isfinite(C_fit)
    details["f4_C"] = C_fit
    # (f5) AR: 0 < mu F <= t f on |t| >= r0.
    big = np.abs(t) >= r0
    lhs, rhs = spec.mu * F[:, big], tf[:, big]
    bad = ~((lhs > 0) & (lhs <= rhs * (1 + 1e-12)))
    if np.any(bad):
        i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise HypothesisViolated("f5", witness=(float(a[i, 0]), float(t[big][j])))
    passed["f5_ambrosetti_rabinowitz"] = True
    details["f5_equality"] = bool(spec.mu == spec.p + 1.0)
    # (f6) sign: t f(x,t) >= 0 (construction rejects a sign-changing a,
    # re-checked here on the samples).
    if np.min(tf) < 0:
        i, j = np.unravel_index(int(np.argmin(tf)), tf.shape)
        raise HypothesisViolated("f6", witness=(float(a[i, 0]), float(t[j])))
    passed["f6_sign"] = True
    # epsilon-split growth bounds |f| <= 2 eps |t| + (p+1) C_eps |t|^p and
    # F <= eps t^2 + C_eps |t|^{p+1}, with reported C_eps; at t = 0 both
    # quotients are 0/0, which nanmax skips.
    f_top, F_top = np.max(np.abs(f), axis=0), np.max(F, axis=0)
    tp, tp1 = np.abs(t) ** spec.p, np.abs(t) ** (spec.p + 1)
    fin = t != 0
    for eps in (1.0, 0.1):
        with np.errstate(divide="ignore", invalid="ignore"):
            need_f = (f_top - 2 * eps * np.abs(t)) / ((spec.p + 1) * tp)
            need_F = (F_top - eps * t**2) / tp1
        C_eps = float(max(np.nanmax(need_f), np.nanmax(need_F), 0.0))
        details[f"C_eps_{eps}"] = C_eps
        rhs_f = 2 * eps * np.abs(t) + (spec.p + 1) * C_eps * tp
        rhs_F = eps * t**2 + C_eps * tp1
        passed[f"growth_split_eps_{eps}"] = bool(
            np.all(f_top[fin] <= rhs_f[fin] * (1 + 1e-9))
            and np.all(F_top[fin] <= rhs_F[fin] * (1 + 1e-9)))
    # F >= a3 |t|^mu - a4: F(x,t) = F(x,1) |t|^{p+1}, so a3 = min_x F(x,1) holds
    # with a4 = 0 at mu = p+1; for mu < p+1, |t|^{p+1} >= |t|^mu - 1 gives a4 = a3.
    a3 = float(np.min(primitive(spec, flat, 1.0)))
    a4 = 0.0 if spec.mu == spec.p + 1.0 else a3
    details["a3"], details["a4"] = a3, a4
    passed["F_superquadratic_bound"] = bool(
        np.all(F * (1 + 1e-12) >= a3 * np.abs(t) ** spec.mu - a4 - 1e-12)
    )
    return HypothesisReport(passed=passed, details=details)


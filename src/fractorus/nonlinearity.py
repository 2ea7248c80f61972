"""Power-type nonlinearities f(x,t), their primitives, and dealiased evaluation.

Shipped families are |t|^{p-1} t and a(x) |t|^{p-1} t with a periodic strictly
positive modulation a.  Both satisfy the structural hypotheses (periodicity,
continuity, superlinearity at infinity with Ambrosetti-Rabinowitz exponent
mu <= p+1, sign condition t f >= 0); verify_hypotheses samples them and
reports the fitted growth constants.

Pointwise products of band-limited fields are evaluated on a zero-padded grid
so that, for integer p, the projection of f(x,u) back to the retained band is
alias-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import partial
from itertools import product
from typing import Optional

import numpy as np

from .errors import HypothesisViolated, ValidationError
from .grids import (
    Field,
    FracParams,
    Spectrum,
    TorusGrid,
    _hermitian_full,
    _plane,
    _reverse_modes,
    forward_transform,
    multiplier,
)


@dataclass(frozen=True)
class NonlinearitySpec:
    """Parameters of one shipped nonlinearity family."""

    kind: str  # "pure_power" | "modulated_power"
    p: float
    mu: float = 0.0  # defaults to p + 1
    r0: float = 1.0
    a: Optional[Field] = None

    def __post_init__(self):
        if self.kind not in ("pure_power", "modulated_power"):
            raise ValidationError(f"unknown nonlinearity kind {self.kind!r}")
        if not (1.0 < self.p < np.inf):
            raise ValidationError(f"growth exponent p must exceed 1 and be finite, got {self.p}")
        if self.mu == 0.0:
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

    def check_growth(self, params: FracParams, grid: TorusGrid):
        """Subcritical growth p < 2 Sharp_s - 1 on the attached grid."""
        limit = params.critical_exponent(grid.N) - 1.0
        if not self.p < limit:
            raise ValidationError(
                f"p={self.p} must be < critical growth {limit} (N={grid.N}, s={params.s})"
            )

    @property
    def integer_degree(self) -> Optional[int]:
        p = self.p
        return int(round(p)) if abs(p - round(p)) < 1e-12 else None

    def coefficient(self, grid: TorusGrid) -> np.ndarray:
        if self.kind == "pure_power":
            return np.ones(grid.shape)
        if self.a.grid != grid:
            raise ValidationError("coefficient field lives on a different grid")
        return self.a.values

    # AR lower-bound witnesses F >= a3 |t|^mu - a4 (tight for mu = p+1).
    def ar_constants(self, grid: TorusGrid):
        a_min = float(np.min(self.coefficient(grid)))
        if self.mu == self.p + 1.0:
            return a_min / (self.p + 1.0), 0.0
        # for mu < p+1: |t|^{p+1} >= |t|^mu - 1 pointwise
        a3 = a_min / (self.p + 1.0)
        return a3, a3


def f_eval(spec: NonlinearitySpec, coeff: np.ndarray, t: np.ndarray) -> np.ndarray:
    """f(x,t) sampled on the grid; coeff is spec.coefficient(grid)."""
    return coeff * np.abs(t) ** (spec.p - 1.0) * t


def fprime_eval(spec: NonlinearitySpec, coeff: np.ndarray, t: np.ndarray) -> np.ndarray:
    """d f / d t, used by Newton refinement."""
    return coeff * spec.p * np.abs(t) ** (spec.p - 1.0)


# ---------------------------------------------------------------------------
# dealiased pseudospectral evaluation

def padded_size(n: int, spec: Optional[NonlinearitySpec]) -> int:
    """Grid size making products up to the working degree alias-free.

    Odd integer p: |t|^{p-1} t = t^p is polynomial and degree p+1 enters
    through the primitive, so pad to (p_int+2)/2 * n (one extra n/2 when a
    modulation is present).  Even or fractional p is not polynomial (the |t|
    kink survives), so no finite padding is exact; the 3/2 rule keeps the
    residual alias error spectrally small.
    """
    if spec is None:
        return n
    deg = spec.integer_degree
    if deg is None or deg % 2 == 0:
        factor = 1.5
    else:
        factor = (deg + 2) / 2.0 + (0.5 if spec.kind == "modulated_power" else 0.0)
    m = int(math.ceil(n * factor))
    return m + (m % 2)


def rfft_samples(x: np.ndarray, N: int) -> np.ndarray:
    """numpy.fft.rfftn over the trailing N axes (numpy.fft.rfft when N = 1,
    the same transform with less call overhead)."""
    return np.fft.rfft(x) if N == 1 else np.fft.rfftn(x, axes=tuple(range(-N, 0)))


def irfft_samples(X: np.ndarray, shape: tuple) -> np.ndarray:
    """Real samples of the given trailing shape from an rfft half spectrum;
    the inverse of rfft_samples."""
    if len(shape) == 1:
        return np.fft.irfft(X, shape[0])
    return np.fft.irfftn(X, s=shape, axes=tuple(range(-len(shape), 0)))


def _half_blocks(n: int, m: int, N: int):
    """(coarse, fine) index pairs placing the retained band of an rfft half
    spectrum into the padded layout: on each of the first N - 1 axes the
    modes 0..n/2 and -n/2+1..-1, on the last axis the modes 0..n/2."""
    ny = n // 2
    axis = ((slice(0, ny + 1), slice(0, ny + 1)), (slice(ny + 1, n), slice(m - ny + 1, m)))
    last = (slice(0, ny + 1),)
    for combo in product(axis, repeat=N - 1):
        yield ((Ellipsis,) + tuple(c for c, _ in combo) + last,
               (Ellipsis,) + tuple(f for _, f in combo) + last)


def _pad_half(X: np.ndarray, grid: TorusGrid, m: int) -> np.ndarray:
    """The band of an rfft half spectrum (trailing N axes) in the rfft layout
    of the m > n point grid, each Nyquist coefficient split evenly onto
    +-n/2 so the interpolant stays real (on the last axis -n/2 is the
    Hermitian mirror, which the half spectrum leaves out)."""
    N, ny = grid.N, grid.n // 2
    lead = X.shape[: X.ndim - N]
    big = np.zeros(lead + (m,) * (N - 1) + (m // 2 + 1,), dtype=complex)
    for c, f in _half_blocks(grid.n, m, N):
        big[f] = X[c]
    for ax in range(N - 1):
        big[_plane(N, ax, ny)] *= 0.5
        big[_plane(N, ax, m - ny)] = big[_plane(N, ax, ny)]
    big[..., ny] *= 0.5
    return big


def _restrict_half(F: np.ndarray, grid: TorusGrid, m: int) -> np.ndarray:
    """The band of an rfft half spectrum of the m > n point grid (F is
    overwritten): -n/2 folded onto n/2 on every axis, and the Nyquist planes
    made real.  The half spectrum leaves out the -n/2 column of the last
    axis, the conjugate of the n/2 column at -k over the other axes, so the
    folded column is the real part of the n/2 column at k plus at -k."""
    N, ny = grid.N, grid.n // 2
    for ax in range(N - 1):
        F[_plane(N, ax, ny)] += F[_plane(N, ax, m - ny)]
    lead = F.shape[: F.ndim - N]
    out = np.empty(lead + (grid.n,) * (N - 1) + (ny + 1,), dtype=complex)
    for c, f in _half_blocks(grid.n, m, N):
        out[c] = F[f]
    col = out[..., ny].real
    out[..., ny] = col + _reverse_modes(col, range(1 - N, 0))
    for ax in range(N - 1):
        out[_plane(N, ax, ny)] = out[_plane(N, ax, ny)].real
    return out


def pad_coeffs(coeffs: np.ndarray, grid: TorusGrid, m: int) -> np.ndarray:
    """Real samples on the refined m-point grid (m > n) of the interpolant of
    a Hermitian spectrum; leading axes are batched.  Only the modes 0..n/2
    of the last axis are read.
    """
    g = grid
    X = _pad_half(coeffs[..., : g.n // 2 + 1], g, m)
    return irfft_samples(X, (m,) * g.N) * (m**g.N / g.T ** (g.N / 2.0))


def restrict_values(values: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Band-projected coefficients of refined-grid samples (batched)."""
    g = grid
    m = values.shape[-1]
    F = rfft_samples(values, g.N) * (g.T ** (g.N / 2.0) / m**g.N)
    return _hermitian_full(_restrict_half(F, g, m), g.N)


def pad_to_grid(S: Spectrum, m: int) -> np.ndarray:
    return pad_coeffs(S.coeffs, S.grid, m)


def restrict_to_grid(values: np.ndarray, grid: TorusGrid) -> Spectrum:
    return Spectrum(grid, restrict_values(values, grid))


# ---------------------------------------------------------------------------
# the discretized reduced functional

@dataclass(frozen=True, eq=False)
class Discretization:
    """Dealiased discretization of the reduced functional

        I(u) = 1/2 sum_k [(omega^2|k|^2+m^2)^s - m^{2s}] |c_k|^2 - int F(x,u) dx

    on one grid.  The multipliers, the padded grid size, the coefficient a(x)
    sampled on the padded grid and the padded cell volume are built once.
    Every product is dealiased by the one real-FFT pad and restrict of this
    module: pad_coeffs and restrict_values for coefficient arrays, their
    half-spectrum helpers for the linearization.  The nonlinear parts of
    grad, jacobian_apply and linearization are the adjoint of the pad in the
    pairing Re sum_k conj(R_k) w_k: restrict_values times `pairing`, which
    is 1/2 per axis on which |k_i| = n/2 (the pad splits such a coefficient
    evenly onto +-n/2, the restriction folds in their sum).  So grad is the
    exact derivative of levels, and the Jacobian is symmetric on the band.
    Every method takes coefficient arrays whose trailing N axes are the grid;
    leading axes are batch axes, so a single spectrum is the case of none.
    spec = None drops the nonlinear term (the quadratic probe of
    ridge_estimate and residual_norm); params = None builds the nonlinear
    term only, and the multiplier methods are then unavailable.
    """

    grid: TorusGrid
    params: Optional[FracParams]
    spec: Optional[NonlinearitySpec]
    shifted: Optional[np.ndarray] = dc_field(init=False, repr=False)
    full: Optional[np.ndarray] = dc_field(init=False, repr=False)
    inv_full: Optional[np.ndarray] = dc_field(init=False, repr=False)
    pairing: np.ndarray = dc_field(init=False, repr=False)
    m_pad: int = dc_field(init=False)
    coeff_pad: Optional[np.ndarray] = dc_field(init=False, repr=False)
    cell: float = dc_field(init=False)
    axes: tuple = dc_field(init=False, repr=False)

    def __post_init__(self):
        g, spec = self.grid, self.spec
        put = partial(object.__setattr__, self)
        if self.params is None:
            put("shifted", None)
            put("full", None)
            put("inv_full", None)
        else:
            full = multiplier(g, self.params)
            put("shifted", multiplier(g, self.params, shifted=True))
            put("full", full)
            put("inv_full", np.where(full > 0.0, 1.0 / np.maximum(full, 1e-300), 1.0))
        pairing = np.ones(g.shape)
        for ax in range(g.N):
            pairing[_plane(g.N, ax, g.n // 2)] *= 0.5
        put("pairing", pairing)
        m = padded_size(g.n, spec)
        put("m_pad", m)
        put("cell", (g.T / m) ** g.N)
        put("axes", tuple(range(-g.N, 0)))
        if spec is None:
            coeff = None
        elif spec.kind == "pure_power":
            coeff = np.ones((m,) * g.N)
        else:
            coeff = pad_coeffs(forward_transform(spec.a).coeffs, g, m)
        put("coeff_pad", coeff)

    def quadratic(self, U: np.ndarray) -> np.ndarray:
        """1/2 sum_k [(omega^2|k|^2+m^2)^s - m^{2s}] |c_k|^2."""
        return 0.5 * np.sum(self.shifted * np.abs(U) ** 2, axis=self.axes)

    def nonlinear_energy(self, U: np.ndarray) -> np.ndarray:
        """int F(x,u) dx with F = a |u|^{p+1}/(p+1), trapezoid rule on the padded grid."""
        p = self.spec.p
        vals = pad_coeffs(U, self.grid, self.m_pad)
        return np.sum(self.coeff_pad * np.abs(vals) ** (p + 1.0), axis=self.axes) * (
            self.cell / (p + 1.0)
        )

    def levels(self, U: np.ndarray) -> np.ndarray:
        """I(u)."""
        if self.spec is None:
            return self.quadratic(U)
        return self.quadratic(U) - self.nonlinear_energy(U)

    def nonlinear_gradient(self, U: np.ndarray) -> np.ndarray:
        """The derivative of nonlinear_energy in the pairing Re sum_k conj(.) w_k:
        the band-limited coefficients of f(x, u(x)), dealiased by zero padding,
        times `pairing` (1/2 per Nyquist axis of k)."""
        vals = pad_coeffs(U, self.grid, self.m_pad)
        return self.pairing * restrict_values(f_eval(self.spec, self.coeff_pad, vals), self.grid)

    def grad(self, U: np.ndarray) -> np.ndarray:
        """L2 gradient R_k = [(omega^2|k|^2+m^2)^s - m^{2s}] c_k - nonlinear_gradient_k,
        the exact derivative of levels: d/dt levels(U + t W) at t = 0 is
        Re sum_k conj(R_k) W_k for every Hermitian W with real Nyquist planes."""
        R = self.shifted * U
        if self.spec is not None:
            R = R - self.nonlinear_gradient(U)
        return R

    def precondition(self, R: np.ndarray) -> np.ndarray:
        """X-metric gradient R_k / (omega^2|k|^2+m^2)^s; a zero-multiplier mode
        (k = 0 at m = 0) stays in the L2 metric."""
        out = np.array(R, dtype=complex)
        np.divide(R, self.full, out=out, where=self.full != 0.0)
        return out

    def dual_norms(self, R: np.ndarray) -> np.ndarray:
        """sqrt(sum_k |R_k|^2 / (omega^2|k|^2+m^2)^s); a zero-multiplier mode
        keeps unit weight so nonzero-mean defects still register."""
        return np.sqrt(np.sum(self.inv_full * np.abs(R) ** 2, axis=self.axes))

    def jacobian_apply(self, U: np.ndarray, W: np.ndarray) -> np.ndarray:
        """Band-limited coefficients of f_t(x, u) w times `pairing`, the
        nonlinear part of the derivative of grad at u in the direction w (the
        full derivative is shifted * w minus this); U broadcasts against W."""
        fp = fprime_eval(self.spec, self.coeff_pad, pad_coeffs(U, self.grid, self.m_pad))
        return self.pairing * restrict_values(fp * pad_coeffs(W, self.grid, self.m_pad),
                                              self.grid)

    def linearization(self, U: np.ndarray):
        """The derivative of grad at u on real FFTs: returns the map
        X -> shifted * X - (f_t(x, u) w)^, where X = rfft_samples(w) of real
        grid samples w, and irfft_samples of the result are the samples of
        the derivative in the direction w, the samples of shifted * W -
        jacobian_apply(U, W) with W = grids.fft_coeffs(grid, w), Nyquist
        planes included.  f_t(x, u) is sampled on the padded grid once.
        """
        fp = fprime_eval(self.spec, self.coeff_pad, pad_coeffs(U, self.grid, self.m_pad))
        half = slice(0, self.grid.n // 2 + 1)
        shifted, pairing = self.shifted[..., half], self.pairing[..., half]
        fine = (self.m_pad,) * self.grid.N

        def apply(X: np.ndarray) -> np.ndarray:
            v = irfft_samples(_pad_half(X, self.grid, self.m_pad), fine)
            return shifted * X - pairing * _restrict_half(rfft_samples(fp * v, self.grid.N),
                                                          self.grid, self.m_pad)

        return apply

    def action(self, U: np.ndarray) -> np.ndarray:
        """int f(x, u) u dx on the padded grid."""
        vals = pad_coeffs(U, self.grid, self.m_pad)
        return np.sum(f_eval(self.spec, self.coeff_pad, vals) * vals, axis=self.axes) * self.cell

    def hs_norms(self, U: np.ndarray) -> np.ndarray:
        """|u|_{H^s} = sqrt(sum_k (omega^2|k|^2+m^2)^s |c_k|^2)."""
        return np.sqrt(np.sum(self.full * np.abs(U) ** 2, axis=self.axes))


def nonlinear_energy(spec: NonlinearitySpec, u: Spectrum) -> float:
    """int F(x, u(x)) dx by the trapezoid rule on the dealiased grid."""
    return float(Discretization(u.grid, None, spec).nonlinear_energy(u.coeffs))


def nonlinear_gradient(spec: NonlinearitySpec, u: Spectrum) -> Spectrum:
    """The derivative of nonlinear_energy in the pairing Re sum_k conj(.) w_k:
    the band-limited spectrum of f(x, u(x)), dealiased by zero padding, with
    each Nyquist axis of k weighted 1/2."""
    return Spectrum(u.grid, Discretization(u.grid, None, spec).nonlinear_gradient(u.coeffs))


def nonlinear_jacobian_apply(spec: NonlinearitySpec, u: Spectrum, w: Spectrum) -> Spectrum:
    """Gateaux derivative of nonlinear_gradient at u in the direction w."""
    disc = Discretization(u.grid, None, spec)
    return Spectrum(u.grid, disc.jacobian_apply(u.coeffs, w.coeffs))


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
    a_vals = flat[x_idx]

    passed, details = {}, {}
    # (f1) periodicity: exact by construction (coefficient lives on the grid).
    passed["f1_periodic"] = True
    # (f2) continuity: max jump of f in t on a refined grid.
    tt = np.linspace(t.min(), t.max(), 4001)
    fv = np.abs(a_vals[:, None]) * np.abs(tt) ** (spec.p - 1.0) * tt
    jump = float(np.max(np.abs(np.diff(fv, axis=1))))
    passed["f2_continuous"] = jump < 10.0 * np.max(np.abs(fv)) * (tt[1] - tt[0]) ** min(
        1.0, spec.p - 1.0
    ) + 1e-12
    details["f2_max_jump"] = jump
    # (f3) f(x,t) = o(t): sup_x |f(x,+-t)/t| falls toward 0 as t -> 0.
    small = np.logspace(-6, -2, 21)
    fs = f_eval(spec, a_vals[:, None, None], np.stack([small, -small]))
    passed["f3_small_o"], details["f3_slope"], details["f3_tail_slope"] = _falls_to_zero(
        small, np.max(np.abs(fs), axis=(0, 1)) / small)
    # (f4) growth |f| <= C (1 + |t|^p): fitted C.
    fmax = np.abs(a_vals[:, None]) * np.abs(t) ** spec.p
    C_fit = float(np.max(fmax / (1.0 + np.abs(t) ** spec.p)))
    passed["f4_growth"] = np.isfinite(C_fit)
    details["f4_C"] = C_fit
    # (f5) AR: 0 < mu F <= t f on |t| >= r0.
    big = t[np.abs(t) >= r0]
    lhs = spec.mu * np.abs(a_vals[:, None]) * np.abs(big) ** (spec.p + 1) / (spec.p + 1)
    rhs = np.abs(a_vals[:, None]) * np.abs(big) ** (spec.p + 1)
    ok = np.all(lhs > 0) and np.all(lhs <= rhs * (1 + 1e-12))
    if not ok:
        bad = np.unravel_index(int(np.argmax(lhs - rhs)), lhs.shape)
        raise HypothesisViolated("f5", witness=(float(a_vals[bad[0]]), float(big[bad[1]])))
    passed["f5_ambrosetti_rabinowitz"] = True
    details["f5_equality"] = bool(spec.mu == spec.p + 1.0)
    # (f6) sign: t f(x,t) >= 0 needs a >= 0 (construction rejects sign changes,
    # re-checked here on the samples).
    tf = a_vals[:, None] * np.abs(t) ** (spec.p + 1)
    if np.min(tf) < 0:
        bad = np.unravel_index(int(np.argmin(tf)), tf.shape)
        raise HypothesisViolated("f6", witness=(int(x_idx[bad[0]]), float(t[bad[1]])))
    passed["f6_sign"] = True
    # epsilon-split growth bounds with reported C_eps.
    amax = float(np.max(np.abs(a_vals)))
    for eps in (1.0, 0.1):
        # f: a|t|^p <= 2 eps |t| + (p+1) C_eps |t|^p;
        # F: a|t|^{p+1}/(p+1) <= eps t^2 + C_eps |t|^{p+1}
        with np.errstate(divide="ignore", invalid="ignore"):
            need_f = (amax * np.abs(t) ** spec.p - 2 * eps * np.abs(t)) / (
                (spec.p + 1) * np.abs(t) ** spec.p
            )
            need_F = (amax * np.abs(t) ** (spec.p + 1) / (spec.p + 1) - eps * t**2) / (
                np.abs(t) ** (spec.p + 1)
            )
        C_eps = float(max(np.nanmax(need_f), np.nanmax(need_F), 0.0))
        details[f"C_eps_{eps}"] = C_eps
        fin = t[t != 0]
        lhs_f = amax * np.abs(fin) ** spec.p
        rhs_f = 2 * eps * np.abs(fin) + (spec.p + 1) * C_eps * np.abs(fin) ** spec.p
        lhs_F = amax * np.abs(fin) ** (spec.p + 1) / (spec.p + 1)
        rhs_F = eps * fin**2 + C_eps * np.abs(fin) ** (spec.p + 1)
        passed[f"growth_split_eps_{eps}"] = bool(
            np.all(lhs_f <= rhs_f * (1 + 1e-9)) and np.all(lhs_F <= rhs_F * (1 + 1e-9))
        )
    a3, a4 = spec.ar_constants(grid)
    details["a3"], details["a4"] = a3, a4
    Fv = np.abs(a_vals[:, None]) * np.abs(t) ** (spec.p + 1) / (spec.p + 1)
    passed["F_superquadratic_bound"] = bool(
        np.all(Fv >= a3 * np.abs(t) ** spec.mu - a4 - 1e-12)
    )
    return HypothesisReport(passed=passed, details=details)


"""Torus grids, Fourier transforms, Sobolev norms and multiplier operators.

Conventions: a real T-periodic field u on the N-torus is expanded as
u(x) = sum_k c_k e^{i omega k.x} / sqrt(T^N) with omega = 2 pi / T, so that
c_k = (1/sqrt(T^N)) int u e^{-i omega k.x} dx.  The discrete coefficients are
stored in numpy FFT layout; the retained band per axis is {-n/2+1, ..., n/2}
with the Nyquist coefficient forced real.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import product
from typing import NamedTuple

import numpy as np

from .errors import BadExponent, DomainError, SymmetryViolation

HERMITIAN_TOL = 1e-8
# Largest n^N a grid may have; the largest grid any workload uses is 3-D n=32.
MAX_GRID_POINTS = 2**22
# Most float64 entries, 2 n^N m^N, of the matrix by which the pad and the
# restriction between the n- and the m-point grid run on small grids: there
# one product costs less than numpy's FFT calls.  1-D n = 64 at m = 96 is a
# 12,288-entry product; 1-D n = 128 at m = 192 and 2-D n = 16 run FFTs.
DENSE_MAX_ENTRIES = 2**15


def _frozen_array(a, dtype):
    a = np.array(a, dtype=dtype)  # a copy: the caller's array stays writeable and unshared
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=None)
def _ksq(N: int, n: int) -> np.ndarray:
    j = np.arange(n)
    k2 = np.minimum(j, n - j) ** 2.0  # per axis; the Nyquist mode has |k| = n/2
    return _frozen_array(functools.reduce(np.add.outer, [k2] * N), float)


@dataclass(frozen=True)
class TorusGrid:
    """Uniform grid on the N-torus of period T with n points per axis."""

    N: int
    T: float
    n: int

    def __post_init__(self):
        if not (1 <= self.N <= 3):
            raise DomainError(f"dimension N must be 1..3, got {self.N}")
        if not (0 < self.T < np.inf):
            raise DomainError(f"period T must be positive and finite, got {self.T}")
        if self.n < 4 or self.n % 2 != 0:
            raise DomainError(f"n must be even and >= 4, got {self.n}")
        if self.n**self.N > MAX_GRID_POINTS:
            raise DomainError(f"n^N = {self.n}^{self.N} exceeds {MAX_GRID_POINTS} grid points")
        self.cell_at(self.n)

    @property
    def omega(self) -> float:
        return 2.0 * np.pi / self.T

    @property
    def shape(self):
        return (self.n,) * self.N

    @property
    def size(self) -> int:
        return self.n**self.N

    @property
    def cell_volume(self) -> float:
        return self.cell_at(self.n)

    def cell_at(self, m: int) -> float:
        """(T/m)^N, the cell volume at m points per axis; a positive finite float."""
        try:
            vol = (self.T / m) ** self.N
        except OverflowError:
            vol = np.inf
        if not 0.0 < vol < np.inf:
            raise DomainError(f"the cell volume (T/{m})^{self.N} at T={self.T} is {vol}")
        return vol

    def axis_wavenumbers(self) -> np.ndarray:
        """Integer wavenumbers along one axis, FFT layout, Nyquist = +n/2."""
        k = np.fft.fftfreq(self.n, d=1.0 / self.n)
        k[self.n // 2] = self.n // 2
        return k.astype(np.int64)

    def ksq(self) -> np.ndarray:
        """|k|^2 on the full spectral grid: one read-only array per (N, n)."""
        return _ksq(self.N, self.n)

    def points(self):
        """Coordinate arrays x_j = j T / n, one per axis (meshgrid ij)."""
        x = np.arange(self.n) * (self.T / self.n)
        return np.meshgrid(*([x] * self.N), indexing="ij")


@dataclass(frozen=True)
class FracParams:
    """Exponent s in (0,1) and mass m >= 0 of the operator (-Lap+m^2)^s."""

    s: float
    m: float

    def __post_init__(self):
        if not (0.0 < self.s < 1.0):
            raise DomainError(f"s must lie in (0,1), got {self.s}")
        if not (0.0 <= self.m < np.inf):
            raise DomainError(f"m must be nonnegative and finite, got {self.m}")

    def check_grid(self, grid: TorusGrid):
        # N >= 2s keeps the critical exponent well defined (infinite at N = 2s,
        # which still admits every finite growth exponent p).
        if grid.N < 2 * self.s:
            raise DomainError(
                f"need N >= 2s, got N={grid.N}, s={self.s}"
            )
        with np.errstate(over="ignore"):  # omega^2 |k|^2 + m^2 at the top |k|^2 = N n^2/4
            top = np.float64(grid.omega * grid.n / 2) ** 2 * grid.N + np.float64(self.m) ** 2
        if not top < np.inf:
            raise DomainError(f"the multiplier overflows at the top mode (T={grid.T}, m={self.m})")

    def critical_exponent(self, N: int) -> float:
        """2N/(N-2s); +inf at the boundary N = 2s."""
        if N == 2 * self.s:
            return np.inf
        return 2.0 * N / (N - 2.0 * self.s)


def _reverse_modes(c: np.ndarray, axes) -> np.ndarray:
    """Coefficient array at -k (mod the axis length) for every k, -k taken
    along the given axes."""
    out = c
    for ax in axes:
        out = np.roll(np.flip(out, axis=ax), 1, axis=ax)
    return out


def hermitian_defect(coeffs: np.ndarray) -> float:
    """Relative Hermitian-symmetry defect of a coefficient array."""
    scale = np.max(np.abs(coeffs))
    if scale == 0.0:
        return 0.0
    c = coeffs / scale  # so that the norms cannot overflow
    mirror = np.conj(_reverse_modes(c, range(c.ndim)))
    return np.linalg.norm((c - mirror).ravel()) / np.linalg.norm(c.ravel())


@dataclass(frozen=True)
class Field:
    """Real samples of a T-periodic field at the grid points."""

    grid: TorusGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = _frozen_array(self.values, float)
        if v.shape != self.grid.shape:
            raise DomainError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise DomainError("field values must be finite")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class Spectrum:
    """Truncated complex Fourier coefficients of a real periodic field."""

    grid: TorusGrid
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = _frozen_array(self.coeffs, complex)
        if c.shape != self.grid.shape:
            raise DomainError(f"coeffs shape {c.shape} != grid shape {self.grid.shape}")
        object.__setattr__(self, "coeffs", c)

    @property
    def mean_coeff(self) -> complex:
        return self.coeffs[(0,) * self.grid.N]

    def l2_norm(self) -> float:
        """sqrt(sum |c_k|^2) = L^2 norm of the underlying field (Parseval)."""
        return float(np.linalg.norm(self.coeffs.ravel()))


def multiplier(grid: TorusGrid, p: FracParams, shifted: bool = False) -> np.ndarray:
    """(omega^2 |k|^2 + m^2)^s, minus m^{2s} when shifted: the operator's
    symbol, one read-only table per (grid, s, m, shifted)."""
    return _multiplier(grid, p, shifted)


@functools.lru_cache(maxsize=8)  # a sweep meets a new mass per row; a table is <= 32 MB
def _multiplier(grid: TorusGrid, p: FracParams, shifted: bool) -> np.ndarray:
    p.check_grid(grid)
    mult = (grid.omega**2 * grid.ksq() + p.m**2) ** p.s
    if shifted:
        mult = mult - p.m ** (2.0 * p.s)
        mult[(0,) * grid.N] = 0.0  # exact kernel at k = 0
    return _frozen_array(mult, float)


@functools.lru_cache(maxsize=None)
def _nyquist_weight(N: int, n: int) -> np.ndarray:
    w = np.where(np.arange(n) == n // 2, 0.5, 1.0)
    return _frozen_array(functools.reduce(np.multiply.outer, [w] * N), float)


def nyquist_weight(grid: TorusGrid) -> np.ndarray:
    """1/2 per axis on which |k_i| = n/2, else 1 (full FFT layout, read-only):
    a coefficient on |k_i| = n/2 stands for the pair +-n/2, each image
    carrying half of it."""
    return _nyquist_weight(grid.N, grid.n)


def _half_blocks(n: int, m: int, N: int):
    """(coarse, fine) index pairs placing the retained band of an rfft half
    spectrum into the rfft layout of the m >= n point grid: on each of the
    first N - 1 axes the modes 0..n/2 and n/2..n-1 (that is -n/2..-1), so
    n/2 meets both its images, on the last axis the modes 0..n/2."""
    ny = n // 2
    axis = ((slice(0, ny + 1), slice(0, ny + 1)), (slice(ny, n), slice(m - ny, m)))
    last = (slice(0, ny + 1),)
    for combo in product(axis, repeat=N - 1):
        yield ((Ellipsis,) + tuple(c for c, _ in combo) + last,
               (Ellipsis,) + tuple(f for _, f in combo) + last)


class _Plan(NamedTuple):
    """Read-only index plan of the pad and restriction between the n-point
    and the m-point grid of an N-torus, on the full FFT layout of the band."""

    blocks: tuple  # (coarse, fine, Nyquist weight of coarse) per _half_blocks pair
    padded: tuple  # trailing shape of an rfft half spectrum on the m-point grid
    fold: tuple  # the n/2 column of the last axis at -k over the other axes
    planes: tuple  # the modes 0..n/2 of the last axis on each n/2 plane of the others
    mirror: tuple  # the modes at -k of the last axis's modes -n/2+1..-1


@functools.lru_cache(maxsize=None)
def _plan(N: int, n: int, m: int) -> _Plan:
    # at m = n the images +-n/2 are one mode of the m-point grid, which takes
    # the whole Nyquist coefficient
    ny, w = n // 2, _nyquist_weight(N, n) if m > n else _frozen_array(np.ones((n,) * N), float)
    neg = _frozen_array(-np.arange(n) % n, np.intp)
    fold = (Ellipsis,) + tuple(_frozen_array(i, np.intp) for i in np.ix_(*[neg] * (N - 1)))
    return _Plan(
        tuple((c, f, w[c]) for c, f in _half_blocks(n, m, N)),
        (m,) * (N - 1) + (m // 2 + 1,),
        fold,
        tuple((Ellipsis, ny) + (slice(None),) * (k - 1) + (slice(0, ny + 1),) for k in range(1, N)),
        fold + (slice(ny - 1, 0, -1),),
    )


def _fft_pad(coeffs: np.ndarray, N: int, n: int, m: int, scale: float) -> np.ndarray:
    """The pad as FFTs: the band scattered into the m-point rfft layout with
    its Nyquist weights, then irfftn, times scale."""
    plan = _plan(N, n, m)
    big = np.zeros(coeffs.shape[: coeffs.ndim - N] + plan.padded, dtype=complex)
    for c, f, w in plan.blocks:
        np.multiply(coeffs[c], w, out=big[f])
    # numpy.fft.irfft is irfftn at N = 1, with less call overhead
    x = np.fft.irfft(big, m) if N == 1 else np.fft.irfftn(big, (m,) * N, tuple(range(-N, 0)))
    return x * scale


def _fft_restrict(values: np.ndarray, N: int, n: int, scale: float) -> np.ndarray:
    """The restriction as FFTs: the band's half spectrum times scale, folded
    block by block, its Nyquist planes made real and its mirror written."""
    ny, plan = n // 2, _plan(N, n, values.shape[-1])
    F = np.fft.rfft(values)[..., : ny + 1]
    for ax in range(-2, -N - 1, -1):  # rfftn's order, so its rounding
        F = np.fft.fft(F, axis=ax)
    F *= scale
    out = np.zeros(F.shape[: F.ndim - N] + (n,) * N, dtype=complex)
    for c, f, _ in plan.blocks:
        out[c] += F[f]
    col = out[..., ny].real
    out[..., ny] = col + col[plan.fold]
    for plane in plan.planes:
        out[plane].imag = 0.0
    np.conjugate(out[plan.mirror], out=out[..., ny + 1:])
    return out


def _dense(N: int, n: int, m: int) -> bool:
    """Whether the pad and restriction between the n- and the m-point grid
    run as one product with a cached matrix: that matrix has at most
    DENSE_MAX_ENTRIES entries, and m <= 2n keeps the restriction's identity
    batch, m^N rows of m^N samples, within 2^N times it."""
    return m <= 2 * n and 2 * (n * m) ** N <= DENSE_MAX_ENTRIES


@functools.lru_cache(maxsize=None)
def _pad_matrix(N: int, n: int, m: int) -> np.ndarray:
    """The pad at T = 1 as a read-only real (2 n^N, m^N) matrix, acting on
    the float view of the band: the FFT pad of an identity batch."""
    eye = np.eye(2 * n**N).view(complex).reshape((2 * n**N,) + (n,) * N)
    return _frozen_array(_fft_pad(eye, N, n, m, float(m**N)).reshape(2 * n**N, m**N), float)


@functools.lru_cache(maxsize=None)
def _restrict_matrix(N: int, n: int, m: int) -> np.ndarray:
    """The restriction at T = 1 as a read-only real (m^N, 2 n^N) matrix whose
    products are the float view of the band: the FFT restriction of an
    identity batch."""
    eye = np.eye(m**N).reshape((m**N,) + (m,) * N)
    return _frozen_array(_fft_restrict(eye, N, n, 1.0 / m**N).reshape(m**N, n**N).view(float),
                         float)


def pad_coeffs(coeffs: np.ndarray, grid: TorusGrid, m: int) -> np.ndarray:
    """Real samples on the m-point grid (m >= n) of the interpolant of a
    Hermitian spectrum, unchecked; leading axes are batched.  Only the modes
    0..n/2 of the last axis are read.  A coefficient on |k_i| = n/2 lands on
    both images +-n/2 with its Nyquist weight, so the interpolant stays real
    (on the last axis -n/2 is the Hermitian mirror, which the half spectrum
    leaves out).  On small grids (_dense) each row is one np.vecmat of its
    float view with the cached _pad_matrix, then the period's scale, where
    numpy's FFT would cost more in call overhead than in arithmetic; else it
    is one irfftn of the band scattered into the m-point rfft layout."""
    N, n = grid.N, grid.n
    if not _dense(N, n, m):
        return _fft_pad(coeffs, N, n, m, m**N / grid.T ** (N / 2.0))
    lead = coeffs.shape[: coeffs.ndim - N]
    x = np.ascontiguousarray(coeffs, dtype=complex).reshape(lead + (-1,)).view(float)
    out = np.vecmat(x, _pad_matrix(N, n, m))
    out *= grid.T ** (-N / 2.0)
    return out.reshape(lead + (m,) * N)


def restrict_values(values: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Band-projected coefficients of samples on an m-point grid, m >= n read
    from the trailing axis (leading axes are batched): each band mode sums
    all its images, so a coefficient on |k_i| = n/2 holds the sum over +-n/2,
    and the Nyquist planes are made real.  The half spectrum leaves out the
    -n/2 column of the last axis, the conjugate of the n/2 column at -k over
    the other axes, so that folded column is the real part of the n/2 column
    at k plus at -k.  On small grids (_dense) each row is one np.vecmat of its
    samples with the cached _restrict_matrix, then the period's scale; else
    it is the FFTs of the band's half spectrum and a block gather."""
    N, n, m = grid.N, grid.n, values.shape[-1]
    if not _dense(N, n, m):
        return _fft_restrict(values, N, n, grid.T ** (N / 2.0) / m**N)
    lead = values.shape[: values.ndim - N]
    out = np.vecmat(values.reshape(lead + (-1,)), _restrict_matrix(N, n, m))
    out *= grid.T ** (N / 2.0)
    return out.view(complex).reshape(lead + (n,) * N)


def forward_transform(f: Field) -> Spectrum:
    """Fourier coefficients in the paper normalization (trapezoid/DFT rule):
    the restriction at m = n, whose fold doubles each Nyquist plane, times
    the Nyquist weight."""
    return Spectrum(f.grid, nyquist_weight(f.grid) * restrict_values(f.values, f.grid))


def inverse_transform(S: Spectrum) -> Field:
    """Samples of sum_k c_k e^{i omega k.x}/sqrt(T^N) at the grid points: the
    pad at m = n of a spectrum checked to be Hermitian."""
    defect = hermitian_defect(S.coeffs)
    if defect > HERMITIAN_TOL:
        raise SymmetryViolation(f"Hermitian defect {defect:.3e} exceeds {HERMITIAN_TOL:.0e}")
    with np.errstate(over="ignore", invalid="ignore"):  # Field rejects non-finite samples
        return Field(S.grid, pad_coeffs(S.coeffs, S.grid, S.grid.n))


def prolong(S: Spectrum, grid: TorusGrid) -> Spectrum:
    """S zero-padded to a grid of the same torus with as many or more points
    per axis: the transform of its interpolant's samples there, so a
    coefficient on |k_i| = n_c/2 splits evenly onto +-n_c/2."""
    if (grid.N, grid.T) != (S.grid.N, S.grid.T) or grid.n < S.grid.n:
        raise DomainError(f"cannot prolong a spectrum on {S.grid} to {grid}")
    return forward_transform(Field(grid, pad_coeffs(S.coeffs, S.grid, grid.n)))


def apply_bessel_operator(S: Spectrum, p: FracParams) -> Spectrum:
    """Multiplier action d_k = (omega^2 |k|^2 + m^2)^s c_k."""
    return Spectrum(S.grid, S.coeffs * multiplier(S.grid, p))


def apply_shifted_operator(S: Spectrum, p: FracParams) -> Spectrum:
    """d_k = [(omega^2 |k|^2 + m^2)^s - m^{2s}] c_k; the k=0 mode is annihilated."""
    return Spectrum(S.grid, S.coeffs * multiplier(S.grid, p, shifted=True))


def hs_norm(S: Spectrum, p: FracParams) -> float:
    """|u|_{H^s_{m,T}} = sqrt(sum (omega^2|k|^2+m^2)^s |c_k|^2)."""
    return float(np.sqrt(np.sum(multiplier(S.grid, p) * np.abs(S.coeffs) ** 2)))


def lq_norm(f: Field, q: float) -> float:
    """Periodic-trapezoid L^q norm on the grid."""
    if q < 1:
        raise BadExponent(f"q must be >= 1, got {q}")
    if np.isinf(q):
        return float(np.max(np.abs(f.values)))
    vol = f.grid.cell_volume
    return float((np.sum(np.abs(f.values) ** q) * vol) ** (1.0 / q))


def project_zero_mean(S: Spectrum) -> Spectrum:
    """Zero the k=0 coefficient (projection onto the mean-free subspace)."""
    coeffs = S.coeffs.copy()
    coeffs[(0,) * S.grid.N] = 0.0
    return Spectrum(S.grid, coeffs)


# ---------------------------------------------------------------------------
# construction helpers

def field_from_function(grid: TorusGrid, fn) -> Field:
    xs = grid.points()
    return Field(grid, np.asarray(fn(*xs), dtype=float))


def random_spectrum(
    grid: TorusGrid,
    rng: np.random.Generator,
    decay: float = 0.0,
    zero_mean: bool = False,
) -> Spectrum:
    """Random real field spectrum, optional exponential coefficient decay."""
    coeffs = forward_transform(Field(grid, rng.standard_normal(grid.shape))).coeffs
    if decay > 0.0:
        coeffs = coeffs * np.exp(-decay * np.sqrt(grid.ksq()))
    S = Spectrum(grid, coeffs)
    return project_zero_mean(S) if zero_mean else S


# ---------------------------------------------------------------------------
# serialization (CLI persistence format)

def spectrum_to_json(S: Spectrum) -> dict:
    return {
        "grid": {"N": S.grid.N, "T": S.grid.T, "n": S.grid.n},
        "kind": "spectrum",
        "data": S.coeffs.ravel().view(float).reshape(-1, 2).tolist(),  # [re, im] per mode
    }


def json_real(value) -> float:
    """float(value) of a JSON number, refusing booleans and strings, which
    float() would take (true -> 1.0, "1e-8" -> 1e-08)."""
    if isinstance(value, (bool, str)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def json_integer(value) -> int:
    """int(value) of a JSON number (see json_real), refusing a fractional
    part, which int() would truncate (64.9 -> 64)."""
    if not json_real(value).is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def grid_from_json(doc: dict) -> TorusGrid:
    return TorusGrid(N=json_integer(doc["N"]), T=json_real(doc["T"]), n=json_integer(doc["n"]))


def object_from_json(doc: dict) -> Spectrum:
    """Round-trip loader for the {grid, kind, data} documents of spectrum_to_json."""
    grid = grid_from_json(doc["grid"])
    kind = doc.get("kind")
    if kind != "spectrum":
        raise DomainError(f"unknown serialized kind {kind!r}")
    flat = np.array([complex(json_real(re), json_real(im)) for re, im in doc["data"]])
    if not np.all(np.isfinite(flat)):
        raise DomainError("spectrum data must be finite")
    return Spectrum(grid, flat.reshape(grid.shape))

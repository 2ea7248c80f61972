"""Torus grids, Fourier transforms, Sobolev norms and multiplier operators.

Conventions: a real T-periodic field u on the N-torus is expanded as
u(x) = sum_k c_k e^{i omega k.x} / sqrt(T^N) with omega = 2 pi / T, so that
c_k = (1/sqrt(T^N)) int u e^{-i omega k.x} dx.  The discrete coefficients are
stored in numpy FFT layout; the retained band per axis is {-n/2+1, ..., n/2}
with the Nyquist coefficient forced real.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadExponent, DomainError, SymmetryViolation

HERMITIAN_TOL = 1e-8
# Largest n^N a grid may have; the largest grid any workload uses is 3-D n=32.
MAX_GRID_POINTS = 2**22


def _frozen_array(a, dtype):
    a = np.asarray(a, dtype=dtype)
    a.setflags(write=False)
    return a


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
        return (self.T / self.n) ** self.N

    def axis_wavenumbers(self) -> np.ndarray:
        """Integer wavenumbers along one axis, FFT layout, Nyquist = +n/2."""
        k = np.fft.fftfreq(self.n, d=1.0 / self.n)
        k[self.n // 2] = self.n // 2
        return k.astype(np.int64)

    def ksq(self) -> np.ndarray:
        """|k|^2 on the full spectral grid."""
        k = self.axis_wavenumbers().astype(float)
        axes = np.meshgrid(*([k] * self.N), indexing="ij")
        return sum(a**2 for a in axes)

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


def _hermitian_full(H: np.ndarray, N: int) -> np.ndarray:
    """Full FFT-layout coefficients of a real field from its rfft half
    spectrum over the trailing N axes (last axis: the modes 0..n/2); the
    modes -n/2+1..-1 of the last axis are the conjugates of the modes at -k."""
    ny = H.shape[-1] - 1
    neg = np.conj(_reverse_modes(H[..., ny - 1 : 0 : -1], range(-N, -1)))
    return np.concatenate((H, neg), axis=-1)


def hermitian_defect(coeffs: np.ndarray) -> float:
    """Relative Hermitian-symmetry defect of a coefficient array."""
    scale = np.linalg.norm(coeffs.ravel())
    if scale == 0.0:
        return 0.0
    mirror = np.conj(_reverse_modes(coeffs, range(coeffs.ndim)))
    return np.linalg.norm((coeffs - mirror).ravel()) / scale


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
    """(omega^2 |k|^2 + m^2)^s, minus m^{2s} when shifted."""
    p.check_grid(grid)
    mult = (grid.omega**2 * grid.ksq() + p.m**2) ** p.s
    if shifted:
        mult = mult - p.m ** (2.0 * p.s)
        mult[(0,) * grid.N] = 0.0  # exact kernel at k = 0
    return mult


def fft_coeffs(grid: TorusGrid, values: np.ndarray) -> np.ndarray:
    """Paper-normalized DFT coefficients of samples on an m-point-per-axis grid
    of the torus, m read from the trailing axis; leading axes are batched."""
    m = values.shape[-1]
    axes = tuple(range(-grid.N, 0))
    return np.fft.fftn(values, axes=axes) * (grid.T ** (grid.N / 2.0) / m**grid.N)


def ifft_values(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Real samples on the m-point-per-axis grid from paper-normalized DFT
    coefficients, m read from the trailing axis; inverse of fft_coeffs."""
    m = coeffs.shape[-1]
    axes = tuple(range(-grid.N, 0))
    return np.fft.ifftn(coeffs, axes=axes).real * (m**grid.N / grid.T ** (grid.N / 2.0))


def forward_transform(f: Field) -> Spectrum:
    """Fourier coefficients in the paper normalization (trapezoid/DFT rule)."""
    g = f.grid
    return Spectrum(g, _symmetrize_nyquist(g, fft_coeffs(g, f.values)))


def _plane(N: int, ax: int, index: int) -> tuple:
    """Index of the hyperplane `index` along axis ax of the trailing N axes."""
    sl = [slice(None)] * N
    sl[ax] = index
    return (Ellipsis,) + tuple(sl)


def _symmetrize_nyquist(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Force the Nyquist-plane coefficients real (real-field consistency);
    leading axes are batched."""
    coeffs = coeffs.copy()
    for ax in range(grid.N):
        sl = _plane(grid.N, ax, grid.n // 2)
        coeffs[sl] = coeffs[sl].real
    return coeffs


def inverse_transform(S: Spectrum, check: bool = True) -> Field:
    """Samples of sum_k c_k e^{i omega k.x}/sqrt(T^N) at the grid points."""
    g = S.grid
    if check:
        defect = hermitian_defect(S.coeffs)
        if defect > HERMITIAN_TOL:
            raise SymmetryViolation(
                f"Hermitian defect {defect:.3e} exceeds {HERMITIAN_TOL:.0e}"
            )
    return Field(g, ifft_values(g, S.coeffs))


def apply_bessel_operator(S: Spectrum, p: FracParams) -> Spectrum:
    """Multiplier action d_k = (omega^2 |k|^2 + m^2)^s c_k."""
    return Spectrum(S.grid, S.coeffs * multiplier(S.grid, p))


def apply_shifted_operator(S: Spectrum, p: FracParams) -> Spectrum:
    """d_k = [(omega^2 |k|^2 + m^2)^s - m^{2s}] c_k; the k=0 mode is annihilated."""
    return Spectrum(S.grid, S.coeffs * multiplier(S.grid, p, shifted=True))


def hs_norm(S: Spectrum, p: FracParams) -> float:
    """|u|_{H^s_{m,T}} = sqrt(sum (omega^2|k|^2+m^2)^s |c_k|^2)."""
    mult = multiplier(S.grid, p)
    return float(np.sqrt(np.sum(mult * np.abs(S.coeffs) ** 2)))


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
    values = rng.standard_normal(grid.shape)
    S = forward_transform(Field(grid, values))
    coeffs = S.coeffs
    if decay > 0.0:
        coeffs = coeffs * np.exp(-decay * np.sqrt(grid.ksq()))
        coeffs = _symmetrize_nyquist(grid, coeffs)
    S = Spectrum(grid, coeffs)
    if zero_mean:
        S = project_zero_mean(S)
    return S


# ---------------------------------------------------------------------------
# serialization (CLI persistence format)

def spectrum_to_json(S: Spectrum) -> dict:
    flat = S.coeffs.ravel()
    return {
        "grid": {"N": S.grid.N, "T": S.grid.T, "n": S.grid.n},
        "kind": "spectrum",
        "data": [[float(z.real), float(z.imag)] for z in flat],
    }


def grid_from_json(doc: dict) -> TorusGrid:
    return TorusGrid(N=int(doc["N"]), T=float(doc["T"]), n=int(doc["n"]))


def object_from_json(doc: dict) -> Spectrum:
    """Round-trip loader for the {grid, kind, data} documents of spectrum_to_json."""
    grid = grid_from_json(doc["grid"])
    kind = doc.get("kind")
    if kind != "spectrum":
        raise DomainError(f"unknown serialized kind {kind!r}")
    flat = np.array([complex(re, im) for re, im in doc["data"]])
    if not np.all(np.isfinite(flat)):
        raise DomainError("spectrum data must be finite")
    return Spectrum(grid, flat.reshape(grid.shape))

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

from .errors import BadExponent, DomainError, SingularMode, SymmetryViolation

HERMITIAN_TOL = 1e-8


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
        if self.T <= 0:
            raise DomainError(f"period T must be positive, got {self.T}")
        if self.n < 4 or self.n % 2 != 0:
            raise DomainError(f"n must be even and >= 4, got {self.n}")

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
        if self.m < 0:
            raise DomainError(f"m must be nonnegative, got {self.m}")

    def check_grid(self, grid: TorusGrid):
        # N >= 2s keeps the critical exponent well defined (infinite at N = 2s,
        # which still admits every finite growth exponent p).
        if grid.N < 2 * self.s:
            raise DomainError(
                f"need N >= 2s, got N={grid.N}, s={self.s}"
            )

    def critical_exponent(self, N: int) -> float:
        """2N/(N-2s); +inf at the boundary N = 2s."""
        if N == 2 * self.s:
            return np.inf
        return 2.0 * N / (N - 2.0 * self.s)


def _reverse_modes(c: np.ndarray) -> np.ndarray:
    """Coefficient array at -k (mod n) for every k."""
    out = c
    for ax in range(c.ndim):
        out = np.roll(np.flip(out, axis=ax), 1, axis=ax)
    return out


def hermitian_defect(coeffs: np.ndarray) -> float:
    """Relative Hermitian-symmetry defect of a coefficient array."""
    scale = np.linalg.norm(coeffs.ravel())
    if scale == 0.0:
        return 0.0
    return np.linalg.norm((coeffs - np.conj(_reverse_modes(coeffs))).ravel()) / scale


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


def forward_transform(f: Field) -> Spectrum:
    """Fourier coefficients in the paper normalization (trapezoid/DFT rule)."""
    g = f.grid
    coeffs = np.fft.fftn(f.values) * (g.T ** (g.N / 2.0) / g.size)
    coeffs = _symmetrize_nyquist(g, coeffs)
    return Spectrum(g, coeffs)


def _symmetrize_nyquist(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Force the Nyquist-plane coefficients real (real-field consistency);
    leading axes are batched."""
    coeffs = coeffs.copy()
    ny = grid.n // 2
    for ax in range(grid.N):
        sl = [slice(None)] * grid.N
        sl[ax] = ny
        sl = (Ellipsis,) + tuple(sl)
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
    values = np.fft.ifftn(S.coeffs) * (g.size / g.T ** (g.N / 2.0))
    return Field(g, values.real)


def apply_bessel_operator(S: Spectrum, p: FracParams) -> Spectrum:
    """Multiplier action d_k = (omega^2 |k|^2 + m^2)^s c_k."""
    return Spectrum(S.grid, S.coeffs * multiplier(S.grid, p))


def apply_shifted_operator(S: Spectrum, p: FracParams) -> Spectrum:
    """d_k = [(omega^2 |k|^2 + m^2)^s - m^{2s}] c_k; the k=0 mode is annihilated."""
    return Spectrum(S.grid, S.coeffs * multiplier(S.grid, p, shifted=True))


def solve_linear(g: Spectrum, p: FracParams, shifted: bool = False) -> Spectrum:
    """Invert the (possibly shifted) multiplier; singular modes must be absent."""
    mult = multiplier(g.grid, p, shifted=shifted)
    singular = mult == 0.0
    if np.any(singular):
        norm = g.l2_norm()
        bad = np.abs(g.coeffs[singular])
        if norm > 0 and np.any(bad > 1e-10 * norm):
            raise SingularMode(
                "right-hand side has content in a zero-multiplier mode"
            )
    coeffs = np.zeros_like(g.coeffs)
    np.divide(g.coeffs, mult, out=coeffs, where=~singular)
    return Spectrum(g.grid, coeffs)


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


def field_to_json(f: Field) -> dict:
    return {
        "grid": {"N": f.grid.N, "T": f.grid.T, "n": f.grid.n},
        "kind": "field",
        "data": [float(v) for v in f.values.ravel()],
    }


def grid_from_json(doc: dict) -> TorusGrid:
    return TorusGrid(N=int(doc["N"]), T=float(doc["T"]), n=int(doc["n"]))


def object_from_json(doc: dict):
    """Round-trip loader for the {grid, kind, data} persistence format."""
    grid = grid_from_json(doc["grid"])
    kind = doc.get("kind")
    if kind == "spectrum":
        flat = np.array([complex(re, im) for re, im in doc["data"]])
        return Spectrum(grid, flat.reshape(grid.shape))
    if kind == "field":
        return Field(grid, np.asarray(doc["data"], dtype=float).reshape(grid.shape))
    raise DomainError(f"unknown serialized kind {kind!r}")

"""Spectral core: transforms, norms, multiplier operators, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fractorus.errors import DomainError, SymmetryViolation
from fractorus.grids import (
    MAX_GRID_POINTS,
    Field,
    FracParams,
    Spectrum,
    TorusGrid,
    apply_bessel_operator,
    apply_shifted_operator,
    field_from_function,
    forward_transform,
    hermitian_defect,
    hs_norm,
    inverse_transform,
    lq_norm,
    multiplier,
    object_from_json,
    project_zero_mean,
    random_spectrum,
    spectrum_to_json,
)


def test_grid_validation():
    with pytest.raises(DomainError):
        TorusGrid(N=4, T=1.0, n=8)
    with pytest.raises(DomainError):
        TorusGrid(N=1, T=-1.0, n=8)
    with pytest.raises(DomainError):
        TorusGrid(N=1, T=1.0, n=7)  # odd


def test_grid_size_bound():
    # n^N up to MAX_GRID_POINTS is a grid; one even step more is not
    assert TorusGrid(N=1, T=1.0, n=MAX_GRID_POINTS).size == MAX_GRID_POINTS
    assert TorusGrid(N=2, T=1.0, n=2048).size == MAX_GRID_POINTS
    for N, n in ((1, MAX_GRID_POINTS + 2), (3, 256), (1, 10**40)):
        with pytest.raises(DomainError, match="grid points"):
            TorusGrid(N=N, T=1.0, n=n)


def test_frac_params_validation():
    with pytest.raises(DomainError):
        FracParams(s=0.0, m=1.0)
    with pytest.raises(DomainError):
        FracParams(s=1.0, m=1.0)
    with pytest.raises(DomainError):
        FracParams(s=0.5, m=-0.1)
    # N >= 2s gate: s = 0.6 needs N >= 1.2
    with pytest.raises(DomainError):
        FracParams(s=0.6, m=1.0).check_grid(TorusGrid(1, 2 * np.pi, 8))
    FracParams(s=0.5, m=1.0).check_grid(TorusGrid(1, 2 * np.pi, 8))


def test_cos_coefficient_normalization(grid64):
    # c_{+-1} of cos x on T = 2pi is sqrt(pi/2) in this normalization
    u = forward_transform(field_from_function(grid64, np.cos))
    assert abs(u.coeffs[1] - np.sqrt(np.pi / 2)) < 1e-12
    assert abs(u.coeffs[-1] - np.sqrt(np.pi / 2)) < 1e-12
    assert np.sum(np.abs(u.coeffs) > 1e-12) == 2


def test_roundtrip_and_parseval(grid64, rng):
    vals = rng.standard_normal(grid64.shape)
    f = Field(grid64, vals)
    S = forward_transform(f)
    back = inverse_transform(S)
    assert np.max(np.abs(back.values - vals)) < 1e-12
    # Parseval: int u^2 = sum |c_k|^2
    assert abs(np.sum(vals**2) * grid64.cell_volume - S.l2_norm() ** 2) < 1e-10


def test_multiplier_single_mode(grid64, params_half):
    w = grid64.omega
    for k in (1, 5, -7, 32):
        c = np.zeros(grid64.shape, complex)
        c[k % grid64.n] = 2.0 - 1.0j if abs(k) != 32 else 2.0
        S = Spectrum(grid64, c)
        out = apply_bessel_operator(S, params_half)
        lam = (w**2 * k**2 + 1.0) ** 0.5
        assert np.max(np.abs(out.coeffs - lam * c)) < 1e-12 * lam


def test_shifted_operator_kills_constants(grid64):
    for m in (0.0, 0.3, 2.0):
        p = FracParams(0.5, m)
        c = np.zeros(grid64.shape, complex)
        c[0] = 7.0
        out = apply_shifted_operator(Spectrum(grid64, c), p)
        assert np.max(np.abs(out.coeffs)) == 0.0


def test_inverse_transform_rejects_asymmetric(grid64):
    c = np.zeros(grid64.shape, complex)
    c[1] = 1.0  # no conjugate partner at -1
    with pytest.raises(SymmetryViolation):
        inverse_transform(Spectrum(grid64, c))


def test_hs_norm_closed_form(grid64, params_half):
    u = forward_transform(field_from_function(grid64, np.cos))
    # |cos|_{H^s}^2 = 2^{s} * pi  (two modes, multiplier (1+1)^{1/2} each, pi each)
    expected = np.sqrt(2.0**0.5 * np.pi)
    assert abs(hs_norm(u, params_half) - expected) < 1e-12


def test_lq_norms(grid64):
    u = field_from_function(grid64, np.cos)
    assert abs(lq_norm(u, 2) - np.sqrt(np.pi)) < 1e-12
    assert abs(lq_norm(u, 4) - (3 * np.pi / 4) ** 0.25) < 1e-12
    assert abs(lq_norm(u, np.inf) - 1.0) < 1e-12


def test_serialization_roundtrip(grid64, rng):
    u = random_spectrum(grid64, rng, decay=0.1)
    doc = spectrum_to_json(u)
    back = object_from_json(doc)
    assert isinstance(back, Spectrum)
    assert np.max(np.abs(back.coeffs - u.coeffs)) == 0.0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), decay=st.floats(0.0, 1.0))
def test_random_spectrum_is_real_field(seed, decay):
    g = TorusGrid(1, 2 * np.pi, 16)
    u = random_spectrum(g, np.random.default_rng(seed), decay=decay)
    assert hermitian_defect(u.coeffs) < 1e-12
    f = inverse_transform(u)
    assert np.max(np.abs(forward_transform(f).coeffs - u.coeffs)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_zero_mean_projection_idempotent(seed):
    g = TorusGrid(1, 2 * np.pi, 16)
    u = random_spectrum(g, np.random.default_rng(seed))
    z = project_zero_mean(u)
    assert z.mean_coeff == 0.0
    assert np.max(np.abs(project_zero_mean(z).coeffs - z.coeffs)) == 0.0


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    s=st.floats(0.05, 0.5),  # N = 1 grid admits s <= 1/2
    m=st.floats(0.0, 3.0),
)
def test_multiplier_monotone_in_k(seed, s, m):
    g = TorusGrid(1, 2 * np.pi, 32)
    p = FracParams(s, m)
    mult = multiplier(g, p)
    k = np.abs(g.axis_wavenumbers())
    order = np.argsort(k)
    assert np.all(np.diff(mult[order]) >= -1e-14)


def test_2d_roundtrip(grid2d, rng):
    u = random_spectrum(grid2d, rng, decay=0.2)
    f = inverse_transform(u)
    assert np.max(np.abs(forward_transform(f).coeffs - u.coeffs)) < 1e-12

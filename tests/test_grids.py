"""Spectral core: transforms, norms, multiplier operators, serialization."""

import functools
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fractorus import grids
from fractorus.errors import BadExponent, DomainError, SymmetryViolation
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
    nyquist_weight,
    object_from_json,
    pad_coeffs,
    project_zero_mean,
    prolong,
    random_spectrum,
    restrict_values,
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


@pytest.mark.parametrize("N,T,n", [(3, 1e150, 4), (2, 1e300, 8), (3, 1e-150, 4)])
def test_grid_cell_volume_is_a_positive_float(N, T, n):
    # (T/n)^N overflows, or underflows to 0
    with pytest.raises(DomainError, match="cell volume"):
        TorusGrid(N=N, T=T, n=n)


def test_padded_cell_volume_is_checked():
    # the padded cells of a grid are smaller than its own: here they underflow to 0
    grid = TorusGrid(N=3, T=6e-108, n=4)
    assert grid.cell_volume == grid.cell_at(4) > 0.0
    with pytest.raises(DomainError, match=r"\(T/6\)\^3"):
        grid.cell_at(6)


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


def test_inverse_transform_rejects_a_defect_above_1e_8(grid64):
    # a relative defect of 2e-6 from cos x, far above rounding and far below 1e-4
    c = np.zeros(grid64.shape, complex)
    c[1], c[-1] = 0.5 + 1e-6, 0.5
    with pytest.raises(SymmetryViolation, match="Hermitian defect 2.000e-06"):
        inverse_transform(Spectrum(grid64, c))


def test_fields_and_spectra_refuse_the_wrong_shape(grid64):
    with pytest.raises(DomainError, match="values shape"):
        Field(grid64, np.zeros(63))
    with pytest.raises(DomainError, match="coeffs shape"):
        Spectrum(grid64, np.zeros((64, 1), complex))


@pytest.mark.parametrize("N", [1, 2, 3])
def test_inverse_transform_is_the_pad_at_n(N, rng):
    g = TorusGrid(N, 3.0, 8)
    S = random_spectrum(g, rng)
    assert inverse_transform(S).values.tobytes() == pad_coeffs(S.coeffs, g, g.n).tobytes()


@pytest.mark.parametrize("table", [
    lambda g: multiplier(g, FracParams(0.5, 1.0)),
    lambda g: multiplier(g, FracParams(0.5, 1.0), shifted=True),
    lambda g: g.ksq(),
    lambda g: grids._pad_matrix(g.N, g.n, 12),
    lambda g: grids._restrict_matrix(g.N, g.n, 12),
], ids=["multiplier", "shifted", "ksq", "pad-matrix", "restrict-matrix"])
def test_symbol_tables_are_cached_and_read_only(table):
    a = table(TorusGrid(2, 3.0, 8))
    assert table(TorusGrid(2, 3.0, 8)) is a
    with pytest.raises(ValueError):
        a[0, 0] = 1.0


@pytest.mark.parametrize("view", [False, True], ids=["array", "view"])
@pytest.mark.parametrize("kind", ["spectrum", "field"])
def test_a_frozen_value_leaves_the_callers_array_writeable(kind, view, rng):
    g = TorusGrid(2, 3.0, 8)
    if kind == "spectrum":
        base = random_spectrum(g, rng).coeffs.copy()
    else:
        base = rng.standard_normal(g.shape)
    a = base[:, :] if view else base
    held = Spectrum(g, a).coeffs if kind == "spectrum" else Field(g, a).values
    assert a.flags.writeable and not np.shares_memory(held, base)
    assert np.array_equal(held, base)
    a[0, 0] = 1.0
    assert held[0, 0] != 1.0
    with pytest.raises(ValueError):
        held[0, 0] = 1.0


@pytest.mark.parametrize("N,n", [(1, 8), (2, 98), (3, 16)])
def test_ksq_is_one_array_per_dimension_and_size(N, n):
    ksq = TorusGrid(N, 3.0, n).ksq()
    assert TorusGrid(N, 7.0, n).ksq() is ksq
    k = TorusGrid(N, 3.0, n).axis_wavenumbers().astype(float)
    assert ksq.tobytes() == sum(a**2 for a in np.meshgrid(*[k] * N, indexing="ij")).tobytes()


def test_multiplier_cache_lets_old_masses_go():
    # a sweep meets a new mass on every row; the least recent tables are rebuilt
    g = TorusGrid(1, 3.0, 8)
    first = multiplier(g, FracParams(0.5, 0.125))
    for i in range(64):
        multiplier(g, FracParams(0.5, 1.0 + i))
    again = multiplier(g, FracParams(0.5, 0.125))
    assert again is not first and again.tobytes() == first.tobytes()


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("s", [0.25, 0.5])
def test_massless_multiplier_is_the_sobolev_weight_bitwise(N, s):
    # the Sobolev ascent's weights (omega^2 |k|^2)^s, the table at m = 0 for a sweep at any mass
    g = TorusGrid(N, 5.0, 8)
    want = (g.omega**2 * g.ksq()) ** s
    assert multiplier(g, FracParams(s, 0.0)).tobytes() == want.tobytes()


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
    with pytest.raises(BadExponent):
        lq_norm(u, 0.5)


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


def _images(g: TorusGrid, m: int):
    """Per axis, the (band index, m-grid index, weight) of every image of a
    band mode: k itself, and both +-n/2 with weight 1/2 for the Nyquist mode
    (one m-grid index twice at m = n)."""
    ny = g.n // 2
    src, dst, w = [], [], []
    for j, k in enumerate(g.axis_wavenumbers()):
        for image in ((ny, -ny) if k == ny else (k,)):
            src.append(j)
            dst.append(image % m)
            w.append(0.5 if k == ny else 1.0)
    return np.array(src), np.array(dst), np.array(w)


def _reference_pad(C, g, m):
    """Zero-pad the full complex spectrum onto the m-grid, then ifftn."""
    src, dst, w = _images(g, m)
    P = np.zeros(C.shape[:-g.N] + (m,) * g.N, dtype=complex)
    W = functools.reduce(np.multiply.outer, [w] * g.N)
    np.add.at(P, (Ellipsis,) + np.ix_(*[dst] * g.N), C[(Ellipsis,) + np.ix_(*[src] * g.N)] * W)
    v = np.fft.ifftn(P, axes=tuple(range(-g.N, 0))) * (m**g.N / g.T ** (g.N / 2.0))
    assert np.max(np.abs(v.imag)) < 1e-13 * np.max(np.abs(v))
    return v.real


def _reference_restrict(v, g):
    """fftn on the m-grid, each band mode summing all its images, Nyquist planes real."""
    m = v.shape[-1]
    src, dst, _ = _images(g, m)
    F = np.fft.fftn(v, axes=tuple(range(-g.N, 0))) * (g.T ** (g.N / 2.0) / m**g.N)
    C = np.zeros(v.shape[:-g.N] + g.shape, dtype=complex)
    np.add.at(C, (Ellipsis,) + np.ix_(*[src] * g.N), F[(Ellipsis,) + np.ix_(*[dst] * g.N)])
    nyq = functools.reduce(np.logical_or.outer, [g.axis_wavenumbers() == g.n // 2] * g.N)
    C[..., nyq] = C[..., nyq].real
    return C


def _close(got, want):
    return np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("N,n", [(1, 16), (1, 256), (2, 8), (3, 4), (3, 8)])
@pytest.mark.parametrize("factor", [1.0, 1.5, 2.5])
def test_pad_and_restrict_match_the_complex_fft_reference(N, n, factor, rng):
    g = TorusGrid(N, 2.7, n)
    m = int(factor * n)
    C = np.stack([random_spectrum(g, rng).coeffs for _ in range(2)])
    assert _close(pad_coeffs(C, g, m), _reference_pad(C, g, m))
    v = rng.standard_normal((2,) + (m,) * N)
    assert _close(restrict_values(v, g), _reference_restrict(v, g))
    if m == n:
        f = Field(g, v[0])
        assert _close(forward_transform(f).coeffs, nyquist_weight(g) * _reference_restrict(v[0], g))


def _rfftn_pad(coeffs, g, m):
    """The pad as one zero-filled rfft layout and one irfftn call."""
    big = np.zeros(coeffs.shape[:-g.N] + (m,) * (g.N - 1) + (m // 2 + 1,), dtype=complex)
    w = nyquist_weight(g)
    for c, f in grids._half_blocks(g.n, m, g.N):
        np.multiply(coeffs[c], w[c], out=big[f])
    x = np.fft.irfftn(big, (m,) * g.N, tuple(range(-g.N, 0)))
    return x * (m**g.N / g.T ** (g.N / 2.0))


def _rfftn_restrict(values, g):
    """The restriction as one rfftn call, the half spectrum folded block by
    block and its conjugate mirror concatenated."""
    N, ny, m = g.N, g.n // 2, values.shape[-1]
    F = np.fft.rfftn(values, axes=tuple(range(-N, 0)))
    F *= g.T ** (N / 2.0) / m**N
    out = np.zeros(F.shape[:-N] + (g.n,) * (N - 1) + (ny + 1,), dtype=complex)
    for c, f in grids._half_blocks(g.n, m, N):
        out[c] += F[f]
    col = out[..., ny].real
    out[..., ny] = col + grids._reverse_modes(col, range(1 - N, 0))
    for k in range(1, N):
        out[(Ellipsis, ny) + (slice(None),) * k].imag = 0.0
    neg = np.conj(grids._reverse_modes(out[..., ny - 1:0:-1], range(-N, -1)))
    return np.concatenate((out, neg), axis=-1)


@pytest.mark.parametrize("N,n", [(1, 256), (2, 16), (3, 8)])
def test_pad_and_restrict_keep_the_rfftn_rounding(N, n, rng):
    # on grids too large for the matrix product, the plans and the
    # one-axis-at-a-time FFTs change no bit of the result
    g = TorusGrid(N, 2.7, n)
    assert not grids._dense(N, n, n)
    C = np.stack([random_spectrum(g, rng).coeffs for _ in range(2)])
    for m in (n, 3 * n // 2, 5 * n // 2):
        v = np.round(rng.standard_normal((2,) + (m,) * N), 1)  # exact zeros in F
        assert restrict_values(v, g).tobytes() == _rfftn_restrict(v, g).tobytes()
        if m > n:
            assert pad_coeffs(C, g, m).tobytes() == _rfftn_pad(C, g, m).tobytes()


@pytest.mark.parametrize("N,n,dense", [
    (1, 64, True), (2, 8, True), (3, 4, True), (1, 256, False), (2, 16, False), (3, 8, False),
])
def test_batched_rows_are_the_single_row_calls_bitwise(N, n, dense, rng):
    # a point's samples do not depend on the rows it was padded or restricted with
    g = TorusGrid(N, 2.7, n)
    for m in (n, 3 * n // 2):
        assert grids._dense(N, n, m) is dense
        C = np.stack([random_spectrum(g, rng).coeffs for _ in range(3)])
        v = rng.standard_normal((3,) + (m,) * N)
        pads, rests = pad_coeffs(C, g, m), restrict_values(v, g)
        for i in range(3):
            assert pads[i].tobytes() == pad_coeffs(C[i], g, m).tobytes()
            assert rests[i].tobytes() == restrict_values(v[i], g).tobytes()


def _arrays(x):
    if isinstance(x, np.ndarray):
        return [x]
    if isinstance(x, tuple):
        return [a for item in x for a in _arrays(item)]
    return []


def test_plans_are_read_only_and_keyed_by_grid_sizes(rng):
    for N, n, m in [(1, 16, 24), (2, 8, 20), (3, 8, 8)]:
        plan = grids._plan(N, n, m)
        assert grids._plan(N, n, m) is plan
        assert plan.padded == (m,) * (N - 1) + (m // 2 + 1,)
        arrays = _arrays(plan)
        assert len(arrays) >= len(plan.blocks)
        assert not any(a.flags.writeable for a in arrays)
    assert grids._plan(2, 8, 12) is not grids._plan(2, 8, 20)
    # the period is not part of the key: grids that differ only in T share a plan
    C = random_spectrum(TorusGrid(2, 1.0, 8), rng).coeffs
    pad_coeffs(C, TorusGrid(2, 1.0, 8), 12)
    size = grids._plan.cache_info().currsize
    pad_coeffs(C, TorusGrid(2, 3.0, 8), 12)
    assert grids._plan.cache_info().currsize == size


@pytest.mark.parametrize("N,nc", [(1, 16), (2, 8), (3, 4)])
def test_prolong_splits_the_nyquist_mode_and_restricts_back(N, nc, rng):
    coarse, fine = TorusGrid(N, 2.7, nc), TorusGrid(N, 2.7, 2 * nc)
    S = random_spectrum(coarse, rng)
    got = prolong(S, fine).coeffs
    # each coarse mode lands on its images, one per axis off the Nyquist
    # planes and +-n_c/2 on each of them, which share the coefficient evenly
    want = np.zeros(fine.shape, complex)
    k = coarse.axis_wavenumbers()
    for idx in np.ndindex(coarse.shape):
        images = list(product(*[(k[i],) if k[i] != nc // 2 else (nc // 2, -nc // 2)
                                for i in idx]))
        for img in images:
            want[tuple(np.mod(img, fine.n))] += S.coeffs[idx] / len(images)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    assert hermitian_defect(got) < 1e-14
    back = restrict_values(pad_coeffs(got, fine, fine.n), coarse)
    assert np.max(np.abs(back - S.coeffs)) <= 1e-14 * np.max(np.abs(S.coeffs))
    with pytest.raises(DomainError):
        prolong(S, TorusGrid(N, 3.0, 2 * nc))

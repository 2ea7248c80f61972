"""Power nonlinearities: dealiasing, energies, hypothesis verification."""

import numpy as np
import pytest

from fractorus.errors import HypothesisViolated, ValidationError
from fractorus.grids import (
    Field,
    FracParams,
    Spectrum,
    TorusGrid,
    field_from_function,
    forward_transform,
    nyquist_weight,
    random_spectrum,
)
from fractorus import linking, nonlinearity
from fractorus.nonlinearity import (
    MAX_EXPONENT,
    Discretization,
    NonlinearitySpec,
    _falls_to_zero,
    nonlinear_energy,
    nonlinear_gradient,
    pad_coeffs,
    padded_size,
    primitive,
    restrict_values,
    verify_hypotheses,
)


def test_spec_validation(grid64):
    with pytest.raises(ValidationError):
        NonlinearitySpec(kind="pure_power", p=1.0)
    with pytest.raises(ValidationError):
        NonlinearitySpec(kind="pure_power", p=3.0, mu=2.0)  # mu must exceed 2
    with pytest.raises(ValidationError):
        NonlinearitySpec(kind="pure_power", p=3.0, mu=4.5)  # mu <= p+1
    with pytest.raises(ValidationError):
        NonlinearitySpec(kind="pure_power", p=3.0, mu=0.0)  # a given mu is never unset
    with pytest.raises(ValidationError):
        NonlinearitySpec(kind="bogus", p=3.0)
    with pytest.raises(ValidationError):
        NonlinearitySpec(kind="pure_power", p=MAX_EXPONENT + 1.0)
    spec = NonlinearitySpec(kind="pure_power", p=3.0)
    assert spec.mu == 4.0  # default mu = p+1
    # verify_hypotheses samples f at +-10 r0: max(a) (10 r0)^p must be a float
    NonlinearitySpec(kind="pure_power", p=30.0, r0=1.8e9)
    with pytest.raises(ValidationError, match="r0"):
        NonlinearitySpec(kind="pure_power", p=30.0, r0=1.9e9)
    a = Field(grid64, np.full(grid64.shape, 2.0**40))
    with pytest.raises(ValidationError, match="r0"):
        NonlinearitySpec(kind="modulated_power", p=30.0, r0=1e9, a=a)
    with pytest.raises(ValidationError, match="requires a coefficient field"):
        NonlinearitySpec(kind="modulated_power", p=3.0)
    with pytest.raises(ValidationError, match="takes no coefficient field"):
        NonlinearitySpec(kind="pure_power", p=3.0, a=Field(grid64, np.ones(grid64.shape)))


def test_sign_changing_modulation_rejected(grid64):
    a = field_from_function(grid64, np.cos)
    with pytest.raises(HypothesisViolated) as exc:
        NonlinearitySpec(kind="modulated_power", p=3.0, a=a)
    assert exc.value.hypothesis == "f6"


def test_growth_gate():
    g = TorusGrid(1, 2 * np.pi, 16)
    p = FracParams(0.25, 1.0)  # critical exponent 4, so p < 3 required
    spec = NonlinearitySpec(kind="pure_power", p=3.0)
    with pytest.raises(ValidationError):
        spec.check_growth(p, g)
    NonlinearitySpec(kind="pure_power", p=2.5).check_growth(p, g)


def test_padded_size_is_one_rule():
    # 3n/2 rounded up to even, the same for every nonlinearity
    for n, m in [(4, 6), (6, 10), (16, 24), (64, 96), (256, 384)]:
        assert padded_size(n) == m
        g = TorusGrid(1, 2 * np.pi, n)
        a = field_from_function(g, lambda x: 1.5 + np.cos(x))
        for p in (2.0, 2.5, 3.0, 5.0):
            for spec in (NonlinearitySpec(kind="pure_power", p=p),
                         NonlinearitySpec(kind="modulated_power", p=p, a=a)):
                disc = Discretization(g, None, spec)
                assert disc.m_pad == m
                if spec.a is None:  # a pure power's coefficient is the scalar 1
                    assert np.shape(disc.coeff_pad) == () and disc.coeff_pad == 1.0
                else:
                    assert disc.coeff_pad.shape == (m,)


def test_standard_1d_n64_level():
    # scripts/solve_standard.py: 1-D n = 64, s = 1/2, m = 1, p = 3
    level = 0.16903623129018144
    res = linking.minimax_search(TorusGrid(1, 2 * np.pi, 64), FracParams(0.5, 1.0),
                                 NonlinearitySpec(kind="pure_power", p=3.0, mu=4.0),
                                 linking.LinkingConfig())
    assert res.status == "Converged"
    assert abs(res.level - level) <= 1e-12 * level


BAND_GRIDS = {1: 64, 2: 16, 3: 8}


@pytest.mark.parametrize("N", [1, 2, 3])
def test_pad_restrict_roundtrip(N, rng):
    g = TorusGrid(N, 2 * np.pi, BAND_GRIDS[N])
    u = random_spectrum(g, rng, decay=0.1)
    vals = pad_coeffs(u.coeffs, g, 5 * g.n // 2)
    back = restrict_values(vals, g)
    assert np.max(np.abs(back - u.coeffs)) < 1e-12


def _interpolant(coeffs, g, m):
    """sum_k c_k prod_i phi_{k_i}(x_i) / sqrt(T^N) at the m-point grid, with
    phi_k = e^{i omega k x}, and cos(omega n/2 x) for the Nyquist mode."""
    k = g.axis_wavenumbers()
    x = np.arange(m) * (g.T / m)
    phi = np.exp(1j * g.omega * np.outer(k, x))
    phi[g.n // 2] = np.cos(g.omega * (g.n // 2) * x)
    out = coeffs
    for _ in range(g.N):  # contract the first grid axis, append its x axis
        out = np.tensordot(out, phi, axes=([-g.N], [0]))
    return out / np.sqrt(g.T**g.N)


@pytest.mark.parametrize("N,n", [(1, 16), (2, 8), (3, 4)])
def test_pad_coeffs_is_the_band_interpolant(N, n, rng):
    g = TorusGrid(N, 2 * np.pi, n)
    m = padded_size(n)
    # DFT coefficients of real samples: Hermitian, with (for N > 1) nonreal
    # coefficients on the Nyquist planes
    axes = tuple(range(-N, 0))
    C = np.fft.fftn(rng.standard_normal((2,) + g.shape), axes=axes) * (g.T ** (N / 2.0) / n**N)
    for ax in range(N):
        plane = C[(Ellipsis,) + (slice(None),) * ax + (n // 2,) + (slice(None),) * (N - 1 - ax)]
        assert np.max(np.abs(plane.imag if N > 1 else plane)) > 1e-3
    want = _interpolant(C, g, m)
    assert np.max(np.abs(want.imag)) < 1e-12
    got = pad_coeffs(C, g, m)
    assert got.shape == (2,) + (m,) * N
    assert np.max(np.abs(got - want.real)) < 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("N,n,padded", [
    *(pytest.param(N, n, True, id=f"{N}-{n}") for N, n in [(1, 16), (2, 8), (3, 4)]),
    *(pytest.param(N, n, False, id=f"{N}-{n}-unpadded") for N, n in [(1, 16), (2, 8), (3, 4)]),
])
def test_restrict_values_is_the_folded_projection(N, n, padded, rng):
    # c_k = T^{N/2}/m^N sum_x v(x) prod_i psi_{k_i}(x_i), psi_k = e^{-i omega k x};
    # on the Nyquist mode the +-n/2 pair is folded, psi = 2 cos(omega n/2 x),
    # and the coefficient is real
    g = TorusGrid(N, 2 * np.pi, n)
    m = padded_size(n) if padded else n
    v = rng.standard_normal((2,) + (m,) * N)
    k = g.axis_wavenumbers()
    x = np.arange(m) * (g.T / m)
    psi = np.exp(-1j * g.omega * np.outer(x, k))
    psi[:, n // 2] = 2.0 * np.cos(g.omega * (n // 2) * x)
    want = v
    for _ in range(N):
        want = np.tensordot(want, psi, axes=([-N], [0]))
    want = want * (g.T ** (N / 2.0) / m**N)
    for ax in range(N):
        sl = (Ellipsis,) + (slice(None),) * ax + (n // 2,) + (slice(None),) * (N - 1 - ax)
        want[sl] = want[sl].real
    got = restrict_values(v, g)
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))
    if not padded:  # at m = n, times the Nyquist weight, the forward transform
        for b in range(2):
            assert np.array_equal(nyquist_weight(g) * got[b],
                                  forward_transform(Field(g, v[b])).coeffs)


def test_cubing_cos_is_alias_free(grid64, cubic):
    # cos^3 = (3 cos + cos 3x)/4 exactly in the retained band
    u = forward_transform(field_from_function(grid64, np.cos))
    got = nonlinear_gradient(cubic, u)
    want = forward_transform(
        field_from_function(grid64, lambda x: (3 * np.cos(x) + np.cos(3 * x)) / 4.0)
    )
    assert np.max(np.abs(got.coeffs - want.coeffs)) < 1e-13


def test_nonlinear_energy_closed_forms(grid64, cubic):
    u = forward_transform(field_from_function(grid64, np.cos))
    # int cos^4 / 4 = (3 pi / 4) / 4 = 3 pi / 16
    assert abs(nonlinear_energy(cubic, u) - 3 * np.pi / 16) < 1e-12
    two = Spectrum(grid64, np.where(grid64.ksq() == 0, 2.0 * np.sqrt(2 * np.pi), 0).astype(complex))
    # constant field 2: F = 16/4 = 4, integral 8 pi
    assert abs(nonlinear_energy(cubic, two) - 8 * np.pi) < 1e-10


def test_gradient_energy_consistency(grid64, cubic, rng):
    u = random_spectrum(grid64, rng, decay=0.5)
    w = random_spectrum(grid64, rng, decay=0.5)
    eps = 1e-6
    up = Spectrum(grid64, u.coeffs + eps * w.coeffs)
    um = Spectrum(grid64, u.coeffs - eps * w.coeffs)
    fd = (nonlinear_energy(cubic, up) - nonlinear_energy(cubic, um)) / (2 * eps)
    an = float(np.real(np.sum(nonlinear_gradient(cubic, u).coeffs * np.conj(w.coeffs))))
    assert abs(fd - an) < 1e-8 * max(abs(an), 1.0)


def test_jacobian_fd_consistency(grid64, params_half, cubic, rng):
    u = random_spectrum(grid64, rng, decay=0.5)
    w = random_spectrum(grid64, rng, decay=0.5)
    eps = 1e-6
    up = Spectrum(grid64, u.coeffs + eps * w.coeffs)
    um = Spectrum(grid64, u.coeffs - eps * w.coeffs)
    fd = (nonlinear_gradient(cubic, up).coeffs - nonlinear_gradient(cubic, um).coeffs) / (2 * eps)
    disc = Discretization(grid64, params_half, cubic)
    # the nonlinear part of the linearization
    an = disc.shifted * w.coeffs - disc.at(u.coeffs).linearization(disc.at(w.coeffs))
    assert np.max(np.abs(fd - an)) < 1e-7 * max(float(np.max(np.abs(an))), 1.0)


def test_modulated_power_energy(grid64):
    a = field_from_function(grid64, lambda x: 2.0 + np.cos(x))
    spec = NonlinearitySpec(kind="modulated_power", p=3.0, a=a)
    u = forward_transform(field_from_function(grid64, np.cos))
    # int (2 + cos x) cos^4 / 4 dx = (2 * 3pi/4 + 0) / 4 = 3 pi / 8
    assert abs(nonlinear_energy(spec, u) - 3 * np.pi / 8) < 1e-12


def test_verify_hypotheses_pass(grid64, cubic):
    rep = verify_hypotheses(cubic, grid64)
    assert rep.all_pass
    assert rep.passed["f5_ambrosetti_rabinowitz"]
    assert rep.details["f5_equality"] is True
    assert rep.details["C_eps_1.0"] >= 0.0


@pytest.mark.parametrize("p", [1.25, 1.5, 2.0, 3.0])
def test_f3_holds_for_every_superlinear_power(grid64, p):
    rep = verify_hypotheses(NonlinearitySpec(kind="pure_power", p=p), grid64)
    assert rep.passed["f3_small_o"]
    assert abs(rep.details["f3_slope"] - (p - 1.0)) < 1e-9


@pytest.mark.parametrize("p", [12.0, 17.5, 25.0, MAX_EXPONENT])
def test_hypotheses_hold_up_to_the_largest_exponent(grid64, p):
    # on verify mode's samples; F's AR bound is an equality at mu = p + 1, so
    # the sampled check holds only to rounding
    a = field_from_function(grid64, lambda x: 1.5 + np.sin(x))
    for spec in (NonlinearitySpec(kind="pure_power", p=p),
                 NonlinearitySpec(kind="modulated_power", p=p, a=a)):
        assert verify_hypotheses(spec, grid64, np.linspace(-3, 3, 41)).all_pass


@pytest.mark.parametrize("p", [12.0, MAX_EXPONENT])
def test_f2_holds_on_the_default_samples_of_a_small_r0(grid64, p):
    # the samples [-10 r0, 10 r0] at r0 = 0.1: |t|^{p-1} t jumps by about
    # p h max|f| / max|t| between samples h apart, above 10 h max|f| once p > 10
    rep = verify_hypotheses(NonlinearitySpec(kind="pure_power", p=p, r0=0.1), grid64)
    assert rep.passed["f2_continuous"] and rep.all_pass


def test_f3_rejects_a_ratio_levelling_off():
    t = np.logspace(-6, -2, 21)
    assert _falls_to_zero(t, 0.7 * t**0.25)[0]
    for ratio in (np.full_like(t, 0.3), 0.5 + t, 0.1 + np.sqrt(t)):
        assert not _falls_to_zero(t, ratio)[0]


def test_verify_hypotheses_modulated(grid64):
    a = field_from_function(grid64, lambda x: 1.5 + np.sin(x))
    spec = NonlinearitySpec(kind="modulated_power", p=3.0, a=a)
    assert verify_hypotheses(spec, grid64).all_pass


def test_verify_samples_the_specs_f(grid64, cubic, monkeypatch):
    # (f2) bounds the jump by 10 h p max|f| / max|t|, about 15 here
    f_eval = nonlinearity.f_eval
    monkeypatch.setattr(nonlinearity, "f_eval",
                        lambda spec, coeff, t: f_eval(spec, coeff, t) + 100.0 * (t > 0.5))
    assert not verify_hypotheses(cubic, grid64).passed["f2_continuous"]
    # F follows f, so 0 < mu F is the first check a sign-flipped f fails
    monkeypatch.setattr(nonlinearity, "f_eval", lambda spec, coeff, t: -f_eval(spec, coeff, t))
    with pytest.raises(HypothesisViolated) as exc:
        verify_hypotheses(cubic, grid64)
    assert exc.value.hypothesis == "f5"


@pytest.mark.parametrize("p", [1.5, 3.0, 7.25])
def test_primitive_is_the_antiderivative_of_f(grid64, rng, p):
    a = field_from_function(grid64, lambda x: 1.5 + np.sin(x))
    spec = NonlinearitySpec(kind="modulated_power", p=p, a=a)
    coeff, t, h = a.values[:, None], np.linspace(-2.0, 2.0, 9), 1e-5
    fd = (primitive(spec, coeff, t + h) - primitive(spec, coeff, t - h)) / (2 * h)
    f = nonlinearity.f_eval(spec, coeff, t)
    assert np.max(np.abs(fd - f)) < 1e-8 * np.max(np.abs(f))
    assert np.all(primitive(spec, coeff, 0.0) == 0.0)
    # the level's int F(x,u) dx is the trapezoid sum of primitive on the padded grid
    disc = Discretization(grid64, None, spec)
    pt = disc.at(random_spectrum(grid64, rng, decay=0.5).coeffs)
    quad = np.sum(primitive(spec, disc.coeff_pad, pt.vals)) * disc.cell
    assert abs(quad - pt.nonlinear_energy) < 1e-13 * abs(quad)


def test_coefficient_from_another_grid_rejected():
    a = field_from_function(TorusGrid(1, 2 * np.pi, 32), lambda x: 1.5 + np.sin(x))
    spec = NonlinearitySpec(kind="modulated_power", p=3.0, a=a)
    for g in (TorusGrid(1, 2 * np.pi, 16), TorusGrid(1, 2 * np.pi, 64),
              TorusGrid(2, 2 * np.pi, 32)):
        with pytest.raises(ValidationError):
            Discretization(g, None, spec)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_coarsened_cuts_a_to_the_coarse_band(N):
    fine, coarse = TorusGrid(N, 2 * np.pi, 16), TorusGrid(N, 2 * np.pi, 8)

    def low(*xs):  # |k| <= 1, plus a mode on the coarse Nyquist planes, |k_1| = 4
        return 1.0 + 0.5 * np.cos(xs[0] + 0.3) + 0.1 * np.cos(4 * xs[0] + 0.4)

    def high(*xs):  # modes above n_c/2 = 4, which alias into the band at the coarse points
        return low(*xs) + 0.1 * np.cos(5 * xs[0] + 0.2) + 0.05 * np.sin(7 * xs[-1])

    want = field_from_function(coarse, low).values
    for fn in (low, high):
        spec = NonlinearitySpec(kind="modulated_power", p=2.5, r0=2.0,
                                a=field_from_function(fine, fn))
        cut = spec.coarsened(coarse)
        assert (cut.kind, cut.p, cut.mu, cut.r0, cut.a.grid) == ("modulated_power", 2.5, 3.5,
                                                                 2.0, coarse)
        assert np.max(np.abs(cut.a.values - want)) <= 1e-14
    assert np.max(np.abs(field_from_function(coarse, high).values - want)) > 0.04
    pure = NonlinearitySpec(kind="pure_power", p=3.0)
    assert pure.coarsened(coarse) is pure

"""Half-cylinder extension: energies, traces, conormal derivative, gaps."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fractorus.errors import (
    DomainError,
    QuadratureUnconverged,
    SymmetryViolation,
    ZeroModeNoDecay,
)
from fractorus.extension import (
    CylinderFunction,
    as_cylinder,
    conormal_derivative,
    cylinder_energy,
    extend,
    ground_gap,
    sharp_trace_gap,
    trace,
)
from fractorus.grids import (
    FracParams,
    Spectrum,
    TorusGrid,
    apply_bessel_operator,
    field_from_function,
    forward_transform,
    hs_norm,
    project_zero_mean,
    random_spectrum,
)
from fractorus.theta import kappa


def _cos_spec(grid):
    return forward_transform(field_from_function(grid, np.cos))


def test_extension_energy_cos_closed_form(grid64):
    # s = 1/2, m = 0: Ext(cos x) = e^{-y} cos x, energy = pi
    p0 = FracParams(0.5, 0.0)
    v = extend(_cos_spec(grid64), p0)
    assert abs(cylinder_energy(v) - np.pi) < 1e-10


def test_extension_energy_reduction_random(grid64, params_half, rng):
    # ||Ext u||^2 = kappa(s) |u|_{H^s}^2 for every trace
    for s in (0.25, 0.5):
        p = FracParams(s, 1.0)
        u = random_spectrum(grid64, rng, decay=0.4)
        v = extend(u, p)
        target = kappa(s) * hs_norm(u, p) ** 2
        assert abs(cylinder_energy(v) - target) < 1e-8 * target


def test_extend_zero_mode_no_decay(grid64):
    p0 = FracParams(0.5, 0.0)
    c = np.zeros(grid64.shape, complex)
    c[0] = 1.0
    with pytest.raises(ZeroModeNoDecay):
        extend(Spectrum(grid64, c), p0)


def test_trace_identity(grid64, params_half, rng):
    u = random_spectrum(grid64, rng, decay=0.4)
    v = extend(u, params_half)
    assert np.max(np.abs(trace(v).coeffs - u.coeffs)) == 0.0
    cyl = as_cylinder(v)
    assert np.max(np.abs(trace(cyl).coeffs - u.coeffs)) < 1e-6


def test_conormal_derivative_recovers_operator(grid64, params_half, rng):
    # -lim y^{1-2s} dv/dy = kappa(s) (-Lap+m^2)^s u
    u = random_spectrum(grid64, rng, decay=0.6)
    v = extend(u, params_half)
    got = conormal_derivative(v, [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    want = apply_bessel_operator(u, params_half)
    scale = np.max(np.abs(want.coeffs))
    assert np.max(np.abs(got.coeffs - kappa(0.5) * want.coeffs)) < 1e-6 * scale


def test_conormal_derivative_cos_half(grid64):
    p0 = FracParams(0.5, 0.0)
    u = _cos_spec(grid64)
    v = extend(u, p0)
    got = conormal_derivative(v, [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    # (-Lap)^{1/2} cos = cos on T = 2pi, and kappa(1/2) = 1
    assert np.max(np.abs(got.coeffs - u.coeffs)) < 1e-8


GRIDS = ["grid64", "grid2d"]


@pytest.mark.parametrize("grid_name", GRIDS)
@pytest.mark.parametrize("s", [0.25, 0.5])
def test_sharp_gap_zero_on_extensions(request, grid_name, s, rng):
    grid = request.getfixturevalue(grid_name)
    p = FracParams(s, 1.0)
    u = random_spectrum(grid, rng, decay=0.4)
    v = as_cylinder(extend(u, p))
    e = cylinder_energy(v)
    assert abs(sharp_trace_gap(v, p)) < 1e-6 * max(e, 1.0)


@pytest.mark.parametrize("grid_name,s", [("grid64", 0.25), ("grid64", 0.4), ("grid64", 0.5),
                                         ("grid2d", 0.25), ("grid2d", 0.4), ("grid2d", 0.5),
                                         ("grid2d", 0.75)])
@pytest.mark.parametrize("m", [0.34, 1.0, 0.0])
def test_cylinder_energy_of_extension_is_kappa_hs(request, grid_name, s, m):
    # the sampled extension's mode energies sum to kappa(s) |u|_{H^s}^2
    grid = request.getfixturevalue(grid_name)
    p = FracParams(s, m)
    u = project_zero_mean(random_spectrum(grid, np.random.default_rng(7), decay=0.4))
    target = kappa(s) * hs_norm(u, p) ** 2
    assert abs(cylinder_energy(as_cylinder(extend(u, p))) - target) <= 1e-9 * target


def test_cylinder_energy_unconverged_quadrature(grid64, rng):
    # the algebraic tail of (1 + t)^{-2} defeats the half-line rule:
    # at s = 1/4 the energies at DEFAULT_NODES and at half as many nodes
    # differ by ~1e-5, far above the 1e-6 convergence tolerance
    u = project_zero_mean(random_spectrum(grid64, rng, decay=0.5))

    def g(t):
        return (1.0 + t) ** -2

    def gp(t):
        return -2.0 * (1.0 + t) ** -3

    v = CylinderFunction(u, FracParams(0.25, 1.0), g, gp)
    with pytest.raises(QuadratureUnconverged, match="moved by"):
        cylinder_energy(v)


@pytest.mark.parametrize("grid_name,s", [("grid64", 0.25), ("grid64", 0.5),
                                         ("grid2d", 0.25), ("grid2d", 0.5),
                                         ("grid2d", 0.55), ("grid2d", 0.75)])
@pytest.mark.parametrize("c", [1.5, 3.0])
def test_cylinder_energy_exponential_profile_closed_form(request, grid_name, s, c):
    # g = e^{-ct}: int t^{1-2s} (g'^2 + g^2) dt = (c^2+1) Gamma(2-2s) (2c)^{2s-2};
    # g'(0) != 0, so at s > 1/2 the gradient piece needs the weight t^{1-2s}
    grid = request.getfixturevalue(grid_name)
    p = FracParams(s, 1.0)
    u = random_spectrum(grid, np.random.default_rng(7), decay=0.4)
    want = (c * c + 1.0) * math.gamma(2.0 - 2.0 * s) * (2.0 * c) ** (2.0 * s - 2.0)
    want *= hs_norm(u, p) ** 2
    v = CylinderFunction(u, p, lambda t: np.exp(-c * t), lambda t: -c * np.exp(-c * t))
    assert abs(cylinder_energy(v) - want) <= 1e-9 * want


def test_profile_points_do_not_grow_with_grid():
    # one profile integral and one g(0+) extrapolation, whatever the number of modes
    def points(grid):
        seen = []

        def g(t):
            seen.append(np.size(t))
            return np.exp(-2.0 * t)

        def dg(t):
            seen.append(np.size(t))
            return -2.0 * np.exp(-2.0 * t)

        v = CylinderFunction(random_spectrum(grid, np.random.default_rng(3), decay=0.5),
                             FracParams(0.5, 1.0), g, dg)
        cylinder_energy(v)
        trace(v)
        return sum(seen)

    assert points(TorusGrid(1, 2 * np.pi, 16)) == points(TorusGrid(2, 2 * np.pi, 32))


def test_sharp_gap_positive_on_wrong_profile(grid64, params_half):
    # e^{-2 t} decays too fast: strictly positive excess energy
    u = project_zero_mean(_cos_spec(grid64))

    def g(t):
        return np.exp(-2.0 * t)

    def gp(t):
        return -2.0 * np.exp(-2.0 * t)

    v = CylinderFunction(u, params_half, g, gp)
    assert sharp_trace_gap(v, params_half) > 1e-3


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), rate_fudge=st.floats(1.05, 3.0))
def test_sharp_gap_nonnegative_random(seed, rate_fudge):
    g = TorusGrid(1, 2 * np.pi, 16)
    p = FracParams(0.5, 1.0)
    u = random_spectrum(g, np.random.default_rng(seed), decay=0.5)

    def prof(t):
        return np.exp(-rate_fudge * t)

    def dprof(t):
        return -rate_fudge * np.exp(-rate_fudge * t)

    v = CylinderFunction(u, p, prof, dprof)
    assert sharp_trace_gap(v, p) >= -1e-8


@pytest.mark.parametrize("grid_name", GRIDS)
@pytest.mark.parametrize("s", [0.25, 0.5])
def test_ground_gap_zero_on_theta_multiple(request, grid_name, s):
    grid = request.getfixturevalue(grid_name)
    p = FracParams(s, 1.0)
    c = np.zeros(grid.shape, complex)
    c[(0,) * grid.N] = 5.0
    v = as_cylinder(extend(Spectrum(grid, c), p))
    assert abs(ground_gap(v, p)) < 1e-6


def test_ground_gap_positive_on_zero_mean(grid64, params_half):
    v = as_cylinder(extend(project_zero_mean(_cos_spec(grid64)), params_half))
    assert ground_gap(v, params_half) > 1e-4


def test_ground_gap_requires_mass(grid64):
    p0 = FracParams(0.5, 0.0)
    v = as_cylinder(extend(project_zero_mean(_cos_spec(grid64)), p0))
    with pytest.raises(DomainError):
        ground_gap(v, p0)


def test_slice_at_decays(grid64, params_half):
    v = extend(_cos_spec(grid64), params_half)
    a0 = np.max(np.abs(v.slice_at(0.0).values))
    a1 = np.max(np.abs(v.slice_at(1.0).values))
    a2 = np.max(np.abs(v.slice_at(3.0).values))
    assert a0 > a1 > a2
    with pytest.raises(DomainError):
        v.slice_at(-1.0)


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("m", [0.0, 0.7])
def test_mode_rates_are_the_half_power_symbol_bitwise(N, m):
    g = TorusGrid(N, 5.0, 8)
    v = extend(project_zero_mean(random_spectrum(g, np.random.default_rng(N))), FracParams(0.3, m))
    want = np.sqrt(g.omega**2 * g.ksq() + m**2)
    assert v.mode_rates().tobytes() == want.tobytes()


def test_slice_at_rejects_a_non_hermitian_base(grid64, params_half):
    c = np.zeros(grid64.shape, complex)
    c[1] = 1.0  # no conjugate partner at -1
    v = CylinderFunction(Spectrum(grid64, c), params_half,
                         lambda t: np.exp(-t), lambda t: -np.exp(-t))
    with pytest.raises(SymmetryViolation):
        v.slice_at(0.5)


def test_extend_is_a_cylinder_function_with_known_trace(grid64, params_half, rng):
    v = extend(random_spectrum(grid64, rng, decay=0.4), params_half)
    assert isinstance(v, CylinderFunction) and v.g0 == 1.0
    assert as_cylinder(v).g0 is None


def test_as_cylinder_extrapolates_the_trace(grid2d):
    # at s = 0.75 the extrapolated theta(0+) is exactly 1.0, so count the calls of g
    calls = []
    v = extend(random_spectrum(grid2d, np.random.default_rng(5), decay=0.4), FracParams(0.75, 1.0))

    def g(t):
        calls.append(np.size(t))
        return v.g(t)

    counted = replace(v, g=g)
    assert np.array_equal(trace(counted).coeffs, v.base.coeffs) and calls == []
    assert np.array_equal(trace(as_cylinder(counted)).coeffs, v.base.coeffs)
    assert calls == [3]


@pytest.mark.parametrize("c", [1.5, 3.0])
def test_conormal_derivative_of_exponential_profile(grid64, params_half, rng, c):
    # s = 1/2, g = e^{-ct}: -dv/dy at y = 0 is c rate_k c_k mode by mode
    u = random_spectrum(grid64, rng, decay=0.6)
    v = CylinderFunction(u, params_half, lambda t: np.exp(-c * t),
                         lambda t: -c * np.exp(-c * t))
    got = conormal_derivative(v, [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    want = c * v.mode_rates() * u.coeffs
    assert np.max(np.abs(got.coeffs - want)) < 1e-8 * np.max(np.abs(want))


def test_slice_at_rate_zero_mode_takes_g_at_zero(grid64):
    # at m = 0 the mean mode has rate 0: it is constant in y, at g(0+) = 2 times c_0
    p0 = FracParams(0.5, 0.0)
    u = _cos_spec(grid64)
    coeffs = u.coeffs.copy()
    coeffs[0] = 0.7
    v = CylinderFunction(Spectrum(grid64, coeffs), p0, lambda t: 2.0 * np.exp(-t),
                         lambda t: -2.0 * np.exp(-t))
    x = grid64.points()[0]
    mean = 0.7 / np.sqrt(grid64.T)  # e_0 = 1/sqrt(T)
    for y in (0.0, 0.5, 2.0):
        want = 2.0 * (mean + np.exp(-y) * np.cos(x))
        assert np.max(np.abs(v.slice_at(y).values - want)) < 1e-9


@pytest.mark.parametrize("build", [
    lambda u, p: extend(u, p),
    lambda u, p: CylinderFunction(u, p, np.exp, np.exp),
], ids=["extend", "CylinderFunction"])
def test_constructors_check_the_grid(grid64, build):
    # N = 1 < 2s at s = 0.75
    with pytest.raises(DomainError, match="N >= 2s"):
        build(project_zero_mean(_cos_spec(grid64)), FracParams(0.75, 1.0))

"""Bessel profile theta, kappa identities, half-line quadrature."""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import kve, roots_jacobi

from fractorus import theta
from fractorus.errors import DomainError, ExtrapolationDiverged, QuadratureUnconverged
from fractorus.extension import as_cylinder, cylinder_energy, extend
from fractorus.grids import FracParams, TorusGrid, hs_norm, random_spectrum
from fractorus.theta import (
    DEFAULT_NODES,
    ThetaProfile,
    bessel_k,
    extrapolate_to_zero,
    gauss_jacobi,
    halfline_rule,
    kappa,
    profile_energy_integral,
    small_y_exponents,
    split_energy,
    theta_profile,
)

# mpmath oracle, dps = 30: theta(s, y) = 2/Gamma(s) (y/2)^s K_s(y)
THETA_ORACLE = {
    (0.25, 0.1): 0.70042410648624274,
    (0.25, 1.0): 0.19980502117429668,
    (0.25, 5.0): 0.0025750004410427166,
    (0.25, 20.0): 5.6404911459717735e-10,
    (0.5, 0.1): 0.90483741803595957,
    (0.5, 1.0): 0.36787944117144232,
    (0.5, 5.0): 0.0067379469990854671,
    (0.5, 20.0): 2.0611536224385578e-9,
    (0.75, 0.1): 0.96584164285270576,
    (0.75, 1.0): 0.50053476184578457,
    (0.75, 5.0): 0.012610194950790769,
    (0.75, 20.0): 5.342116624754078e-9,
}
# mpmath derivative oracle for theta'
THETAP_ORACLE = {
    (0.25, 0.5): -0.50386284115828651,
    (0.25, 2.0): -0.07055528965713022,
    (0.75, 0.5): -0.55413491922987469,
    (0.75, 2.0): -0.18830864082193368,
}
KAPPA_ORACLE = {0.25: 0.477988797486125, 0.5: 1.0, 0.75: 2.0920992401062033}


def test_theta_against_mpmath_oracle():
    for (s, y), val in THETA_ORACLE.items():
        prof = ThetaProfile(s)
        assert abs(prof.theta(y) - val) < 1e-13 * max(val, 1e-9)


def test_theta_prime_against_mpmath_oracle():
    for (s, y), val in THETAP_ORACLE.items():
        prof = ThetaProfile(s)
        assert abs(prof.theta_prime(y) - val) < 1e-12


def test_kappa_values():
    for s, val in KAPPA_ORACLE.items():
        assert abs(kappa(s) - val) < 1e-14 * max(val, 1.0)
    assert abs(kappa(0.5) - 1.0) < 1e-15


def test_kappa_reflection_product():
    for s in (0.1, 0.3, 0.5, 0.8):
        assert abs(kappa(s) * kappa(1 - s) - 1.0) < 1e-12


def test_kappa_domain():
    with pytest.raises(DomainError):
        kappa(0.0)
    with pytest.raises(DomainError):
        kappa(1.0)


def test_closed_form_half():
    prof = ThetaProfile(0.5)
    y = np.logspace(-3, np.log10(30.0), 300)
    assert np.max(np.abs(prof.theta(y) - np.exp(-y))) < 1e-13
    assert np.max(np.abs(prof.theta_prime(y) + np.exp(-y))) < 1e-13


def test_theta_boundary_and_decay():
    for s in (0.25, 0.5, 0.75):
        prof = ThetaProfile(s)
        assert abs(prof.theta(1e-9) - 1.0) < 1e-4  # theta(0+) = 1, rate y^{2s}
        assert prof.theta(50.0) < 1e-18
        assert prof.theta(700.0) < 1e-200  # K_nu heads toward underflow here, no junk
        assert np.isfinite(prof.theta(1e4))


def test_ode_residual():
    y = np.logspace(-3, np.log10(30.0), 100)
    for s in (0.25, 0.5, 0.75):
        prof = ThetaProfile(s)
        res = prof.ode_residual(y) / np.maximum(1.0, prof.theta(y))
        assert float(np.max(res)) < 1e-10


def test_conormal_limit_extrapolation():
    for s in (0.25, 0.5, 0.75):
        prof = ThetaProfile(s)
        lim = prof.conormal_limit_check([1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
        assert abs(lim - kappa(s)) < 1e-8 * kappa(s)


def test_extrapolation_diverged_guard():
    y = np.array([1e-2, 1e-3, 1e-4])
    Q = np.array([[1.0], [10.0], [100.0]])  # blowing up, not settling
    with pytest.raises(ExtrapolationDiverged):
        extrapolate_to_zero(y, Q, [1.0, 2.0])


def test_small_y_exponents():
    assert small_y_exponents(0.25) == [1.5, 2.0, 3.5, 4.0]
    assert small_y_exponents(0.5) == [1.0, 2.0, 3.0, 4.0]


def test_halfline_rule_polynomial_exactness():
    # int_0^inf y^beta e^{-y} dy = Gamma(beta + 1)
    for beta in (-0.5, 0.0, 0.5):
        y, w = halfline_rule(beta, nodes=400)
        val = w @ np.exp(-y)
        assert abs(val - math.gamma(beta + 1.0)) < 2e-6 * math.gamma(beta + 1.0)


def test_halfline_rule_is_cached_and_read_only():
    y, w = rule = halfline_rule(0.3, 200)
    assert halfline_rule(0.3, 200) is rule
    assert not y.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 0.0


def test_halfline_rule_domain():
    with pytest.raises(DomainError):
        halfline_rule(-1.0)


NUS = (0.001, 0.5, 0.999, 1.001, 1.999)


def test_bessel_k_against_mpmath():
    # one call shares one node set from y = 1e-8 to the edge of theta's range;
    # each y alone gets its own
    y = np.geomspace(1e-8, 697.8, 40)
    with mpmath.workdps(30):
        want = np.array([[float(mpmath.besselk(nu, v)) for v in y] for nu in NUS])
    alone = np.stack([bessel_k(NUS, y[i:i + 1])[:, 0] for i in range(y.size)], axis=1)
    for got in (bessel_k(NUS, y), alone):
        assert np.max(np.abs(got / want - 1.0)) < 1e-13


def test_bessel_k_blocks_keep_the_values(monkeypatch):
    # 3,000 arguments take several blocks of rows; one block gives the same values
    y = np.geomspace(1e-3, 30.0, 3000).reshape(60, 50)
    blocked = bessel_k((0.25, 1.75), y)
    monkeypatch.setattr(theta, "_K_BLOCK", 1000 * y.size)
    assert blocked.shape == (2, 60, 50)
    assert np.max(np.abs(blocked / bessel_k((0.25, 1.75), y) - 1.0)) < 1e-15


def test_bessel_k_domain():
    for y in (0.0, -1.0, np.nan, 1e-320):
        with pytest.raises(DomainError):
            bessel_k((0.5,), np.array([1.0, y]))


@pytest.mark.parametrize("n", [1, 2, 7, 200, 400])
@pytest.mark.parametrize("beta", [-0.98, -0.5, 0.0, 0.5, 0.98])
def test_gauss_jacobi_integrates_polynomials_exactly(n, beta):
    # int_{-1}^{1} (1-x)^j (1+x)^beta dx = 2^{beta+j+1} B(beta+1, j+1), and the
    # (1-x)^j with j < 2n span the polynomials the rule integrates exactly.  The
    # node nearest -1 holds 1+x only to the rounding of x, and the higher
    # moments weigh it most: that sets the tolerance.
    x, w = gauss_jacobi(n, beta)
    j = np.arange(2 * n)
    got = (1.0 - x) ** j[:, None] @ w
    want = np.exp([math.lgamma(beta + 1.0) + math.lgamma(i + 1.0) - math.lgamma(beta + i + 2.0)
                   + (beta + i + 1.0) * math.log(2.0) for i in j])
    assert np.max(np.abs(got / want - 1.0)) < 1e-12 + 4.0 * np.finfo(float).eps / (1.0 + x[0])


def test_gauss_jacobi_reports_unsettled_nodes(monkeypatch):
    monkeypatch.setattr(theta, "_GJ_MAX_ITERS", 1)
    with pytest.raises(QuadratureUnconverged):
        gauss_jacobi(50, 0.3)


@pytest.mark.parametrize("n", [4, 50, 200, 400, 1000])
@pytest.mark.parametrize("beta", [-0.999, -0.98, 0.0, 0.98])
def test_gauss_jacobi_nodes_match_scipy(n, beta):
    # scipy's roots_jacobi is a test-only oracle; its weights are 1e-8 off here
    x, _ = gauss_jacobi(n, beta)
    assert np.max(np.abs(x - roots_jacobi(n, 0.0, beta)[0])) <= 1e-15


@pytest.mark.parametrize("beta", [-0.999999998, 0.999999998])
def test_gauss_jacobi_nodes_increase_near_the_ends_of_the_range(beta):
    # the weight exponents 1-2s and 2s-1 of s = 0.999999999, the exponent of
    # test_profile_energy_integral_near_s_one
    x, _ = gauss_jacobi(DEFAULT_NODES, beta)
    assert np.all(np.diff(x) > 0.0)


def test_gauss_jacobi_reports_coincident_nodes(monkeypatch):
    # two starting zeros that coincide run the same Newton steps to the same
    # zero; the rule refuses them rather than weigh one zero twice
    cos = np.cos

    def doubled(a):
        x = cos(a)
        x[1] = x[0]
        return x

    monkeypatch.setattr(theta.np, "cos", doubled)
    with pytest.raises(QuadratureUnconverged, match="strictly increasing"):
        gauss_jacobi(50, 0.3)


def test_profile_energy_integral_matches_kappa():
    for s in (0.25, 0.5, 0.75):
        val = profile_energy_integral(s, nodes=400)
        assert abs(val - kappa(s)) < 1e-9 * kappa(s)


def test_profile_energy_integral_near_s_one():
    # the weight y^{1-2s} puts nearly all its mass on the rule's first node,
    # whose weight the rule takes from the exact total
    s = 0.999999999
    assert abs(profile_energy_integral(s) - kappa(s)) < 1e-9 * kappa(s)


def _scaled_kv(order, y):
    """K_order(y) in the exponentially scaled form kve(order, y) e^{-y}."""
    return kve(order, y) * np.exp(-y)


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_theta_at_large_y_matches_the_scaled_kv_form(s):
    # K_nu agrees with kve e^{-y} to 1e-15 relative while e^{-y} is a normal
    # float (y < 708); past y ~ 697.8 theta is below 1e-300, and K_nu
    # underflows to 0 by y ~ 745
    prof = ThetaProfile(s)

    def pairs(y):
        env = 2.0 / math.gamma(s) * (y / 2.0) ** s
        k0, k1, k2 = (_scaled_kv(order, y) for order in (s, 1.0 - s, 2.0 - s))
        return [(prof.theta(y), env * k0), (prof.theta_prime(y), -env * k1),
                (prof.theta_second(y), -env * (k1 / y - k2))]

    for lo, hi, rel in [(600.0, 664.0, 1e-14), (664.0, 697.8, 1e-12)]:
        for got, want in pairs(np.linspace(lo, hi, 401)):
            assert np.all(np.abs(got - want) <= rel * np.abs(want))
    for got, want in pairs(np.array([697.9, 699.9, 700.0, 740.0, 800.0, 1e4])):
        assert np.all(np.isfinite(got)) and np.all(np.abs(got) < 1e-300)
        assert np.all(np.abs(got - want) < 1e-300)


def test_theta_integral_is_computed_once_per_exponent(monkeypatch):
    s, p = 0.35, FracParams(0.35, 1.0)
    runs, pieces = [], theta._split_pieces

    def counted(s, nodes, g, dg):
        runs.append(nodes)
        return pieces(s, nodes, g, dg)

    split_energy.cache_clear()
    monkeypatch.setattr(theta, "_split_pieces", counted)
    u = random_spectrum(TorusGrid(1, 2 * np.pi, 16), np.random.default_rng(5), decay=0.5)
    v = extend(u, p)
    kap = profile_energy_integral(s)
    energies = cylinder_energy(v), cylinder_energy(as_cylinder(v))
    assert runs == [DEFAULT_NODES, DEFAULT_NODES // 2]
    prof = theta_profile(s)
    fine = split_energy.__wrapped__(s, DEFAULT_NODES, prof.theta, prof.theta_prime)[0]
    assert kap == fine
    assert energies == (hs_norm(u, p) ** 2 * fine,) * 2

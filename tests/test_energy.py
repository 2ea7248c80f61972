"""Reduced functional: values, gradients in both metrics, coercivity gap."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fractorus import energy
from fractorus.errors import DomainError
from fractorus.grids import (
    FracParams,
    Spectrum,
    TorusGrid,
    field_from_function,
    forward_transform,
    hs_norm,
    multiplier,
    project_zero_mean,
    random_spectrum,
)
from fractorus.nonlinearity import NonlinearitySpec


def _tcos(grid, t=1.0):
    return forward_transform(field_from_function(grid, lambda x: t * np.cos(x)))


def test_quadratic_part_closed_form(grid64, params_half):
    # quad(t cos x) = (1/2)(sqrt 2 - 1) pi t^2
    for t in (1.0, 2.5):
        got = energy.evaluate(_tcos(grid64, t), params_half, None).quad
        assert abs(got - 0.5 * (np.sqrt(2) - 1) * np.pi * t**2) < 1e-12 * t**2


def test_evaluate_report(grid64, params_half, cubic):
    rep = energy.evaluate(_tcos(grid64), params_half, cubic)
    assert abs(rep.quad - 0.5 * (np.sqrt(2) - 1) * np.pi) < 1e-12
    assert abs(rep.nl - 3 * np.pi / 16) < 1e-12
    assert abs(rep.value - (rep.quad - rep.nl)) < 1e-15
    assert rep.grad_norm > 0


def test_probe_mode_drops_nonlinearity(grid64, params_half):
    rep = energy.evaluate(_tcos(grid64), params_half, None)
    assert rep.nl == 0.0
    assert abs(rep.value - rep.quad) < 1e-15


def test_gradient_linear_probe(grid64, params_half):
    # f = 0: R_k is exactly the shifted multiplier action
    u = _tcos(grid64)
    R = energy.gradient(u, params_half, None, metric="L2")
    want = multiplier(grid64, params_half, shifted=True) * u.coeffs
    assert np.max(np.abs(R.coeffs - want)) < 1e-12


def test_gradient_metrics_consistent(grid64, params_half, cubic, rng):
    # X gradient is the L2 gradient divided by the unshifted multiplier
    u = random_spectrum(grid64, rng, decay=0.4)
    rl = energy.gradient(u, params_half, cubic, metric="L2")
    rx = energy.gradient(u, params_half, cubic, metric="X")
    mult = multiplier(grid64, params_half)
    assert np.max(np.abs(rx.coeffs * mult - rl.coeffs)) < 1e-12
    with pytest.raises(DomainError):
        energy.gradient(u, params_half, cubic, metric="H1")


def test_gradient_singular_mode_at_zero_mass(grid64, cubic, rng):
    p0 = FracParams(0.5, 0.0)
    u = random_spectrum(grid64, rng, decay=0.4)
    rx = energy.gradient(u, p0, cubic, metric="X")
    rl = energy.gradient(u, p0, cubic, metric="L2")
    assert rx.coeffs[0] == rl.coeffs[0]  # k = 0 stays in the L2 metric


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), s=st.sampled_from([0.25, 0.5]), m=st.sampled_from([0.5, 1.0]))
def test_gradient_fd_consistency(seed, s, m):
    g = TorusGrid(1, 2 * np.pi, 32)
    p = FracParams(s, m)
    spec = NonlinearitySpec(kind="pure_power", p=3.0)
    rng = np.random.default_rng(seed)
    u = random_spectrum(g, rng, decay=0.5)
    w = random_spectrum(g, rng, decay=0.5)
    eps = 1e-6
    Ip = energy.evaluate(Spectrum(g, u.coeffs + eps * w.coeffs), p, spec).value
    Im = energy.evaluate(Spectrum(g, u.coeffs - eps * w.coeffs), p, spec).value
    fd = (Ip - Im) / (2 * eps)
    an = float(np.real(np.sum(energy.gradient(u, p, spec).coeffs * np.conj(w.coeffs))))
    assert abs(fd - an) < 1e-6 * max(abs(an), 1.0)


def test_quadratic_gap(grid64, params_half):
    z = project_zero_mean(_tcos(grid64))
    got = energy.quadratic_gap(z, params_half)
    assert abs(got - (1 - 1 / np.sqrt(2))) < 1e-12
    assert abs(got - energy.coercivity_constant(grid64, params_half)) < 1e-12


def test_quadratic_gap_lower_bound(grid64, params_half, rng):
    floor = energy.coercivity_constant(grid64, params_half)
    for _ in range(20):
        z = random_spectrum(grid64, rng, decay=0.2, zero_mean=True)
        assert energy.quadratic_gap(z, params_half) >= floor - 1e-12


def test_quadratic_gap_domain_errors(grid64, params_half):
    shifted = forward_transform(field_from_function(grid64, lambda x: 1.0 + np.cos(x)))
    with pytest.raises(DomainError):
        energy.quadratic_gap(shifted, params_half)  # nonzero mean
    with pytest.raises(DomainError):
        energy.quadratic_gap(Spectrum(grid64, np.zeros(grid64.shape, complex)), params_half)

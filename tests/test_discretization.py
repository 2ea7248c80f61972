"""The one discretized functional: batched methods against single calls and
against the public per-spectrum functions."""

import numpy as np
import pytest

from fractorus import continuation, energy
from fractorus.grids import (
    FracParams,
    Spectrum,
    TorusGrid,
    field_from_function,
    hs_norm,
    random_spectrum,
)
from fractorus.nonlinearity import (
    Discretization,
    NonlinearitySpec,
    nonlinear_energy,
    nonlinear_gradient,
    nonlinear_jacobian_apply,
)

RTOL = 1e-14
K = 3


def _spec(kind, grid):
    if kind == "pure":
        return NonlinearitySpec(kind="pure_power", p=3.0)
    a = field_from_function(grid, lambda *xs: 1.0 + 0.5 * np.cos(xs[0] + 0.3))
    return NonlinearitySpec(kind="modulated_power", p=3.0, a=a)


def _close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert np.max(np.abs(got - want)) <= RTOL * scale


@pytest.fixture(params=[(1, 64), (2, 16)], ids=["1d-n64", "2d-n16"])
def grid(request):
    N, n = request.param
    return TorusGrid(N, 2 * np.pi, n)


@pytest.fixture(params=["pure", "modulated"])
def case(request, grid):
    p = FracParams(0.45, 0.8)
    spec = _spec(request.param, grid)
    rng = np.random.default_rng(3)
    U = np.stack([random_spectrum(grid, rng, decay=0.5).coeffs for _ in range(K)])
    W = np.stack([random_spectrum(grid, rng, decay=0.5).coeffs for _ in range(K)])
    return Discretization(grid, p, spec), U, W


def test_batch_matches_single_calls(case):
    disc, U, W = case
    for name in ("levels", "grad", "action", "hs_norms"):
        method = getattr(disc, name)
        batched = method(U)
        for i in range(K):
            _close(batched[i], method(U[i]))
    batched = disc.jacobian_apply(U, W)
    for i in range(K):
        _close(batched[i], disc.jacobian_apply(U[i], W[i]))


def test_public_functions_agree(case):
    disc, U, W = case
    g, p, spec = disc.grid, disc.params, disc.spec
    for i in range(K):
        u, w = Spectrum(g, U[i]), Spectrum(g, W[i])
        rep = energy.evaluate(u, p, spec)
        _close(rep.value, disc.levels(U[i]))
        _close(rep.nl, nonlinear_energy(spec, u))
        _close(energy.gradient(u, p, spec).coeffs, disc.grad(U[i]))
        _close(energy.gradient(u, p, spec, metric="X").coeffs * disc.full, disc.grad(U[i]))
        _close(disc.shifted * U[i] - nonlinear_gradient(spec, u).coeffs, disc.grad(U[i]))
        _close(nonlinear_jacobian_apply(spec, u, w).coeffs, disc.jacobian_apply(U[i], W[i]))
        _close(continuation.nonlinear_action(spec, u), disc.action(U[i]))
        _close(hs_norm(u, p), disc.hs_norms(U[i]))

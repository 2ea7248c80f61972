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


def _spec(kind, grid, p=3.0):
    if kind == "pure":
        return NonlinearitySpec(kind="pure_power", p=p)
    a = field_from_function(grid, lambda *xs: 1.0 + 0.5 * np.cos(xs[0] + 0.3))
    return NonlinearitySpec(kind="modulated_power", p=p, a=a)


def _close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert np.max(np.abs(got - want)) <= RTOL * scale


@pytest.fixture(params=[(1, 64), (2, 16), (3, 8)], ids=["1d-n64", "2d-n16", "3d-n8"])
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


# ---------------------------------------------------------------------------
# the discrete pairing: grad is the derivative of levels, Nyquist planes included

PAIRING_GRIDS = [(1, 16), (2, 8), (3, 4)]


def _pairing_case(N, n, kind):
    g = TorusGrid(N, 2 * np.pi, n)
    spec = _spec(kind, g, p=3.0 if kind == "pure" else 2.5)
    rng = np.random.default_rng(5)
    # decay = 0 leaves content on every Nyquist plane
    u, w = (random_spectrum(g, rng, decay=0.0).coeffs for _ in range(2))
    for ax in range(N):
        plane = (slice(None),) * ax + (n // 2,)
        assert np.min(np.abs(u[plane])) > 1e-3 and np.min(np.abs(w[plane])) > 1e-3
    return Discretization(g, FracParams(0.5, 1.0), spec), u, w


def _hermitian_basis(g):
    """A real basis of the Hermitian coefficient arrays with real Nyquist
    planes: e_k + e_-k for every pair {k, -k}, and i(e_k - e_-k) where k is
    on no Nyquist plane and differs from -k."""
    basis, seen = [], set()
    for k in np.ndindex(g.shape):
        mk = tuple(int(i) for i in np.mod(-np.array(k), g.n))
        if mk in seen:
            continue
        seen.add(k)
        e = np.zeros(g.shape, complex)
        e[k] += 1.0
        e[mk] += 1.0
        basis.append(e)
        if mk != k and g.n // 2 not in k:
            e = np.zeros(g.shape, complex)
            e[k], e[mk] = 1j, -1j
            basis.append(e)
    return np.array(basis)


@pytest.mark.parametrize("N,n", PAIRING_GRIDS)
@pytest.mark.parametrize("kind", ["pure", "modulated"])
def test_grad_is_the_derivative_of_levels(N, n, kind):
    disc, u, w = _pairing_case(N, n, kind)
    eps = 1e-5
    fd = float(disc.levels(u + eps * w) - disc.levels(u - eps * w)) / (2 * eps)
    an = float(np.real(np.sum(np.conj(disc.grad(u)) * w)))
    assert abs(fd - an) <= 1e-7 * max(abs(an), 1.0)


@pytest.mark.parametrize("N,n", PAIRING_GRIDS)
@pytest.mark.parametrize("kind", ["pure", "modulated"])
def test_jacobian_is_symmetric_on_the_band(N, n, kind):
    disc, u, _ = _pairing_case(N, n, kind)
    E = _hermitian_basis(disc.grid)
    JE = disc.shifted * E - disc.jacobian_apply(u, E)
    B = np.real(np.conj(E).reshape(len(E), -1) @ JE.reshape(len(E), -1).T)
    assert np.max(np.abs(B - B.T)) <= 1e-12 * np.max(np.abs(B))

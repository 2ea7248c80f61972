"""The one discretized functional: batched methods against single calls and
against the public per-spectrum functions."""

import numpy as np
import pytest

from fractorus import continuation, energy
from fractorus.grids import (
    Field,
    FracParams,
    Spectrum,
    TorusGrid,
    field_from_function,
    forward_transform,
    hs_norm,
    random_spectrum,
)
from fractorus.nonlinearity import (
    Discretization,
    NonlinearitySpec,
    Point,
    f_eval,
    nonlinear_energy,
    nonlinear_gradient,
    pad_coeffs,
    padded_size,
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
    for name in ("level", "grad", "nonlinear_energy"):
        batched = getattr(disc.at(U), name)
        for i in range(K):
            _close(batched[i], getattr(disc.at(U[i]), name))
    batched = disc.hs_norms(U)
    for i in range(K):
        _close(batched[i], disc.hs_norms(U[i]))
    for i in range(K):
        pt = disc.at(U[i])
        batched = pt.linearization(disc.at(W))
        for j in range(K):
            _close(batched[j], pt.linearization(disc.at(W[j])))


def test_public_functions_agree(case):
    disc, U, _ = case
    g, p, spec = disc.grid, disc.params, disc.spec
    for i in range(K):
        u = Spectrum(g, U[i])
        pt = disc.at(U[i])
        rep = energy.evaluate(u, p, spec)
        _close(rep.value, pt.level)
        _close(rep.nl, nonlinear_energy(spec, u))
        _close(energy.gradient(u, p, spec).coeffs, pt.grad)
        _close(energy.gradient(u, p, spec, metric="X").coeffs * disc.full, pt.grad)
        _close(disc.shifted * U[i] - nonlinear_gradient(spec, u).coeffs, pt.grad)
        # int f(u) u dx, summed over the padded samples by its own definition
        m = padded_size(g.n)
        vals = pad_coeffs(U[i], g, m)
        coeff = pad_coeffs(forward_transform(Field(g, spec.coefficient(g))).coeffs, g, m)
        _close(continuation.nonlinear_action(spec, u),
               np.sum(f_eval(spec, coeff, vals) * vals) * g.cell_at(m))
        _close(hs_norm(u, p), disc.hs_norms(U[i]))


# ---------------------------------------------------------------------------
# points combined from padded samples: the pad is linear

X = np.array([[0.7, -1.3, 0.4], [-2.1, 0.2, 1.5]])  # two combinations of the K rows


def _within(got, want, rtol=1e-13):
    got, want = np.asarray(got), np.asarray(want)
    assert np.max(np.abs(got - want)) <= rtol * float(np.max(np.abs(want)))


def test_combined_point_matches_the_padded_point(case):
    disc, U, _ = case
    combined = disc.at(U).combine(X)
    direct = disc.at(combined.U)
    _close(combined.U, (X @ U.reshape(K, -1)).reshape(combined.U.shape))
    for name in ("level", "grad", "gnorm"):
        _within(getattr(combined, name), getattr(direct, name))


def test_plane_pairs_samples_as_grad_and_linearization(case):
    disc, U, W = case
    basis = Point.stack(*(disc.at(w) for w in W))
    Wc = np.conj(W).reshape(K, -1)
    for i in range(K):
        pt = disc.at(U[i])
        g, H = pt.plane(basis)
        _within(g, np.real(Wc @ pt.grad.ravel()))
        _within(H, np.real(Wc @ pt.linearization(basis).reshape(K, -1).T))


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
    fd = float(disc.at(u + eps * w).level - disc.at(u - eps * w).level) / (2 * eps)
    an = float(np.real(np.sum(np.conj(disc.at(u).grad) * w)))
    assert abs(fd - an) <= 1e-7 * max(abs(an), 1.0)


@pytest.mark.parametrize("N,n", PAIRING_GRIDS)
@pytest.mark.parametrize("kind", ["pure", "modulated"])
def test_jacobian_is_symmetric_on_the_band(N, n, kind):
    disc, u, _ = _pairing_case(N, n, kind)
    E = _hermitian_basis(disc.grid)
    JE = disc.at(u).linearization(disc.at(E))
    B = np.real(np.conj(E).reshape(len(E), -1) @ JE.reshape(len(E), -1).T)
    assert np.max(np.abs(B - B.T)) <= 1e-12 * np.max(np.abs(B))

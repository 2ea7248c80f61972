"""Metamorphic relations: exact embeddings of a discrete solution into a
larger problem.

- Period doubling: mode k of a solution on period T with n points is put at
  mode 2k on period 2T with 2n points, times 2^{N/2}.  The symbol at 2k on
  the doubled period is the symbol at k, and the padded samples are the same
  T-periodic values, so the result is a discrete critical point of level
  2^N I.
- Dimension lift: a solution on the (N-1)-torus is made constant along a new
  last axis, times sqrt(T).  The symbol at k_N = 0 is the (N-1)-D symbol, so
  the result is a discrete critical point of level T I.

Each row checks that the embedded point's dual residual is below ps_tol and
that its level is the predicted one within 1e-12 relative.  The rows cross
both pad paths of grids: 1-D n=64 and 2-D n=8 pad by the cached matrix,
their doubles by FFTs.
"""

import numpy as np
import pytest

from fractorus import linking
from fractorus.grids import FracParams, TorusGrid
from fractorus.nonlinearity import Discretization, NonlinearitySpec

T = 2 * np.pi
CFG = linking.LinkingConfig()


def _solve(N, n, s, m, p):
    g, frac = TorusGrid(N, T, n), FracParams(s, m)
    spec = NonlinearitySpec(kind="pure_power", p=p)
    st = linking.minimax_search(g, frac, spec, CFG)
    assert st.status == "Converged"
    return g, frac, spec, st.point


def _doubled(U, g):
    """U on the grid of period 2T and 2n points: mode k at 2k, times 2^{N/2}."""
    idx = 2 * g.axis_wavenumbers() % (2 * g.n)  # the Nyquist mode n/2 lands on n
    out = np.zeros((2 * g.n,) * g.N, dtype=complex)
    out[np.ix_(*[idx] * g.N)] = 2.0 ** (g.N / 2.0) * U
    return out


def _lifted(U, g):
    """U on the grid of one more axis, constant along it: times sqrt(T)."""
    out = np.zeros((g.n,) * (g.N + 1), dtype=complex)
    out[..., 0] = np.sqrt(g.T) * U
    return out


def _check(pt, level):
    assert pt.gnorm < CFG.ps_tol
    assert abs(pt.level - level) <= 1e-12 * abs(level)


@pytest.mark.parametrize("N,n,s,m,p", [
    pytest.param(1, 64, 0.45, 0.9, 2.5, id="1d-n64-to-n128"),
    pytest.param(2, 8, 0.75, 1.0, 3.0, id="2d-n8-to-n16"),
])
def test_period_doubling_is_an_exact_critical_point(N, n, s, m, p):
    g, frac, spec, pt = _solve(N, n, s, m, p)
    big = TorusGrid(N, 2 * T, 2 * n)
    _check(Discretization(big, frac, spec).at(_doubled(pt.U, g)), 2.0**N * pt.level)


@pytest.mark.parametrize("N,n,s,m,p", [
    pytest.param(1, 16, 0.45, 0.5, 2.5, id="1d-n16-to-2d"),
    pytest.param(2, 8, 0.75, 1.0, 2.5, id="2d-n8-to-3d"),
])
def test_dimension_lift_is_an_exact_critical_point(N, n, s, m, p):
    g, frac, spec, pt = _solve(N, n, s, m, p)
    up = TorusGrid(N + 1, T, n)
    _check(Discretization(up, frac, spec).at(_lifted(pt.U, g)), T * pt.level)

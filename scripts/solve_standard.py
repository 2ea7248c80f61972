"""Solve the standard 1-D benchmark and print the critical level.

Usage: python3 scripts/solve_standard.py [n]
"""

import sys

import numpy as np

from fractorus import energy, linking
from fractorus.grids import FracParams, TorusGrid, hs_norm
from fractorus.nonlinearity import NonlinearitySpec


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 64
    grid = TorusGrid(1, 2 * np.pi, n)
    p = FracParams(0.5, 1.0)
    spec = NonlinearitySpec(kind="pure_power", p=3.0, mu=4.0)
    st = linking.minimax_search(grid, p, spec, linking.LinkingConfig())
    print(f"status      {st.status}")
    print(f"level       {st.level:.15g}")
    print(f"grad_norm   {st.grad_norm:.3e}")
    print(f"residual    {linking.residual_norm(st.iterate, p, spec):.3e}")
    print(f"|u|_X       {hs_norm(st.iterate, p):.6g}")
    _, rho = linking.ridge_estimate(grid, p, spec)
    print(f"bracket     rho_lb {st.rho:.6g} <= level {st.level:.6g} (sampled rho_hat {rho:.6g})")
    print(f"delta_hat   {st.delta_hat!r} (the largest sampled level of the linking "
          "rectangle, not a bound)")
    rep = energy.evaluate(st.iterate, p, spec)
    print(f"quad - nl   {rep.quad:.6g} - {rep.nl:.6g}")


if __name__ == "__main__":
    main()

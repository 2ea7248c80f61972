"""Continuation in the mass parameter down to the zero-mass limit.

Usage: python3 scripts/mass_sweep.py
"""

import numpy as np

from fractorus import continuation, linking
from fractorus.grids import FracParams, TorusGrid, hs_norm
from fractorus.nonlinearity import NonlinearitySpec


def main():
    grid = TorusGrid(1, 2 * np.pi, 64)
    p = FracParams(0.5, 1.0)
    spec = NonlinearitySpec(kind="pure_power", p=3.0, mu=4.0)
    est = continuation.estimate_sobolev_constant(grid, p,
                                                 rng=np.random.default_rng(9))
    print(f"C_sharp = {est.C_sharp:.6g}, m0 = {est.m0:.6g}")
    m_list = [0.5, 0.1, 0.02, 0.004]
    recs = continuation.sweep_m(m_list, p, spec, linking.LinkingConfig(), grid,
                                m0=est.m0)
    print("m, alpha, hs_norm_T, residual, status")
    for r in recs:
        print(f"{r.m:g}, {r.alpha:.8g}, {r.hs_norm_T:.8g}, "
              f"{r.residual:.3e}, {r.status}")
    u = continuation.extract_limit(recs, p, spec)
    p0 = FracParams(p.s, 0.0)
    print(f"limit residual (m=0): {linking.residual_norm(u, p0, spec):.3e}")
    print(f"limit |u|_X:          {hs_norm(u, p):.6g}")
    print(f"nonlinear action:     {continuation.nonlinear_action(spec, u):.6g}")


if __name__ == "__main__":
    main()

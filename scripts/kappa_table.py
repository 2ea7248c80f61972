"""Cross-check the extension constant kappa(s) three independent ways.

Gamma-function formula vs quadrature of the profile energy vs the conormal
limit of the Bessel profile.  Also checks kappa(s) kappa(1-s) = 1.

Usage: python3 scripts/kappa_table.py
"""

import numpy as np

from fractorus.theta import ThetaProfile, kappa, profile_energy_integral


def main():
    y_list = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    print(f"{'s':>5} {'formula':>18} {'quadrature':>18} {'conormal':>18} "
          f"{'k(s)k(1-s)-1':>14}")
    for s in (0.1, 0.25, 0.5, 0.75, 0.9):
        kf = kappa(s)
        kq = profile_energy_integral(s)
        kc = ThetaProfile(s).conormal_limit_check(y_list)
        dual = kappa(s) * kappa(1.0 - s) - 1.0
        print(f"{s:>5.2f} {kf:>18.12f} {kq:>18.12f} {kc:>18.12f} {dual:>14.2e}")


if __name__ == "__main__":
    main()

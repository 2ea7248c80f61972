"""Reduced trace-space functional and its gradient.

On the trace space the extension energy collapses to a multiplier sum, so the
working functional is

    I(u) = 1/2 sum_k [(omega^2|k|^2+m^2)^s - m^{2s}] |c_k|^2 - int F(x,u) dx,

the kappa(s)-normalized restriction of the cylinder functional to minimal
extensions.  Critical points of I are exactly the discrete solutions of
[(-Lap+m^2)^s - m^{2s}] u = f(x,u).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import DomainError
# `multiplier` is not called here (Discretization calls it); it stays a name
# of this module because perfbench's tests wrap and check `energy.multiplier`.
from .grids import FracParams, Spectrum, hs_norm, multiplier  # noqa: F401
from .nonlinearity import Discretization, NonlinearitySpec, Point


@dataclass(frozen=True)
class EnergyReport:
    value: float
    quad: float
    nl: float
    grad_norm: float


def evaluate(
    u: Spectrum, p: FracParams, spec: Optional[NonlinearitySpec]
) -> EnergyReport:
    """Energy report; spec=None suppresses the nonlinear term (probe mode)."""
    return report(Discretization(u.grid, p, spec).at(u.coeffs))


def report(pt: Point) -> EnergyReport:
    """Energy report of an evaluation point, from the samples it holds."""
    quad = float(pt.quadratic)
    nl = float(pt.nonlinear_energy) if pt.disc.spec is not None else 0.0
    grad_norm = Spectrum(pt.disc.grid, pt.grad).l2_norm()
    return EnergyReport(value=quad - nl, quad=quad, nl=nl, grad_norm=grad_norm)


def gradient(
    u: Spectrum,
    p: FracParams,
    spec: Optional[NonlinearitySpec],
    metric: str = "L2",
) -> Spectrum:
    """Residual spectrum of the Euler-Lagrange equation.

    L2: R_k = [(omega^2|k|^2+m^2)^s - m^{2s}] c_k - (f(.,u))_k.
    X:  the Sobolev-preconditioned R_k / (omega^2|k|^2+m^2)^s; at m = 0 the
    singular k=0 component stays in the L2 metric.
    """
    if metric not in ("L2", "X"):
        raise DomainError(f"unknown metric {metric!r}")
    disc = Discretization(u.grid, p, spec)
    R = disc.at(u.coeffs).grad
    return Spectrum(u.grid, R if metric == "L2" else disc.precondition(R))


def quadratic_gap(u: Spectrum, p: FracParams) -> float:
    """Coercivity ratio quad(u)/|u|_{H^s}^2 on the zero-mean subspace.

    Bounded below by 1 - m^{2s}/(omega^2+m^2)^s, the exact minimum of the
    discrete multiplier ratio, attained at |k| = 1.
    """
    if abs(u.mean_coeff) > 1e-12 * max(u.l2_norm(), 1e-300):
        raise DomainError("quadratic_gap requires a zero-mean spectrum")
    h = hs_norm(u, p)
    if h == 0.0:
        raise DomainError("quadratic_gap undefined at u = 0")
    return 2.0 * float(Discretization(u.grid, p, None).at(u.coeffs).quadratic) / h**2


def coercivity_constant(grid, p: FracParams) -> float:
    """1 - m^{2s}/(omega^2+m^2)^s, the sharp discrete Z-space constant."""
    return 1.0 - p.m ** (2.0 * p.s) / (grid.omega**2 + p.m**2) ** p.s

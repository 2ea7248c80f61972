"""Pseudospectral tools for the shifted fractional Bessel operator on the torus.

The library computes with (-Lap + m^2)^s - m^{2s} on N-dimensional periodic
boxes: spectral transforms and norms, the Bessel-K extension profile, the
half-cylinder extension energy identities, dealiased power nonlinearities,
the reduced variational functional, a linking minimax solver, and the m -> 0
continuation with regularity diagnostics.
"""

from .errors import (
    BadExponent,
    BoundaryNotNegative,
    DivergedRefinement,
    DomainError,
    ExtrapolationDiverged,
    FractorusError,
    HypothesisViolated,
    InsufficientDecay,
    LimitCollapsed,
    NoPositiveRidge,
    NotCauchy,
    ParseError,
    QuadratureUnconverged,
    SymmetryViolation,
    ValidationError,
    ZeroModeNoDecay,
)
from .grids import (
    Field,
    FracParams,
    Spectrum,
    TorusGrid,
    apply_bessel_operator,
    apply_shifted_operator,
    field_from_function,
    forward_transform,
    hs_norm,
    inverse_transform,
    lq_norm,
    multiplier,
    project_zero_mean,
    random_spectrum,
)
from .theta import ThetaProfile, halfline_rule, kappa, profile_energy_integral
from .extension import (
    CylinderFunction,
    as_cylinder,
    conormal_derivative,
    cylinder_energy,
    extend,
    ground_gap,
    sharp_trace_gap,
)
from .nonlinearity import (
    Discretization,
    NonlinearitySpec,
    nonlinear_energy,
    nonlinear_gradient,
    verify_hypotheses,
)
from .energy import EnergyReport, coercivity_constant, evaluate, gradient, quadratic_gap
from .linking import (
    LinkingConfig,
    SolverState,
    align_spectra,
    minimax_search,
    newton_refine,
    pick_z_direction,
    residual_norm,
    ridge_estimate,
)
from .continuation import (
    ContinuationRecord,
    SobolevEstimate,
    bootstrap_diagnostic,
    estimate_sobolev_constant,
    extract_limit,
    holder_proxy,
    sweep_m,
)

__version__ = "0.1.0"

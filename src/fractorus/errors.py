"""Exception hierarchy shared by all fractorus modules."""


class FractorusError(Exception):
    """Base class for all package errors."""


class ValidationError(FractorusError):
    """A configuration or parameter violates a documented invariant."""


class ParseError(FractorusError):
    """Malformed configuration document."""


class DomainError(FractorusError):
    """Argument outside the mathematical domain of an operation."""


class BadExponent(DomainError):
    """Lebesgue exponent q < 1."""


class SymmetryViolation(FractorusError):
    """Spectrum fails Hermitian symmetry beyond tolerance."""


class ZeroModeNoDecay(FractorusError):
    """Massless extension requested for a field with nonzero mean."""


class QuadratureUnconverged(FractorusError):
    """Successive quadrature refinements disagree beyond tolerance."""


class ExtrapolationDiverged(FractorusError):
    """Limit extrapolation estimates are not settling."""


class HypothesisViolated(FractorusError):
    """A structural hypothesis on the nonlinearity fails at a witness point."""

    def __init__(self, hypothesis, witness, message=None):
        self.hypothesis = hypothesis
        self.witness = witness
        super().__init__(message or f"{hypothesis} fails at {witness!r}")


class NoPositiveRidge(FractorusError):
    """The certified ridge level of the linking geometry is not finite and positive."""


class BoundaryNotNegative(FractorusError):
    """A level sampled on the linking-set boundary is not finite, so no cap is found."""

    def __init__(self, R, witness):
        self.R = R
        self.witness = witness
        super().__init__(f"energy not finite on linking boundary (R={R}, witness={witness})")


class DivergedRefinement(FractorusError):
    """Newton polishing stalled or ran out of iterations above its tolerance."""


class LimitCollapsed(FractorusError):
    """The massless-limit refinement collapsed to the trivial solution."""


class NotCauchy(FractorusError):
    """Continuation branch iterates are not settling toward a limit."""


class InsufficientDecay(FractorusError):
    """Spectral tail carries too much energy for a meaningful estimate."""

"""Exception types shared across the package."""


class DimensionError(Exception):
    """Operands have incompatible or non-square shapes."""


class ProbabilityError(Exception):
    """Vector has negative entries or does not sum to one."""


class DomainError(Exception):
    """Scalar argument lies outside the function's domain."""


class ValidationError(Exception):
    """State failed validation; the message names the violated invariant."""


class UnsupportedDimension(Exception):
    """Operation is only implemented for qubit-sized subsystems."""


class ParseError(Exception):
    """State file could not be parsed."""

"""Exception types shared across the package.

Every error about an argument's value or shape is a ValidationError, so one
except clause catches them all; ParseError, about a state file's text, is not.
"""


class ValidationError(Exception):
    """State failed validation; the message names the violated invariant."""


class DimensionError(ValidationError):
    """Operands have incompatible or non-square shapes."""


class ProbabilityError(ValidationError):
    """Vector has negative entries or does not sum to one."""


class DomainError(ValidationError):
    """Scalar argument lies outside the function's domain."""


class UnsupportedDimension(ValidationError):
    """Operation is only implemented for qubit-sized subsystems."""


class ParseError(Exception):
    """State file could not be parsed."""

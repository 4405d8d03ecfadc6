"""Exception types shared across the package.

Each error class names the contract it enforces; the CLI maps them to
exit codes (validation and parse problems exit 2, unsupported data 3).
"""


class EpscharError(Exception):
    pass


class InvalidInputError(EpscharError, ValueError):
    """An argument fails a basic precondition (non-prime p, bad range)."""


class CapacityError(EpscharError, ValueError):
    """The request is valid but exceeds the supported size bounds."""


class DomainError(EpscharError, ValueError):
    """A value lies outside the mathematical domain of the operation."""


class PrecisionError(EpscharError, ArithmeticError):
    """A p-adic computation cannot be resolved at the working precision."""


class LevelError(EpscharError, ValueError):
    """A K-theory element was combined at or with the wrong level."""


class GroupMismatchError(EpscharError, ValueError):
    """Two K-theory elements or characters live over different groups."""


class ReducibleCoverError(EpscharError, ValueError):
    """The requested cover equation does not define an irreducible curve."""


class ConstantExtensionError(EpscharError, ValueError):
    """The requested cover would extend the constant field."""


class NotWeaklyRamifiedError(EpscharError, ValueError):
    """The datum violates weak ramification where it is required."""


class CoverValidationError(EpscharError, ValueError):
    """A cover or place datum fails a named structural invariant."""

    def __init__(self, invariant, message):
        self.invariant = invariant
        super().__init__(f"{invariant}: {message}")


class UnsupportedCoverError(EpscharError, ValueError):
    """The operation is not defined for this kind of cover datum."""


class IncompleteDatumError(EpscharError, ValueError):
    """The cover datum lacks data (e.g. conductors) the operation needs."""


class IntegralityError(EpscharError, ArithmeticError):
    """A quantity that must be integral came out fractional."""

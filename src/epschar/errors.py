"""Exception types shared across the package.

Each error class names the contract it enforces, and a class the CLI
answers carries its exit status as exit_status: 1 a check failed, 2 the
input is malformed, 3 the datum is unsupported.  The base class,
LevelError and GroupMismatchError carry none: they are programming
errors, and the CLI lets them propagate.
"""


class EpscharError(Exception):
    exit_status = None


class InvalidInputError(EpscharError, ValueError):
    """An argument fails a basic precondition (non-prime p, bad range)."""
    exit_status = 2


class CapacityError(EpscharError, ValueError):
    """The request is valid but exceeds the supported size bounds."""
    exit_status = 3


class DomainError(EpscharError, ValueError):
    """A value lies outside the mathematical domain of the operation."""
    exit_status = 2


class PrecisionError(EpscharError, ArithmeticError):
    """A p-adic computation cannot be resolved at the working precision."""
    exit_status = 2


class LevelError(EpscharError, ValueError):
    """A K-theory element was combined at or with the wrong level."""


class GroupMismatchError(EpscharError, ValueError):
    """Two K-theory elements or characters live over different groups."""


class ReducibleCoverError(EpscharError, ValueError):
    """The requested cover equation does not define an irreducible curve."""
    exit_status = 3


class ConstantExtensionError(EpscharError, ValueError):
    """The requested cover would extend the constant field."""
    exit_status = 3


class NotWeaklyRamifiedError(EpscharError, ValueError):
    """The datum violates weak ramification where it is required."""
    exit_status = 3


class CoverValidationError(EpscharError, ValueError):
    """A cover or place datum fails a named structural invariant."""
    exit_status = 2

    def __init__(self, invariant, message):
        self.invariant = invariant
        super().__init__(f"{invariant}: {message}")


class UnsupportedCoverError(EpscharError, ValueError):
    """The operation is not defined for this kind of cover datum."""
    exit_status = 3


class IncompleteDatumError(EpscharError, ValueError):
    """The cover datum lacks data (e.g. conductors) the operation needs."""
    exit_status = 3


class IntegralityError(EpscharError, ArithmeticError):
    """A quantity that must be integral came out fractional."""
    exit_status = 1

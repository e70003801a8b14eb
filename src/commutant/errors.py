"""Exception taxonomy.

Every failure raised by this package derives from :class:`CommutantError`,
so callers can catch one type at an API boundary.  The subclasses mirror the
distinct failure contracts of the operations: shape problems are never
reported as value problems and vice versa.
"""


class CommutantError(Exception):
    """Base class for all errors raised by this package."""


class ArgumentError(CommutantError):
    """A scalar argument is malformed (non-positive dimension, bad count)."""


class DimensionError(CommutantError):
    """Operand shapes are incompatible with the requested operation."""


class RangeError(CommutantError):
    """An index is outside its admissible 1-based range."""


class DomainError(CommutantError):
    """A value is outside the operation's domain (zero vector, negative entry)."""


class RankError(CommutantError):
    """The input does not have the rank structure the operation requires."""


class SymmetryError(CommutantError):
    """The input is not symmetric where symmetry is required."""


class SingularMatrixError(CommutantError):
    """A matrix that must be invertible is singular at the pivot threshold."""


class PreconditionError(CommutantError):
    """A checked precondition (e.g. mutual inverses) does not hold."""

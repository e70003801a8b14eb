"""Exception taxonomy, and the shape rules that need no numpy.

Every failure raised by this package derives from :class:`CommutantError`,
so callers can catch one type at an API boundary.  The subclasses mirror the
distinct failure contracts of the operations: shape problems are never
reported as value problems and vice versa.  :func:`_is_integer` is the one
integer test behind every ArgumentError for a dimension, count or seed.

The shape rules, integer arithmetic that needs no numpy, are here once:
the dense budget, an order-2m tensor's even-order cubic shape and a flat
tensor's shape and value count.  ``tensor`` builds under them, and
``serialize`` and the CLI refuse with them before numpy loads.
"""

import math
import numbers


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer other than a bool.  A plain int is let
    through before the ABC test, which took ~0.4 µs a call on a 2-core VM."""
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )


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


def _as_list(values, what: str) -> list:
    """``values`` as a list; a scalar, or anything that does not iterate, is an ArgumentError."""
    try:
        return list(values)
    except TypeError:
        raise ArgumentError(f"{what} must be a sequence, got {values!r}") from None


#: most entries any dense builder allocates (2**24 float64s = 128 MiB)
MAX_DENSE_ENTRIES = 2**24
#: most modes a numpy array can have
MAX_ORDER = 64


def _check_order(order: int, what: str) -> None:
    """Refuse a dense array of more modes than numpy allows."""
    if order > MAX_ORDER:
        raise DimensionError(f"{what}: order {order} is over numpy's {MAX_ORDER} modes")


def _check_dense_budget(shape: tuple, what: str) -> None:
    """Refuse, before allocating, a dense array over MAX_DENSE_ENTRIES or
    over numpy's MAX_ORDER modes."""
    _check_order(len(shape), what)
    if math.prod(shape) > MAX_DENSE_ENTRIES:
        raise DomainError(f"{what}: {shape} is over MAX_DENSE_ENTRIES={MAX_DENSE_ENTRIES}")


def _even_order_cubic(shape: tuple, name: str) -> tuple[int, int]:
    """Validate an order-2m shape with all extents equal; return (m, n)."""
    order, n = len(shape), shape[0]
    if order % 2 != 0:
        raise DimensionError(f"{name}: order must be even, got {order}")
    if any(d != n for d in shape):
        raise DimensionError(f"{name}: all mode extents must agree, got {shape}")
    return order // 2, n


def _check_flat(shape: tuple, count: int) -> tuple[int, ...]:
    """``DenseTensor.from_flat``'s shape rule: ``shape`` as ints, refused
    unless it is a nonempty tuple of positive integers, of at most MAX_ORDER
    modes, that holds ``count`` values."""
    if not shape or any(not _is_integer(d) or d < 1 for d in shape):
        raise ArgumentError(f"bad shape {shape}")
    shape = tuple(map(int, shape))
    _check_order(len(shape), "tensor")
    size = math.prod(shape)
    if count != size:
        raise DimensionError(f"{count} values for shape {shape} (need {size})")
    return shape

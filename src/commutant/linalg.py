"""Small dense linear algebra: determinants and inverses by LAPACK
(``np.linalg``), behind the one rule this package owns, the invertibility
gate.

Non-finite matrices are refused.  :func:`det` snaps a magnitude below
``DET_SINGULAR_TOL`` to 0.0, and :func:`_slogdet` stays finite where the
determinant overflows.  :func:`inv` is the one inverse route: it inverts a
matrix or a (k, n, n) stack once the gate accepts it, a nonnegative
monomial stack (the group case) as its exact transposed reciprocals and
any other by LAPACK, which alone can find an exactly zero LU pivot and an
inverse that overflows.

The gate, :func:`_require_invertible`, is the one elimination written here
and the one invertibility rule: Gaussian elimination with partial pivoting
of a whole (k, n, n) stack, which refuses the first matrix with a pivot
below ``INVERSE_PIVOT_TOL``, naming it, then a pivot that is inf or NaN,
without building an inverse.  A pivot is read only from the rows at and
below it, so the elimination keeps only those rows: per column that is
five numpy calls for all k matrices, and the last column's update is
skipped.  A nonnegative monomial stack is decided from its row
maxima alone (:func:`_monomial_pivots`): each row's one nonzero is the
pivot of its column, as no step changes it, so no column argmax is paid
for, and only a low one is put in column order, by the column maxima.  In a
sparse stack far from overflow a column with nothing below its pivot is
skipped whole: its update would subtract 0 * x, which changes at most the
sign of a zero, and no pivot magnitude reads that sign.  A non-finite entry
always reaches some pivot as an inf or a NaN, so finite pivots at or above
the threshold accept the stack with no finiteness pass.  The elimination
raises no floating-point warning: a refused matrix runs on past its low
pivot.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, DomainError, SingularMatrixError
from .tensor import _as_array, as_matrix

#: a pivot smaller than this makes a matrix singular for inversion purposes
INVERSE_PIVOT_TOL = 1e-10
#: determinant magnitude below this is reported as exactly zero
DET_SINGULAR_TOL = 1e-12
#: a float64 whose bits, read as an unsigned integer, are below those of
#: +inf is finite with its sign bit clear
_INF_BITS = 0x7FF0000000000000
#: entries below this over 2^n keep every partial pivoting step of an n x n
#: matrix finite: each step at most doubles the largest magnitude, and a row
#: divided by a pivot of at least INVERSE_PIVOT_TOL grows by 1/that
_NO_OVERFLOW = np.finfo(float).max * INVERSE_PIVOT_TOL / 2


def _square(mat, stack: bool = False) -> np.ndarray:
    """``mat`` as a finite square matrix, or with ``stack`` also as a
    (k, n, n) stack of square matrices, whose non-finite ones the gate
    refuses in order."""
    arr = _as_array(mat, "a matrix")
    if not (stack and arr.ndim == 3):
        arr = as_matrix(arr)
        if not np.isfinite(arr).all():
            raise DomainError("matrix has a non-finite entry")
    if arr.shape[-1] != arr.shape[-2]:
        raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def _monomial_pivots(stack: np.ndarray):
    """The (m, n) row maxima of the (m, n, n) stack when each of its matrices
    has exactly one nonzero per row and per column and every entry is
    finite with its sign bit clear: each row's one nonzero, which is the
    gate's pivot of its column.  None for any other stack.  This is the one
    monomial test; :func:`_nonneg_monomial` adds the columns."""
    m, n, _ = stack.shape
    # a dense stack fails the first test, one count
    if np.count_nonzero(stack) != m * n or not stack.view(np.uint64).max() < _INF_BITS:
        return None
    vals = stack.max(axis=2)
    # m·n nonzeros with one in every row and every column: exactly one in each
    if not (vals.all() and stack.max(axis=1).all()):
        return None
    return vals


def _nonneg_monomial(stack: np.ndarray):
    """(cols, vals), each (m, n), when :func:`_monomial_pivots` finds the
    (m, n, n) stack nonnegative monomial: row i of matrix k holds
    vals[k, i] > 0 at column cols[k, i].  None for any other stack."""
    vals = _monomial_pivots(stack)
    return None if vals is None else (stack.argmax(axis=2), vals)


def det(mat) -> float:
    """Determinant by LAPACK's LU; snaps |det| < 1e-12 to 0.0."""
    value = float(np.linalg.det(_square(mat)))
    return 0.0 if abs(value) < DET_SINGULAR_TOL else value


def _slogdet(mat) -> tuple[float, float]:
    """Sign and log|det| of ``mat`` by LAPACK's LU, so finite where the
    determinant itself overflows; (0.0, -inf) if singular."""
    sign, logabs = np.linalg.slogdet(_square(mat))
    return float(sign), float(logabs)


def _low_pivot(pivot) -> SingularMatrixError:
    return SingularMatrixError(f"pivot {pivot:.3e} below threshold {INVERSE_PIVOT_TOL:g}")


def _refuse_low(pivots: np.ndarray) -> None:
    """Raise the gate's SingularMatrixError for the first matrix of a stack
    with a pivot below the threshold, given the (k, n) pivot magnitudes in
    the order the elimination meets them; NaN pivots pass."""
    low = pivots < INVERSE_PIVOT_TOL
    bad = low.any(axis=1)
    if bad.any():
        first = int(bad.argmax())
        raise _low_pivot(pivots[first, low[first].argmax()])


def inv(mat) -> np.ndarray:
    """The inverse of a square matrix, or of each matrix of a (k, n, n)
    stack, once the gate accepts them, or the gate's error for the first
    matrix it refuses.  A stack the gate finds nonnegative monomial (the
    group case) is inverted exactly: each matrix transposed, each nonzero
    x replaced by the rounded 1/x, which is finite and positive for a
    pivot x >= INVERSE_PIVOT_TOL, and every other entry +0, so no sign bit
    is set.  Any other stack is inverted by LAPACK: SingularMatrixError
    for a stack the gate accepts but LAPACK's own LU finds exactly
    singular (LAPACK does not say which matrix), and DomainError for an
    inverse that overflows."""
    a = _square(mat, stack=True)
    # an empty matrix or stack has nothing to refuse
    if a.size and _require_invertible(a if a.ndim == 3 else a[None]):
        recips = np.divide(1.0, a, out=np.zeros_like(a), where=a != 0)
        return np.swapaxes(recips, -1, -2).copy()
    try:
        out = np.linalg.inv(a)
    except np.linalg.LinAlgError:  # LAPACK met an exactly zero pivot the gate did not
        raise SingularMatrixError("matrix is exactly singular in LAPACK's LU") from None
    if not np.isfinite(out).all():
        raise DomainError("inverse has a non-finite entry")
    return out


def _require_invertible(mats) -> bool:
    """Raise on the first of ``mats``, square matrices of one size, that is
    not invertible at the pivot threshold, and build no inverse:
    DomainError for a non-finite matrix, SingularMatrixError naming its
    first pivot below ``INVERSE_PIVOT_TOL``, then DomainError for a stack
    whose elimination turns a pivot non-finite (an overflow to inf, or the
    0 * inf NaN one leaves below it), as its LU is no longer exact enough
    to invert by.  Otherwise return whether the stack is nonnegative
    monomial, the case the gate decides from its pattern.  The module
    docstring says how the stack is eliminated."""
    a = np.array(mats)
    k, n, _ = a.shape
    row_pivots = _monomial_pivots(a)
    if row_pivots is not None:
        if row_pivots.min() >= INVERSE_PIVOT_TOL:  # the pivots, in row order
            return True
        pivots = a.max(axis=1)  # each column's one nonzero, in column order
    else:
        # one matrix is eliminated as a matrix: numpy's cost per call grows
        # with the number of axes
        blk, lanes = (a[0], ()) if k == 1 else (a, (np.arange(k),))
        # a column with no nonzero below its pivot subtracts 0 * x from the
        # rows below, which changes at most the sign of a zero, and no pivot
        # magnitude reads that, unless some x is an inf or a NaN: in a sparse
        # stack far from overflow, skip such a column's division and update
        skip = 2 * np.count_nonzero(a) <= a.size and np.abs(a).max() < math.ldexp(_NO_OVERFLOW, -n)
        with np.errstate(all="ignore"):  # a refused matrix runs on past its low pivot
            for _ in range(n - 1):
                col = blk[..., 0]
                piv = np.abs(col).argmax(-1)
                if np.count_nonzero(piv) if lanes else piv:
                    rows = blk[lanes + (piv,)].copy()
                    blk[lanes + (piv,)] = blk[..., 0, :]
                    blk[..., 0, :] = rows  # the pivot stays on the diagonal
                if skip and not np.count_nonzero(col[..., 1:]):
                    blk = blk[..., 1:, 1:]
                    continue
                top = blk[..., :1, 1:] / blk[..., :1, :1]
                blk = blk[..., 1:, 1:]
                blk -= col[..., 1:, None] * top
        pivots = a.diagonal(0, 1, 2)  # signed
    # a non-finite entry always reaches some pivot as an inf or a NaN, so
    # pivots all finite and at or above the threshold accept every matrix;
    # a NaN fails the test
    if all(INVERSE_PIVOT_TOL <= abs(p) < math.inf for p in pivots.ravel().tolist()):
        return False
    finite = np.isfinite(np.array(mats)).all(axis=(1, 2))
    first = int(finite.argmin()) if not finite.all() else k
    _refuse_low(np.abs(pivots[:first]))
    if first < k:
        raise DomainError("matrix has a non-finite entry")
    # what is left is a pivot of a finite stack that is inf or NaN
    raise DomainError("a pivot overflows in elimination")

"""Small dense linear algebra by Gaussian elimination with partial pivoting.

Deterministic and dependency-free on purpose: the determinant and its log
share one elimination, and the inverse keeps its own pivot threshold,
instead of inheriting one from a backend.  Non-finite matrices are refused.
Matrices at this scale are tiny, so O(n^3) elimination is plenty.

At the sizes inverted here a column's arithmetic costs less than the numpy
calls that run it, so the inverse's loop makes few: the pivot is tested
through the magnitudes its argmax was read from, rows are swapped by one
row copy and only when needed, and the rank-1 update is one broadcast
product.

The invertibility gate of the rank preservers, :func:`_require_invertible`,
decides a whole stack of generators without building an inverse.  A pivot
is read only from the rows at and below it, and those rows take in nothing
from the rows above or from the right half, so one elimination of the
(k, n, n) stack that keeps only those rows, with inv's pivot search, row
swap, row division and update on them, meets inv's pivots bit for bit; a
nonnegative monomial stack is decided from its row maxima alone
(:func:`_monomial_pivots`): each row's one nonzero is inv's pivot of its
column (see :func:`_monomial_inverses`), so no column argmax is paid for,
and only a low one is put in the loop's column order, by the column maxima.
Per column that is five numpy calls for all k matrices where inv makes six
for one, and the last column's update is skipped, so one generator costs
no more than inv and k of them about as much as one.  In a sparse stack far
from overflow a column with nothing below its pivot is skipped whole: its
update would subtract 0 * x, which changes at most the sign of a zero, and
no pivot magnitude reads that sign.  A non-finite entry
always reaches some pivot as an inf or a NaN, so finite pivots at or above
the threshold accept the stack with no finiteness pass.  The elimination
raises no floating-point warning: a refused matrix runs on past its low
pivot, and an overflow that inv would warn of keeps inv's outcome.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, DomainError, SingularMatrixError
from .tensor import as_matrix

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


def _square(mat) -> np.ndarray:
    arr = as_matrix(mat).copy(order="K")  # a copy, as the elimination works in place
    if not np.isfinite(arr).all():
        raise DomainError("matrix has a non-finite entry")
    if arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def _monomial_pivots(stack: np.ndarray):
    """The (m, n) row maxima of the (m, n, n) stack when each of its matrices
    has exactly one nonzero per row and per column and every entry is
    finite with its sign bit clear: each row's one nonzero, which is inv's
    pivot of its column.  None for any other stack.  This is the one
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


def _pivots(mat) -> tuple[float, np.ndarray | None]:
    """The sign of the row swaps and the LU pivots of ``mat``, by partial
    pivoting, or None in place of the pivots when a column has no nonzero
    one."""
    a = _square(mat)
    sign = 1.0
    for col in range(a.shape[0]):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        if a[piv, col] == 0.0:
            return sign, None
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            sign = -sign
        a[col + 1 :, col:] -= np.outer(a[col + 1 :, col] / a[col, col], a[col, col:])
    return sign, np.diagonal(a)


def det(mat) -> float:
    """Determinant via LU with partial pivoting; snaps |det| < 1e-12 to 0.0."""
    sign, pivots = _pivots(mat)
    if pivots is None:
        return 0.0
    value = sign * float(np.prod(pivots))
    return 0.0 if abs(value) < DET_SINGULAR_TOL else value


def _slogdet(mat) -> tuple[float, float]:
    """Sign and log|det| of ``mat`` from the same pivots as :func:`det`, so
    finite where the determinant itself overflows; (0.0, -inf) if singular."""
    sign, pivots = _pivots(mat)
    if pivots is None:
        return 0.0, -math.inf
    return sign * float(np.prod(np.sign(pivots))), float(np.sum(np.log(np.abs(pivots))))


def _low_pivot(pivot) -> SingularMatrixError:
    return SingularMatrixError(f"pivot {pivot:.3e} below threshold {INVERSE_PIVOT_TOL:g}")


def _refuse_low(pivots: np.ndarray) -> None:
    """Raise inv's SingularMatrixError for the first matrix of a stack with a
    pivot below the threshold, given the (k, n) pivot magnitudes in the
    order the loop meets them; NaN pivots pass, as in the loop."""
    low = pivots < INVERSE_PIVOT_TOL
    bad = low.any(axis=1)
    if bad.any():
        first = int(bad.argmax())
        raise _low_pivot(pivots[first, low[first].argmax()])


def _monomial_inverses(pattern) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """inv of each matrix of the nonnegative monomial (k, n, n) stack with
    ``pattern`` = (cols, vals), its transposed reciprocals, and the
    inverses' own pattern, or the loop's error for the first matrix it
    refuses.  Row cols[k, i] of inverse k holds 1/vals[k, i] at column i,
    so the inverses' pattern is that of :func:`_nonneg_monomial` on them
    without a scan: each 1/x of a pivot x >= INVERSE_PIVOT_TOL is finite,
    and positive, as 1/DBL_MAX rounds to a subnormal, not to 0.

    These are the loop's bits.  Column c's pivot is its one nonzero x, which
    no earlier step has changed, so the division of the pivot row writes
    1/x into the inverse and +0/x = +0 around it.  Every multiplier of the
    update is that column's other entries, all +0, times entries that are
    finite with their sign bit clear, so each update subtracts +0 and
    leaves every entry, +0 included, as it was.  That argument needs the
    sign bits: with a -0.0 multiplier or a negative entry the products can
    be -0.0, and x - (-0.0) turns a -0.0 into +0, so such a matrix takes
    the loop.  The first column in order whose pivot is below the
    threshold raises, with the loop's message."""
    cols, vals = pattern
    k, n = cols.shape
    lanes = np.arange(k)[:, None]
    if vals.min() < INVERSE_PIVOT_TOL:
        pivots = np.empty_like(vals)  # the loop meets them column by column
        pivots[lanes, cols] = vals
        _refuse_low(pivots)
    rows, recips = np.arange(n), 1.0 / vals
    out = np.zeros((k, n, n))
    out[lanes, cols, rows] = recips
    inv_cols = np.empty_like(cols)  # the column of each inverse's row
    inv_cols[lanes, cols] = rows
    return out, (inv_cols, recips[lanes, inv_cols])


def inv(mat) -> np.ndarray:
    """Inverse via Gauss-Jordan; raises SingularMatrixError on a pivot below
    ``INVERSE_PIVOT_TOL``."""
    a = _square(mat)
    n = a.shape[0]
    aug = np.hstack([a, np.eye(n)])
    for col in range(n):
        mags = np.abs(aug[col:, col])
        piv = int(mags.argmax())
        if mags[piv] < INVERSE_PIVOT_TOL:
            raise _low_pivot(mags[piv])
        row = aug[col]
        if piv:
            swapped = row.copy()
            row[:] = aug[col + piv]
            aug[col + piv] = swapped
        row /= row[col]
        factor = aug[:, col].copy()
        factor[col] = 0.0  # every row but the pivot row
        aug -= factor[:, None] * row
    return aug[:, n:]


def _require_invertible(mats) -> None:
    """Raise what inv raises on the first of ``mats``, square matrices of one
    size, that it refuses, and build no inverse: DomainError for a
    non-finite matrix, SingularMatrixError with inv's message for a pivot
    below ``INVERSE_PIVOT_TOL``.  The module docstring says why the pivots
    are inv's."""
    a = np.array(mats)
    k, n, _ = a.shape
    row_pivots = _monomial_pivots(a)
    if row_pivots is not None:
        if row_pivots.min() >= INVERSE_PIVOT_TOL:  # inv's pivots, in row order
            return
        pivots = a.max(axis=1)  # each column's one nonzero, in the loop's order
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
        return
    finite = np.isfinite(np.array(mats)).all(axis=(1, 2))
    first = int(finite.argmin()) if not finite.all() else k
    _refuse_low(np.abs(pivots[:first]))
    if first < k:
        raise DomainError("matrix has a non-finite entry")

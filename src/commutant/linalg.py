"""Small dense linear algebra by Gaussian elimination with partial pivoting.

Deterministic and dependency-free on purpose: determinant and rank share one
elimination with an explicit pivot threshold, and the inverse keeps its own,
instead of inheriting one from a backend.  Non-finite matrices are refused.
Matrices at this scale are tiny, so O(n^3) elimination is plenty.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, DomainError, SingularMatrixError

#: a pivot smaller than this makes a matrix singular for inversion purposes
INVERSE_PIVOT_TOL = 1e-10
#: determinant magnitude below this is reported as exactly zero
DET_SINGULAR_TOL = 1e-12


def _matrix(mat) -> np.ndarray:
    arr = np.array(mat, dtype=float)
    if arr.ndim != 2:
        raise DimensionError(f"expected a matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DomainError("matrix has a non-finite entry")
    return arr


def _square(mat) -> np.ndarray:
    arr = _matrix(mat)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def _eliminate(a: np.ndarray, tol: float) -> tuple[int, float]:
    """Row-reduce ``a`` in place with partial pivoting, skipping each column
    with no entry above ``tol`` in absolute value.  Returns the number of
    pivots, which then sit on the diagonal if every column has one, and the
    sign of the row swaps."""
    rows, cols = a.shape
    r, sign = 0, 1.0
    for col in range(cols):
        if r == rows:
            break
        piv = r + int(np.argmax(np.abs(a[r:, col])))
        if abs(a[piv, col]) <= tol:
            continue
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
            sign = -sign
        a[r + 1 :, col:] -= np.outer(a[r + 1 :, col] / a[r, col], a[r, col:])
        r += 1
    return r, sign


def _pivots(mat) -> tuple[float, np.ndarray | None]:
    """The sign of the row swaps and the LU pivots of ``mat``, or None in
    place of the pivots when a column has no nonzero one."""
    a = _square(mat)
    count, sign = _eliminate(a, 0.0)
    return sign, (np.diagonal(a) if count == a.shape[0] else None)


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


def inv(mat) -> np.ndarray:
    """Inverse via Gauss-Jordan; raises SingularMatrixError on a pivot below
    ``INVERSE_PIVOT_TOL``."""
    a = _square(mat)
    n = a.shape[0]
    aug = np.hstack([a, np.eye(n)])
    for col in range(n):
        piv = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[piv, col]) < INVERSE_PIVOT_TOL:
            raise SingularMatrixError(
                f"pivot {abs(aug[piv, col]):.3e} below threshold {INVERSE_PIVOT_TOL:g}"
            )
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        aug[col] /= aug[col, col]
        factor = aug[:, col].copy()
        factor[col] = 0.0  # every row but the pivot row
        aug -= np.outer(factor, aug[col])
    return aug[:, n:]


def rank(mat, tol: float) -> int:
    """Number of elimination pivots exceeding ``tol`` (absolute)."""
    return _eliminate(_matrix(mat), tol)[0]

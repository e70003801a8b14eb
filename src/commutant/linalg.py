"""Small dense linear algebra by Gaussian elimination with partial pivoting.

Deterministic and dependency-free on purpose: the determinant and its log
share one elimination, and the inverse keeps its own pivot threshold,
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


def _square(mat) -> np.ndarray:
    arr = np.array(mat, dtype=float)
    if arr.ndim != 2:
        raise DimensionError(f"expected a matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DomainError("matrix has a non-finite entry")
    if arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
    return arr


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


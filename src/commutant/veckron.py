"""Vectorization and Kronecker-product calculus on matrices.

All matrix arguments are 2-D arrays (or order-2 :class:`DenseTensor`);
vectors are 1-D arrays.  ``vec`` stacks columns — the matrix analogue of the
package-wide canonical layout.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import ArgumentError, DimensionError
from .tensor import _check_dense_budget, _mode_products, _outer_into, as_matrix


class VecLayout(Enum):
    """Which unvec layout to use: entry rule for x of length p*q."""

    COLUMN_MAJOR = "column-major"  # X[i, j] = x[i + (j-1)p], shape p x q
    ROW_MAJOR = "row-major"  # X[i, j] = x[j + (i-1)q], shape p x q


def vec(mat) -> np.ndarray:
    """Stack the columns of a p x q matrix into a vector of length pq."""
    return as_matrix(mat).ravel(order="F")


def unvec(x, p: int, q: int, layout: VecLayout = VecLayout.COLUMN_MAJOR) -> np.ndarray:
    """Reshape a vector of length p*q into a p x q matrix.

    COLUMN_MAJOR inverts :func:`vec`; ROW_MAJOR fills rows first, so
    ``unvec(x, p, q, ROW_MAJOR) == unvec(x, q, p).T``.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise DimensionError(f"expected a vector, got order {arr.ndim}")
    if p < 1 or q < 1:
        raise ArgumentError(f"p and q must be positive, got p={p}, q={q}")
    if arr.size != p * q:
        raise DimensionError(f"vector length {arr.size} != {p}*{q}")
    if layout is VecLayout.COLUMN_MAJOR:
        return arr.reshape((p, q), order="F")
    return arr.reshape((p, q), order="C")


def kron(a, b) -> np.ndarray:
    """Kronecker product of two matrices: block ``a[i, j] * b``.

    Each entry is one product ``a[i, j] * b[k, l]``, written once into a
    fresh array, so the result equals ``np.kron(a, b)`` bit for bit and
    shares no memory with either factor."""
    am, bm = as_matrix(a), as_matrix(b)
    (m, n), (r, s) = am.shape, bm.shape
    # entry (i·r + k, j·s + l) is a[i, j]·b[k, l]: axes (i, k, j, l)
    return _outer_into(am, bm, (m, r, n, s), (0, 2, 1, 3), "A ⊗ B").reshape(m * r, n * s)


def kron_vec(x, y) -> np.ndarray:
    """Kronecker product of two vectors; entry (i-1)|y| + j is x_i * y_j."""
    ax = np.asarray(x, dtype=float)
    ay = np.asarray(y, dtype=float)
    if ax.ndim != 1 or ay.ndim != 1:
        raise DimensionError("kron_vec takes two vectors")
    _check_dense_budget((ax.size, ay.size), "x ⊗ y")
    return np.kron(ax, ay)


def vec_sandwich(a, b, c) -> np.ndarray:
    """vec(A B C) computed as (Cᵀ ⊗ A) vec(B), applied by its Kronecker
    structure: a mode-1 product of B with A, then a mode-2 product with Cᵀ.
    For a p x q B this costs O(pq(p + q)) and never forms the pq x pq
    matrix Cᵀ ⊗ A.  Returns a fresh vector."""
    am, bm, cm = as_matrix(a), as_matrix(b), as_matrix(c)
    if am.shape[1] != bm.shape[0] or bm.shape[1] != cm.shape[0]:
        raise DimensionError(
            f"chain {am.shape} · {bm.shape} · {cm.shape} does not compose"
        )
    return vec(_mode_products(bm, [(0, am), (1, cm.T)]))


def trace_via_vec(a, b) -> float:
    """Tr(A B) computed as vec(Aᵀ)ᵀ vec(B) — no product matrix is formed."""
    am, bm = as_matrix(a), as_matrix(b)
    if am.shape[1] != bm.shape[0] or bm.shape[1] != am.shape[0]:
        raise DimensionError(f"A {am.shape} and B {bm.shape} give no square AB")
    return float(vec(am.T) @ vec(bm))

"""Vectorization and Kronecker-product calculus on matrices.

All matrix arguments are 2-D arrays (or order-2 :class:`DenseTensor`);
vectors are 1-D arrays.  ``vec`` stacks columns — the matrix analogue of the
package-wide canonical layout — and ``unvec`` is its inverse; no other layout
is offered.  The Kronecker products write each entry once and the sandwich
acts by mode products, so no pq x pq matrix is formed that the caller did
not ask for.
"""

from __future__ import annotations

import numpy as np

from .errors import ArgumentError, DimensionError
from .tensor import _check_dense_budget, _mode_products, _outer_into, as_matrix


def vec(mat) -> np.ndarray:
    """Stack the columns of a p x q matrix into a vector of length pq."""
    return as_matrix(mat).ravel(order="F")


def unvec(x, p: int, q: int) -> np.ndarray:
    """Reshape a vector of length p*q into a p x q matrix, column by column:
    the inverse of :func:`vec`."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise DimensionError(f"expected a vector, got order {arr.ndim}")
    if p < 1 or q < 1:
        raise ArgumentError(f"p and q must be positive, got p={p}, q={q}")
    if arr.size != p * q:
        raise DimensionError(f"vector length {arr.size} != {p}*{q}")
    return arr.reshape((p, q), order="F")


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


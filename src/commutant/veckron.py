"""Vectorization and Kronecker-product calculus on matrices.

All matrix arguments are 2-D arrays (or order-2 :class:`DenseTensor`);
vectors are 1-D arrays.  ``vec`` stacks columns — the matrix analogue of the
package-wide canonical layout — and ``unvec`` is its inverse; no other layout
is offered.  The matrix Kronecker product writes each entry once, whole
output rows per inner loop (the kernel of ``tensor._kron_into``, which
``conjugate_kron`` and ``gct_dense`` share), and the sandwich acts by mode
products, so no pq x pq matrix is formed that the caller did not ask for.
"""

from __future__ import annotations

import numpy as np

from .errors import ArgumentError, DimensionError, _is_integer
from .tensor import _as_array, _check_dense_budget, _kron_into, _mode_products, as_matrix


def vec(mat) -> np.ndarray:
    """Stack the columns of a p x q matrix into a vector of length pq."""
    return as_matrix(mat).ravel(order="F")


def unvec(x, p: int, q: int) -> np.ndarray:
    """Reshape a vector of length p*q into a p x q matrix, column by column:
    the inverse of :func:`vec`."""
    arr = _as_array(x, "a vector", 1)
    if not (_is_integer(p) and _is_integer(q) and p >= 1 and q >= 1):
        raise ArgumentError(f"p and q must be positive integers, got p={p}, q={q}")
    if arr.size != p * q:
        raise DimensionError(f"vector length {arr.size} != {p}*{q}")
    return arr.reshape((p, q), order="F")


def kron(a, b) -> np.ndarray:
    """Kronecker product of two matrices: block ``a[i, j] * b``.

    Each entry is one product ``a[i, j] * b[k, l]``, written once into a
    fresh array, so the result equals ``np.kron(a, b)`` bit for bit (a NaN
    times a NaN aside, whose sign and payload numpy does not fix) and shares
    no memory with either factor.  The multiply writes whole output rows
    from two row expansions of the factors, which hold (1/m + 1/r) of the
    result for an m-row ``a`` and an r-row ``b``: about 7% at 30 x 30, but
    a factor with one row makes the other's expansion as large as the
    result, so a (1, n) ⊗ (r, 1) product peaks near twice its size."""
    return _kron_into(as_matrix(a), as_matrix(b), "A ⊗ B")


def kron_vec(x, y) -> np.ndarray:
    """Kronecker product of two vectors; entry (i-1)|y| + j is x_i * y_j,
    the one product ``np.kron`` forms there, in a fresh array."""
    ax, ay = _as_array(x, "two vectors", 1), _as_array(y, "two vectors", 1)
    _check_dense_budget((ax.size, ay.size), "x ⊗ y")
    return np.multiply.outer(ax, ay).ravel()


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


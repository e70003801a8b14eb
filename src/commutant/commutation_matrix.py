"""The vec-permutation (commutation) matrix K_{p,q}, the commutation tensor
C_{p,q}, and their calculus.

K_{p,q} is the pq x pq permutation matrix with K vec(X) = vec(Xᵀ) for every
p x q matrix X.  It is the axis swap of a (q, p) C-order grid, stored as the
shared shuffle index of :mod:`commutant.tensor`: applying it is one gather,
and the dense matrix is the same shuffle's dense form, built on demand.

C_{p,q} is the same permutation with its row and column indices split into
pairs: the order-4 0/1 tensor of shape (q, p, p, q) whose contraction
against a p x q matrix over its trailing pair is the transpose, and whose
pair unfolding is K_{p,q}.  So one type holds both: C is K's ``backing``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ArgumentError, DimensionError
from .tensor import (
    DenseTensor,
    _check_dense_budget,
    _outer_into,
    _shuffle_dense,
    _shuffle_index,
    as_matrix,
)


def _check_dims(p: int, q: int) -> None:
    if p < 1 or q < 1:
        raise ArgumentError(f"dimensions must be positive, got p={p}, q={q}")


@dataclass(frozen=True)
class CommutationMatrix:
    """K_{p,q}: row s has its 1 in column ``idx[s]`` (0-based).  The index
    is K's only stored form, built on first use; read as an order-4 tensor,
    K is the commutation tensor C_{p,q}, its ``backing``, also built on
    first use."""

    p: int
    q: int

    def __post_init__(self):
        _check_dims(self.p, self.q)

    @cached_property
    def idx(self) -> np.ndarray:
        # vec(X) is X's (q, p) C-order grid; vec(Xᵀ) reads it with the axes swapped
        idx = _shuffle_index((self.q, self.p), (1, 0))
        idx.flags.writeable = False
        return idx

    @cached_property
    def backing(self) -> DenseTensor:
        """C_{p,q}, of shape (q, p, p, q): entry (i, j, k, l) is 1 exactly
        when j = k and i = l (i, l in 1..q; j, k in 1..p), else 0."""
        return DenseTensor._adopt(_shuffle_dense((self.p, self.q), (1, 0), "transpose tensor"))

    def dense(self) -> np.ndarray:
        shuffle = _shuffle_dense((self.q, self.p), (1, 0), f"K_{{{self.p},{self.q}}}")
        return shuffle.reshape(self.p * self.q, -1)


def build_commutation(p: int, q: int) -> CommutationMatrix:
    """Build K_{p,q} structurally: O(1) until its index is first used."""
    return CommutationMatrix(p, q)


def build_ctensor(m: int, n: int) -> CommutationMatrix:
    """The commutation tensor for m x n arguments, which is K_{m,n} read as
    an order-4 tensor; an over-budget ``backing`` is refused here, before
    anything is allocated."""
    k = build_commutation(m, n)
    _check_dense_budget((m * n, m * n), "transpose tensor")
    return k


def tensor_transpose(k: CommutationMatrix, x) -> np.ndarray:
    """The q x p transpose of a p x q matrix, which contracting it against
    C_{p,q}'s trailing index pair yields: a fresh C-order copy of ``x.T``,
    exact on every entry (-0.0, inf and NaN included)."""
    xm = as_matrix(x)
    if xm.shape != (k.p, k.q):
        raise DimensionError(f"expected an {k.p} x {k.q} matrix, got {xm.shape}")
    return xm.T.copy()


def ctensor_flatten(k: CommutationMatrix) -> np.ndarray:
    """C_{p,q} with modes (1,2) paired as rows and (3,4) as columns, first
    mode fastest: K_{p,q}'s dense form, built without the order-4 backing."""
    return k.dense()


def build_commutation_rank1(p: int, q: int) -> np.ndarray:
    """K_{p,q} as a sum of pq rank-1 terms (e_i ⊗ f_j)(f_j ⊗ e_i)ᵀ,
    with e_i in R^p and f_j in R^q.  Independent of :func:`build_commutation`;
    the two constructions must agree exactly.
    """
    _check_dims(p, q)
    size = p * q
    _check_dense_budget((size, size), f"K_{{{p},{q}}}")
    # term (i, j) is the single 1 at row (i, j), column (j, i)
    return np.einsum("ad,bc->abcd", np.eye(p), np.eye(q)).reshape(size, size)


def apply(k: CommutationMatrix, x) -> np.ndarray:
    """K x without materializing K: entry s of the result is x[idx[s]]."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise DimensionError(f"expected a vector, got order {arr.ndim}")
    if arr.size != k.p * k.q:
        raise DimensionError(f"vector length {arr.size} != {k.p}*{k.q}")
    return arr[k.idx]


def det_commutation(p: int, q: int) -> int:
    """Determinant of K_{p,q}, the sign of its row permutation, in closed
    form: (-1)^(p(p-1)q(q-1)/4) (Magnus & Neudecker 1979).  K is not built;
    the tests check the closed form against the parity of ``idx``.
    """
    _check_dims(p, q)
    return -1 if (p * (p - 1) // 2) * (q * (q - 1) // 2) % 2 else 1


def trace_commutation(p: int) -> int:
    """Diagonal sum of K_{p,p}: the number of fixed points of its permutation."""
    return int(np.count_nonzero(build_commutation(p, p).idx == np.arange(p * p)))


def transpose_matrix(k: CommutationMatrix) -> CommutationMatrix:
    """K_{p,q}ᵀ, which equals K_{q,p}."""
    return build_commutation(k.q, k.p)


def conjugate_kron(a, b) -> np.ndarray:
    """A ⊗ B computed as K_{p,q} (B ⊗ A) K_{q,p} for square A (p x p) and
    B (q x q) — the two Kronecker orders are similar via commutation matrices.
    Both K factors swap the (q, p) index pair of B ⊗ A, so the conjugation
    is a permutation of axes: the outer product of B and A is written once,
    each entry one product, straight into the layout of A ⊗ B.  The result
    is a fresh array equal to ``np.kron(A, B)`` bit for bit."""
    am, bm = as_matrix(a), as_matrix(b)
    if am.shape[0] != am.shape[1] or bm.shape[0] != bm.shape[1]:
        raise DimensionError(f"both factors must be square, got {am.shape}, {bm.shape}")
    p, q = am.shape[0], bm.shape[0]
    # outer(B, A) has axes (k, l, i, j); A ⊗ B stores them as (i, k, j, l)
    return _outer_into(bm, am, (p, q, p, q), (1, 3, 0, 2), "A ⊗ B").reshape(p * q, p * q)

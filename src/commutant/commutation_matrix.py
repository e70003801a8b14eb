"""The vec-permutation (commutation) matrix K_{p,q} and its calculus.

K_{p,q} is the pq x pq permutation matrix with K vec(X) = vec(Xᵀ) for every
p x q matrix X.  It is the axis swap of a (q, p) C-order grid, stored as the
shared shuffle index of :mod:`commutant.tensor`: applying it is one gather,
and the dense matrix is the same shuffle's dense form, built on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ArgumentError, DimensionError, RangeError
from .permutation import Permutation
from .tensor import _check_dense_budget, _outer_into, _shuffle_dense, _shuffle_index, as_matrix


def _check_dims(p: int, q: int) -> None:
    if p < 1 or q < 1:
        raise ArgumentError(f"dimensions must be positive, got p={p}, q={q}")


@dataclass(frozen=True)
class CommutationMatrix:
    """K_{p,q}: row s has its 1 in column ``idx[s]`` (0-based), or ``perm(s)``
    (1-based); both are built on first use."""

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
    def perm(self) -> Permutation:
        return Permutation((self.idx + 1).tolist())

    def dense(self) -> np.ndarray:
        shuffle = _shuffle_dense((self.q, self.p), (1, 0), f"K_{{{self.p},{self.q}}}")
        return shuffle.reshape(self.p * self.q, -1)


def build_commutation(p: int, q: int) -> CommutationMatrix:
    """Build K_{p,q} structurally: O(1) until its index is first used."""
    return CommutationMatrix(p, q)


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


def block_to_flat(i: int, j: int, k: int, l: int, p: int, q: int) -> tuple[int, int]:
    """Map block coordinates (block (i,j), in-block (k,l)) of the p x q grid
    of q x p blocks to flat 1-based matrix coordinates (s, t)."""
    _check_dims(p, q)
    if not (1 <= i <= p and 1 <= j <= q and 1 <= k <= q and 1 <= l <= p):
        raise RangeError(f"block coordinates ({i},{j},{k},{l}) outside p={p}, q={q}")
    return (i - 1) * q + k, (j - 1) * p + l


def flat_to_block(s: int, t: int, p: int, q: int) -> tuple[int, int, int, int]:
    """Inverse of :func:`block_to_flat`."""
    _check_dims(p, q)
    if not (1 <= s <= p * q and 1 <= t <= p * q):
        raise RangeError(f"flat coordinates ({s},{t}) outside 1..{p * q}")
    i, k = (s - 1) // q + 1, (s - 1) % q + 1
    j, l = (t - 1) // p + 1, (t - 1) % p + 1
    return i, j, k, l


def det_commutation(p: int, q: int) -> int:
    """Determinant of K_{p,q}: the sign of its row permutation.

    For the square case this is (-1)^(p(p-1)/2); computed here from the
    stored permutation so the closed form stays a testable claim.
    """
    return build_commutation(p, q).perm.sign()


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

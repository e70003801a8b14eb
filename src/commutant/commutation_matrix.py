"""The vec-permutation (commutation) matrix K_{p,q}, the commutation tensor
C_{p,q}, and their calculus.

K_{p,q} is the pq x pq permutation matrix with K vec(X) = vec(Xᵀ) for every
p x q matrix X.  It is the axis swap of a (q, p) C-order grid, the perfect
shuffle (Van Loan 2000), so it acts as a transpose copy and stores nothing.
Its row index, the shared shuffle index of :mod:`commutant.tensor`, is its
serialized form, and its dense matrix is the same shuffle's dense form; both
are built only when read.

C_{p,q} is the same permutation with its row and column indices split into
pairs: the order-4 0/1 tensor of shape (q, p, p, q) whose contraction
against a p x q matrix over its trailing pair is the transpose, and whose
pair unfolding is K_{p,q}.  So one type holds both: C is K's ``backing``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ArgumentError, DimensionError, _is_integer
from .tensor import (
    DenseTensor,
    _as_array,
    _check_dense_budget,
    _kron_into,
    _shuffle_dense,
    _shuffle_index,
    as_matrix,
)


def _check_dims(p: int, q: int) -> None:
    if not (_is_integer(p) and _is_integer(q) and p >= 1 and q >= 1):
        raise ArgumentError(f"dimensions must be positive integers, got p={p}, q={q}")


@dataclass(frozen=True)
class CommutationMatrix:
    """K_{p,q}: row s has its 1 in column ``idx[s]`` (0-based).  K acts by
    :func:`apply`, a transpose copy that reads no index; ``idx``, built and
    cached only when read, serves the tests, the ``kron-conjugation`` oracle
    and library callers.  K's writers read no ``idx``: they write from the
    closed form, ``serialize._k_columns``.  Read as an order-4 tensor, K is
    the commutation tensor C_{p,q}, its ``backing``, also built when first
    read."""

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
    """Build K_{p,q} structurally, in O(1); :func:`apply` keeps it so, and
    only reading ``idx`` or ``backing`` stores anything."""
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
    """K x without materializing K or its index: x read as the (q, p) C-order
    grid of vec(X), written out transposed as a fresh C-order vector.  Entry
    s is x[idx[s]], the same bits (-0.0, inf and NaN payloads included);
    ``flatten`` copies even at p = 1 or q = 1, where the transpose is x."""
    arr = _as_array(x, "a vector", 1)
    if arr.size != k.p * k.q:
        raise DimensionError(f"vector length {arr.size} != {k.p}*{k.q}")
    return arr.reshape(k.q, k.p).T.flatten()


def det_commutation(p: int, q: int) -> int:
    """Determinant of K_{p,q}, the sign of its row permutation, in closed
    form: (-1)^(p(p-1)q(q-1)/4) (Magnus & Neudecker 1979).  K is not built;
    the tests check the closed form against the parity of ``idx``.
    """
    _check_dims(p, q)
    return -1 if (p * (p - 1) // 2) * (q * (q - 1) // 2) % 2 else 1


def trace_commutation(p: int) -> int:
    """Diagonal sum of K_{p,p}: the number of fixed points of its permutation,
    which are exactly the p diagonal pairs (i, i), so p.  K is not built; the
    tests count the fixed points of ``idx``."""
    _check_dims(p, p)
    return p


def transpose_matrix(k: CommutationMatrix) -> CommutationMatrix:
    """K_{p,q}ᵀ, which equals K_{q,p}."""
    return build_commutation(k.q, k.p)


def conjugate_kron(a, b) -> np.ndarray:
    """A ⊗ B, the Kronecker product of square A (p x p) and B (q x q), which
    equals K_{p,q} (B ⊗ A) K_{q,p}: the two Kronecker orders are similar via
    commutation matrices.  The conjugation only permutes entries, so A ⊗ B
    is written directly, by the one Kronecker kernel of
    :func:`~commutant.veckron.kron`, as a fresh array equal to
    ``np.kron(A, B)`` bit for bit (a NaN times a NaN aside, as for
    :func:`~commutant.veckron.kron`); the ``kron-conjugation`` verify suite
    checks the paper's identity against B ⊗ A conjugated through K's index."""
    am, bm = as_matrix(a), as_matrix(b)
    if am.shape[0] != am.shape[1] or bm.shape[0] != bm.shape[1]:
        raise DimensionError(f"both factors must be square, got {am.shape}, {bm.shape}")
    return _kron_into(am, bm, "A ⊗ B")

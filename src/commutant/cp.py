"""Rank-1 and CP (sum-of-rank-1) tensor forms.

A rank-1 order-m tensor is an outer product of m vectors; a CP form stores
one factor matrix per mode, column r of mode k being the k-th vector of the
r-th rank-1 term.  A symmetric rank-1 term is a power y^{⊗m}
(:func:`sym_power`).

Factor-level operations (permuting factors, applying a matrix per mode)
commute with materialization; tests pin those diagrams down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ArgumentError,
    DimensionError,
    DomainError,
    RankError,
    SymmetryError,
    _as_list,
    _is_integer,
)
from .permutation import Permutation
from .tensor import (
    DenseTensor,
    TensorLike,
    _adjacent_swaps,
    _as_array,
    _check_dense_budget,
    _check_order,
    _frozen,
    _outer,
    _rank1_residual,
    _tensor_entries,
    as_matrix,
)

#: bound on the rank-1 residual, relative to the entry scale, for
#: :func:`extract_sym_rank1`
RANK1_MINOR_TOL = 1e-10
#: relative tolerance for symmetry probes
SYMMETRY_TOL = 1e-9
#: coordinates of a unit vector below this are treated as zero when picking
#: the leading coordinate
STRUCTURE_LEAD_TOL = 1e-12


def rank1(vectors: Sequence) -> DenseTensor:
    """Outer product of m vectors: entry (i_1, ..., i_m) is the product of
    the i_k-th coordinates.  Every vector must be nonzero."""
    vecs = [_as_array(v, "vectors", 1) for v in _as_list(vectors, "rank-1 factors")]
    if not vecs:
        raise ArgumentError("at least one vector is required")
    for v in vecs:
        if v.size < 1:
            raise DimensionError("factors must be nonempty vectors")
        if not v.any():
            raise DomainError("zero vector is not a rank-1 factor")
    _check_dense_budget(tuple(v.size for v in vecs), "rank-1 tensor")
    return DenseTensor._adopt(_outer(vecs))


def sym_power(x, m: int) -> DenseTensor:
    """The m-fold symmetric outer power x^{⊗m} of a nonzero vector."""
    if not _is_integer(m) or m < 1:
        raise ArgumentError(f"power must be a positive integer, got {m}")
    _check_order(m, "symmetric power")  # before [x] * m is built
    return rank1([x] * m)


@dataclass(frozen=True, eq=False)
class CpForm:
    """CP form with one n x R factor matrix per mode (R = rank, columns are
    factors).  Zero columns are rejected: every stored term is genuinely
    rank 1."""

    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.factors:
            raise ArgumentError("at least one factor matrix is required")
        first = self.factors[0]
        for f in self.factors:
            if f.ndim != 2:
                raise DimensionError("factor matrices must be 2-D")
            if f.shape[1] != first.shape[1]:
                raise DimensionError("all factor matrices must share a column count")
            if f.shape[1] < 1:
                raise ArgumentError("rank must be at least 1")
            if not np.all(f.any(axis=0)):
                raise DomainError("factor matrices must have no zero column")

    @property
    def m(self) -> int:
        return len(self.factors)

    @property
    def rank(self) -> int:
        return self.factors[0].shape[1]

    @property
    def extents(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)


def cp_form(factors: Sequence) -> CpForm:
    return CpForm(tuple(_frozen(as_matrix(f)) for f in _as_list(factors, "factor matrices")))


def materialize(cp: CpForm) -> DenseTensor:
    """Dense sum of the rank-1 terms."""
    _check_dense_budget(cp.extents, "CP form")
    out = np.zeros(cp.extents)
    for r in range(cp.rank):
        out += _outer([f[:, r] for f in cp.factors])
    return DenseTensor._adopt(out)


def permute_cp_factors(cp: CpForm, sigma: Permutation) -> CpForm:
    """Move the factor matrix of mode k to mode sigma(k), so that
    materializing commutes with the mode shuffle
    :func:`~commutant.tensor.permute_modes` by sigma."""
    if sigma.degree != cp.m:
        raise DimensionError(f"permutation degree {sigma.degree} != {cp.m} modes")
    inv = sigma.inverse()
    return CpForm(tuple(cp.factors[inv(k) - 1] for k in range(1, cp.m + 1)))


def _symmetric(arr: np.ndarray, scale: float) -> bool:
    """Whether ``arr``, cubical with the finite entry scale ``scale`` =
    max|arr|, is invariant under every adjacent transposition of its modes
    to ``SYMMETRY_TOL`` times max(1, scale)."""
    tol = SYMMETRY_TOL * max(1.0, scale)
    return not any(np.max(np.abs(swapped - arr)) > tol for swapped in _adjacent_swaps(arr, 1))


def is_symmetric(a: TensorLike) -> bool:
    """Whether an order-m cubical tensor is invariant (to relative tolerance
    ``SYMMETRY_TOL``) under every mode shuffle; adjacent transpositions
    suffice.  A tensor with a non-finite entry is never symmetric."""
    arr = _tensor_entries(a)
    if any(d != arr.shape[0] for d in arr.shape):
        return False
    scale = float(np.abs(arr).max())  # finite exactly when every entry is
    return scale < math.inf and _symmetric(arr, scale)


def extract_sym_rank1(a: TensorLike) -> tuple[float, np.ndarray]:
    """Recover (lambda, y) with ``a == lambda * y^{⊗m}`` and |y| = 1 from a
    symmetric rank-1 tensor.

    Canonical representative: for even m the leading nonzero coordinate of y
    is positive and lambda carries the sign; for odd m, lambda >= 0 takes
    precedence and the sign of y follows.

    Raises DomainError on a non-finite entry, SymmetryError if the input is
    not symmetric, RankError if it is not rank 1: the rank-1 residual must
    be at most ``RANK1_MINOR_TOL`` times the entry scale max|a|.  (A 2x2
    unfolding minor of rank-1-plus-E is about scale * |E|, so this matches
    the former bound of 1e-10 on the minors at unit scale.)  The entries
    are read in place, and their scale once.
    """
    arr = _tensor_entries(a)
    n = arr.shape[0]
    if any(d != n for d in arr.shape):
        raise DimensionError(f"symmetric tensors are cubical, got shape {arr.shape}")
    scale = float(np.abs(arr).max())
    if not scale < math.inf:  # an inf, or a NaN that the max propagates
        raise DomainError("tensor has a non-finite entry")
    if not _symmetric(arr, scale):
        raise SymmetryError("input is not symmetric")
    if scale == 0.0:
        raise RankError("zero tensor has no rank-1 form")
    if _rank1_residual(arr) > RANK1_MINOR_TOL * scale:
        raise RankError("tensor is not rank 1")
    unfolding = arr.reshape(n, -1, order="F")
    col = int(np.argmax(np.linalg.norm(unfolding, axis=0)))
    y = unfolding[:, col]
    y = y / np.linalg.norm(y)
    lead = int(np.argmax(np.abs(y) > STRUCTURE_LEAD_TOL))
    if y[lead] < 0:
        y = -y
    lam = float(np.dot(arr.ravel(order="F"), sym_power(y, arr.ndim).values))
    if arr.ndim % 2 == 1 and lam < 0:
        lam, y = -lam, -y
    return lam, y

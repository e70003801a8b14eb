"""Rank-1 tensor forms.

A rank-1 order-m tensor is an outer product of m vectors (:func:`rank1`);
a symmetric rank-1 tensor is a power y^{⊗m} (:func:`sym_power`), and
:func:`extract_sym_rank1` recovers (lambda, y) from lambda * y^{⊗m}.
"""

from __future__ import annotations

import math
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
from .tensor import (
    DenseTensor,
    TensorLike,
    _adjacent_swaps,
    _as_array,
    _check_dense_budget,
    _check_order,
    _outer,
    _rank1_residual,
    _tensor_entries,
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
    pivot = int(np.abs(arr).argmax())  # a NaN counts as the max
    scale = abs(float(arr.flat[pivot]))
    if not scale < math.inf:  # an inf, or a NaN
        raise DomainError("tensor has a non-finite entry")
    if not _symmetric(arr, scale):
        raise SymmetryError("input is not symmetric")
    if scale == 0.0:
        raise RankError("zero tensor has no rank-1 form")
    if _rank1_residual(arr, pivot) > RANK1_MINOR_TOL * scale:
        raise RankError("tensor is not rank 1")
    # both norms are formed as np.linalg.norm forms them, for its bits: the
    # column norms by one reduction, the vector norm as the dot product of
    # a contiguous copy, since np.dot on the strided column rounds otherwise
    unfolding = arr.reshape(n, -1, order="F")
    col = int(np.argmax(np.sqrt(np.add.reduce(unfolding * unfolding, axis=0))))
    y = unfolding[:, col]
    flat = y.ravel(order="K")
    y = y / np.sqrt(flat.dot(flat))
    lead = int(np.argmax(np.abs(y) > STRUCTURE_LEAD_TOL))
    if y[lead] < 0:
        y = -y
    # y is a unit vector, so its power needs none of sym_power's checks
    lam = float(np.dot(arr.ravel(order="F"), _outer([y] * arr.ndim).ravel(order="F")))
    if arr.ndim % 2 == 1 and lam < 0:
        lam, y = -lam, -y
    return lam, y

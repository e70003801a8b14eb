"""Commutation tensors and their generalizations.

Three constructions live here:

* :class:`CommutationTensor4` — the order-4 tensor that performs matrix
  transposition under a trailing-pair contraction.  For an m x n argument it
  has shape (n, m, m, n), and flattening its leading index pair against its
  trailing pair reproduces K_{m,n}: both are one axis shuffle of the tensor
  module, as are the mode-permutation tensors.
* :class:`Gct` — a generalized commutation tensor of order 2m built from m
  square generator matrices; its entries are products
  ``gen_1[i_1, j_1] * ... * gen_m[i_m, j_m]``.  With all generators equal to
  one permutation matrix these form a group under :func:`gct_multiply`.
* :class:`ModePermTensor` — the order-2m tensor whose action under
  :func:`~commutant.tensor.mul_2m_on_m` shuffles the modes of an order-m
  tensor by a permutation of the mode positions (not of the entries).

The acting orientation is fixed package-wide: an order-2m tensor acts on the
LEFT, ``mul_2m_on_m(dense(T), a)``, contracting T's trailing m modes against
all modes of ``a``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ArgumentError, DimensionError, DomainError, PreconditionError
from .permutation import Permutation
from .tensor import (
    DenseTensor,
    TensorLike,
    _adjacent_swaps,
    _even_order_cubic,
    _outer_into,
    _pair_unfold,
    _shuffle_dense,
    _square_stack,
    as_matrix,
    as_tensor,
    balance_unfold,
    contract_34,
    mul_2m,
)

#: entries of a permutation-structured result match 0/1 to this tolerance
STRUCTURE_TOL = 1e-12
#: tolerance for the mutual-inverse precondition of check_nonneg_inverse
INVERSE_CHECK_TOL = 1e-9
#: relative part of that test, np.allclose's default rtol
_ALLCLOSE_RTOL = 1e-5


@dataclass(frozen=True, eq=False)
class CommutationTensor4:
    """Order-4 transpose tensor for m x n arguments; backing shape (n, m, m, n)."""

    m: int
    n: int
    backing: DenseTensor


def build_ctensor(m: int, n: int) -> CommutationTensor4:
    """Entry (i, j, k, l) is 1 exactly when j = k and i = l
    (i, l in 1..n; j, k in 1..m), else 0.
    """
    if m < 1 or n < 1:
        raise ArgumentError(f"dimensions must be positive, got m={m}, n={n}")
    arr = _shuffle_dense((m, n), (1, 0), "transpose tensor")
    return CommutationTensor4(m, n, DenseTensor._adopt(arr))


def tensor_transpose(kt: CommutationTensor4, x) -> np.ndarray:
    """Transpose an m x n matrix by contracting it against the tensor's
    trailing index pair; returns the n x m transpose."""
    xm = as_matrix(x)
    if xm.shape != (kt.m, kt.n):
        raise DimensionError(f"expected an {kt.m} x {kt.n} matrix, got {xm.shape}")
    return contract_34(kt.backing, xm)


def ctensor_flatten(kt: CommutationTensor4) -> np.ndarray:
    """Pair modes (1,2) as rows and (3,4) as columns, first mode fastest.
    The result is the commutation matrix K_{m,n}."""
    return _pair_unfold(kt.backing.array)


def ctensor_power(exponent: int, n: int) -> DenseTensor:
    """The exponent-fold product of the square-case (n x n) transpose tensor
    with itself.  Powers collapse: every odd power equals the tensor itself
    and every even power equals its square (the identity element)."""
    if exponent < 1:
        raise ArgumentError(f"exponent must be positive, got {exponent}")
    base = build_ctensor(n, n).backing
    out = base
    for _ in range(exponent - 1):
        out = mul_2m(out, base)
    return out


@dataclass(frozen=True, eq=False)
class Gct:
    """Generalized commutation tensor: m generator matrices, each n x n.

    The dense form is the order-2m tensor with entries
    ``prod_k generators[k][i_k, j_k]``.
    """

    m: int
    n: int
    generators: tuple[np.ndarray, ...]


def build_gct(generators) -> Gct:
    gens = _square_stack(generators, "generators")
    return Gct(len(gens), gens[0].shape[0], gens)


def gct_from_permutation(pi: Permutation, m: int) -> Gct:
    """The group-case tensor: m copies of the permutation matrix of pi."""
    if m < 1:
        raise ArgumentError(f"m must be positive, got {m}")
    return build_gct([pi.matrix()] * m)


def gct_identity(m: int, n: int) -> Gct:
    return build_gct([np.eye(n)] * m)


def gct_dense(g: Gct) -> DenseTensor:
    """The dense order-2m tensor, C-contiguous in its (i_1..i_m, j_1..j_m)
    axis order.  Its C-order unfolding is kron(g_1, ..., g_m), built right
    to left: each step writes one generator times the Kronecker product of
    the generators after it once, straight into its final layout.  The
    tensor adopts the result, which shares no memory with the generators."""
    acc = np.ones((1, 1))
    for gen in reversed(g.generators):
        size = acc.shape[0]
        acc = _outer_into(gen, acc, (g.n, size, g.n, size), (0, 2, 1, 3), "dense GCT")
        acc = acc.reshape(g.n * size, g.n * size)
    return DenseTensor._adopt(acc.reshape((g.n,) * (2 * g.m)))


def gct_multiply(a: Gct, b: Gct) -> Gct:
    """Product in the order-2m algebra, computed slotwise: generator k of the
    result is ``a.generators[k] @ b.generators[k]``.  Matches
    :func:`~commutant.tensor.mul_2m` on the dense forms."""
    if (a.m, a.n) != (b.m, b.n):
        raise DimensionError(f"size mismatch: ({a.m},{a.n}) vs ({b.m},{b.n})")
    return build_gct([ga @ gb for ga, gb in zip(a.generators, b.generators)])


def gct_inverse(g: Gct) -> Gct:
    """Slotwise inverse; raises SingularMatrixError if any generator is
    singular at the pivot threshold."""
    return build_gct([linalg.inv(gen) for gen in g.generators])


@dataclass(frozen=True)
class ModePermTensor:
    """Order-2m tensor acting as a mode shuffle by tau (a permutation of the
    m mode positions): entry (i_1..i_m, j_1..j_m) is 1 exactly when
    j_k = i_{tau(k)} for every k."""

    m: int
    n: int
    tau: Permutation


def build_mode_perm_tensor(tau: Permutation, n: int) -> ModePermTensor:
    if n < 1:
        raise ArgumentError(f"n must be positive, got {n}")
    return ModePermTensor(tau.degree, n, tau)


def mode_perm_dense(t: ModePermTensor) -> DenseTensor:
    # j_k = i_{tau(k)} is the transpose by tau^-1 (tau itself only for involutions)
    axes = t.tau.inverse().zero_based()
    return DenseTensor._adopt(_shuffle_dense((t.n,) * t.m, axes, "mode-permutation tensor"))


def is_pair_symmetric(a: TensorLike) -> bool:
    """Whether simultaneously shuffling the first and last m modes by the
    same permutation leaves the tensor exactly unchanged.

    Exact for every m: the m-1 adjacent transpositions, each applied to both
    halves at once, generate S_m, so invariance under them is invariance
    under every permutation.
    """
    t = as_tensor(a)
    _even_order_cubic(t, "is_pair_symmetric")
    return all(np.array_equal(s, t.array) for s in _adjacent_swaps(t.array, 2))


def _monomial_support(arr: np.ndarray, m: int):
    """The nonzero entries of an order-2m tensor whose balance unfolding has
    exactly one nonzero per row and per column, as (row multi-index, column
    multi-index, values); None for any other tensor."""
    shape = arr.shape[:m]
    size = math.prod(shape)
    # scan in memory order: np.nonzero on a strided order-2m view builds its
    # multi-indices entry by entry, several times slower than this
    axes = np.argsort(arr.strides)[::-1]
    walk = arr.transpose(axes) != 0
    if np.count_nonzero(walk) != size:
        return None
    found = np.unravel_index(np.flatnonzero(walk), walk.shape)
    idx = tuple(found[k] for k in np.argsort(axes))
    rows, cols = idx[:m], idx[m:]
    for part in (rows, cols):
        if not np.all(np.bincount(np.ravel_multi_index(part, shape), minlength=size) == 1):
            return None
    return rows, cols, arr[idx]


def is_balanced_permutation(a: TensorLike, tol: float = STRUCTURE_TOL) -> bool:
    """Whether the balance unfolding is a permutation matrix: every entry
    within ``tol`` of 0 or 1, with exactly one 1 per row and per column."""
    t = as_tensor(a)
    m, _ = _even_order_cubic(t, "is_balanced_permutation")
    ones = np.abs(t.array - 1.0) <= tol
    zeros = np.abs(t.array) <= tol
    return bool(np.all(ones | zeros)) and _monomial_support(ones, m) is not None


def _near_pattern(scaled: np.ndarray, ones_at) -> bool:
    """``np.allclose(scaled, E, atol=INVERSE_CHECK_TOL)`` for the 0/1 tensor
    E with ones at ``ones_at``, without building E: |x - 1| <= atol + rtol
    there and |x| <= atol elsewhere, NaN and inf failing.  ``scaled`` must be
    nonnegative and is overwritten."""
    ones = scaled[ones_at]
    scaled[ones_at] = 0.0
    return bool(
        np.all(np.abs(ones - 1.0) <= INVERSE_CHECK_TOL + _ALLCLOSE_RTOL)
        and scaled.max() <= INVERSE_CHECK_TOL
    )


def _monomial_products_near_identity(b: np.ndarray, rows, cols, scale) -> bool:
    """Whether U_a U_b and U_b U_a are near the identity, for the U_a whose
    only nonzeros are ``scale`` at (rows, cols).  U_a U_b is U_b with row
    cols[k] scaled by scale[k] and moved to row rows[k]; U_b U_a is U_b with
    column rows[k] scaled by scale[k] and moved to column cols[k].  So each
    is near the identity iff its scaled U_b is near 1 at every
    (cols[k], rows[k]) and near 0 elsewhere."""
    half = b.shape[: len(rows)]
    row_scale, col_scale = np.empty(half), np.empty(half)
    row_scale[cols], col_scale[rows] = scale, scale
    pad = (None,) * len(rows)
    return _near_pattern(b * row_scale[(...,) + pad], cols + rows) and _near_pattern(
        b * col_scale[pad + (...,)], cols + rows
    )


def _dense_products_near_identity(ta: DenseTensor, tb: DenseTensor, size: int) -> bool:
    ident = np.eye(size)
    return np.allclose(
        balance_unfold(mul_2m(ta, tb)), ident, atol=INVERSE_CHECK_TOL
    ) and np.allclose(balance_unfold(mul_2m(tb, ta)), ident, atol=INVERSE_CHECK_TOL)


def check_nonneg_inverse(a: TensorLike, b: TensorLike) -> list[tuple[int, int]]:
    """Verify that two entrywise-nonnegative order-2m tensors are mutual
    inverses, and certify the structural consequence: the balance unfolding
    of each factor has exactly one positive entry per row and per column
    (it is a generalized permutation matrix).  A nonnegative matrix with a
    nonnegative inverse is monomial (Berman & Plemmons, Nonnegative
    Matrices in the Mathematical Sciences).

    Both products are tested against the identity with ``np.allclose``'s
    rule at ``atol=INVERSE_CHECK_TOL``.  When the unfolding U_a of ``a`` has
    exactly one nonzero per row and per column, U_a = D P, so U_a U_b is U_b
    with its rows scaled by D and permuted and U_b U_a is U_b with its
    columns scaled and permuted; every other term of either product is an
    exact 0 * x.  Both products are then read off U_b in O(N^2) for
    N = n^m, with the same values as the matrix products.  Any other
    ``a`` (a stray tiny entry, a positive blob) takes the two dense
    O(N^3) products.

    Returns the 0-based (row, column) positions of the positive entries of
    the unfolding of ``a``, sorted by row.  Raises DomainError on a
    non-finite or negative entry and PreconditionError if the operands are
    not mutual inverses.
    """
    ta, tb = as_tensor(a), as_tensor(b)
    m, n = _even_order_cubic(ta, "check_nonneg_inverse")
    if ta.shape != tb.shape:
        raise DimensionError(f"operand shapes differ: {ta.shape} vs {tb.shape}")
    if not (np.isfinite(ta.array).all() and np.isfinite(tb.array).all()):
        raise DomainError("operands must be finite")
    if np.any(ta.array < 0) or np.any(tb.array < 0):
        raise DomainError("operands must be entrywise nonnegative")
    support = _monomial_support(ta.array, m)
    if support is None:
        inverse = _dense_products_near_identity(ta, tb, n**m)
    else:
        inverse = _monomial_products_near_identity(tb.array, *support)
    if not inverse:
        raise PreconditionError("operands are not mutual inverses")
    # the witnesses are the entries above STRUCTURE_TOL; unless U_a is
    # monomial with all of them there, find them and test their pattern
    if support is None or support[2].min() <= STRUCTURE_TOL:
        support = _monomial_support(ta.array > STRUCTURE_TOL, m)
    if support is None:
        raise PreconditionError(
            "unfolding is not a generalized permutation matrix; "
            "inputs are numerically degenerate"
        )
    rows, cols, _ = support
    witness = np.empty(n**m, dtype=np.intp)
    witness[np.ravel_multi_index(rows, (n,) * m, order="F")] = np.ravel_multi_index(
        cols, (n,) * m, order="F"
    )
    return list(enumerate(witness.tolist()))

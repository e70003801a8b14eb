"""The one order-2m operator, which unifies generalized commutation tensors,
mode-permutation tensors and rank preservers.

:class:`Gct` is the one operator: m square generator matrices and a mode
permutation tau.  tau = id is a generalized commutation tensor (with one
permutation matrix on every mode these form a group under
:func:`gct_multiply`), identity generators a mode-permutation tensor, and
invertible generators a rank preserver.  At m = 2 the swap's dense form is
the square commutation tensor C_{n,n} of :mod:`commutant.commutation_matrix`,
so Marcus's A -> P A Q and A -> P Aᵀ Q are one operator with one compose
rule, inverse, dense form and action.

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
    _check_dense_budget,
    _check_order,
    _even_order_cubic,
    _mode_products,
    _outer_into,
    _shuffle_dense,
    _square_stack,
    as_tensor,
    balance_unfold,
    mul_2m,
)

#: entries of a permutation-structured result match 0/1 to this tolerance
STRUCTURE_TOL = 1e-12
#: tolerance for the mutual-inverse precondition of check_nonneg_inverse
INVERSE_CHECK_TOL = 1e-9
#: relative part of that test, np.allclose's default rtol
_ALLCLOSE_RTOL = 1e-5


@dataclass(frozen=True, eq=False)
class Gct:
    """m generator matrices B_k, each n x n, and a mode permutation tau: the
    operator that maps the rank-1 tensor with factors ``alpha_k`` to the one
    with factors ``B_k @ alpha_{tau(k)}``.  Built only by :func:`_operator`."""

    generators: tuple[np.ndarray, ...]
    tau: Permutation

    @property
    def m(self) -> int:
        return len(self.generators)

    @property
    def n(self) -> int:
        return self.generators[0].shape[0]


def _operator(generators, tau: Permutation | None = None) -> Gct:
    """The one validator: freeze square generators of one size and check
    tau's degree (tau = id when None)."""
    gens = _square_stack(generators, "generators")
    tau = Permutation.identity(len(gens)) if tau is None else tau
    if tau.degree != len(gens):
        raise DimensionError(f"permutation degree {tau.degree} != {len(gens)} generators")
    return Gct(gens, tau)


def build_gct(generators) -> Gct:
    """The GCT of ``generators`` (tau = id); they need not be invertible."""
    return _operator(generators)


def gct_from_permutation(pi: Permutation, m: int) -> Gct:
    """The group-case tensor: m copies of the permutation matrix of pi."""
    _check_dense_budget((pi.degree, pi.degree), "permutation matrix")
    return _operator([pi.matrix()] * m)


def gct_identity(m: int, n: int) -> Gct:
    return build_mode_perm_tensor(Permutation.identity(m), n)


def build_mode_perm_tensor(sigma: Permutation, n: int) -> Gct:
    """The operator that shuffles modes as ``permute_modes(., sigma)``:
    identity generators and tau = sigma^-1.  Its dense entry
    (i_1..i_m, j_1..j_m) is 1 exactly when j_k = i_{sigma(k)} for every k."""
    if n < 1:
        raise ArgumentError(f"n must be positive, got {n}")
    _check_dense_budget((n, n), "identity generator")
    return _operator([np.eye(n)] * sigma.degree, sigma.inverse())


def gct_multiply(a: Gct, b: Gct) -> Gct:
    """Product in the order-2m algebra, ``a`` after ``b``, from the generators:
    generator k is ``a.B_k @ b.B_{a.tau(k)}``, and the permutation
    ``b.tau ∘ a.tau``.  Matches :func:`~commutant.tensor.mul_2m` on the dense
    forms."""
    if (a.m, a.n) != (b.m, b.n):
        raise DimensionError(f"size mismatch: ({a.m},{a.n}) vs ({b.m},{b.n})")
    gens = [g @ b.generators[t - 1] for g, t in zip(a.generators, a.tau.images)]
    return _operator(gens, b.tau.compose(a.tau))


def gct_inverse(g: Gct) -> Gct:
    """The inverse operator: generators ``B_{tau^-1(k)}^-1`` and permutation
    tau^-1.  Raises SingularMatrixError if any generator is singular at the
    pivot threshold."""
    inv = g.tau.inverse()
    return _operator([linalg.inv(g.generators[t - 1]) for t in inv.images], inv)


def gct_dense(g: Gct) -> DenseTensor:
    """The order-2m tensor that acts as ``g`` under ``mul_2m_on_m``: entry
    (i, j) is ``prod_k B_k[i_k, l_k]`` at l_k = j_{tau(k)}.  Identity
    generators give the C-contiguous 0/1 array of one axis shuffle; others
    the C-order unfolding kron(B_1, ..., B_m), each entry written once, with
    the trailing modes then viewed by tau.  Shares no memory with g."""
    m, n = g.m, g.n
    _check_order(2 * m, "dense GCT")
    eye = np.eye(n).tobytes()  # bytes, so -0.0 takes the kron route like any entry
    if all(gen.tobytes() == eye for gen in g.generators):
        arr = _shuffle_dense((n,) * m, g.tau.zero_based(), "mode-permutation tensor")
        return DenseTensor._adopt(arr)
    acc = np.ones((1, 1))
    for gen in reversed(g.generators):
        size = acc.shape[0]
        acc = _outer_into(gen, acc, (n, size, n, size), (0, 2, 1, 3), "dense GCT")
        acc = acc.reshape(n * size, n * size)
    trailing = tuple(m + k for k in g.tau.inverse().zero_based())
    return DenseTensor._adopt(acc.reshape((n,) * (2 * m)).transpose(tuple(range(m)) + trailing))


mode_perm_dense = gct_dense  # the one dense form, under its mode-permutation name


def apply_rank_preserver(g: Gct, a: TensorLike) -> DenseTensor:
    """Apply the operator to an order-m tensor without its dense form:
    shuffle the modes so that mode k draws its factor from mode tau(k),
    then act with generators[k] on mode k, in O(m n^(m+1)).  On a rank-1
    input with factors alpha_k the output factors are generators[k] @
    alpha_{tau(k)}."""
    t = as_tensor(a)
    if t.order != g.m or any(d != g.n for d in t.shape):
        raise DimensionError(f"tensor shape {t.shape} does not fit {g.m} modes of size {g.n}")
    # permute_modes by tau^-1, whose transpose axes are tau's own images
    shuffled = np.transpose(t.array, g.tau.zero_based())
    return DenseTensor._adopt(_mode_products(shuffled, enumerate(g.generators)))


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


def is_balanced_permutation(a: TensorLike) -> bool:
    """Whether the balance unfolding is a permutation matrix: every entry
    within ``STRUCTURE_TOL`` of 0 or 1, with exactly one 1 per row and per
    column."""
    t = as_tensor(a)
    m, _ = _even_order_cubic(t, "is_balanced_permutation")
    ones = np.abs(t.array - 1.0) <= STRUCTURE_TOL
    zeros = np.abs(t.array) <= STRUCTURE_TOL
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

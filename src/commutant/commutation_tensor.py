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
from functools import cached_property

import numpy as np

from . import linalg
from .errors import ArgumentError, DimensionError, DomainError, PreconditionError, _is_integer
from .permutation import Permutation
from .tensor import (
    DenseTensor,
    TensorLike,
    _adjacent_swaps,
    _check_dense_budget,
    _check_order,
    _even_order_cubic,
    _kron_into,
    _mode_products,
    _shuffle_dense,
    _shuffle_index,
    _square_stack,
    _tensor_entries,
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

    @cached_property
    def _monomial(self):
        """``linalg._nonneg_monomial`` of the generator stack: the group case's
        (cols, vals), or None.  Run once per operator, and shared by
        :func:`gct_dense` and :func:`gct_inverse`."""
        return linalg._nonneg_monomial(np.array(self.generators))


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
    if not _is_integer(m) or m < 1:
        raise ArgumentError(f"m must be a positive integer, got {m}")
    _check_order(m, "group-case tensor")  # before the m copies are listed
    _check_dense_budget((pi.degree, pi.degree), "permutation matrix")
    return _operator([pi.matrix()] * m)


def gct_identity(m: int, n: int) -> Gct:
    return build_mode_perm_tensor(Permutation.identity(m), n)


def build_mode_perm_tensor(sigma: Permutation, n: int) -> Gct:
    """The operator that shuffles modes as ``permute_modes(., sigma)``:
    identity generators and tau = sigma^-1.  Its dense entry
    (i_1..i_m, j_1..j_m) is 1 exactly when j_k = i_{sigma(k)} for every k."""
    if not _is_integer(n) or n < 1:
        raise ArgumentError(f"n must be a positive integer, got {n}")
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
    tau^-1.  Each distinct generator is inverted once and its inverse shared
    by the modes that hold it.  Nonnegative monomial generators (the
    operator's one monomial test) are inverted together, as their
    transposed reciprocals, and the inverse is handed its own pattern: row
    cols[k, i] of its generator holds 1/vals[k, i] at column i, which is
    what ``linalg._nonneg_monomial`` would find, so neither its dense form
    nor its inverse scans it again.  Raises SingularMatrixError if any
    generator is singular at the pivot threshold, the first in the order
    of the inverse's modes."""
    inv = g.tau.inverse()
    keys = [t - 1 for t in inv.images]
    pattern = g._monomial
    if pattern is not None:
        cols, vals = pattern
        found, inv_pattern = linalg._monomial_inverses((cols[keys], vals[keys]))
    inverses = {}
    for j, k in enumerate(keys):
        b = g.generators[k]
        if id(b) in inverses:
            continue
        inverses[id(b)] = linalg.inv(b) if pattern is None else found[j]
    out = _operator([inverses[id(g.generators[k])] for k in keys], inv)
    if pattern is not None:
        vars(out)["_monomial"] = inv_pattern  # the cached property's slot
    return out


def _scatter_dense(pattern, tau: Permutation, n: int) -> DenseTensor | None:
    """The dense form of generators with one nonzero per row and per column,
    ``vals[k, i]`` at column ``cols[k, i]`` of B_k for ``pattern`` = (cols,
    vals), as a C-contiguous zero array with each row's one product
    scattered in; None when a product overflows.  Refused before anything
    is allocated when its N x N size is over the budget.  The tensor keeps
    where the products went as its support, unless one underflowed to 0 and
    left its row with no nonzero.  Row i's product is formed as the kron
    route forms it, B_1·(B_2·(…·B_m)), and lands in kron column
    sum_k cols[k, i_k]·n^(m-k), read through tau (at tau = id, that
    column itself)."""
    m = tau.degree
    size = n**m
    _check_dense_budget((size, size), "dense GCT")
    cols, vals = pattern
    kron_col, prods = cols[-1], vals[-1]
    with np.errstate(over="ignore"):  # an overflow is the kron route's to report
        for k in range(m - 2, -1, -1):
            kron_col = np.add.outer(cols[k] * n ** (m - 1 - k), kron_col).ravel()
            prods = np.multiply.outer(vals[k], prods).ravel()
    if not prods.max() < math.inf:
        return None
    # the result first, as ``_shuffle_dense`` allocates it: the heap's
    # high-water mark, hence a process's peak RSS, follows this order
    arr = np.zeros((n,) * (2 * m))
    rows = np.arange(size)
    index = kron_col  # kron column -> column: at tau = id the gather is arange
    if not tau.is_identity():
        index = _shuffle_index((n,) * m, tau.zero_based())[kron_col]
    arr.reshape(size, size)[rows, index] = prods
    return DenseTensor._adopt(arr, (rows, index, prods) if prods.min() > 0.0 else None)


def gct_dense(g: Gct) -> DenseTensor:
    """The order-2m tensor that acts as ``g`` under ``mul_2m_on_m``: entry
    (i, j) is ``prod_k B_k[i_k, l_k]`` at l_k = j_{tau(k)}.  Shares no memory
    with g.  Two routes, chosen by the generators, with the same bytes
    wherever both apply:

    * The group case, generators with one nonzero per row and per column,
      every entry finite with its sign bit clear and every product finite:
      a C-contiguous zero array with the n^m products scattered in, O(n^m)
      arithmetic.  Identity generators are the case whose products are all
      1: their form is the 0/1 array of one axis shuffle, built by
      ``tensor._shuffle_dense`` as K and C are.
    * Any other stack: the C-order unfolding kron(B_1, ..., B_m),
      accumulated from a copy of B_m by m - 1 calls of the Kronecker
      kernel, each writing whole output rows, with the trailing modes then
      viewed by tau.

    On the first route's inputs the kron route writes +0.0 off the pattern:
    each such entry is a product of finite nonnegative factors, one of them
    +0.0, and no partial product overflows, so no 0·inf NaN arises.  A
    stack whose products overflow (1e200·1e200) takes the kron route and
    keeps its NaNs.  An over-budget form is refused before allocating: the
    group case as its N x N unfolding, any other stack at the kron route's
    first step B_k ⊗ acc over the budget, from B_m ⊗ [1] on."""
    m, n = g.m, g.n
    _check_order(2 * m, "dense GCT")
    eye = np.eye(n).tobytes()  # bytes, so -0.0 is no identity entry
    if all(gen.tobytes() == eye for gen in g.generators):
        arr = _shuffle_dense((n,) * m, g.tau.zero_based(), "mode-permutation tensor")
        return DenseTensor._adopt(arr)
    pattern = g._monomial
    if pattern is not None:
        t = _scatter_dense(pattern, g.tau, n)
        if t is not None:
            return t
    _check_dense_budget((n, 1, n, 1), "dense GCT")  # as the step B_m ⊗ [1]
    acc = g.generators[-1].copy()
    for gen in reversed(g.generators[:-1]):
        acc = _kron_into(gen, acc, "dense GCT")
    trailing = tuple(m + k for k in g.tau.inverse().zero_based())
    return DenseTensor._adopt(acc.reshape((n,) * (2 * m)).transpose(tuple(range(m)) + trailing))


mode_perm_dense = gct_dense  # the one dense form, under its mode-permutation name


def apply_rank_preserver(g: Gct, a: TensorLike) -> DenseTensor:
    """Apply the operator to an order-m tensor without its dense form:
    shuffle the modes so that mode k draws its factor from mode tau(k),
    then act with generators[k] on mode k, in O(m n^(m+1)).  On a rank-1
    input with factors alpha_k the output factors are generators[k] @
    alpha_{tau(k)}.

    A matrix is read in F order, a C-ordered one through a copy that is
    dropped once the first mode product is made, so that its layout does
    not change the bits: BLAS may round the two layouts apart.  At m >= 3
    that product reads the operand into C order in either layout."""
    arr = _tensor_entries(a)
    if arr.ndim != g.m or any(d != g.n for d in arr.shape):
        raise DimensionError(f"tensor shape {arr.shape} does not fit {g.m} modes of size {g.n}")
    # permute_modes by tau^-1, whose transpose axes are tau's own images
    axes, pairs = g.tau.zero_based(), enumerate(g.generators)
    if arr.ndim == 2:
        arr = _mode_products(np.asfortranarray(arr).transpose(axes), [next(pairs)])
    else:
        arr = arr.transpose(axes)
    return DenseTensor._adopt(_mode_products(arr, pairs))


def is_pair_symmetric(a: TensorLike) -> bool:
    """Whether simultaneously shuffling the first and last m modes by the
    same permutation leaves the tensor exactly unchanged.

    Exact for every m: the m-1 adjacent transpositions, each applied to both
    halves at once, generate S_m, so invariance under them is invariance
    under every permutation.
    """
    arr = _tensor_entries(a)
    _even_order_cubic(arr.shape, "is_pair_symmetric")
    return all(np.array_equal(s, arr) for s in _adjacent_swaps(arr, 2))


def _monomial_support(arr: np.ndarray, m: int):
    """The nonzero entries of an order-2m tensor whose balance unfolding has
    exactly one nonzero per row and per column, as (rows, cols, values):
    the flat index, first mode slowest, of each one's first m and last m
    coordinates, and its value; None for any other tensor.  The mask is
    scanned in C order, so each nonzero's flat index is a (row, column)
    pair."""
    size = arr.shape[0] ** m
    mask = arr != 0
    found = np.flatnonzero(mask)
    if found.size != size:
        return None
    rows, cols = np.divmod(found, size)
    # found is sorted, so one nonzero per row makes rows 0..size-1
    if not (rows == np.arange(size)).all() or not np.bincount(cols, minlength=size).all():
        return None
    return rows, cols, arr[mask]


def is_balanced_permutation(a: TensorLike) -> bool:
    """Whether the balance unfolding is a permutation matrix: every entry
    within ``STRUCTURE_TOL`` of 0 or 1, with exactly one 1 per row and per
    column."""
    arr = _tensor_entries(a)
    m, _ = _even_order_cubic(arr.shape, "is_balanced_permutation")
    ones = np.abs(arr - 1.0) <= STRUCTURE_TOL
    zeros = np.abs(arr) <= STRUCTURE_TOL
    return bool(np.all(ones | zeros)) and _monomial_support(ones, m) is not None


def _pattern_near_one(ones: np.ndarray, scale: np.ndarray) -> bool:
    """Whether U_b's entries ``ones`` at U_a's transposed pattern, each times
    U_a's entry ``scale`` there, are all within ``np.allclose``'s tolerance
    of 1: the entries of both products on their diagonal."""
    return bool(np.all(np.abs(ones * scale - 1.0) <= INVERSE_CHECK_TOL + _ALLCLOSE_RTOL))


def _monomial_products_near_identity(b: np.ndarray, rows, cols, scale) -> bool:
    """Whether U_a U_b and U_b U_a are near the identity, for the U_a whose
    only nonzeros are ``scale`` at (rows, cols), by ``np.allclose``'s rule
    at ``atol=INVERSE_CHECK_TOL``.  U_a U_b is U_b with row cols[k] scaled
    by scale[k] and moved to row rows[k]; U_b U_a is U_b with column rows[k]
    scaled by scale[k] and moved to column cols[k].  So each is near the
    identity iff its scaled U_b is near 1 at every (cols[k], rows[k]), the
    same products in both, and near 0 elsewhere.  Rounding is monotone, so
    for s > 0 the largest of s * x over a row or column is s times its
    largest x: one copy of U_b with the pattern zeroed, and its row and
    column maxima, decide both without forming either scaled U_b."""
    size = len(rows)
    off = b.copy().reshape(size, size)
    if not _pattern_near_one(off[cols, rows], scale):
        return False
    off[cols, rows] = 0.0
    row_scale, col_scale = np.empty(size), np.empty(size)
    row_scale[cols], col_scale[rows] = scale, scale
    return bool(
        (row_scale * off.max(axis=1)).max() <= INVERSE_CHECK_TOL
        and (col_scale * off.max(axis=0)).max() <= INVERSE_CHECK_TOL
    )


def _dense_products_near_identity(ta: np.ndarray, tb: np.ndarray, size: int) -> bool:
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
    N = n^m, with the same values as the matrix products.

    The input every caller gives, a monomial U_a and a U_b that is nonzero
    exactly on U_a's transposed pattern, is read once per operand: a
    C-order nonzero scan of ``a`` and a nonzero count of ``b``.  A dense
    form that :func:`gct_dense` scattered from generators other than the
    identity is not read at all: it keeps its support, which stands for the
    scan or the count.  Every other entry of both is then an exact zero,
    so the domain checks and the inverse test read only the 2N support
    entries, in O(N).  Any other ``b`` takes full passes over both
    operands: their domain checks and U_b's off-pattern row and column
    maxima.  Any other ``a`` (a stray tiny entry, a positive blob) takes
    the two dense O(N^3) products.  A finite pair whose products overflow
    is refused without a RuntimeWarning.

    Returns the 0-based (row, column) positions of the positive entries of
    the unfolding of ``a``, sorted by row.  Raises DomainError on a
    non-finite or negative entry and PreconditionError if the operands are
    not mutual inverses.
    """
    ta, tb = _tensor_entries(a), _tensor_entries(b)
    m, n = _even_order_cubic(ta.shape, "check_nonneg_inverse")
    if ta.shape != tb.shape:
        raise DimensionError(f"operand shapes differ: {ta.shape} vs {tb.shape}")
    # the support a DenseTensor keeps from its build, or a scan with
    # comparisons only, so a NaN, an inf or a negative value warns nowhere
    # before the domain checks
    kept_a, kept_b = (t._support if isinstance(t, DenseTensor) else None for t in (a, b))
    support = kept_a or _monomial_support(ta, m)
    exact = False
    if support is not None:
        rows, cols, scale = support
        ones = tb.flat[cols * n**m + rows]
        # b nonzero on U_a's transposed pattern and nowhere else (a NaN
        # counts as nonzero): every other entry of both is an exact zero
        nonzeros = len(kept_b[0]) if kept_b is not None else np.count_nonzero(tb != 0)
        exact = bool(np.all(ones != 0)) and nonzeros == n**m
    # one min and one max of the values that can fail accept the finite
    # nonnegative case (NaN propagates, so it fails); only a failure pays
    # for the checks that pick the message
    values = (scale, ones) if exact else (ta, tb)
    if not all(0.0 <= v.min() and v.max() < math.inf for v in values):
        if not (np.isfinite(ta).all() and np.isfinite(tb).all()):
            raise DomainError("operands must be finite")
        if np.any(ta < 0) or np.any(tb < 0):
            raise DomainError("operands must be entrywise nonnegative")
    # a finite pair whose products overflow is no inverse pair; inf says so
    with np.errstate(over="ignore"):
        if support is None:
            inverse = _dense_products_near_identity(ta, tb, n**m)
        elif exact:
            # the off-pattern maxima of both products are exact zeros
            inverse = _pattern_near_one(ones, scale)
        else:
            inverse = _monomial_products_near_identity(tb, *support)
    if not inverse:
        raise PreconditionError("operands are not mutual inverses")
    # the witnesses are the entries above STRUCTURE_TOL; unless U_a is
    # monomial with all of them there, find them and test their pattern
    if support is None or support[2].min() <= STRUCTURE_TOL:
        support = _monomial_support(ta > STRUCTURE_TOL, m)
    if support is None:
        raise PreconditionError(
            "unfolding is not a generalized permutation matrix; "
            "inputs are numerically degenerate"
        )
    rows, cols, _ = support
    # the unfolding's flat indices run first mode fastest: reverse the modes
    unfold = _shuffle_index((n,) * m, range(m - 1, -1, -1))
    witness = np.empty(n**m, dtype=np.intp)
    witness[unfold[rows]] = unfold[cols]
    return list(enumerate(witness.tolist()))

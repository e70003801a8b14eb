"""Dense real tensors with a fixed canonical layout, plus the contraction
algebra used throughout the package.

Conventions
-----------
* Mode indices ``i_k`` are 1-based in the math and in every docstring; numpy
  storage is 0-based.  Public APIs take coordinates and permutation images
  1-based.
* The canonical flat layout of a tensor of shape ``(d_1, ..., d_m)`` places
  entry ``(i_1, ..., i_m)`` at offset ``sum_k (i_k - 1) * d_1*...*d_{k-1}``,
  i.e. the first mode varies fastest (column-major / Fortran order).
  ``vec`` of a matrix, the unfolding (:func:`balance_unfold`) and every
  serialization in this package derive from this single rule.
* Tensors are immutable after construction.  A :class:`DenseTensor` may be
  shared freely between threads; all operations return new tensors.
"""

from __future__ import annotations

import math
import numbers
from typing import Sequence, Union

import numpy as np

from .errors import MAX_DENSE_ENTRIES, MAX_ORDER  # the budget, also read as tensor.MAX_*
from .errors import ArgumentError, DimensionError, RangeError, _as_list, _is_integer
from .errors import _check_dense_budget, _check_flat, _check_order, _even_order_cubic

TensorLike = Union["DenseTensor", np.ndarray, Sequence]

def _shuffle_index(shape: Sequence[int], axes: Sequence[int]) -> np.ndarray:
    """The gather index that reads an array of ``shape`` as ``transpose(axes)``."""
    return np.arange(math.prod(shape)).reshape(shape).transpose(axes).ravel()


def _shuffle_dense(shape: Sequence[int], axes: Sequence[int], what: str) -> np.ndarray:
    """That gather's 0/1 matrix, C-contiguous in shape ``shape[axes] + shape``;
    refused before allocating when its N x N size is over the budget."""
    size = math.prod(shape)
    _check_dense_budget((size, size), what)
    arr = np.zeros(tuple(shape[a] for a in axes) + tuple(shape))
    arr.reshape(size, size)[np.arange(size), _shuffle_index(shape, axes)] = 1.0
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    """A read-only copy of ``arr``."""
    out = arr.copy()
    out.flags.writeable = False
    return out


def _square_stack(matrices, what: str) -> tuple[np.ndarray, ...]:
    """Frozen copies of one or more nonempty square matrices of one size, in
    one pass: each distinct matrix is read, copied and frozen once, its
    copy shared by every mode that holds it, and its shape checked once.
    Every matrix is read before any shape is refused, so an unreadable
    matrix is an ArgumentError wherever it stands; the DimensionError lists
    every mode's shape."""
    matrices = _as_list(matrices, what)  # holds every input, so no id is reused
    if not matrices:
        raise ArgumentError(f"at least one of the {what} is required")
    copies, mats = {}, []
    for m in matrices:
        copy = copies.get(id(m))
        if copy is None:
            copy = copies[id(m)] = _frozen(as_matrix(m))
        mats.append(copy)
    n = mats[0].shape[0]
    if n < 1 or any(m.shape != (n, n) for m in copies.values()):
        raise DimensionError(
            f"{what} must be nonempty, square and of one size: {[m.shape for m in mats]}"
        )
    return tuple(mats)


def _outer(factors) -> np.ndarray:
    """Outer product of vectors or matrices, axes in factor order."""
    out = np.array(1.0)
    for f in factors:
        out = np.multiply.outer(out, f)
    return out


def _rank1_residual(arr: np.ndarray, pivot: int) -> float:
    """max|arr - â| for the rank-1 candidate â = f_1 ⊗ (f_2/piv) ⊗ ... ⊗
    (f_m/piv), where piv is the entry at the C-order flat index ``pivot``,
    the caller's ``np.abs(arr).argmax()``, and f_k the mode-k fibre through
    it.  â equals ``arr`` iff ``arr`` is rank 1, i.e. iff every unfolding
    has rank <= 1 (Kolda & Bader, SIAM Review 2009).  Costs O(m * arr.size);
    ``arr`` must be finite and nonzero, and is never written.

    The pivot's coordinates are taken by divmod, and â starts from f_1
    itself, not from 1.0 ⊗ f_1: 1.0 * x is x, so the bits are those of the
    outer products from a 0-d 1.0.  The residual is formed in â's own
    buffer, except at m = 1, where â is a view of ``arr``."""
    coords = ()
    for d in reversed(arr.shape):
        pivot, i = divmod(pivot, d)
        coords = (i,) + coords
    piv = arr[coords]
    cand = arr[(slice(None),) + coords[1:]]
    for k in range(1, arr.ndim):
        cand = np.multiply.outer(cand, arr[coords[:k] + (slice(None),) + coords[k + 1 :]] / piv)
    resid = np.subtract(arr, cand, out=None if arr.ndim == 1 else cand)
    return float(np.abs(resid, out=resid).max())


def _kron_into(x: np.ndarray, y: np.ndarray, what: str) -> np.ndarray:
    """kron(x, y) of an (m, n) and an (r, s) matrix as a fresh C-contiguous
    (m·r, n·s) array, refused before any allocation when over the budget.

    Entry (i·r + k, j·s + l) is the one product ``x[i, j] * y[k, l]``, so the
    result is ``np.kron(x, y)`` byte for byte; only a NaN times a NaN has no
    fixed bytes, as IEEE 754 leaves its sign and payload open and numpy's
    loops pick either operand's.  Both factors are first expanded to rows of
    the output's width, x's entries each repeated s times and y's rows each
    tiled n times, so that one multiply writes whole output rows.  The
    expansions hold (1/m + 1/r) of the result's entries."""
    (m, n), (r, s) = x.shape, y.shape
    _check_dense_budget((m, r, n, s), what)
    wide_x = x.repeat(s, axis=1)
    wide_y = y[:, None, :].repeat(n, axis=1).reshape(r, n * s)
    out = np.multiply(wide_x[:, None, :], wide_y, out=np.empty((m, r, n * s)))
    return out.reshape(m * r, n * s)


def _adjacent_swaps(arr: np.ndarray, blocks: int):
    """Yield ``arr`` with modes k and k+1 swapped in each of ``blocks`` equal
    runs of modes at once, for every k.  These adjacent transpositions
    generate all shuffles applied to every run alike."""
    m = arr.ndim // blocks
    for k in range(m - 1):
        axes = list(range(arr.ndim))
        for i in range(k, arr.ndim, m):
            axes[i], axes[i + 1] = axes[i + 1], axes[i]
        yield np.transpose(arr, axes)


def _mode_products(arr: np.ndarray, pairs) -> np.ndarray:
    """Unchecked ``arr`` times ``mat`` on 0-based mode ``axis``, for each
    ``(axis, mat)`` pair in turn.  Each is one ``np.dot`` on the operands
    ``np.tensordot(mat, arr, ([1], [axis]))`` would build, ``mat`` and
    ``arr`` with ``axis`` first as an (n, -1) matrix, so its bits are
    tensordot's, without tensordot's axis handling."""
    for axis, mat in pairs:
        later = range(axis + 1, arr.ndim)
        moved = arr.transpose((axis, *range(axis), *later))
        flat = moved.reshape(moved.shape[0], -1)
        out = np.dot(mat, flat).reshape(mat.shape[:1] + moved.shape[1:])
        arr = out.transpose((*range(1, axis + 1), 0, *later))
    return arr


def _stacked_mode_products(arr: np.ndarray, pairs) -> np.ndarray:
    """:func:`_mode_products` of each tensor of a stack along ``arr``'s first
    axis, mode ``axis`` counted after it.  Each product is one ``np.matmul``
    over the stack, which makes for every tensor the BLAS product
    :func:`_mode_products` makes for it alone; one product of the whole
    stack would not, as BLAS may round a dot product differently with other
    columns beside it."""
    for axis, mat in pairs:
        later = range(axis + 2, arr.ndim)
        moved = arr.transpose((0, axis + 1, *range(1, axis + 1), *later))
        out = np.matmul(mat, moved.reshape(moved.shape[:2] + (-1,)))
        out = out.reshape(moved.shape[:1] + mat.shape[:1] + moved.shape[2:])
        arr = out.transpose((0, *range(2, axis + 2), 1, *later))
    return arr


def _nesting_depth(data) -> int:
    """The modes nested sequences imply, read down their first elements."""
    depth = 0
    while isinstance(data, (list, tuple)) and data:
        depth, data = depth + 1, data[0]
    return depth + np.ndim(data)


def _as_array(value, what: str, ndim: int | None = None) -> np.ndarray:
    """The one array intake: ``value`` as float64, converted only if it is not
    (a DenseTensor's frozen array as is), so it may share the caller's memory.
    Ragged data and None, dict, string or complex entries are an
    ArgumentError; more than MAX_ORDER modes, or other than ``ndim``, a
    DimensionError.  ``what`` names the expected argument, as "a matrix"."""
    if isinstance(value, DenseTensor):
        arr = value.array
    else:
        try:
            arr = np.asarray(value)
            # None, dict and string entries would convert to NaN, a TypeError or parsed
            # text; an object array of numbers (an int over 64 bits among them) converts
            if arr.dtype.kind == "O":
                numeric = all(isinstance(v, numbers.Real) for v in arr.flat)
            else:
                numeric = arr.dtype.kind in "biuf"
            if not numeric:
                raise ValueError(f"{arr.dtype} entries")
            arr = arr.astype(float, copy=False)
        except (ValueError, OverflowError) as exc:  # not regular, not numbers; an int past float
            _check_order(_nesting_depth(value), "array")
            raise ArgumentError(f"not a regular array of numbers for {what}: {exc}") from None
    if ndim is not None and arr.ndim != ndim:
        raise DimensionError(f"expected {what}, got order {arr.ndim}")
    return arr


def _check_extents(arr: np.ndarray) -> None:
    """A tensor's shape rule: at least one mode, every extent positive."""
    if arr.ndim < 1:
        raise DimensionError("a tensor has at least one mode")
    if any(d < 1 for d in arr.shape):
        raise ArgumentError(f"every mode extent must be positive, got {arr.shape}")


class DenseTensor:
    """An immutable dense real tensor of order >= 1.

    Parameters
    ----------
    data : array-like
        A regular array of numbers, read by the one array intake (ragged data
        and None, dict, string or complex entries are an ArgumentError, more
        than MAX_ORDER modes a DimensionError); copied once in its layout and
        frozen, so a caller who later writes to ``data`` does not change the
        tensor.  All entries are stored as float64.  The package's own
        builders hand over the arrays they allocate through the private
        :meth:`_adopt`, which freezes in place instead of copying.  A builder
        that scatters one nonzero into each row and each column of a square
        C-order unfolding also hands over where: ``_support`` is then (rows,
        cols, values) of those nonzeros, the flat indices of each one's
        leading and trailing half of the modes, and None on every other
        tensor.  The entries never change, so it stays true.

    Examples
    --------
    >>> t = DenseTensor([[1.0, 2.0], [3.0, 4.0]])
    >>> t.shape
    (2, 2)
    >>> t.entry(2, 1)
    3.0
    >>> list(t.values)
    [1.0, 3.0, 2.0, 4.0]
    """

    __slots__ = ("_array", "_support")

    def __init__(self, data):
        arr = _as_array(data, "a tensor")
        # a list or tuple was read into a new array; any other array may be the caller's
        self._own(arr if isinstance(data, (list, tuple)) else arr.copy(order="K"))

    @classmethod
    def _adopt(cls, arr: np.ndarray, support=None) -> "DenseTensor":
        """Wrap a float64 array without copying it, and freeze it in place.
        Only for an array the caller allocated itself and shares with no
        one: never for a view of an array that came from outside."""
        t = cls.__new__(cls)
        t._own(arr)
        t._support = support
        return t

    def _own(self, arr: np.ndarray) -> None:
        """Validate ``arr`` and keep it as the entries, frozen in place."""
        _check_extents(arr)
        arr.flags.writeable = False
        self._array = arr
        self._support = None

    @classmethod
    def from_flat(cls, shape: Sequence[int], values: list[float] | np.ndarray) -> "DenseTensor":
        """Rebuild from a shape and canonical (first-mode-fastest) flat values,
        read and copied as the constructor reads its data."""
        shape = tuple(_as_list(shape, "a shape"))
        vals = _as_array(values, "tensor values")
        return cls(vals.reshape(_check_flat(shape, vals.size), order="F"))

    @property
    def array(self) -> np.ndarray:
        """Read-only ndarray view of the entries."""
        return self._array

    @property
    def shape(self) -> tuple[int, ...]:
        return self._array.shape

    @property
    def order(self) -> int:
        """Number of modes."""
        return self._array.ndim

    @property
    def values(self) -> np.ndarray:
        """Entries in canonical flat order (first mode fastest)."""
        return self._array.ravel(order="F")

    def entry(self, *coords: int) -> float:
        """Entry at 1-based coordinates."""
        if len(coords) != self.order:
            raise DimensionError(f"{len(coords)} coordinates for order {self.order}")
        if not all(map(_is_integer, coords)):
            raise ArgumentError(f"coordinates must be integers, got {coords}")
        for c, d in zip(coords, self.shape):
            if not 1 <= c <= d:
                raise RangeError(f"coordinate {c} outside 1..{d}")
        return float(self._array[tuple(c - 1 for c in coords)])

    def __repr__(self) -> str:
        return f"DenseTensor(shape={self.shape})"


def _tensor_entries(value: TensorLike) -> np.ndarray:
    """The entries ``DenseTensor(value)`` would hold, for reading only: read
    by the one intake and refused as the constructor refuses, but not
    copied, so they may be the caller's own memory."""
    arr = _as_array(value, "a tensor")
    if not isinstance(value, DenseTensor):
        _check_extents(arr)
    return arr


def as_matrix(value: TensorLike) -> np.ndarray:
    """Coerce to a 2-D float ndarray through the intake of :func:`_as_array`."""
    return _as_array(value, "a matrix", 2)


def _contract_half(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """``np.tensordot(a, b, axes=m)`` for an order-2m ``a`` whose last m
    extents are ``b``'s first m.  It is one ``np.dot`` on the reshapes
    tensordot builds, ``a`` as (N, N) and ``b`` as (N, -1), each copied
    only where its layout needs it, as there; so the BLAS call and its
    bits are tensordot's, without tensordot's axis handling."""
    size = math.prod(a.shape[:m])
    out = np.dot(a.reshape(size, size), b.reshape(size, -1))
    return out.reshape(a.shape[:m] + b.shape[m:])


def mul_2m(a: TensorLike, b: TensorLike) -> DenseTensor:
    """Product of two order-2m tensors with all extents equal:

    ``(ab)[i_1..i_m, j_1..j_m] = sum_{k_1..k_m} a[i, k] * b[k, j]``.
    """
    ta, tb = _tensor_entries(a), _tensor_entries(b)
    m, n = _even_order_cubic(ta.shape, "mul_2m")
    mb, nb = _even_order_cubic(tb.shape, "mul_2m")
    if (m, n) != (mb, nb):
        raise DimensionError(f"operand shapes differ: {ta.shape} vs {tb.shape}")
    return DenseTensor._adopt(_contract_half(ta, tb, m))


def mul_2m_on_m(a: TensorLike, x: TensorLike) -> DenseTensor:
    """Apply an order-2m tensor to an order-m tensor:

    ``(a·x)[i_1..i_m] = sum_{k_1..k_m} a[i, k] * x[k]``.
    """
    ta, tx = _tensor_entries(a), _tensor_entries(x)
    m, n = _even_order_cubic(ta.shape, "mul_2m_on_m")
    if tx.ndim != m or any(d != n for d in tx.shape):
        raise DimensionError(
            f"operand of shape {tx.shape} does not match acting tensor of shape {ta.shape}"
        )
    return DenseTensor._adopt(_contract_half(ta, tx, m))


def balance_unfold(a: TensorLike) -> np.ndarray:
    """Unfold an order-2m tensor to the n^m x n^m matrix that pairs the first
    m modes (rows) against the last m modes (columns), both in canonical
    flat order.  This is a pure memory reinterpretation, and it is a ring
    homomorphism: the unfolding of ``mul_2m(a, b)`` is the matrix product of
    the unfoldings.  Returns a fresh writable array, copied once.
    """
    arr = _tensor_entries(a)
    m, n = _even_order_cubic(arr.shape, "balance_unfold")
    # one copy that reverses the modes within each half, then a reshape
    rev = tuple(range(m - 1, -1, -1)) + tuple(range(2 * m - 1, m - 1, -1))
    return np.array(arr.transpose(rev), order="C").reshape(n**m, n**m)


def permute_modes(a: TensorLike, tau) -> DenseTensor:
    """Shuffle modes: entry ``(i_1, ..., i_m)`` of the result is
    ``a[i_{tau(1)}, ..., i_{tau(m)}]``.
    """
    arr = _tensor_entries(a)
    if tau.degree != arr.ndim:
        raise DimensionError(f"permutation degree {tau.degree} != order {arr.ndim}")
    # np.transpose's axes[k] names the source axis that becomes result axis k,
    # which is the inverse of the index-level rule above.
    return DenseTensor(np.transpose(arr, tau.inverse().zero_based()))


def identity_tensor(m: int, n: int) -> DenseTensor:
    """Order-m tensor with 1 at every diagonal position (i, i, ..., i)."""
    if not (_is_integer(m) and _is_integer(n) and m >= 1 and n >= 1):
        raise ArgumentError(f"m and n must be positive integers, got m={m}, n={n}")
    _check_order(m, "identity tensor")  # before (n,) * m is built
    _check_dense_budget((n,) * m, "identity tensor")
    arr = np.zeros((n,) * m)
    arr[(np.arange(n),) * m] = 1.0
    return DenseTensor._adopt(arr)

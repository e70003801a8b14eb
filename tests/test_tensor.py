import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commutant import (
    ArgumentError,
    DenseTensor,
    DimensionError,
    DomainError,
    Permutation,
    RangeError,
    apply_rank_preserver,
    balance_unfold,
    build_gct,
    gct_dense,
    identity_tensor,
    mul_2m,
    mul_2m_on_m,
    permute_modes,
    rank_preserver,
)
from commutant import errors as errors_mod
from commutant import tensor as tensor_mod


class TestDenseTensor:
    def test_layout_first_mode_fastest(self):
        t = DenseTensor([[1.0, 2.0], [3.0, 4.0]])
        assert list(t.values) == [1.0, 3.0, 2.0, 4.0]
        assert t.entry(2, 1) == 3.0
        back = DenseTensor.from_flat((2, 2), t.values)
        assert np.array_equal(back.array, t.array)

    def test_entry_matches_flat_offset(self):
        rng = np.random.default_rng(3)
        t = DenseTensor(rng.standard_normal((2, 3, 2)))
        for coords in itertools.product(range(1, 3), range(1, 4), range(1, 3)):
            offset = np.ravel_multi_index(tuple(c - 1 for c in coords), t.shape, order="F")
            assert t.entry(*coords) == t.values[offset]

    def test_immutable(self):
        t = DenseTensor([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            t.array[0, 0] = 9.0

    def test_validation(self):
        with pytest.raises(DimensionError):
            DenseTensor(3.0)
        with pytest.raises(ArgumentError):
            DenseTensor(np.zeros((2, 0)))
        with pytest.raises(DimensionError):
            DenseTensor.from_flat((2, 2), [1.0, 2.0, 3.0])
        with pytest.raises(RangeError):
            DenseTensor([1.0, 2.0]).entry(3)

    @pytest.mark.parametrize(
        "data",
        [
            [[1.0, 2.0], [3.0]],
            [[1.0], [[2.0]]],
            ["a"],
            # not a silent NaN, numpy's TypeError, or a string parsed as a number
            [1, None],
            [[1.0, 2.0], [None, 4.0]],
            {"a": 1},
            [{"a": 1}],
            ["1.5"],
            [1.0, "2"],
            # not Python's untyped OverflowError from the float conversion
            [10**400],
            [[1, -(10**400)], [2, 3]],
        ],
    )
    def test_irregular_data_is_an_argument_error(self, data):
        with pytest.raises(ArgumentError, match="not a regular array of numbers"):
            DenseTensor(data)

    @pytest.mark.parametrize(
        "data",
        [[[1, 2], [3, 4]], [[1.0, 2.0], [3.0, 4.0]], np.array([[1, 2], [3, 4]]),
         np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[1.0, 2.0], [3.0, 4.0]]).T.T],
    )
    def test_numeric_data_keeps_its_values_and_shares_nothing(self, data):
        t = DenseTensor(data)
        assert t.array.dtype == np.float64
        assert t.array.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        if isinstance(data, np.ndarray):
            assert not np.shares_memory(t.array, data)

    def test_integers_over_64_bits_keep_their_values(self):
        # numpy reads these as an object array; its entries are all numbers
        assert DenseTensor([[1, 2**70], [10**30, 4]]).array.tolist() == [
            [1.0, 2.0**70], [1e30, 4.0]
        ]

    def test_an_array_is_copied_once(self):
        x = np.random.default_rng(4).standard_normal((64, 64, 8))
        DenseTensor(x)  # numpy's first-call caches are not the copy's
        tracemalloc.start()
        try:
            t = DenseTensor(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(t.array, x) and peak <= 1.25 * x.nbytes

    def test_nesting_over_max_order_is_a_dimension_error(self):
        data = [1.0]
        for _ in range(tensor_mod.MAX_ORDER - 1):
            data = [data]
        assert DenseTensor(data).order == tensor_mod.MAX_ORDER
        for _ in range(6):
            data = [data]
        with pytest.raises(DimensionError, match="order 70"):
            DenseTensor(data)


def mode_n_product(t, mat, k):
    """The mode-k product (k 1-based) by the one kernel that the operator
    action and ``vec_sandwich`` run on, with I on every other mode."""
    t = np.asarray(t)
    mats = [np.eye(d) for d in t.shape]
    mats[k - 1] = np.asarray(mat)
    return tensor_mod._mode_products(t, mats)


class TestModeNProduct:
    def test_scaling_matrix(self):
        out = mode_n_product(np.eye(2), [[2.0, 0.0], [0.0, 2.0]], 1)
        assert np.array_equal(out, 2 * np.eye(2))

    def test_identity_matrix_is_neutral_every_mode(self):
        rng = np.random.default_rng(0)
        t = rng.standard_normal((2, 3, 4))
        for k, d in enumerate(t.shape, start=1):
            assert np.array_equal(mode_n_product(t, np.eye(d), k), t)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_against_loop_oracle(self, k):
        rng = np.random.default_rng(10 + k)
        t = rng.standard_normal((2, 3, 4))
        rows = 5
        m = rng.standard_normal((rows, t.shape[k - 1]))
        got = mode_n_product(t, m, k)
        shape = list(t.shape)
        shape[k - 1] = rows
        want = np.zeros(shape)
        for idx in itertools.product(*(range(d) for d in shape)):
            src = list(idx)
            total = 0.0
            for j in range(t.shape[k - 1]):
                src[k - 1] = j
                total += m[idx[k - 1], j] * t[tuple(src)]
            want[idx] = total
        assert np.allclose(got, want, atol=1e-12)

    def test_rows_become_new_extent(self):
        t = np.zeros((2, 3))
        out = mode_n_product(t, np.zeros((5, 3)), 2)
        assert out.shape == (2, 5)


def cyclic_gemms(arr, mats):
    """The rule the kernel must reproduce bit for bit, one step at a time:
    read the operand in C order, then for each mode in turn take the
    C-ordered array as an (n, rest) matrix and multiply its transpose by
    ``mat.T`` in one GEMM, whose (rest, n') result holds that mode last."""
    arr = np.array(arr, order="C")
    for mat in mats:
        out = np.dot(arr.reshape(arr.shape[0], -1).T, mat.T)
        arr = out.reshape(arr.shape[1:] + mat.shape[:1])
    return arr


@pytest.mark.parametrize("layout", ["c-contiguous", "permuted", "strided"])
@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_an_operator_acts_by_m_cyclic_gemms(order, layout):
    rng = np.random.default_rng(100 * order + len(layout))
    for _ in range(30):
        shape = tuple(int(d) for d in rng.integers(1, 6, order))
        arr = rng.standard_normal(shape)
        if layout == "permuted":
            arr = arr.transpose(rng.permutation(order))
        elif layout == "strided":
            big = rng.standard_normal(tuple(2 * d for d in shape))
            arr = big[(slice(None, None, 2),) * order].transpose(rng.permutation(order))
        mats = []
        for d in arr.shape:
            mat = rng.standard_normal((d, int(rng.integers(1, 6)))).T
            if rng.integers(2):
                mat = np.ascontiguousarray(mat)  # C order as well as a transposed view
            mats.append(mat)
        got = tensor_mod._mode_products(arr, mats)
        want = cyclic_gemms(arr, mats)
        assert got.shape == want.shape == tuple(mat.shape[0] for mat in mats)
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


#: IEEE special values mixed into the operands of the tensordot byte tests
SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -3.0])


def _operand(rng, shape, layout):
    """A DenseTensor of ``shape`` whose array is C-ordered ("c-order"),
    stored Fortran-ordered ("fortran"), or, for an order-2m cube, the
    transposed view ``gct_dense`` returns from its Kronecker route for a
    general generator stack and a tau other than the identity ("kron-view");
    the first two carry -0.0, infinities and NaNs."""
    if layout == "kron-view":
        m, n = len(shape) // 2, shape[0]
        gens = [rng.standard_normal((n, n)) + 3 * np.eye(n) for _ in range(m)]
        tau = Permutation(list(range(2, m + 1)) + [1])
        t = gct_dense(rank_preserver(gens, tau))
        assert m == 1 or not t.array.flags.c_contiguous
        return t
    x = rng.standard_normal(shape)
    mask = rng.random(shape) < 0.3
    x[mask] = rng.choice(SPECIALS, size=int(mask.sum()))
    return DenseTensor(np.asfortranarray(x) if layout == "fortran" else x)


@pytest.mark.parametrize("layout", ["c-order", "fortran", "kron-view"])
@pytest.mark.parametrize("m,n", [(1, 1), (1, 4), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_mul_2m_and_mul_2m_on_m_are_tensordot_byte_for_byte(m, n, layout):
    rng = np.random.default_rng(10 * m + n + len(layout))
    a = _operand(rng, (n,) * (2 * m), layout)
    b = _operand(rng, (n,) * (2 * m), "c-order")
    x = _operand(rng, (n,) * m, "fortran" if layout == "fortran" else "c-order")
    with np.errstate(all="ignore"):  # inf * 0 and inf - inf are invalid operations
        pairs = [
            (mul_2m(a, b).array, np.tensordot(a.array, b.array, axes=m)),
            (mul_2m(b, a).array, np.tensordot(b.array, a.array, axes=m)),
            (mul_2m_on_m(a, x).array, np.tensordot(a.array, x.array, axes=m)),
        ]
    for got, want in pairs:
        assert got.shape == want.shape and got.strides == want.strides
        assert got.tobytes() == want.tobytes()


def refold(u, m, n):
    """The inverse of balance_unfold: both halves first-mode-fastest."""
    return DenseTensor(u.reshape((n,) * (2 * m), order="F"))


def unfold_multiply_refold(a, b):
    """Independent route for mul_2m: unfold both, multiply, refold."""
    m = a.order // 2
    n = a.shape[0]
    return refold(balance_unfold(a) @ balance_unfold(b), m, n)


class TestMul2m:
    def test_unfolding_identity_is_neutral(self):
        n, m = 2, 2
        ident = refold(np.eye(n**m), m, n)
        rng = np.random.default_rng(4)
        a = DenseTensor(rng.standard_normal((n,) * (2 * m)))
        assert np.allclose(mul_2m(a, ident).array, a.array, atol=1e-12)
        assert np.allclose(mul_2m(ident, a).array, a.array, atol=1e-12)

    @pytest.mark.parametrize("m,n", [(1, 3), (2, 2), (2, 3), (3, 2)])
    def test_against_unfold_route(self, m, n):
        rng = np.random.default_rng(m * 10 + n)
        a = DenseTensor(rng.standard_normal((n,) * (2 * m)))
        b = DenseTensor(rng.standard_normal((n,) * (2 * m)))
        got = mul_2m(a, b)
        want = unfold_multiply_refold(a, b)
        assert np.allclose(got.array, want.array, atol=1e-12)

    def test_associative(self):
        rng = np.random.default_rng(77)
        for trial in range(50):
            abc = [DenseTensor(rng.standard_normal((2, 2, 2, 2))) for _ in range(3)]
            left = mul_2m(mul_2m(abc[0], abc[1]), abc[2])
            right = mul_2m(abc[0], mul_2m(abc[1], abc[2]))
            assert np.allclose(left.array, right.array, atol=1e-12), f"trial {trial}"

    def test_errors(self):
        with pytest.raises(DimensionError):
            mul_2m(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))
        with pytest.raises(DimensionError):
            mul_2m(np.zeros((2, 2, 2, 3)), np.zeros((2, 2, 2, 3)))
        with pytest.raises(DimensionError):
            mul_2m(np.zeros((2, 2)), np.zeros((3, 3)))


class TestMul2mOnM:
    def test_identity_action(self):
        n, m = 3, 2
        ident = refold(np.eye(n**m), m, n)
        rng = np.random.default_rng(8)
        x = DenseTensor(rng.standard_normal((n,) * m))
        assert np.allclose(mul_2m_on_m(ident, x).array, x.array, atol=1e-12)

    def test_loop_oracle(self):
        rng = np.random.default_rng(9)
        a = DenseTensor(rng.standard_normal((2, 2, 2, 2)))
        x = DenseTensor(rng.standard_normal((2, 2)))
        got = mul_2m_on_m(a, x).array
        want = np.zeros((2, 2))
        for i in itertools.product(range(2), repeat=2):
            want[i] = sum(
                a.array[i + k] * x.array[k]
                for k in itertools.product(range(2), repeat=2)
            )
        assert np.allclose(got, want, atol=1e-12)

    def test_matches_matrix_vector_route(self):
        # unfold the acting tensor, flatten the operand: same linear map
        rng = np.random.default_rng(12)
        a = DenseTensor(rng.standard_normal((3, 3, 3, 3)))
        x = DenseTensor(rng.standard_normal((3, 3)))
        got = mul_2m_on_m(a, x)
        want = balance_unfold(a) @ x.values
        assert np.allclose(got.values, want, atol=1e-12)

    def test_errors(self):
        with pytest.raises(DimensionError):
            mul_2m_on_m(np.zeros((2, 2, 2, 2)), np.zeros((2, 2, 2)))
        with pytest.raises(DimensionError):
            mul_2m_on_m(np.zeros((2, 2, 2, 2)), np.zeros((3, 3)))


LAYOUTS = ["C", "F", "transposed"]


class TestBalanceUnfold:
    def test_pairing_layout(self):
        # rows pair the leading modes, columns the trailing ones,
        # first mode fastest on both sides
        rng = np.random.default_rng(13)
        a = DenseTensor(rng.standard_normal((2, 3) * 2))
        with pytest.raises(DimensionError):
            balance_unfold(a)  # extents must all agree
        a = DenseTensor(rng.standard_normal((3, 3, 3, 3)))
        u = balance_unfold(a)
        for i in itertools.product(range(1, 4), repeat=2):
            for j in itertools.product(range(1, 4), repeat=2):
                r = np.ravel_multi_index(tuple(k - 1 for k in i), (3, 3), order="F")
                c = np.ravel_multi_index(tuple(k - 1 for k in j), (3, 3), order="F")
                assert u[r, c] == a.entry(*(i + j))

    @pytest.mark.parametrize(
        "layout,shape",
        [(lay, (3, 3, 3, 3)) for lay in LAYOUTS] + [(lay, (2, 3, 3, 2)) for lay in LAYOUTS],
        ids=LAYOUTS + [f"{lay}-non-cubic" for lay in LAYOUTS],
    )
    def test_fresh_writable_copy_for_every_layout(self, layout, shape):
        # balance_unfold copies every cubic layout once and refuses the rest
        perm = (2, 0, 3, 1)  # arr is drawn so that arr.transpose(perm) has ``shape``
        arr = np.random.default_rng(21).standard_normal([shape[perm.index(a)] for a in range(4)])
        src = {
            "C": np.ascontiguousarray(arr.transpose(perm)),
            "F": np.asfortranarray(arr.transpose(perm)),
            "transposed": arr.transpose(perm),
        }
        t = DenseTensor(src[layout])
        assert t.shape == shape
        assert t.array.flags.c_contiguous == (layout == "C")
        assert t.array.flags.f_contiguous == (layout == "F")
        if len(set(shape)) > 1:
            with pytest.raises(DimensionError):
                balance_unfold(t)
            return
        u = balance_unfold(t)
        assert np.array_equal(u, t.array.reshape(shape[0] * shape[1], -1, order="F"))
        assert u.flags.writeable and not np.shares_memory(u, t.array)

    @pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (2, 3), (3, 2)])
    def test_roundtrip(self, m, n):
        rng = np.random.default_rng(m + n)
        a = DenseTensor(rng.standard_normal((n,) * (2 * m)))
        back = refold(balance_unfold(a), m, n)
        assert np.array_equal(back.array, a.array)

    @given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, m, n, seed):
        rng = np.random.default_rng(seed)
        a = DenseTensor(rng.standard_normal((n,) * (2 * m)))
        assert np.array_equal(refold(balance_unfold(a), m, n).array, a.array)


class TestPermuteModes:
    def test_identity_and_transpose(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((3, 3))
        assert np.array_equal(permute_modes(a, Permutation.identity(2)).array, a)
        assert np.array_equal(permute_modes(a, Permutation([2, 1])).array, a.T)

    @pytest.mark.parametrize("m,n", [(3, 2), (3, 3), (4, 2)])
    def test_against_loop_oracle(self, m, n):
        rng = np.random.default_rng(m * 7 + n)
        a = DenseTensor(rng.standard_normal((n,) * m))
        for tau in Permutation.all(m):
            got = permute_modes(a, tau).array
            for idx in itertools.product(range(n), repeat=m):
                src = tuple(idx[tau(k) - 1] for k in range(1, m + 1))
                assert got[idx] == a.array[src]

    def test_composition_law(self):
        rng = np.random.default_rng(22)
        a = DenseTensor(rng.standard_normal((2, 2, 2)))
        s = Permutation([2, 3, 1])
        t = Permutation([2, 1, 3])
        # shuffling by s and then by t equals one shuffle by t∘s: the second
        # shuffle substitutes its indices into the first
        two_step = permute_modes(permute_modes(a, s), t)
        one_step = permute_modes(a, t.compose(s))
        assert np.array_equal(two_step.array, one_step.array)
        # and in general the other order differs
        assert not np.array_equal(
            two_step.array, permute_modes(a, s.compose(t)).array
        )


class TestCompleteRightProduct:
    """One matrix b on every mode: the action of ``build_gct([b] * m)``."""

    def test_identity_neutral(self):
        rng = np.random.default_rng(30)
        a = rng.standard_normal((2, 2, 2))
        got = apply_rank_preserver(build_gct([np.eye(2)] * 3), a).array
        assert np.array_equal(got, a)

    def test_order2_is_sandwich(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        got = apply_rank_preserver(build_gct([b, b]), x).array
        assert np.allclose(got, b @ x @ b.T, atol=1e-12)

    def test_errors(self):
        with pytest.raises(DimensionError):
            apply_rank_preserver(build_gct([np.eye(2)] * 2), np.zeros((2, 3)))
        with pytest.raises(DimensionError):
            apply_rank_preserver(build_gct([np.zeros((2, 3))] * 2), np.zeros((2, 2)))


def test_identity_tensor_positions():
    t = identity_tensor(3, 2)
    assert t.shape == (2, 2, 2)
    nz = {idx for idx in itertools.product(range(2), repeat=3) if t.array[idx] != 0}
    assert nz == {(0, 0, 0), (1, 1, 1)}
    assert np.array_equal(identity_tensor(2, 3).array, np.eye(3))


@pytest.mark.parametrize("m,n", list(itertools.product(range(1, 5), range(1, 5))))
def test_identity_tensor_matches_entry_loop(m, n):
    want = np.zeros((n,) * m)
    for i in range(n):
        want[(i,) * m] = 1.0
    assert np.array_equal(identity_tensor(m, n).array, want)


def test_identity_tensor_budget_boundary(monkeypatch):
    monkeypatch.setattr(errors_mod, "MAX_DENSE_ENTRIES", 16)
    assert identity_tensor(2, 4).array.size == 16
    with pytest.raises(DomainError):
        identity_tensor(3, 3)


@pytest.mark.parametrize("layout", ["c-contiguous", "permuted"])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_each_tensor_of_a_stack_gets_its_own_bytes(order, layout):
    # one np.matmul per mode over the stack makes each tensor's own BLAS
    # product, where one np.dot over the whole stack may round differently
    rng = np.random.default_rng(200 + 10 * order + len(layout))
    for _ in range(20):
        n, stack = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        arr = rng.standard_normal((stack,) + (n,) * order)
        if layout == "permuted":
            arr = arr.transpose((0, *(1 + rng.permutation(order))))
        mats = [rng.standard_normal((n, n)) for _ in range(order)]
        got = tensor_mod._mode_products(arr, mats)
        assert got.shape == arr.shape and got.flags.c_contiguous
        for one, tensor in zip(got, arr):
            assert one.tobytes() == tensor_mod._mode_products(tensor, mats).tobytes()


def _rank1_residual_reference(arr, pivot):
    """The residual as formed from np.unravel_index and a 0-d 1.0."""
    pivot = np.unravel_index(pivot, arr.shape)
    fibres = [arr[pivot[:k] + (slice(None),) + pivot[k + 1 :]] for k in range(arr.ndim)]
    cand = tensor_mod._outer([fibres[0]] + [f / arr[pivot] for f in fibres[1:]])
    return float(np.abs(arr - cand).max())


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_rank1_residual_is_the_reference_bit_for_bit_and_reads_only(m):
    # a pivot at every corner, factors holding -0.0 and subnormals, and the
    # same tensors with -0.0 and subnormal entries written in off the pivot
    rng = np.random.default_rng(500 + m)
    shape = tuple(int(d) for d in rng.integers(2, 4, m))
    for corner in itertools.product(*[(0, d - 1) for d in shape]):
        factors = []
        for d, c in zip(shape, corner):
            f = rng.uniform(-1.0, 1.0, d)
            f[(c + 1) % d] = rng.choice([-0.0, 5e-324, -2.5e-310])
            f[c] = rng.choice([-4.0, 4.0])
            factors.append(f)
        rank1 = tensor_mod._outer(factors)
        edited = rank1 + 1e-3 * rng.standard_normal(shape)
        others = [i for i in range(edited.size) if i != np.ravel_multi_index(corner, shape)]
        for i, value in zip(rng.choice(others, 2, replace=False), (-0.0, -3e-320)):
            edited.flat[i] = value
        for arr in (rank1, edited):
            arr.flags.writeable = False  # a write into the operand raises
            before = arr.tobytes()
            pivot = int(np.abs(arr).argmax())
            assert np.unravel_index(pivot, shape) == corner
            got = tensor_mod._rank1_residual(arr, pivot)
            want = _rank1_residual_reference(arr, pivot)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
            assert arr.tobytes() == before

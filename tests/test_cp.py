import itertools
import math
import warnings

import numpy as np
import pytest

from commutant import (
    ArgumentError,
    DenseTensor,
    DimensionError,
    DomainError,
    Permutation,
    RankError,
    SymmetryError,
    extract_sym_rank1,
    identity_tensor,
    is_rank1_tensor,
    is_symmetric,
    permute_modes,
    rank1,
    sym_power,
)
from commutant import cp as cp_mod
from commutant import errors as errors_mod
from commutant import tensor as tensor_mod


class TestRank1:
    def test_outer_product_entries(self):
        t = rank1([np.array([1.0, 2.0]), np.array([3.0, 4.0])])
        assert np.array_equal(t.array, [[3.0, 4.0], [6.0, 8.0]])

    def test_basis_vectors(self):
        t = rank1([np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 0.0])])
        nz = np.argwhere(t.array != 0)
        assert nz.tolist() == [[0, 1, 0]]
        assert t.entry(1, 2, 1) == 1.0

    def test_mixed_lengths(self):
        t = rank1([np.ones(2), np.ones(3), np.ones(4)])
        assert t.shape == (2, 3, 4)
        assert np.all(t.array == 1.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            rank1([np.array([1.0, 2.0]), np.zeros(2)])
        with pytest.raises(ArgumentError):
            rank1([])


class TestSymPower:
    def test_entries_are_coordinate_products(self):
        x = np.array([2.0, -1.0, 3.0])
        t = sym_power(x, 3)
        for idx in itertools.product(range(3), repeat=3):
            assert t.array[idx] == pytest.approx(x[idx[0]] * x[idx[1]] * x[idx[2]])

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_invariant_under_mode_shuffles(self, m):
        x = np.random.default_rng(m).standard_normal(3)
        t = sym_power(x, m)
        for tau in Permutation.all(m):
            assert np.allclose(permute_modes(t, tau).array, t.array, atol=1e-12)
        assert is_symmetric(t)

    def test_power_one(self):
        x = np.array([1.0, 2.0])
        assert np.array_equal(sym_power(x, 1).array, x)


@pytest.mark.parametrize(
    "tau",
    [tau for m in range(1, 5) for tau in Permutation.all(m)],
    ids=lambda tau: "-".join(map(str, tau.images)),
)
def test_a_mode_shuffle_of_a_rank1_tensor_shuffles_its_factors(tau):
    # permute_modes(a, tau) holds a[i_tau(1), ..., i_tau(m)] at (i_1, ..., i_m),
    # so the outer product of v_1, ..., v_m goes to the outer product whose
    # j-th factor is v_{tau^-1(j)}.  Factors of distinct lengths make a wrong
    # direction change the shape; small integers make every product exact.
    m = len(tau.images)
    vecs = [np.arange(1.0, k + 3.0) * (-1) ** k for k in range(m)]
    inv = tau.inverse()
    got = permute_modes(rank1(vecs), tau).array
    want = rank1([vecs[inv(j) - 1] for j in range(1, m + 1)]).array
    assert got.shape == want.shape
    assert np.array_equal(got, want)


class TestIsSymmetric:
    def test_accepts_and_rejects(self):
        assert is_symmetric(identity_tensor(3, 2))
        assert is_symmetric(np.zeros((2, 2)))
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 1] = 1.0
        assert not is_symmetric(arr)
        # non-cubical can't be symmetric
        assert not is_symmetric(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_is_never_symmetric(self, bad):
        # a NaN or inf difference never exceeds a tolerance
        assert not is_symmetric(np.array([[bad, 1.0], [2.0, 3.0]]))
        assert not is_symmetric(np.array([[bad, 1.0], [1.0, 3.0]]))
        assert not is_symmetric(np.array([bad, 1.0]))


class TestExtractSymRank1:
    def test_even_order_frozen(self):
        lam, y = extract_sym_rank1(sym_power(np.array([3.0, 4.0]), 2))
        assert lam == pytest.approx(25.0, abs=1e-12)
        assert np.allclose(y, [0.6, 0.8], atol=1e-12)

    def test_odd_order_frozen(self):
        lam, y = extract_sym_rank1(sym_power(np.array([0.0, 2.0]), 3))
        assert lam == pytest.approx(8.0, abs=1e-12)
        assert np.allclose(y, [0.0, 1.0], atol=1e-12)

    def test_even_order_negative_weight_keeps_leading_positive(self):
        t = DenseTensor(-3.0 * sym_power(np.array([1.0, 2.0]), 2).array)
        lam, y = extract_sym_rank1(t)
        assert y[0] > 0
        assert lam == pytest.approx(-15.0, rel=1e-12)
        assert np.allclose(lam * sym_power(y, 2).array, t.array, atol=1e-9)

    def test_odd_order_negative_weight_prefers_nonneg_lambda(self):
        # leading-coordinate positivity cannot hold simultaneously here;
        # lambda >= 0 wins for odd order
        t = DenseTensor(-2.0 * sym_power(np.array([1.0, 0.0]), 3).array)
        lam, y = extract_sym_rank1(t)
        assert lam == pytest.approx(2.0, rel=1e-12)
        assert y[0] < 0
        assert np.allclose(lam * sym_power(y, 3).array, t.array, atol=1e-9)

    def test_collinear_factors_count_as_symmetric(self):
        t = rank1([np.array([1.0, 2.0]), np.array([2.0, 4.0])])
        lam, y = extract_sym_rank1(t)
        assert lam == pytest.approx(10.0, rel=1e-12)
        # recovered factor matrix has rank 1: columns are proportional
        factors = np.column_stack([y, y])
        assert np.linalg.matrix_rank(factors, tol=1e-9) == 1
        assert np.allclose(lam * sym_power(y, 2).array, t.array, atol=1e-9)

    def test_roundtrip_random(self):
        combos = list(itertools.product([2, 3, 4], [2, 3]))
        for trial in range(100):
            m, n = combos[trial % len(combos)]
            rng = np.random.default_rng(1000 + trial)
            lam0 = float(rng.uniform(0.25, 2.0)) * (-1 if trial % 5 == 0 else 1)
            v = rng.standard_normal(n)
            v /= np.linalg.norm(v)
            t = DenseTensor(lam0 * sym_power(v, m).array)
            lam, y = extract_sym_rank1(t)
            assert abs(np.linalg.norm(y) - 1.0) <= 1e-12
            if m % 2 == 1:
                assert lam >= 0
            assert np.max(np.abs(lam * sym_power(y, m).array - t.array)) <= 1e-9

    def test_rejects_asymmetric(self):
        with pytest.raises(SymmetryError):
            extract_sym_rank1(rank1([np.array([1.0, 0.0]), np.array([0.0, 1.0])]))

    def test_rejects_higher_rank(self):
        with pytest.raises(RankError):
            extract_sym_rank1(np.eye(2))

    def test_rejects_zero(self):
        with pytest.raises(RankError):
            extract_sym_rank1(np.zeros((2, 2)))

    @pytest.mark.parametrize("scale", [1e-3, 1e3, 1e6])
    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_roundtrip_across_entry_scales(self, m, scale):
        rng = np.random.default_rng(int(m * 100 + np.log10(scale)))
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        t = DenseTensor(scale * sym_power(v, m).array)
        lam, y = extract_sym_rank1(t)
        assert abs(abs(float(np.dot(y, v))) - 1.0) <= 1e-12
        assert abs(abs(lam) - scale) <= 1e-9 * scale
        assert np.max(np.abs(lam * sym_power(y, m).array - t.array)) <= 1e-9 * scale

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        sym = sym_power(np.array([1.0, 2.0]), 3).array.copy()
        sym[1, 1, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                extract_sym_rank1(np.full((2, 2), bad))
            with pytest.raises(DomainError):
                extract_sym_rank1(sym)

    def test_rejects_non_cubical(self):
        with pytest.raises(DimensionError):
            extract_sym_rank1(np.zeros((2, 3)))

    def test_order_one(self):
        lam, y = extract_sym_rank1(np.array([0.0, -3.0, 4.0]))
        assert lam == pytest.approx(5.0)
        assert np.allclose(lam * y, [0.0, -3.0, 4.0], atol=1e-12)


def _former_extract_sym_rank1(a):
    """extract_sym_rank1 as it was when it took both norms by np.linalg.norm
    and formed lambda through sym_power: the reference for its bits."""
    arr = tensor_mod._tensor_entries(a)
    n = arr.shape[0]
    if any(d != n for d in arr.shape):
        raise DimensionError(f"symmetric tensors are cubical, got shape {arr.shape}")
    pivot = int(np.abs(arr).argmax())
    scale = abs(float(arr.flat[pivot]))
    if not scale < math.inf:
        raise DomainError("tensor has a non-finite entry")
    if not cp_mod._symmetric(arr, scale):
        raise SymmetryError("input is not symmetric")
    if scale == 0.0:
        raise RankError("zero tensor has no rank-1 form")
    if tensor_mod._rank1_residual(arr, pivot) > cp_mod.RANK1_MINOR_TOL * scale:
        raise RankError("tensor is not rank 1")
    unfolding = arr.reshape(n, -1, order="F")
    col = int(np.argmax(np.linalg.norm(unfolding, axis=0)))
    y = unfolding[:, col]
    y = y / np.linalg.norm(y)
    lead = int(np.argmax(np.abs(y) > cp_mod.STRUCTURE_LEAD_TOL))
    if y[lead] < 0:
        y = -y
    lam = float(np.dot(arr.ravel(order="F"), sym_power(y, arr.ndim).values))
    if arr.ndim % 2 == 1 and lam < 0:
        lam, y = -lam, -y
    return lam, y


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("m", range(1, 6))
def test_extract_sym_rank1_keeps_the_former_bits(m, n):
    """lambda, y and every refusal, byte for byte as the former formula gave
    them: powers of eight Gaussian vectors (np.dot on the strided column of
    an order-2 input rounds otherwise for about one in five at n >= 4), an
    integer and a partly zero vector, at scales ±1 and ±1e3, the integer
    powers also as int64 arrays, and a rank-2 sum, an asymmetric product and
    a NaN among them."""
    rng = np.random.default_rng(100 * m + n)
    sparse = rng.standard_normal(n)
    sparse[rng.random(n) < 0.5] = 0.0
    ints = rng.integers(-3, 4, n)
    inputs = []
    for v in (*rng.standard_normal((8, n)), sparse, ints):
        for scale in (1.0, -1.0, 1e3, -1e3):
            inputs.append(scale * tensor_mod._outer([v] * m))
    inputs += [(s * tensor_mod._outer([ints] * m)).astype(np.int64) for s in (1, -1000)]
    v, w = rng.standard_normal(n), rng.standard_normal(n)
    inputs.append(tensor_mod._outer([v] * m) + tensor_mod._outer([w] * m))
    inputs.append(tensor_mod._outer([w] + [v] * (m - 1)))
    inputs.append(tensor_mod._outer([v] * m))
    inputs[-1].flat[-1] = np.nan
    outcomes = [_outcome(extract_sym_rank1, a) for a in inputs]
    assert outcomes == [_outcome(_former_extract_sym_rank1, a) for a in inputs]
    assert any(isinstance(out[0], bytes) for out in outcomes)


def _symmetric_inputs():
    """name -> an order-3 cubical input of each kind the certifiers tell
    apart: symmetric rank 1, rank 2 and near rank 1, an asymmetric rank 1,
    ±inf, NaN and zero."""
    rng = np.random.default_rng(260)
    y, z = rng.standard_normal(4), rng.standard_normal(4)
    one = 2.5 * sym_power(y, 3).array
    noise = rng.standard_normal((4, 4, 4))
    noise = sum(noise.transpose(p) for p in itertools.permutations(range(3)))
    out = {
        "rank1": one,
        "rank2": one + sym_power(z, 3).array,
        "near-rank1": one + 1e-6 * noise,
        "asymmetric": rank1([y, z, y]).array,
        "zero": np.zeros((4, 4, 4)),
    }
    for name, bad in (("inf", np.inf), ("-inf", -np.inf), ("nan", np.nan)):
        out[name] = one.copy()
        out[name][1, 2, 3] = bad
    return out


def _layouts(arr):
    """``arr`` as C- and F-ordered arrays, as a strided view, with reversed
    strides and with permuted strides: the same entries, other memory."""
    wide = np.zeros(tuple(2 * d for d in arr.shape))
    wide[::2, ::2, ::2] = arr
    flipped = arr[::-1, ::-1, ::-1].copy()
    permuted = np.ascontiguousarray(arr.transpose(1, 2, 0))
    return {
        "C": arr.copy(),
        "F": np.asfortranarray(arr),
        "strided": wide[::2, ::2, ::2],
        "reversed": flipped[::-1, ::-1, ::-1],
        "permuted": permuted.transpose(2, 0, 1),
    }


def _outcome(call, arg):
    """What ``call(arg)`` returns, as bytes for arrays, or the type and
    message of what it raises."""
    try:
        out = call(arg)
    except Exception as exc:  # the outcome under test
        return type(exc), str(exc)
    if isinstance(out, tuple):
        return tuple(np.asarray(x).tobytes() for x in out)
    return out


#: what each certifier gives each input kind of _symmetric_inputs
CERTIFIED = {
    "rank1": (True, None),
    "rank2": (False, RankError),
    "near-rank1": (False, RankError),
    "asymmetric": (True, SymmetryError),
    "zero": (False, RankError),
    "inf": (False, DomainError),
    "-inf": (False, DomainError),
    "nan": (False, DomainError),
}


class TestCertifiersReadTheirArgumentOnce:
    """is_rank1_tensor, is_symmetric and extract_sym_rank1 read the caller's
    entries in place, with the DenseTensor constructor's refusals, and take
    finiteness from the one entry scale max|a|; every verdict, exception,
    message and (lambda, y) bit is the one the frozen copy gives."""

    @pytest.mark.parametrize("kind", sorted(CERTIFIED))
    def test_each_layout_gets_the_verdict_of_the_frozen_copy(self, kind):
        rank1_verdict, extract_error = CERTIFIED[kind]
        for layout, arr in _layouts(_symmetric_inputs()[kind]).items():
            held = DenseTensor(arr)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert is_rank1_tensor(arr) is rank1_verdict, layout
                assert is_symmetric(arr) is is_symmetric(held), layout
                got = _outcome(extract_sym_rank1, arr)
            assert got == _outcome(extract_sym_rank1, held), layout
            if extract_error is not None:
                assert got[0] is extract_error, layout

    def test_finiteness_is_read_from_the_scale(self):
        inputs = _symmetric_inputs()
        assert not is_symmetric(inputs["inf"]) and not is_symmetric(inputs["nan"])
        both = inputs["inf"].copy()
        both[0, 0, 0] = np.nan  # a NaN beside an inf is still refused, not an inf
        for arr in (both, np.full((2, 2), np.nan), np.array([np.inf])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert not is_rank1_tensor(arr)
                assert not is_symmetric(arr)
                with pytest.raises(DomainError, match="^tensor has a non-finite entry$"):
                    extract_sym_rank1(arr)

    @pytest.mark.parametrize(
        "value", [np.float64(2.0), 2.0, np.zeros((0, 3)), np.zeros((2, 0, 2)), [[1.0], [1.0, 2.0]]]
    )
    def test_refusals_are_the_constructors(self, value):
        with pytest.raises((ArgumentError, DimensionError)) as want:
            DenseTensor(value)
        for certify in (is_rank1_tensor, is_symmetric, extract_sym_rank1):
            with pytest.raises(want.type) as got:
                certify(value)
            assert str(got.value) == str(want.value)

    def test_the_callers_array_is_left_as_it_was(self):
        arr = _symmetric_inputs()["rank1"]
        before = arr.copy()
        assert is_rank1_tensor(arr) and is_symmetric(arr)
        lam, y = extract_sym_rank1(arr)
        assert arr.flags.writeable and np.array_equal(arr, before)
        assert not np.shares_memory(y, arr)


class TestDenseBudget:
    # each builder checks its dense size before allocating anything of it

    def test_budget_boundary(self, monkeypatch):
        monkeypatch.setattr(errors_mod, "MAX_DENSE_ENTRIES", 16)
        assert rank1([np.ones(4), np.ones(4)]).array.size == 16
        assert sym_power(np.ones(2), 4).array.size == 16
        with pytest.raises(DomainError):
            rank1([np.ones(17)])
        with pytest.raises(DomainError):
            sym_power(np.ones(2), 5)

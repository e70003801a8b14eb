import itertools
import warnings

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
    PreconditionError,
    SingularMatrixError,
    apply_rank_preserver,
    balance_unfold,
    build_commutation,
    build_ctensor,
    build_gct,
    build_mode_perm_tensor,
    check_nonneg_inverse,
    ctensor_flatten,
    gct_dense,
    gct_from_permutation,
    gct_identity,
    gct_inverse,
    gct_multiply,
    is_balanced_permutation,
    is_pair_symmetric,
    mode_perm_dense,
    mul_2m,
    mul_2m_on_m,
    permute_modes,
    rank1,
    sym_power,
    tensor_transpose,
)
from commutant import commutation_tensor as ct_mod
from commutant import errors as errors_mod
from commutant import linalg


class TestBuildCtensor:
    def test_3x2_has_exactly_six_ones(self):
        kt = build_ctensor(3, 2)
        assert kt.backing.shape == (2, 3, 3, 2)
        ones = {
            coords
            for coords in itertools.product(range(1, 3), range(1, 4), range(1, 4), range(1, 3))
            if kt.backing.entry(*coords) == 1.0
        }
        assert ones == {
            (1, 1, 1, 1),
            (2, 1, 1, 2),
            (1, 2, 2, 1),
            (2, 2, 2, 2),
            (1, 3, 3, 1),
            (2, 3, 3, 2),
        }
        assert kt.backing.values.sum() == 6.0

    def test_1x1(self):
        kt = build_ctensor(1, 1)
        assert kt.backing.shape == (1, 1, 1, 1)
        assert kt.backing.entry(1, 1, 1, 1) == 1.0

    def test_square_case_positions(self):
        kt = build_ctensor(2, 2)
        for i, j, k, l in itertools.product(range(1, 3), repeat=4):
            want = 1.0 if (j == k and i == l) else 0.0
            assert kt.backing.entry(i, j, k, l) == want

    def test_bad_sizes(self):
        with pytest.raises(ArgumentError):
            build_ctensor(0, 2)
        with pytest.raises(ArgumentError):
            build_ctensor(2, 0)

    def test_stores_its_dimensions_and_builds_the_backing_on_first_use(self):
        kt = build_ctensor(3, 2)
        assert kt == build_commutation(3, 2) and kt != build_ctensor(2, 3)
        assert "backing" not in vars(kt)
        tensor_transpose(kt, np.zeros((3, 2)))
        ctensor_flatten(kt)
        assert "backing" not in vars(kt)
        assert kt.backing is kt.backing and kt.backing.array.flags.c_contiguous


class TestTensorTranspose:
    @pytest.mark.parametrize("m,n", list(itertools.product(range(1, 5), range(1, 5))))
    def test_transposes_everything(self, m, n):
        kt = build_ctensor(m, n)
        rng = np.random.default_rng(m * 10 + n)
        x = rng.standard_normal((m, n))
        assert np.array_equal(tensor_transpose(kt, x), x.T)

    def test_symmetric_fixed_point(self):
        kt = build_ctensor(3, 3)
        x = np.array([[1.0, 2.0, 3.0], [2.0, 5.0, 6.0], [3.0, 6.0, 9.0]])
        assert np.array_equal(tensor_transpose(kt, x), x)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            tensor_transpose(build_ctensor(3, 2), np.zeros((2, 3)))

    def test_exact_on_special_values(self):
        x = np.array([[-0.0, np.inf, 1.0], [np.nan, -np.inf, -0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = tensor_transpose(build_ctensor(2, 3), x)
        assert got.tobytes() == np.ascontiguousarray(x.T).tobytes()
        assert got.flags.c_contiguous and got.flags.writeable
        assert not np.shares_memory(got, x)


PAPER_SIZES = [(1, 1), (2, 3), (3, 2), (4, 4), (10, 10), (10, 30), (30, 10), (30, 30)]


class TestPaperIdentities:
    # both identities read the dense backing with numpy alone, not through
    # tensor_transpose or ctensor_flatten

    @pytest.mark.parametrize("m,n", PAPER_SIZES)
    def test_trailing_pair_contraction_transposes(self, m, n):
        x = np.random.default_rng(m * 100 + n).standard_normal((m, n))
        backing = build_ctensor(m, n).backing.array
        assert np.array_equal(np.tensordot(backing, x, axes=([2, 3], [0, 1])), x.T)

    @pytest.mark.parametrize("m,n", PAPER_SIZES)
    def test_pair_unfolding_is_the_commutation_matrix(self, m, n):
        backing = build_ctensor(m, n).backing.array
        # rows pair modes (1, 2), columns (3, 4), first mode fastest on each side
        unfold = np.ascontiguousarray(backing.transpose(1, 0, 3, 2)).reshape(m * n, m * n)
        k = build_commutation(m, n).dense()
        assert unfold.tobytes() == k.tobytes()
        assert ctensor_flatten(build_ctensor(m, n)).tobytes() == k.tobytes()


@pytest.mark.parametrize("m,n", list(itertools.product(range(1, 5), range(1, 5))))
def test_flatten_pairing_reproduces_commutation_matrix(m, n):
    assert np.array_equal(
        ctensor_flatten(build_ctensor(m, n)), build_commutation(m, n).dense()
    )


class TestGct:
    def test_identity_generators(self):
        g = gct_identity(2, 2)
        dense = gct_dense(g)
        for i, j, k, l in itertools.product(range(2), repeat=4):
            want = 1.0 if (i, j) == (k, l) else 0.0
            assert dense.array[i, j, k, l] == want
        # the identity element of the order-2m product
        assert np.array_equal(balance_unfold(dense), np.eye(4))

    def test_entry_product_rule(self):
        rng = np.random.default_rng(40)
        gens = [rng.standard_normal((2, 2)) for _ in range(3)]
        dense = gct_dense(build_gct(gens)).array
        for idx in itertools.product(range(2), repeat=6):
            i, j = idx[:3], idx[3:]
            want = gens[0][i[0], j[0]] * gens[1][i[1], j[1]] * gens[2][i[2], j[2]]
            assert dense[idx] == pytest.approx(want, abs=1e-15)

    def test_single_mode_scalar(self):
        g = build_gct([[[3.0]]])
        assert gct_dense(g).array.reshape(-1).tolist() == [3.0]

    def test_permutation_case_is_balanced(self):
        pi = Permutation([2, 3, 1])
        g = gct_from_permutation(pi, 2)
        assert is_balanced_permutation(gct_dense(g))

    def test_generator_validation(self):
        with pytest.raises(DimensionError):
            build_gct([np.zeros((2, 3))])
        with pytest.raises(DimensionError):
            build_gct([np.eye(2), np.eye(3)])
        with pytest.raises(ArgumentError):
            build_gct([])


class TestGctMultiply:
    def test_structured_matches_dense_random(self):
        rng = np.random.default_rng(41)
        for m, n in [(1, 3), (2, 2), (2, 3), (3, 2)]:
            a = build_gct([rng.standard_normal((n, n)) for _ in range(m)])
            b = build_gct([rng.standard_normal((n, n)) for _ in range(m)])
            structured = gct_dense(gct_multiply(a, b))
            dense = mul_2m(gct_dense(a), gct_dense(b))
            assert np.allclose(structured.array, dense.array, atol=1e-9)

    def test_identity_neutral(self):
        g = gct_from_permutation(Permutation([2, 1, 3]), 2)
        e = gct_identity(2, 3)
        prod = gct_multiply(g, e)
        assert all(np.array_equal(x, y) for x, y in zip(prod.generators, g.generators))

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            gct_multiply(gct_identity(2, 2), gct_identity(2, 3))


class TestGctInverse:
    def test_exact_integer_case(self):
        g = build_gct([np.array([[2.0, 1.0], [1.0, 1.0]])] * 2)
        inv = gct_inverse(g)
        want = np.array([[1.0, -1.0], [-1.0, 2.0]])
        for gen in inv.generators:
            assert np.allclose(gen, want, atol=1e-12)

    def test_permutation_inverse(self):
        pi = Permutation([2, 3, 4, 1])
        g = gct_from_permutation(pi, 3)
        inv = gct_inverse(g)
        want = gct_from_permutation(pi.inverse(), 3)
        for a, b in zip(inv.generators, want.generators):
            assert np.allclose(a, b, atol=1e-12)
        # dense two-sided check
        e = gct_dense(gct_identity(3, 4)).array
        assert np.allclose(mul_2m(gct_dense(g), gct_dense(inv)).array, e, atol=1e-12)
        assert np.allclose(mul_2m(gct_dense(inv), gct_dense(g)).array, e, atol=1e-12)

    def test_singular_generator(self):
        with pytest.raises(SingularMatrixError):
            gct_inverse(build_gct([np.array([[1.0, 2.0], [2.0, 4.0]])]))

    def test_one_matrix_on_every_mode_is_inverted_once_and_shared(self):
        g = gct_from_permutation(Permutation([2, 3, 4, 1]), 3)
        inv = gct_inverse(g)
        assert all(gen is inv.generators[0] for gen in inv.generators)
        assert not inv.generators[0].flags.writeable
        want = linalg.inv(g.generators[0]).tobytes()  # each mode's own inverse
        assert all(gen.tobytes() == want for gen in inv.generators)

    @pytest.mark.parametrize("tau", [[1, 2, 3], [2, 3, 1], [3, 1, 2], [2, 1, 3]])
    def test_each_distinct_generator_is_inverted_once(self, tau):
        rng = np.random.default_rng(sum(tau) * 10 + tau[0])
        a, b = rng.standard_normal((4, 4)) + 4 * np.eye(4), rng.standard_normal((4, 4))
        g = ct_mod._operator([a, b, a], Permutation(tau))
        inv = gct_inverse(g)
        order = [g.generators[t - 1] for t in g.tau.inverse().images]
        assert [gen.tobytes() for gen in inv.generators] == [
            linalg.inv(x).tobytes() for x in order
        ]
        shared = [k for k, x in enumerate(order) if x is g.generators[0]]
        assert all(inv.generators[k] is inv.generators[shared[0]] for k in shared)
        assert len({id(gen) for gen in inv.generators}) == 2

    def test_one_monomial_test_serves_the_operators_dense_form_and_inverse(self, monkeypatch):
        calls = []
        test = linalg._nonneg_monomial

        def counting(stack):
            calls.append(stack.shape)
            return test(stack)

        monkeypatch.setattr(linalg, "_nonneg_monomial", counting)
        rng = np.random.default_rng(48)
        gens = []
        for _ in range(3):
            b = np.zeros((8, 8))
            b[rng.permutation(8), np.arange(8)] = rng.uniform(0.5, 2.0, 8) * 10.0 ** rng.integers(-5, 6, 8)
            gens.append(b)
        g = ct_mod._operator(gens, Permutation([2, 3, 1]))
        gct_dense(g)
        inv = gct_inverse(g)
        gct_dense(g)
        assert calls == [(3, 8, 8)]
        gct_dense(inv)  # the inverse carries its pattern: no scan of its own
        gct_dense(inv)
        gct_inverse(inv)
        assert calls == [(3, 8, 8)]
        order = [g.generators[t - 1] for t in g.tau.inverse().images]
        assert [x.tobytes() for x in inv.generators] == [linalg.inv(b).tobytes() for b in order]

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_the_inverse_carries_the_pattern_a_scan_would_find(self, data):
        # m <= 3, n <= 5, every tau, nonzeros from 1e-10 to 1e10, and a
        # generator shared by several modes
        m, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 5))
        tau = Permutation([k + 1 for k in data.draw(st.permutations(range(m)))])
        powers = st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)
        gens = []
        for _ in range(m):
            g = np.zeros((n, n))
            rows = data.draw(st.permutations(range(n)))
            g[rows, np.arange(n)] = np.maximum(10.0 ** np.array(data.draw(powers)), 1e-10)
            gens.append(g)
        if m > 1 and data.draw(st.booleans()):
            gens[-1] = gens[0]
        inv = gct_inverse(ct_mod._operator(gens, tau))
        cols, vals = inv._monomial
        want_cols, want_vals = linalg._nonneg_monomial(np.array(inv.generators))
        assert cols.dtype == want_cols.dtype and cols.tolist() == want_cols.tolist()
        assert vals.tobytes() == want_vals.tobytes()

    def test_a_dense_generator_is_inverted_by_the_loop(self):
        rng = np.random.default_rng(49)
        mono = np.zeros((5, 5))
        mono[rng.permutation(5), np.arange(5)] = rng.uniform(0.5, 2.0, 5)
        dense = rng.standard_normal((5, 5)) + 5 * np.eye(5)
        g = ct_mod._operator([mono, dense, mono], Permutation([3, 1, 2]))
        assert g._monomial is None
        inv = gct_inverse(g)
        order = [g.generators[t - 1] for t in g.tau.inverse().images]
        assert [x.tobytes() for x in inv.generators] == [linalg.inv(b).tobytes() for b in order]

    def test_the_first_singular_generator_in_inversion_order_raises(self):
        # nonnegative monomial generators, inverted together, and signed ones,
        # inverted one by one
        for sign in (1.0, -1.0):
            low = sign * np.diag([1.0, 3e-11])
            lower = sign * np.diag([5e-12, 1.0])
            g = ct_mod._operator([low, lower], Permutation([2, 1]))
            assert (g._monomial is None) == (sign < 0)
            # the inverse's first generator is the inverse of generators[tau^-1(1) - 1]
            with pytest.raises(SingularMatrixError, match="pivot 5.000e-12"):
                gct_inverse(g)
            with pytest.raises(SingularMatrixError, match="pivot 3.000e-11"):
                gct_inverse(ct_mod._operator([low, lower]))


class TestGroupAxioms:
    def test_exhaustive_s3_two_modes(self):
        # the 6-element group on 2 modes over n=3: all 36 products
        perms = list(Permutation.all(3))
        assert len(perms) == 6
        for a in perms:
            for b in perms:
                prod = gct_multiply(gct_from_permutation(a, 2), gct_from_permutation(b, 2))
                want = gct_from_permutation(a.compose(b), 2)
                assert all(
                    np.array_equal(x, y)
                    for x, y in zip(prod.generators, want.generators)
                )
                # dense route agrees exactly
                dense = mul_2m(
                    gct_dense(gct_from_permutation(a, 2)),
                    gct_dense(gct_from_permutation(b, 2)),
                )
                assert np.array_equal(dense.array, gct_dense(want).array)
        # identity and inverses
        for a in perms:
            g = gct_from_permutation(a, 2)
            ginv = gct_inverse(g)
            e = gct_multiply(g, ginv)
            for gen in e.generators:
                assert np.allclose(gen, np.eye(3), atol=1e-12)


class TestCtensorPower:
    """Powers of the square commutation tensor, each the previous one times C."""

    def test_square_tensor_squares_to_identity_element(self):
        for n in (2, 3):
            base = build_ctensor(n, n).backing
            assert np.array_equal(balance_unfold(mul_2m(base, base)), np.eye(n * n))

    @pytest.mark.parametrize("n", [2, 3])
    def test_collapse_pattern(self, n):
        base = build_ctensor(n, n).backing
        square = mul_2m(base, base)
        got = base
        for exponent in range(1, 7):
            if exponent > 1:
                got = mul_2m(got, base)
            want = base if exponent % 2 == 1 else square
            assert np.array_equal(got.array, want.array), f"exponent {exponent}"


class TestModePermTensor:
    def test_identity_is_identity_element(self):
        t = build_mode_perm_tensor(Permutation.identity(2), 3)
        assert np.array_equal(balance_unfold(mode_perm_dense(t)), np.eye(9))

    def test_swap_acts_as_transpose(self):
        t = mode_perm_dense(build_mode_perm_tensor(Permutation([2, 1]), 3))
        rng = np.random.default_rng(50)
        x = rng.standard_normal((3, 3))
        assert np.array_equal(mul_2m_on_m(t, x).array, x.T)

    def test_one_nonzero_per_row_block(self):
        tau = Permutation([2, 3, 1])
        dense = mode_perm_dense(build_mode_perm_tensor(tau, 2))
        # exactly one 1 for each leading multi-index
        assert is_balanced_permutation(dense)
        ones = np.argwhere(dense.array == 1.0)
        assert len(ones) == 8
        for row in ones:
            i, j = row[:3], row[3:]
            assert all(j[k] == i[tau(k + 1) - 1] for k in range(3))

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (3, 3)])
    def test_shuffle_equals_contraction_all_tau(self, m, n):
        rng = np.random.default_rng(m * 13 + n)
        for tau in Permutation.all(m):
            acting = mode_perm_dense(build_mode_perm_tensor(tau, n))
            for _ in range(5):
                a = DenseTensor(rng.standard_normal((n,) * m))
                lhs = permute_modes(a, tau).array
                rhs = mul_2m_on_m(acting, a).array
                assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_compose_homomorphism(self):
        # acting tensors compose in the same order as the shuffles compose
        s, t = Permutation([2, 3, 1]), Permutation([2, 1, 3])
        ds = mode_perm_dense(build_mode_perm_tensor(s, 2))
        dt = mode_perm_dense(build_mode_perm_tensor(t, 2))
        dts = mode_perm_dense(build_mode_perm_tensor(t.compose(s), 2))
        assert np.array_equal(mul_2m(dt, ds).array, dts.array)


class TestCompleteRightProduct:
    """One matrix b on every mode: the action of ``build_gct([b] * m)``."""

    def test_pushes_through_rank1(self):
        rng = np.random.default_rng(51)
        for m, n in [(2, 2), (3, 2), (3, 4)]:
            b = rng.standard_normal((n, n))
            x = rng.standard_normal(n)
            lhs = apply_rank_preserver(build_gct([b] * m), sym_power(x, m)).array
            rhs = sym_power(b @ x, m).array
            assert np.allclose(lhs, rhs, atol=1e-9)

    def test_general_rank1_factors(self):
        rng = np.random.default_rng(52)
        b = rng.standard_normal((3, 3))
        vs = [rng.standard_normal(3) for _ in range(3)]
        lhs = apply_rank_preserver(build_gct([b] * 3), rank1(vs)).array
        rhs = rank1([b @ v for v in vs]).array
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_matches_gct_action(self):
        # applying one matrix per mode equals acting with the generator tensor
        rng = np.random.default_rng(53)
        b = rng.standard_normal((2, 2))
        a = DenseTensor(rng.standard_normal((2, 2, 2)))
        lhs = apply_rank_preserver(build_gct([b] * 3), a)
        rhs = mul_2m_on_m(gct_dense(build_gct([b, b, b])), a)
        assert np.allclose(lhs.array, rhs.array, atol=1e-12)


class TestPairSymmetry:
    def test_commutation_tensor_is_pair_symmetric(self):
        for n in (2, 3):
            assert is_pair_symmetric(build_ctensor(n, n).backing)
            assert is_pair_symmetric(gct_dense(gct_identity(2, n)))

    def test_perturbation_breaks_it(self):
        arr = np.array(build_ctensor(2, 2).backing.array)
        arr[0, 1, 0, 0] += 0.25
        assert not is_pair_symmetric(arr)

    def test_odd_order_rejected(self):
        with pytest.raises(DimensionError):
            is_pair_symmetric(np.zeros((2, 2, 2)))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_exhaustive_walk(self, data):
        # pair-symmetric tensors (GCTs with one generator on every mode,
        # transpose tensors), GCTs with mixed generators, and single-entry
        # perturbations of them, for m <= 4 and n <= 3; weighted towards the
        # largest case, where a perturbation hides among n^(2m) entries
        m = data.draw(st.sampled_from([1, 2, 3, 4, 4, 4]))
        n = data.draw(st.sampled_from([1, 2, 3, 3]))
        entries = st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n)
        gens = [np.reshape(data.draw(entries), (n, n)).astype(float)]
        kind = data.draw(st.sampled_from(["one generator", "mixed", "transpose tensor"]))
        if kind == "transpose tensor":
            arr = np.array(build_ctensor(n, n).backing.array)
        else:
            if kind == "mixed":
                gens += [np.reshape(data.draw(entries), (n, n)) for _ in range(m - 1)]
            arr = np.array(gct_dense(build_gct(gens * (m if len(gens) == 1 else 1))).array)
        if data.draw(st.booleans()):
            arr.flat[data.draw(st.integers(0, arr.size - 1))] += 0.25
        assert is_pair_symmetric(arr) == _pair_symmetric_exhaustive(arr)

    def test_order8_perturbations_agree_with_exhaustive_walk(self):
        base = gct_dense(gct_identity(4, 3)).array
        for flat in range(0, base.size, 97):
            arr = np.array(base)
            arr.flat[flat] += 0.25
            assert is_pair_symmetric(arr) == _pair_symmetric_exhaustive(arr), flat


def _pair_symmetric_exhaustive(arr):
    """Invariance under every tau in S_m applied to both mode halves."""
    m = arr.ndim // 2
    for tau in itertools.permutations(range(m)):
        axes = list(tau) + [m + v for v in tau]
        if not np.array_equal(np.transpose(arr, axes), arr):
            return False
    return True


class TestBalancedPermutation:
    def test_accepts_permutation_structures(self):
        assert is_balanced_permutation(gct_dense(gct_identity(2, 2)))
        assert is_balanced_permutation(build_ctensor(3, 3).backing)
        pi = Permutation([3, 1, 2])
        assert is_balanced_permutation(gct_dense(gct_from_permutation(pi, 2)))

    def test_rejects_non_permutations(self):
        assert not is_balanced_permutation(np.ones((2, 2, 2, 2)))
        assert not is_balanced_permutation(
            DenseTensor(0.5 * gct_dense(gct_identity(2, 2)).array)
        )


def reference_monomial_support(arr, m):
    """The support helper as it was, through np.unravel_index and
    np.ravel_multi_index: the flat indices, first mode slowest, of the
    nonzeros' first and last m coordinates and their values, sorted by the
    first; None unless there is exactly one nonzero per row and per column
    of the balance unfolding."""
    n = arr.shape[0]
    size = n**m
    idx = np.nonzero(arr)
    if idx[0].size != size:
        return None
    rows = np.ravel_multi_index(idx[:m], (n,) * m)
    cols = np.ravel_multi_index(idx[m:], (n,) * m)
    for part in (rows, cols):
        if not np.all(np.bincount(part, minlength=size) == 1):
            return None
    order = np.argsort(rows)
    return rows[order], cols[order], arr[idx][order]


def _layouts_of(arr):
    """``arr`` as C and F copies, views with modes permuted within the
    halves, with the halves swapped or interleaved, reversed and strided."""
    m = arr.ndim // 2
    yield arr
    yield np.asfortranarray(arr)
    within = [*range(m - 1, -1, -1), *range(m, 2 * m)]
    yield np.ascontiguousarray(arr.transpose(within)).transpose(np.argsort(within))
    swapped = [*range(m, 2 * m), *range(m)]
    yield np.ascontiguousarray(arr.transpose(swapped)).transpose(np.argsort(swapped))
    mixed = [k for pair in zip(range(m), range(m, 2 * m)) for k in pair]
    yield np.ascontiguousarray(arr.transpose(mixed)).transpose(np.argsort(mixed))
    yield np.flip(np.flip(arr, 0).copy(), 0)
    wide = np.zeros(arr.shape[:-1] + (2 * arr.shape[-1],))
    wide[..., ::2] = arr
    yield wide[..., ::2]


class TestMonomialSupport:
    @pytest.mark.parametrize("m,n", [(1, 1), (1, 4), (2, 1), (2, 3), (3, 2), (3, 4)])
    def test_matches_the_unravel_round_trip_on_every_layout(self, m, n):
        rng = np.random.default_rng(m * 10 + n)
        a, _ = monomial_pair(rng, m, n)
        stray, twice, missing = a.copy(), a.copy(), a.copy()
        nonzero, zero = np.argwhere(a), np.argwhere(a == 0)
        if len(zero):
            stray[tuple(zero[0])] = 1e-300
        twice[tuple(nonzero[0])] = 0.0
        if len(zero):
            twice[tuple(zero[-1])] = 2.0
        missing[tuple(nonzero[-1])] = 0.0
        for base in (a, stray, twice, missing, a != 0, a > 1.0):
            want = reference_monomial_support(base, m)
            for arr in _layouts_of(base):
                assert np.array_equal(arr, base)
                got = ct_mod._monomial_support(arr, m)
                if want is None:
                    assert got is None
                    continue
                order = np.argsort(got[0])
                for part, expected in zip(got, want):
                    assert np.array_equal(part[order], expected)

    def test_balanced_permutations_keep_their_results(self):
        for pi in Permutation.all(3):
            for m in (1, 2, 3):
                dense = gct_dense(gct_from_permutation(pi, m)).array
                for arr in _layouts_of(dense):
                    assert is_balanced_permutation(DenseTensor._adopt(arr))
                    off = arr.copy()
                    off.flat[1] += 1.0
                    assert not is_balanced_permutation(off)


class TestCheckNonnegInverse:
    def test_scaled_identity_pair(self):
        ident = gct_dense(gct_identity(2, 2)).array
        witnesses = check_nonneg_inverse(2.0 * ident, 0.5 * ident)
        assert witnesses == [(i, i) for i in range(4)]

    def test_scaled_permutation_pair(self):
        pi = Permutation([2, 3, 1])
        fwd = gct_dense(gct_from_permutation(pi, 2)).array
        bwd = gct_dense(gct_from_permutation(pi.inverse(), 2)).array
        witnesses = check_nonneg_inverse(3.0 * fwd, bwd / 3.0)
        # one positive entry per row, and they follow the permutation action
        u = balance_unfold(DenseTensor(3.0 * fwd))
        assert len(witnesses) == 9
        for r, c in witnesses:
            assert u[r, c] > 0

    def test_negative_entries_rejected(self):
        ident = gct_dense(gct_identity(2, 2)).array
        with pytest.raises(DomainError):
            check_nonneg_inverse(-ident, ident)

    def test_non_inverse_pair_rejected(self):
        ident = gct_dense(gct_identity(2, 2)).array
        with pytest.raises(PreconditionError):
            check_nonneg_inverse(2.0 * ident, ident)

    def test_positive_non_permutation_pair_rejected(self):
        # dense positive tensors multiply to something far from the identity
        blob = np.ones((2, 2, 2, 2))
        with pytest.raises(PreconditionError):
            check_nonneg_inverse(blob, blob)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            check_nonneg_inverse(np.ones((2, 2, 2, 2)), np.ones((3, 3, 3, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_refused_before_arithmetic(self, bad, side):
        pair = [gct_dense(gct_identity(2, 2)).array.copy() for _ in range(2)]
        pair[side][0, 1, 1, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="finite"):
                check_nonneg_inverse(*pair)


def reference_check_nonneg_inverse(a, b):
    """The dense O(N^3) certifier: both products formed as matrices and
    compared to np.eye, positions read off the positive mask."""
    ta, tb = DenseTensor(a), DenseTensor(b)
    m, n = errors_mod._even_order_cubic(ta.shape, "check_nonneg_inverse")
    if ta.shape != tb.shape:
        raise DimensionError(f"operand shapes differ: {ta.shape} vs {tb.shape}")
    if not (np.isfinite(ta.array).all() and np.isfinite(tb.array).all()):
        raise DomainError("operands must be finite")
    if np.any(ta.array < 0) or np.any(tb.array < 0):
        raise DomainError("operands must be entrywise nonnegative")
    ident = np.eye(n**m)
    left = balance_unfold(mul_2m(ta, tb))
    right = balance_unfold(mul_2m(tb, ta))
    if not (
        np.allclose(left, ident, atol=ct_mod.INVERSE_CHECK_TOL)
        and np.allclose(right, ident, atol=ct_mod.INVERSE_CHECK_TOL)
    ):
        raise PreconditionError("operands are not mutual inverses")
    positive = balance_unfold(ta) > ct_mod.STRUCTURE_TOL
    if not (np.all(positive.sum(axis=0) == 1) and np.all(positive.sum(axis=1) == 1)):
        raise PreconditionError(
            "unfolding is not a generalized permutation matrix; "
            "inputs are numerically degenerate"
        )
    rr, cc = np.nonzero(positive)
    return sorted(zip(rr.tolist(), cc.tolist()))


def outcome(f, a, b):
    """f's return value, or its exception class and message."""
    try:
        return f(a, b)
    except Exception as exc:  # the comparison is the test
        return type(exc), str(exc)


def generalized_permutations(rng, m, n):
    gens = []
    for _ in range(m):
        g = np.zeros((n, n))
        g[rng.permutation(n), np.arange(n)] = rng.uniform(0.5, 2.0, n)
        gens.append(g)
    return gens


#: values the domain checks refuse, each tried on the support of either operand
BAD_VALUES = [np.nan, np.inf, -np.inf, -0.5]


def monomial_pair(rng, m, n):
    g = build_gct(generalized_permutations(rng, m, n))
    return gct_dense(g).array.copy(), gct_dense(gct_inverse(g)).array.copy()


@st.composite
def nonneg_pairs(draw):
    """A GCT of generalized permutations and its inverse, then one edit:
    none, an added entry of size 1e-14..1, b scaled by 1 +- eps around
    either tolerance, a zeroed entry, a NaN, an inf or a negative value on
    the support, b built from swapped generators, or b's unfolding
    transposed (a strided view)."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gens = generalized_permutations(rng, m, n)
    a = gct_dense(build_gct(gens)).array.copy()
    b = gct_dense(gct_inverse(build_gct(gens))).array.copy()
    kind = draw(
        st.sampled_from(["exact", "add", "scale", "zero", "on_support", "swap", "transpose"])
    )
    target = draw(st.sampled_from([a, b]))
    if kind == "add":
        at = tuple(draw(st.integers(0, n - 1)) for _ in range(2 * m))
        target[at] += 10.0 ** draw(st.floats(-14.0, 0.0))
    elif kind == "scale":
        tol = draw(st.sampled_from([1e-9, 1e-5, 1e-5 + 1e-9]))
        # eps at half, at or twice a tolerance, nudged a few ulp-sized steps
        # so that some products land on the tolerance itself
        near = draw(st.sampled_from([0.5, 1.0, 2.0])) * (1.0 + draw(st.integers(-4, 4)) * 1e-12)
        b *= 1.0 + draw(st.sampled_from([-1.0, 1.0])) * tol * near
    elif kind in ("zero", "on_support"):
        nonzero = np.argwhere(target)
        at = tuple(nonzero[draw(st.integers(0, len(nonzero) - 1))])
        target[at] = 0.0 if kind == "zero" else draw(st.sampled_from(BAD_VALUES))
    elif kind == "swap":
        b = gct_dense(gct_inverse(build_gct(gens[::-1]))).array.copy()
    elif kind == "transpose":
        b = b.transpose(*range(m, 2 * m), *range(m))
    return a, b


class TestCheckNonnegInverseMatchesReference:
    """Same list, or the same exception class and message, as the dense
    reference, on the exactly monomial, the monomial and the dense route."""

    @given(nonneg_pairs())
    @settings(max_examples=400, deadline=None)
    def test_edited_gct_pairs(self, pair):
        a, b = pair
        want = outcome(reference_check_nonneg_inverse, a, b)
        assert outcome(check_nonneg_inverse, a, b) == want

    @staticmethod
    def counted_products(monkeypatch):
        calls = []

        def counting(x, y):
            calls.append(1)
            return mul_2m(x, y)

        monkeypatch.setattr(ct_mod, "mul_2m", counting)
        return calls

    def test_monomial_input_runs_no_dense_product(self, monkeypatch):
        a, b = monomial_pair(np.random.default_rng(31), 3, 4)
        calls = self.counted_products(monkeypatch)
        assert check_nonneg_inverse(a, b) == reference_check_nonneg_inverse(a, b)
        assert calls == []

    @staticmethod
    def counted_monomial_products(monkeypatch):
        calls = []
        full = ct_mod._monomial_products_near_identity

        def counting(*args):
            calls.append(1)
            return full(*args)

        monkeypatch.setattr(ct_mod, "_monomial_products_near_identity", counting)
        return calls

    def test_exactly_monomial_pair_reads_only_its_support(self, monkeypatch):
        a, b = monomial_pair(np.random.default_rng(36), 3, 3)
        calls = self.counted_monomial_products(monkeypatch)
        assert check_nonneg_inverse(a, b) == reference_check_nonneg_inverse(a, b)
        assert calls == []
        # one stray entry in b: the off-pattern maxima decide, as before
        b[np.unravel_index(np.argmin(b), b.shape)] = 1e-13
        assert check_nonneg_inverse(a, b) == reference_check_nonneg_inverse(a, b)
        assert calls == [1]

    @pytest.mark.parametrize("bad", BAD_VALUES)
    @pytest.mark.parametrize("side", [0, 1])
    def test_refused_value_on_the_support(self, bad, side):
        pair = list(monomial_pair(np.random.default_rng(37), 2, 3))
        pair[side][tuple(np.argwhere(pair[side])[4])] = bad
        message = "finite" if np.isnan(bad) or np.isinf(bad) else "nonnegative"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=message):
                check_nonneg_inverse(*pair)
            assert outcome(check_nonneg_inverse, *pair) == outcome(
                reference_check_nonneg_inverse, *pair
            )

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("on_support,certified", [(False, True), (True, False)])
    def test_negative_zero(self, side, on_support, certified):
        # -0.0 == 0 and is not < 0: off the support it is one more zero; on
        # it, the entry it replaces is gone
        pair = list(monomial_pair(np.random.default_rng(38), 2, 3))
        cells = np.argwhere(pair[side]) if on_support else np.argwhere(pair[side] == 0)
        pair[side][tuple(cells[2])] = -0.0
        got = outcome(check_nonneg_inverse, *pair)
        assert got == outcome(reference_check_nonneg_inverse, *pair)
        assert isinstance(got, list) == certified

    def test_b_exactly_monomial_on_the_wrong_cells(self):
        gens = generalized_permutations(np.random.default_rng(39), 2, 3)
        a = gct_dense(build_gct(gens)).array
        b = gct_dense(gct_inverse(build_gct(gens[::-1]))).array
        ua, ub = a.reshape(9, 9), b.reshape(9, 9)
        assert np.count_nonzero(ub) == 9 and not np.array_equal(ua != 0, ub.T != 0)
        with pytest.raises(PreconditionError, match="not mutual inverses"):
            check_nonneg_inverse(a, b)
        assert outcome(check_nonneg_inverse, a, b) == outcome(
            reference_check_nonneg_inverse, a, b
        )

    @pytest.mark.parametrize("tau", [[2, 3, 1], [3, 1, 2], [2, 1, 3]])
    def test_tau_permuted_views(self, monkeypatch, tau):
        # the same mode permutation on both halves conjugates U_a and U_b
        # by one permutation matrix: still an exactly monomial inverse pair
        a, b = monomial_pair(np.random.default_rng(40), 3, 3)
        axes = [k - 1 for k in tau] + [k + 2 for k in tau]
        a, b = a.transpose(axes), b.transpose(axes)
        assert not (a.flags.c_contiguous or b.flags.c_contiguous)
        calls = self.counted_monomial_products(monkeypatch)
        got = check_nonneg_inverse(DenseTensor._adopt(a), DenseTensor._adopt(b))
        assert got == reference_check_nonneg_inverse(a, b)
        assert calls == []

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 4), (2, 1), (3, 1)])
    def test_one_mode_or_extent_one(self, monkeypatch, m, n):
        a, b = monomial_pair(np.random.default_rng(41 + m + n), m, n)
        calls = self.counted_monomial_products(monkeypatch)
        got = check_nonneg_inverse(a, b)
        assert got == reference_check_nonneg_inverse(a, b)
        assert len(got) == n**m and calls == []

    def test_dense_route_certifies_a_stray_tiny_entry(self, monkeypatch):
        a, b = monomial_pair(np.random.default_rng(32), 2, 3)
        a[np.unravel_index(np.argmin(a), a.shape)] = 1e-13
        calls = self.counted_products(monkeypatch)
        got = check_nonneg_inverse(a, b)
        assert len(calls) == 2
        assert got == reference_check_nonneg_inverse(a, b)
        assert len(got) == 9

    @pytest.mark.parametrize(
        "extra,message",
        [(1e-3, "not mutual inverses"), (5e-12, "not a generalized permutation")],
    )
    def test_dense_route_refusals(self, monkeypatch, extra, message):
        a, b = monomial_pair(np.random.default_rng(33), 2, 3)
        a[np.unravel_index(np.argmin(a), a.shape)] = extra
        calls = self.counted_products(monkeypatch)
        with pytest.raises(PreconditionError, match=message):
            check_nonneg_inverse(a, b)
        assert calls
        assert outcome(check_nonneg_inverse, a, b) == outcome(
            reference_check_nonneg_inverse, a, b
        )

    @pytest.mark.parametrize("off,certified", [(1e-9, True), (np.nextafter(1e-9, 1.0), False)])
    def test_off_pattern_entry_at_the_absolute_tolerance(self, off, certified):
        # with 0/1 generators every product entry is exactly an entry of b
        pi = Permutation([2, 3, 1])
        a = gct_dense(gct_from_permutation(pi, 2)).array
        b = gct_dense(gct_from_permutation(pi.inverse(), 2)).array.copy()
        b[np.unravel_index(np.argmin(b), b.shape)] = off
        got = outcome(check_nonneg_inverse, a, b)
        assert got == outcome(reference_check_nonneg_inverse, a, b)
        assert isinstance(got, list) == certified

    @pytest.mark.parametrize("at", [(0, 1), (1, 0)])
    def test_each_product_is_tested(self, at):
        # U_a = diag(1, 2): an off-diagonal e of U_b is e in one product and
        # 2e in the other, so exactly one of them is within INVERSE_CHECK_TOL
        a, b = np.diag([1.0, 2.0]), np.diag([1.0, 0.5])
        b[at] = 0.75e-9
        with pytest.raises(PreconditionError, match="not mutual inverses"):
            check_nonneg_inverse(a, b)
        assert outcome(check_nonneg_inverse, a, b) == outcome(
            reference_check_nonneg_inverse, a, b
        )

    @pytest.mark.parametrize("a", [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 1.0], [0.0, 0.0]]])
    def test_two_nonzeros_in_one_line_is_not_monomial(self, a):
        # as many nonzeros as rows, but two share a column (or a row)
        a, b = np.array(a), np.array(a).T
        with pytest.raises(PreconditionError, match="not mutual inverses"):
            check_nonneg_inverse(a, b)
        assert outcome(check_nonneg_inverse, a, b) == outcome(
            reference_check_nonneg_inverse, a, b
        )

    @pytest.mark.parametrize("at", [(0, 1), (1, 0)])
    @pytest.mark.parametrize(
        "big,off,certified",
        [
            (1.0, 5e-324, True),  # the smallest subnormal, off the pattern
            (2.0, 5e-324, True),  # 2 * 5e-324 is still subnormal
            (1e300, 1e-320, True),  # a subnormal scaled up to 1e-20
            (1e300, 1e8, False),  # 1e308: finite, far over the tolerance
            (1e300, 1e10, False),  # 1e310 overflows to inf
        ],
    )
    def test_off_pattern_maxima_at_the_float_edges(self, big, off, certified, at):
        # U_a = diag(big, 1): an off-diagonal entry of U_b is scaled by big in
        # one product and by 1 in the other, so its row or its column maximum
        # carries a subnormal or an overflow
        a, b = np.diag([big, 1.0]), np.diag([1.0 / big, 1.0])
        b[at] = off
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = outcome(check_nonneg_inverse, a, b)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the reference's products overflow to inf
            assert got == outcome(reference_check_nonneg_inverse, a, b)
        assert isinstance(got, list) == certified

    @pytest.mark.parametrize("off,certified", [(1e-320, True), (1e10, False)])
    def test_scaled_pair_with_a_subnormal_or_overflowing_entry(self, off, certified):
        a, b = monomial_pair(np.random.default_rng(35), 2, 3)
        a, b = a * 1e300, b * 1e-300
        b[np.unravel_index(np.argmin(b), b.shape)] = off
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = outcome(check_nonneg_inverse, a, b)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the reference's products overflow to inf
            assert got == outcome(reference_check_nonneg_inverse, a, b)
        assert isinstance(got, list) == certified

    def test_monomial_route_below_structure_tol_is_degenerate(self):
        a, b = monomial_pair(np.random.default_rng(34), 2, 3)
        a, b = a * 1e-13, b * 1e13
        with pytest.raises(PreconditionError, match="not a generalized permutation"):
            check_nonneg_inverse(a, b)
        assert outcome(check_nonneg_inverse, a, b) == outcome(
            reference_check_nonneg_inverse, a, b
        )


class TestKeptSupport:
    """The scatter route of gct_dense keeps where it put the nonzeros, and
    check_nonneg_inverse reads that in place of a scan of ``a`` and a count
    of ``b``: the support a scan finds, and the outcome plain copies of the
    operands give."""

    @staticmethod
    def operators(rng, m, n):
        for tau in itertools.permutations(range(1, m + 1)):
            gens = generalized_permutations(rng, m, n)
            yield ct_mod._operator(gens, Permutation(tau))
            # one scaled permutation matrix on every mode (never the identity)
            perm = 2.0 * np.eye(n)[rng.permutation(n)]
            yield ct_mod._operator([perm] * m, Permutation(tau))

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 4), (2, 3), (3, 2), (3, 4)])
    def test_the_kept_support_is_the_scanned_one(self, m, n):
        for g in self.operators(np.random.default_rng(60 + 7 * m + n), m, n):
            t = gct_dense(g)
            kept = t._support
            scanned = ct_mod._monomial_support(t.array, m)
            assert [x.tolist() for x in kept] == [x.tolist() for x in scanned]

    def test_only_the_scatter_route_keeps_a_support(self):
        rng = np.random.default_rng(61)
        gens = generalized_permutations(rng, 2, 3)
        assert gct_dense(build_gct(gens))._support is not None
        assert DenseTensor(gct_dense(build_gct(gens)).array)._support is None
        signed = [gens[0], -gens[1]]
        assert gct_dense(build_gct(signed))._support is None  # the kron route
        # identity generators scatter a 0/1 shuffle and keep nothing
        assert gct_dense(build_mode_perm_tensor(Permutation([2, 1]), 3))._support is None

    def test_a_product_that_underflows_keeps_no_support(self):
        tiny = np.diag([1e-200, 1.0])
        t = gct_dense(build_gct([tiny, tiny]))
        assert t.array.min() == 0.0 and np.count_nonzero(t.array) == 3
        assert t._support is None
        assert ct_mod._monomial_support(t.array, 2) is None

    @pytest.mark.parametrize("m,n", [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
    def test_check_nonneg_inverse_reads_the_support_as_it_reads_the_entries(self, m, n):
        rng = np.random.default_rng(62 + 5 * m + n)
        scales = [1.0, 1e-13, 1e-6, 1e90]
        seen = set()
        for g in self.operators(rng, m, n):
            scale = scales[int(rng.integers(len(scales)))]
            inv = gct_inverse(g)
            scaled = ct_mod._operator([scale * x for x in g.generators], g.tau)
            unscaled = ct_mod._operator([x / scale for x in inv.generators], inv.tau)
            other = generalized_permutations(rng, m, n)
            pairs = [
                (scaled, unscaled),
                (g, inv),
                (g, build_gct(other)),  # no inverse pair
                (inv, g),
            ]
            for x, y in pairs:
                a, b = gct_dense(x), gct_dense(y)
                assert a._support is not None and b._support is not None
                plain = DenseTensor(a.array), DenseTensor(b.array)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    want = outcome(check_nonneg_inverse, *plain)
                    for pair in ((a, b), (a, plain[1]), (plain[0], b)):
                        assert outcome(check_nonneg_inverse, *pair) == want
                seen.add(want[0] if isinstance(want, tuple) else list)
        assert seen == {list, PreconditionError}

    def test_an_exact_pair_of_kept_supports_reads_no_entries(self, monkeypatch):
        g = build_gct(generalized_permutations(np.random.default_rng(63), 3, 4))
        a, b = gct_dense(g), gct_dense(gct_inverse(g))

        def no_scan(arr, m):
            raise AssertionError("scanned")

        monkeypatch.setattr(ct_mod, "_monomial_support", no_scan)
        assert check_nonneg_inverse(a, b) == reference_check_nonneg_inverse(a.array, b.array)


def loop_mode_perm_dense(tau, n):
    # the per-entry construction: one 1 at (i, j) with j_k = i_{tau(k)}
    m = tau.degree
    arr = np.zeros((n,) * (2 * m))
    for i in itertools.product(range(n), repeat=m):
        j = tuple(i[tau(k) - 1] for k in range(1, m + 1))
        arr[i + j] = 1.0
    return arr


@pytest.mark.parametrize("m,n", list(itertools.product(range(1, 5), range(1, 5))))
def test_mode_perm_dense_matches_entry_loop(m, n):
    for tau in Permutation.all(m):
        got = mode_perm_dense(build_mode_perm_tensor(tau, n)).array
        assert np.array_equal(got, loop_mode_perm_dense(tau, n))


@pytest.mark.parametrize("m,n", [(1, 1), (1, 4), (3, 2), (2, 5)])
def test_ctensor_matches_entry_loop(m, n):
    want = np.zeros((n, m, m, n))
    for i in range(n):
        for j in range(m):
            want[i, j, j, i] = 1.0
    assert np.array_equal(build_ctensor(m, n).backing.array, want)


class TestDenseBudget:
    # every size here is refused before anything of its size is allocated

    def test_ctensor_over_budget(self):
        with pytest.raises(DomainError, match=r"^transpose tensor: \(25000000, 25000000\) is over"):
            build_ctensor(5000, 5000)

    def test_mode_perm_over_budget(self):
        t = build_mode_perm_tensor(Permutation.identity(4), 12)
        with pytest.raises(DomainError):
            mode_perm_dense(t)

    def test_budget_boundary(self, monkeypatch):
        monkeypatch.setattr(errors_mod, "MAX_DENSE_ENTRIES", 16)
        assert mode_perm_dense(build_mode_perm_tensor(Permutation([2, 1]), 2)).array.size == 16
        assert build_ctensor(2, 2).backing.array.size == 16
        with pytest.raises(DomainError):
            mode_perm_dense(build_mode_perm_tensor(Permutation([2, 1]), 3))
        with pytest.raises(DomainError):
            build_ctensor(2, 3)

    def test_gct_dense_over_budget(self):
        # 300^4 float64s are 60 GiB
        with pytest.raises(DomainError):
            gct_dense(build_gct([np.eye(300)] * 2))

    def test_gct_dense_budget_boundary(self, monkeypatch):
        monkeypatch.setattr(errors_mod, "MAX_DENSE_ENTRIES", 16)
        assert gct_dense(build_gct([np.eye(2)] * 2)).array.size == 16
        assert gct_dense(build_gct([np.eye(4)])).array.size == 16
        with pytest.raises(DomainError):
            gct_dense(build_gct([np.eye(5)]))
        with pytest.raises(DomainError):
            gct_dense(build_gct([np.eye(2)] * 3))

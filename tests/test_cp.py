import itertools
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
    cp_form,
    extract_sym_rank1,
    identity_tensor,
    is_symmetric,
    materialize,
    permute_cp_factors,
    permute_modes,
    rank1,
    sym_power,
)
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


class TestCpForm:
    def test_materialize_single_term(self):
        vecs = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
        cp = cp_form([v.reshape(-1, 1) for v in vecs])
        assert np.array_equal(materialize(cp).array, rank1(vecs).array)

    def test_identity_matrix_factors_materialize_to_identity(self):
        # factors = identity: sum over r of e_r ⊗ e_r ⊗ ... ⊗ e_r
        for m, n in [(2, 3), (3, 2)]:
            cp = cp_form([np.eye(n)] * m)
            assert np.array_equal(materialize(cp).array, identity_tensor(m, n).array)

    def test_materialize_matches_termwise_sum(self):
        rng = np.random.default_rng(70)
        factors = [rng.standard_normal((2, 3)) for _ in range(3)]
        cp = cp_form(factors)
        want = np.zeros((2, 2, 2))
        for r in range(3):
            want += rank1([f[:, r] for f in factors]).array
        assert np.allclose(materialize(cp).array, want, atol=1e-12)

    def test_zero_column_rejected(self):
        bad = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(DomainError):
            cp_form([bad, np.eye(2)])

    def test_column_count_mismatch(self):
        with pytest.raises(DimensionError):
            cp_form([np.ones((2, 2)), np.ones((2, 3))])


class TestPermuteCpFactors:
    def test_identity(self):
        rng = np.random.default_rng(72)
        cp = cp_form([rng.standard_normal((2, 2)) for _ in range(3)])
        out = permute_cp_factors(cp, Permutation.identity(3))
        assert all(np.array_equal(a, b) for a, b in zip(out.factors, cp.factors))

    def test_swap_transposes(self):
        rng = np.random.default_rng(73)
        cp = cp_form([rng.standard_normal((3, 2)), rng.standard_normal((3, 2))])
        out = permute_cp_factors(cp, Permutation([2, 1]))
        assert np.allclose(
            materialize(out).array, materialize(cp).array.T, atol=1e-12
        )

    @pytest.mark.parametrize("m", [2, 3])
    def test_commutes_with_materialization(self, m):
        # the governing diagram: materialize then shuffle modes ==
        # shuffle factors then materialize
        rng = np.random.default_rng(74 + m)
        cp = cp_form([rng.standard_normal((2, 2)) for _ in range(m)])
        for sigma in Permutation.all(m):
            lhs = materialize(permute_cp_factors(cp, sigma)).array
            rhs = permute_modes(materialize(cp), sigma).array
            assert np.allclose(lhs, rhs, atol=1e-12), f"sigma={sigma}"


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


class TestDenseBudget:
    # each builder checks its dense size before allocating anything of it

    def test_budget_boundary(self, monkeypatch):
        monkeypatch.setattr(tensor_mod, "MAX_DENSE_ENTRIES", 16)
        assert rank1([np.ones(4), np.ones(4)]).array.size == 16
        assert sym_power(np.ones(2), 4).array.size == 16
        assert materialize(cp_form([np.ones((2, 1)), np.ones((8, 1))])).array.size == 16
        with pytest.raises(DomainError):
            rank1([np.ones(17)])
        with pytest.raises(DomainError):
            sym_power(np.ones(2), 5)
        with pytest.raises(DomainError):
            materialize(cp_form([np.ones((2, 1)), np.ones((9, 1))]))

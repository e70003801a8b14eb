import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commutant import (
    ArgumentError,
    DimensionError,
    DomainError,
    Permutation,
    apply,
    build_commutation,
    build_commutation_rank1,
    conjugate_kron,
    det_commutation,
    kron,
    kron_vec,
    trace_commutation,
    transpose_matrix,
    vec,
)
from commutant import errors as errors_mod

# The anchor instance: every 1 placed by hand from the defining action
# K vec(X) = vec(X^T) on 2x3 inputs.
K23 = np.array(
    [
        [1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 1],
    ],
    dtype=float,
)


def test_golden_2x3():
    assert np.array_equal(build_commutation(2, 3).dense(), K23)


def test_degenerate_sizes_are_identity():
    for p in range(1, 6):
        assert np.array_equal(build_commutation(p, 1).dense(), np.eye(p))
        assert np.array_equal(build_commutation(1, p).dense(), np.eye(p))
    assert np.array_equal(build_commutation(1, 1).dense(), np.eye(1))


def test_bad_dimensions():
    with pytest.raises(ArgumentError):
        build_commutation(0, 3)
    with pytest.raises(ArgumentError):
        build_commutation(2, -1)


@pytest.mark.parametrize("p,q", list(itertools.product(range(1, 5), range(1, 5))))
def test_rank1_route_agrees(p, q):
    # two independent constructions: permutation formula vs rank-1 sum
    assert np.array_equal(build_commutation_rank1(p, q), build_commutation(p, q).dense())


def test_vec_identity_exhaustive_small():
    for p, q in itertools.product(range(1, 6), range(1, 6)):
        k = build_commutation(p, q)
        rng = np.random.default_rng(p * 100 + q)
        for _ in range(20):
            x = rng.standard_normal((p, q))
            assert np.array_equal(apply(k, vec(x)), vec(x.T))


def test_vec_identity_uniqueness():
    # the action on all basis matrices pins every column: no other matrix
    # performs the same action
    for p, q in [(2, 3), (3, 2), (3, 3), (4, 2)]:
        k = build_commutation(p, q)
        recon = np.zeros((p * q, p * q))
        for j in range(q):
            for i in range(p):
                e = np.zeros((p, q))
                e[i, j] = 1.0
                recon[:, j * p + i] = vec(e.T)
        assert np.array_equal(recon, k.dense())


def test_apply_examples():
    k = build_commutation(2, 3)
    got = apply(k, np.array([1.0, 4.0, 2.0, 5.0, 3.0, 6.0]))
    assert np.array_equal(got, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    k22 = build_commutation(2, 2)
    # vec of [[3, 4], [6, 8]] is (3, 6, 4, 8); its transpose vecs to (3, 4, 6, 8)
    assert np.array_equal(apply(k22, np.array([3.0, 6.0, 4.0, 8.0])), [3.0, 4.0, 6.0, 8.0])
    with pytest.raises(DimensionError):
        apply(k, np.ones(5))


def _special_entries(size, seed):
    """``size`` Gaussian entries with -0.0, +inf, -inf and a NaN whose payload
    is not the default one written over the first of them."""
    x = np.random.default_rng(seed).standard_normal(size)
    nan = np.array([0x7FF8_0000_DEAD_BEEF], dtype=np.uint64).view(np.float64)[0]
    specials = np.array([-0.0, np.inf, -np.inf, nan])
    x[: min(size, 4)] = specials[: min(size, 4)]
    return x


@pytest.mark.parametrize("p", range(1, 13))
def test_apply_is_the_closed_form_gather_bit_for_bit(p):
    # row s of K_{p,q} has its 1 in column (s mod q)·p + ⌊s/q⌋, so K x is that gather
    for q in range(1, 13):
        s = np.arange(p * q)
        x = np.random.default_rng(p * 100 + q).permutation(_special_entries(p * q, q))
        got = apply(build_commutation(p, q), x)
        want = x[(s % q) * p + s // q]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (p, q)


def test_apply_stores_nothing_on_k():
    k = build_commutation(4, 7)
    apply(k, np.arange(28.0))
    assert "idx" not in vars(k) and "backing" not in vars(k)


@pytest.mark.parametrize(
    "p,q,layout",
    [(1, 1, "contiguous"), (1, 6, "contiguous"), (6, 1, "contiguous"),
     (3, 4, "strided"), (1, 5, "strided"), (4, 1, "strided")],
)
def test_apply_result_is_fresh(p, q, layout):
    base = _special_entries(2 * p * q, p + q)
    x = base[::2] if layout == "strided" else base[: p * q]
    before = x.copy()
    got = apply(build_commutation(p, q), x)
    assert not np.shares_memory(got, base)
    assert got.flags.c_contiguous and got.flags.writeable
    got[...] = 7.0
    assert x.tobytes() == before.tobytes()


def test_apply_agrees_with_dense():
    rng = np.random.default_rng(99)
    for p, q in [(2, 3), (4, 3), (5, 2)]:
        k = build_commutation(p, q)
        x = rng.standard_normal(p * q)
        assert np.allclose(apply(k, x), k.dense() @ x, atol=1e-12)


def test_swap_law_and_reconstruction():
    for p, q in itertools.product(range(1, 6), range(1, 6)):
        k = build_commutation(p, q)
        rng = np.random.default_rng(p * 10 + q)
        for _ in range(10):
            x = rng.standard_normal(q)
            y = rng.standard_normal(p)
            assert np.array_equal(apply(k, kron_vec(x, y)), kron_vec(y, x))
        # converse: the swap action on basis pairs rebuilds the matrix
        recon = np.zeros((p * q, p * q))
        for j in range(q):
            for i in range(p):
                x = np.zeros(q)
                x[j] = 1.0
                y = np.zeros(p)
                y[i] = 1.0
                recon[:, j * p + i] = kron_vec(y, x)
        assert np.array_equal(recon, k.dense())


class TestIndexMaps:
    def test_block_structure_of_ones(self):
        # K is a p x q grid of q x p blocks, and the 1 of block (i, j) sits at
        # in-block position (j, i): flat 1-based (s, t) = ((i-1)q + j, (j-1)p + i)
        p, q = 3, 4
        dense = build_commutation(p, q).dense()
        for i in range(1, p + 1):
            for j in range(1, q + 1):
                assert dense[(i - 1) * q + j - 1, (j - 1) * p + i - 1] == 1.0
        assert dense.sum() == p * q


class TestStructuralConstants:
    @pytest.mark.parametrize("p", range(1, 9))
    def test_trace_square(self, p):
        assert trace_commutation(p) == p

    def test_trace_matches_dense_diagonal(self):
        assert trace_commutation(5) == int(np.trace(build_commutation(5, 5).dense()))

    @pytest.mark.parametrize("p", range(1, 7))
    def test_det_square_closed_form(self, p):
        assert det_commutation(p, p) == (-1) ** (p * (p - 1) // 2)

    def test_det_rectangular_against_brute_inversions(self):
        for p, q in [(2, 3), (3, 2), (2, 4), (4, 3)]:
            images = (build_commutation(p, q).idx + 1).tolist()
            inversions = sum(
                1
                for a, b in itertools.combinations(range(len(images)), 2)
                if images[a] > images[b]
            )
            assert det_commutation(p, q) == (-1) ** inversions
        assert det_commutation(2, 3) == -1  # frozen: 3 inversions

    def test_det_agrees_with_elimination(self):
        from commutant import linalg

        for p, q in [(2, 3), (3, 3), (4, 2)]:
            dense = build_commutation(p, q).dense()
            assert det_commutation(p, q) == pytest.approx(linalg.det(dense))


class TestTransposeInverse:
    @pytest.mark.parametrize("p,q", [(2, 3), (3, 2), (4, 5), (1, 4)])
    def test_transpose_is_swapped_sizes(self, p, q):
        k = build_commutation(p, q)
        kt = transpose_matrix(k)
        assert (kt.p, kt.q) == (q, p)
        assert np.array_equal(kt.dense(), k.dense().T)
        assert np.array_equal(kt.dense(), build_commutation(q, p).dense())

    @pytest.mark.parametrize("p,q", [(2, 3), (3, 4), (5, 2)])
    def test_mutual_inverse(self, p, q):
        kpq = build_commutation(p, q).dense()
        kqp = build_commutation(q, p).dense()
        assert np.array_equal(kpq @ kqp, np.eye(p * q))
        assert np.array_equal(kqp @ kpq, np.eye(p * q))

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_square_case_involution(self, p):
        dense = build_commutation(p, p).dense()
        assert np.array_equal(dense @ dense, np.eye(p * p))
        assert np.array_equal(dense, dense.T)


class TestConjugateKron:
    def test_identity_factors(self):
        assert np.array_equal(conjugate_kron(np.eye(2), np.eye(3)), np.eye(6))

    @pytest.mark.parametrize("p,q", [(2, 2), (2, 3), (3, 4)])
    def test_matches_direct_kron(self, p, q):
        rng = np.random.default_rng(p * 31 + q)
        a = rng.standard_normal((p, p))
        b = rng.standard_normal((q, q))
        assert np.max(np.abs(conjugate_kron(a, b) - kron(a, b))) <= 1e-12

    def test_orientation_regression(self):
        # the sandwich must be K_{p,q} (B ⊗ A) K_{q,p}; with K_{p,q} on both
        # sides it fails whenever p != q (frozen one-time orientation check)
        rng = np.random.default_rng(61)
        a = rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3))
        kpq = build_commutation(2, 3).dense()
        wrong = kpq @ kron(b, a) @ kpq
        assert not np.allclose(wrong, kron(a, b), atol=1e-6)

    def test_rejects_rectangular(self):
        with pytest.raises(DimensionError):
            conjugate_kron(np.zeros((2, 3)), np.eye(2))


# ---------------------------------------------------------------- properties
# Oracles below never read K's index array: they rebuild K from its
# defining action or from the literal 1-based formula.

DIMS = st.integers(1, 40)


def literal_k(p, q):
    # row (i-1)q + j has its 1 in column i + (j-1)p
    mat = np.zeros((p * q, p * q))
    for i in range(1, p + 1):
        for j in range(1, q + 1):
            mat[(i - 1) * q + j - 1, (j - 1) * p + i - 1] = 1.0
    return mat


@given(DIMS, DIMS, st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_prop_apply_transposes(p, q, seed):
    x = np.random.default_rng(seed).standard_normal((p, q))
    got = apply(build_commutation(p, q), x.reshape(-1, order="F"))
    assert np.array_equal(got, x.T.reshape(-1, order="F"))


@given(DIMS, DIMS)
@settings(max_examples=40, deadline=None)
def test_prop_dense_routes_agree(p, q):
    dense = build_commutation(p, q).dense()
    assert np.array_equal(dense, build_commutation_rank1(p, q))
    assert np.array_equal(dense, literal_k(p, q))


@given(DIMS, DIMS)
@settings(max_examples=60, deadline=None)
def test_prop_transpose_has_swapped_perm(p, q):
    k = build_commutation(p, q)
    kt = transpose_matrix(k)
    assert (kt.p, kt.q) == (q, p)
    want = [0] * (p * q)
    for i in range(1, q + 1):
        for j in range(1, p + 1):
            want[(i - 1) * p + j - 1] = i + (j - 1) * q
    assert (kt.idx + 1).tolist() == want
    assert np.array_equal(kt.idx, np.argsort(k.idx))


@given(DIMS, DIMS)
@settings(max_examples=60, deadline=None)
def test_prop_det_closed_form(p, q):
    assert det_commutation(p, q) == (-1) ** (p * (p - 1) * q * (q - 1) // 4)
    # the oracle: the cycle parity of the stored index
    parity = Permutation((build_commutation(p, q).idx + 1).tolist()).sign()
    assert det_commutation(p, q) == parity


@pytest.mark.parametrize("p", range(1, 41))
def test_trace_is_p_up_to_40(p):
    assert trace_commutation(p) == p
    # the oracle: the fixed points of the stored index
    idx = build_commutation(p, p).idx
    assert trace_commutation(p) == int(np.count_nonzero(idx == np.arange(p * p)))


@pytest.mark.parametrize("p", [0, -3])
def test_trace_refuses_a_nonpositive_size(p):
    with pytest.raises(ArgumentError):
        trace_commutation(p)


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_conjugate_kron_is_exact(p, q, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((p, p))
    b = rng.standard_normal((q, q))
    assert np.array_equal(conjugate_kron(a, b), np.kron(a, b))


@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**31 - 1))
@example(1, 12, 0)
@example(12, 1, 1)
@example(5, 11, 2)
@settings(max_examples=80, deadline=None)
def test_conjugate_kron_is_np_kron_up_to_12(p, q, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((p, p)), rng.standard_normal((q, q))
    assert np.array_equal(conjugate_kron(a, b), np.kron(a, b))
    with pytest.raises(DimensionError):
        conjugate_kron(rng.standard_normal((p, p + 1)), b)
    with pytest.raises(DimensionError):
        conjugate_kron(a, rng.standard_normal((q + 1, q)))


def test_index_is_read_only():
    k = build_commutation(3, 4)
    with pytest.raises(ValueError):
        k.idx[0] = 1
    assert k == build_commutation(3, 4) and k != build_commutation(4, 3)


class TestDenseBudget:
    # every size here is refused before anything of its size is allocated

    def test_dense_k_over_budget(self):
        with pytest.raises(DomainError):
            build_commutation(5000, 5000).dense()
        with pytest.raises(DomainError):
            build_commutation_rank1(5000, 5000)

    def test_budget_boundary(self, monkeypatch):
        monkeypatch.setattr(errors_mod, "MAX_DENSE_ENTRIES", 36)
        assert build_commutation(2, 3).dense().size == 36
        assert build_commutation_rank1(3, 2).size == 36
        with pytest.raises(DomainError):
            build_commutation(2, 4).dense()
        with pytest.raises(DomainError):
            build_commutation_rank1(7, 1)

    def test_conjugate_kron_budget(self, monkeypatch):
        monkeypatch.setattr(errors_mod, "MAX_DENSE_ENTRIES", 36)
        assert conjugate_kron(np.eye(2), np.eye(3)).size == 36
        with pytest.raises(DomainError):
            conjugate_kron(np.eye(7), np.eye(1))
        monkeypatch.undo()
        with pytest.raises(DomainError):
            conjugate_kron(np.eye(1000), np.eye(1000))

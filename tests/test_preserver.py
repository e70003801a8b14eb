import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commutant import (
    ArgumentError,
    DimensionError,
    DomainError,
    Permutation,
    SingularMatrixError,
    apply_rank_preserver,
    build_gct,
    compose_rank_preservers,
    fixes_identity,
    gct_dense,
    identity_tensor,
    is_determinant_preserver,
    is_rank1_tensor,
    matrix_preserver,
    mul_2m_on_m,
    permute_modes,
    rank1,
    rank_preserver,
    sym_power,
    sym_preserver,
    verify_rank_preservation,
)
from commutant import linalg
from commutant import preserver as preserver_mod
from commutant.commutation_tensor import _operator
from commutant.preserver import VerificationReport
from commutant.verify import _random_invertible as invertible


class TestRankPreserverConstruction:
    def test_singular_matrix_rejected(self):
        with pytest.raises(SingularMatrixError):
            rank_preserver([np.eye(2), np.array([[1.0, 2.0], [2.0, 4.0]])], Permutation.identity(2))

    def test_degree_mismatch(self):
        with pytest.raises(DimensionError):
            rank_preserver([np.eye(2)] * 3, Permutation.identity(2))

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            rank_preserver([np.eye(2), np.eye(3)], Permutation.identity(2))

    def test_non_finite_matrix_rejected(self):
        # a NaN slips through every pivot comparison, so it is refused first
        for bad in (np.nan, np.inf):
            mat = np.eye(2)
            mat[0, 0] = bad
            with pytest.raises(DomainError):
                rank_preserver([np.eye(2), mat], Permutation.identity(2))
            with pytest.raises(DomainError):
                sym_preserver(mat, 2)
            with pytest.raises(DomainError):
                matrix_preserver(np.eye(2), mat)


class TestOneType:
    @pytest.mark.parametrize("transposed,tau", [(False, [1, 2]), (True, [2, 1])])
    def test_matrix_preserver_is_the_rank_preserver_of_p_and_q_transposed(self, transposed, tau):
        rng = np.random.default_rng(85)
        p, q = invertible(rng, 3), invertible(rng, 3)
        got = matrix_preserver(p, q, transposed)
        want = rank_preserver([p, q.T], Permutation(tau))
        assert got.tau == want.tau == Permutation(tau)
        assert len(got.generators) == 2
        assert all(np.array_equal(a, b) for a, b in zip(got.generators, want.generators))

    def test_sym_preserver_holds_one_frozen_copy_on_every_mode(self):
        b = invertible(np.random.default_rng(86), 3)
        phi = sym_preserver(b, 4)
        assert phi.tau == Permutation.identity(4) and len(phi.generators) == 4
        assert all(mat is phi.generators[0] for mat in phi.generators)
        assert not phi.generators[0].flags.writeable
        assert not np.shares_memory(phi.generators[0], b)
        assert np.array_equal(phi.generators[0], b)


class TestApplyRankPreserver:
    def test_identity_preserver(self):
        rng = np.random.default_rng(80)
        phi = rank_preserver([np.eye(2)] * 3, Permutation.identity(3))
        a = rng.standard_normal((2, 2, 2))
        assert np.array_equal(apply_rank_preserver(phi, a).array, a)

    def test_pure_mode_shuffle(self):
        rng = np.random.default_rng(81)
        tau = Permutation([2, 3, 1])
        phi = rank_preserver([np.eye(2)] * 3, tau)
        a = rng.standard_normal((2, 2, 2))
        got = apply_rank_preserver(phi, a).array
        # factor k of the image comes from factor tau(k) of the input
        vs = [rng.standard_normal(2) for _ in range(3)]
        img = apply_rank_preserver(phi, rank1(vs))
        want = rank1([vs[tau(k) - 1] for k in (1, 2, 3)])
        assert np.allclose(img.array, want.array, atol=1e-12)
        assert got.shape == (2, 2, 2)

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_rank1_pushthrough_all_tau(self, m, n):
        rng = np.random.default_rng(m * 17 + n)
        for tau in Permutation.all(m):
            mats = [invertible(rng, n) for _ in range(m)]
            phi = rank_preserver(mats, tau)
            vs = [rng.standard_normal(n) for _ in range(m)]
            img = apply_rank_preserver(phi, rank1(vs))
            want = rank1([mats[k - 1] @ vs[tau(k) - 1] for k in range(1, m + 1)])
            assert np.allclose(img.array, want.array, atol=1e-9)

    def test_matches_generator_tensor_route(self):
        # independent dense route: shuffle first, then act with the
        # one-matrix-per-mode generator tensor
        rng = np.random.default_rng(83)
        m, n = 3, 2
        mats = [invertible(rng, n) for _ in range(m)]
        tau = Permutation([3, 1, 2])
        phi = rank_preserver(mats, tau)
        a = rng.standard_normal((n,) * m)
        got = apply_rank_preserver(phi, a).array
        shuffled = permute_modes(a, tau.inverse())
        want = mul_2m_on_m(gct_dense(build_gct(mats)), shuffled).array
        assert np.allclose(got, want, atol=1e-12)

    def test_linear(self):
        rng = np.random.default_rng(84)
        phi = rank_preserver([invertible(rng, 2) for _ in range(3)], Permutation([2, 1, 3]))
        a = rng.standard_normal((2, 2, 2))
        b = rng.standard_normal((2, 2, 2))
        lhs = apply_rank_preserver(phi, 2.0 * a + b).array
        rhs = 2.0 * apply_rank_preserver(phi, a).array + apply_rank_preserver(phi, b).array
        assert np.allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("n", [17, 20, 33])
    @pytest.mark.parametrize("images", [[1, 2], [2, 1]], ids=["id", "swap"])
    def test_a_matrix_gives_the_same_bits_in_either_layout(self, n, images):
        # C- and F-ordered copies of one matrix: BLAS may round a product
        # differently by the layout it is handed, so the layout is fixed first
        rng = np.random.default_rng(n)
        for _ in range(8):
            mats = [rng.standard_normal((n, n)) + 6 * np.eye(n) for _ in range(2)]
            phi = rank_preserver(mats, Permutation(images))
            a = rng.standard_normal((n, n))
            c_bits = apply_rank_preserver(phi, np.ascontiguousarray(a)).array.tobytes()
            f_bits = apply_rank_preserver(phi, np.asfortranarray(a)).array.tobytes()
            assert c_bits == f_bits

    def test_shape_mismatch(self):
        phi = rank_preserver([np.eye(2)] * 2, Permutation.identity(2))
        with pytest.raises(DimensionError):
            apply_rank_preserver(phi, np.zeros((2, 2, 2)))
        with pytest.raises(DimensionError):
            apply_rank_preserver(phi, np.zeros((3, 3)))


class TestOrderTwoReduction:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_identity_tau_is_paq(self, n):
        rng = np.random.default_rng(90 + n)
        b1, b2 = invertible(rng, n), invertible(rng, n)
        phi = rank_preserver([b1, b2], Permutation.identity(2))
        mp = matrix_preserver(b1, b2.T)
        a = rng.standard_normal((n, n))
        lhs = apply_rank_preserver(phi, a).array
        rhs = apply_rank_preserver(mp, a).array
        assert np.max(np.abs(lhs - rhs)) <= 1e-12
        assert np.allclose(rhs, b1 @ a @ b2.T, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_swap_tau_is_patq(self, n):
        rng = np.random.default_rng(95 + n)
        b1, b2 = invertible(rng, n), invertible(rng, n)
        phi = rank_preserver([b1, b2], Permutation([2, 1]))
        mp = matrix_preserver(b1, b2.T, transposed=True)
        a = rng.standard_normal((n, n))
        lhs = apply_rank_preserver(phi, a).array
        rhs = apply_rank_preserver(mp, a).array
        assert np.max(np.abs(lhs - rhs)) <= 1e-12
        assert np.allclose(rhs, b1 @ a.T @ b2.T, atol=1e-12)

    def test_mode_product_correspondence_regression(self):
        # the sandwich form under the fixed mode-product orientation: the
        # operator (B1, B2) acts as X x1 B1 x2 B2, which equals B1 X B2^T
        # (and differs from B1 X B2 generically)
        rng = np.random.default_rng(100)
        b1, b2, x = (rng.standard_normal((3, 3)) for _ in range(3))
        got = apply_rank_preserver(build_gct([b1, b2]), x).array
        assert np.allclose(got, b1 @ x @ b2.T, atol=1e-12)
        assert not np.allclose(got, b1 @ x @ b2, atol=1e-6)


class TestApplySymPreserver:
    def test_identity(self):
        rng = np.random.default_rng(101)
        x = rng.standard_normal((2, 2, 2))
        phi = sym_preserver(np.eye(2), 3)
        assert np.array_equal(apply_rank_preserver(phi, x).array, x)

    def test_shear_on_identity_matrix(self):
        phi = sym_preserver(np.array([[1.0, 1.0], [0.0, 1.0]]), 2)
        got = apply_rank_preserver(phi, np.eye(2)).array
        # B I B^T for the shear
        assert np.array_equal(got, [[2.0, 1.0], [1.0, 1.0]])

    def test_maps_sym_cp_termwise(self):
        rng = np.random.default_rng(102)
        b = invertible(rng, 3)
        vs = [rng.standard_normal(3) for _ in range(2)]
        ws = [1.5, -0.5]
        phi = sym_preserver(b, 3)

        def cp_sum(vectors):
            return sum(w * sym_power(v, 3).array for w, v in zip(ws, vectors))

        lhs = apply_rank_preserver(phi, cp_sum(vs)).array
        rhs = cp_sum([b @ v for v in vs])
        assert np.allclose(lhs, rhs, atol=1e-9)


class TestComposition:
    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2)])
    def test_closure(self, m, n):
        rng = np.random.default_rng(m * 23 + n)
        taus = list(Permutation.all(m))
        for trial in range(10):
            t1 = taus[int(rng.integers(len(taus)))]
            t2 = taus[int(rng.integers(len(taus)))]
            inner = rank_preserver([invertible(rng, n) for _ in range(m)], t1)
            outer = rank_preserver([invertible(rng, n) for _ in range(m)], t2)
            comp = compose_rank_preservers(outer, inner)
            a = rng.standard_normal((n,) * m)
            lhs = apply_rank_preserver(outer, apply_rank_preserver(inner, a)).array
            rhs = apply_rank_preserver(comp, a).array
            scale = max(1.0, float(np.max(np.abs(lhs))))
            assert np.max(np.abs(lhs - rhs)) <= 1e-9 * scale


class TestDeterminantPreserver:
    def test_det_one_pair(self):
        p = np.array([[2.0, 0.0], [0.0, 1.0]])
        q = np.array([[0.5, 0.0], [0.0, 1.0]])
        assert is_determinant_preserver(matrix_preserver(p, q))

    def test_needs_two_modes(self):
        with pytest.raises(DimensionError):
            is_determinant_preserver(rank_preserver([np.eye(2)] * 3, Permutation.identity(3)))

    def test_det_scaling_pair(self):
        p = 2.0 * np.eye(2)
        assert not is_determinant_preserver(matrix_preserver(p, np.eye(2)))

    def test_preserves_or_scales(self):
        rng = np.random.default_rng(110)
        for n in (2, 3, 4):
            p, q0 = invertible(rng, n), invertible(rng, n)
            d = linalg.det(p @ q0)
            if d < 0:
                q0 = q0.copy()
                q0[:, 0] = -q0[:, 0]
                d = -d
            q = q0 / d ** (1.0 / n)
            phi = matrix_preserver(p, q)
            assert is_determinant_preserver(phi)
            for _ in range(20):
                x = rng.standard_normal((n, n))
                dx = linalg.det(x)
                assert linalg.det(apply_rank_preserver(phi, x).array) == pytest.approx(
                    dx, abs=1e-9 * max(1.0, abs(dx))
                )

    def test_controlled_scaling(self):
        # det(PQ) = 4: every determinant is scaled by exactly 4
        rng = np.random.default_rng(111)
        n = 3
        p, q0 = invertible(rng, n), invertible(rng, n)
        d = linalg.det(p @ q0)
        if d < 0:
            q0 = q0.copy()
            q0[:, 0] = -q0[:, 0]
            d = -d
        q = q0 * (4.0 / d) ** (1.0 / n)
        phi = matrix_preserver(p, q)
        assert not is_determinant_preserver(phi)
        x = rng.standard_normal((n, n))
        assert linalg.det(apply_rank_preserver(phi, x).array) == pytest.approx(
            4.0 * linalg.det(x), rel=1e-9
        )


class TestFixesIdentity:
    def test_any_preserver_is_accepted(self):
        # a permutation matrix on every mode fixes the identity whatever tau is
        pm = Permutation([3, 1, 2]).matrix()
        assert fixes_identity(rank_preserver([pm] * 3, Permutation([2, 3, 1])))
        # (B, B^-T) maps I to B I B^-1 = I; powers of two keep it exact
        b, b_inv_t = np.diag([2.0, 0.5, 4.0]), np.diag([0.5, 2.0, 0.25])
        assert fixes_identity(rank_preserver([b, b_inv_t], Permutation.identity(2)))
        assert not fixes_identity(rank_preserver([b, b], Permutation([2, 1])))

    @pytest.mark.parametrize("m", [2, 3])
    def test_permutation_matrices_fix(self, m):
        for pi in Permutation.all(3):
            assert fixes_identity(sym_preserver(pi.matrix(), m))

    @pytest.mark.parametrize("m", [2, 3])
    def test_non_permutations_do_not(self, m):
        rng = np.random.default_rng(120 + m)
        count = 0
        while count < 20:
            b = invertible(rng, 3)
            count += 1
            assert not fixes_identity(sym_preserver(b, m))
        shear = np.eye(3)
        shear[0, 1] = 1.0
        assert not fixes_identity(sym_preserver(shear, m))
        assert not fixes_identity(sym_preserver(2.0 * np.eye(3), m))

    def test_identity_tensor_shapes(self):
        assert np.array_equal(identity_tensor(2, 4).array, np.eye(4))
        t = identity_tensor(4, 2)
        assert t.array.sum() == 2.0

    def test_at_order_2_every_orthogonal_matrix_fixes(self):
        # I is I_n at m = 2, and B I_n Bᵀ = I_n for orthogonal B
        c, s = np.cos(0.3), np.sin(0.3)
        rotation = np.array([[c, -s], [s, c]])
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        assert fixes_identity(sym_preserver(rotation, 2))
        assert fixes_identity(sym_preserver(hadamard, 2))
        # from m = 3 on only permutation matrices do (CP uniqueness)
        assert not fixes_identity(sym_preserver(rotation, 3))
        assert not fixes_identity(sym_preserver(hadamard, 3))

    @pytest.mark.parametrize("m,fixed", [(2, True), (3, False), (4, True), (5, False)])
    def test_a_signed_permutation_fixes_at_even_order(self, m, fixed):
        # column -e_j has the m-th outer power e_j^⊗m exactly when m is even
        signed = np.diag([-1.0, 1.0, 1.0])[[2, 0, 1]]
        assert fixes_identity(sym_preserver(signed, m)) is fixed

    def test_at_order_1_unit_row_sums_fix(self):
        # I is the all-ones vector at m = 1, and B 1 = 1 for unit row sums
        assert fixes_identity(sym_preserver([[2.0, -1.0], [0.0, 1.0]], 1))
        assert not fixes_identity(sym_preserver([[2.0, 0.0], [0.0, 1.0]], 1))
        assert not fixes_identity(sym_preserver([[2.0, -1.0], [0.0, 1.0]], 2))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_a_non_finite_generator_fails_without_warnings(self, bad, m):
        b = np.eye(3)
        b[0, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not fixes_identity(build_gct([b] * m))
            assert not fixes_identity(build_gct([np.eye(3)] * (m - 1) + [b]))

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8])
    def test_at_n_1_the_verdict_is_the_images(self, m):
        # the diagonal stride is m at n = 1, where (n^m - 1)/(n - 1) is 0/0
        values = [1.0, -1.0, 2.0, 0.5, -0.0, 1.0 + 1e-13, 1.0 + 1e-11, np.inf, np.nan]
        rng = np.random.default_rng(600 + m)
        stacks = [[v] * m for v in values] + [list(rng.choice(values, m)) for _ in range(20)]
        ident = identity_tensor(m, 1).array
        for stack in stacks:
            phi = build_gct([[[v]] for v in stack])
            with np.errstate(all="ignore"):  # a non-finite image fails
                image = apply_rank_preserver(phi, ident).array
                want = bool(np.abs(image - ident).max() <= preserver_mod.EXACT_TOL)
            assert fixes_identity(phi) is want, stack

    def test_an_operator_over_the_dense_budget_is_refused_before_allocating(self):
        phi = build_gct([np.eye(17)] * 6)  # 17^6 entries are over 2^24
        tracemalloc.start()
        try:
            with pytest.raises(
                DomainError,
                match=r"^identity tensor: \(17, 17, 17, 17, 17, 17\) is over MAX_DENSE_ENTRIES",
            ):
                fixes_identity(phi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        with pytest.raises(DimensionError, match="^identity tensor: order 65 is over"):
            fixes_identity(build_gct([np.eye(1)] * 65))


#: generator kinds of the fixes_identity property
GENERATOR_KINDS = (
    "permutation", "signed-permutation", "gaussian", "perturbed", "negative-zero", "inf", "nan",
)


def _generator(rng, kind, n):
    """An n x n generator of ``kind``: a permutation matrix, signed or with
    -0.0 for its zeros, one entry moved by ±1e-12 or made inf or NaN; or a
    Gaussian matrix."""
    if kind == "gaussian":
        return rng.standard_normal((n, n))
    b = np.eye(n)[rng.permutation(n)]
    if kind == "signed-permutation":
        b *= rng.choice([-1.0, 1.0], n)
    elif kind == "negative-zero":
        b[b == 0.0] = -0.0
    elif kind != "permutation":
        step = {"perturbed": rng.choice([-1e-12, 1e-12]), "inf": np.inf, "nan": np.nan}[kind]
        b.flat[rng.integers(n * n)] += step
    return b


class TestFixesIdentityProperty:
    """fixes_identity decides from one product on the generators; its
    verdict and its image are the dense route's, which builds I and applies
    the operator to it."""

    @given(
        st.integers(1, 5).flatmap(
            lambda m: st.tuples(
                st.permutations(range(1, m + 1)),
                st.lists(st.sampled_from(GENERATOR_KINDS), min_size=m, max_size=m),
            )
        ),
        st.integers(1, 6),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=400, deadline=None)
    def test_agrees_with_the_dense_route(self, tau_kinds, n, shared, seed):
        images, kinds = tau_kinds
        rng = np.random.default_rng(seed)
        m = len(images)
        if shared:  # one matrix on every mode, as a symmetric preserver has
            gens = [_generator(rng, kinds[0], n)] * m
        else:
            gens = [_generator(rng, kind, n) for kind in kinds]
        phi = _operator(gens, Permutation(images))  # no invertibility gate
        ident = identity_tensor(m, n)
        with np.errstate(all="ignore"):
            want = apply_rank_preserver(phi, ident).array
            want_fixed = bool(np.max(np.abs(want - ident.array)) <= preserver_mod.EXACT_TOL)
            got = preserver_mod._identity_image(phi)
        assert fixes_identity(phi) == want_fixed
        if all(np.isfinite(g).all() for g in gens):
            # the last mode is first in the one product's (n, n^(m-1)) layout
            got = np.moveaxis(got.reshape((n,) * m), 0, -1)
            assert np.abs(got).tobytes() == np.abs(want).tobytes()


class TestRank1Certification:
    def test_accepts_rank1(self):
        rng = np.random.default_rng(130)
        vs = [rng.standard_normal(3) for _ in range(3)]
        assert is_rank1_tensor(rank1(vs))
        assert is_rank1_tensor(rank1(vs[:2]))

    def test_rejects_rank2(self):
        assert not is_rank1_tensor(np.eye(3))
        assert not is_rank1_tensor(identity_tensor(3, 2))
        assert not is_rank1_tensor(np.zeros((2, 2)))

    def test_mode1_minors_alone_would_miss_this(self):
        # sum of two rank-1 terms sharing the mode-1 factor: every 2x2 minor
        # of the mode-1 unfolding vanishes, yet the tensor has rank 2;
        # the certificate must consult the other unfoldings
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        t = rank1([e1, e1, e1]).array + rank1([e1, e2, e2]).array
        assert not is_rank1_tensor(t)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(3,), (2, 2), (2, 3, 2)])
    def test_rejects_non_finite_without_warnings(self, bad, shape):
        t = np.ones(shape)
        t.flat[-1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not is_rank1_tensor(t)


def _svd_rank1(arr):
    """Reference certificate: every mode unfolding has sigma_2 <= 1e-9 sigma_1."""
    for k in range(arr.ndim):
        unfolding = np.moveaxis(arr, k, 0).reshape(arr.shape[k], -1)
        sv = np.linalg.svd(unfolding, compute_uv=False)
        if sv.size > 1 and sv[1] > 1e-9 * sv[0]:
            return False
    return True


class TestRank1CertificationProperty:
    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=5),
        st.sampled_from(["rank1", "rank2", "near-rank1"]),
        st.floats(-3.0, 6.0),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_svd_reference(self, shape, kind, log_scale, seed):
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        t = scale * rank1([rng.standard_normal(d) for d in shape]).array
        if kind == "rank2":
            t = t + scale * rank1([rng.standard_normal(d) for d in shape]).array
        elif kind == "near-rank1":
            t = t + 1e-5 * scale * rng.standard_normal(t.shape)
        want = _svd_rank1(t)
        assert is_rank1_tensor(t) == want
        if sum(d > 1 for d in shape) >= 2:
            # the reference is not vacuous: the kind decides the answer
            assert want == (kind == "rank1")


class TestVerifyRankPreservation:
    def test_all_pass(self):
        rng = np.random.default_rng(140)
        for m, n, tau in [(2, 3, Permutation([2, 1])), (3, 2, Permutation([3, 2, 1]))]:
            phi = rank_preserver([invertible(rng, n) for _ in range(m)], tau)
            report = verify_rank_preservation(phi, trials=50, seed=7)
            assert report.trials == 50
            assert report.passed == 50
            assert report.all_passed
            assert report.failures == ()

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(141)
        phi = rank_preserver([invertible(rng, 2) for _ in range(2)], Permutation([2, 1]))
        r1 = verify_rank_preservation(phi, trials=10, seed=3)
        r2 = verify_rank_preservation(phi, trials=10, seed=3)
        assert (r1.trials, r1.passed, r1.failures) == (r2.trials, r2.passed, r2.failures)

    def test_an_overflowing_image_is_reported_per_trial(self):
        # 1e200 on both modes: every image is 1e400 times a unit rank-1 tensor
        phi = sym_preserver(1e200 * np.eye(2), 2)
        report = verify_rank_preservation(phi, trials=3, seed=0)
        assert (report.trials, report.passed, report.all_passed) == (3, 0, False)
        assert report.failures == tuple(f"trial {t}: image is not rank 1" for t in range(3))

    def test_only_the_overflowing_trials_fail(self):
        # (1.5e154)^2 overflows, so a trial fails when |alpha_1 beta_1| > 0.8
        phi = sym_preserver(np.diag([1.5e154, 1.0]), 2)
        report = verify_rank_preservation(phi, trials=25, seed=0)
        assert report == _reference_report(phi, 25, 0)
        assert 0 < report.passed < 25
        failed = [int(f.split()[1].rstrip(":")) for f in report.failures]
        assert report.failures == tuple(f"trial {t}: image is not rank 1" for t in failed)

    @pytest.mark.parametrize("seed", [-1, -(2**70), 1.0, 2.5, "3", None, True, False])
    def test_a_bad_seed_is_an_argument_error(self, seed):
        phi = sym_preserver(np.eye(2), 2)
        with pytest.raises(ArgumentError, match="seed must be a non-negative integer"):
            verify_rank_preservation(phi, 3, seed)

    @pytest.mark.parametrize("seed", [0, 7, np.int64(5), 2**70])
    def test_any_non_negative_integer_seed_is_taken(self, seed):
        phi = sym_preserver(np.eye(2), 2)
        assert verify_rank_preservation(phi, 2, seed) == _reference_report(phi, 2, seed)

    @pytest.mark.parametrize("trials", [2.5, 2.0, "3", None, True])
    def test_non_integer_trials_are_an_argument_error(self, trials):
        phi = sym_preserver(np.eye(2), 2)
        with pytest.raises(ArgumentError, match="trials must be an integer"):
            verify_rank_preservation(phi, trials, 0)

    def test_a_numpy_integer_trial_count_is_reported_as_an_int(self):
        phi = sym_preserver(np.eye(2), 2)
        report = verify_rank_preservation(phi, np.int64(3), 0)
        assert type(report.trials) is int and report == _reference_report(phi, 3, 0)


#: at n = 1 trial 2 of seed 16783 draws -1.3e-7 as its third factor, found
#: by a search over seeds; its third factor is drawn again
REDRAW_SEED, REDRAW_TRIAL = 16783, 2


def _reference_report(phi, trials, seed):
    """verify_rank_preservation as it ran before its trials were stacked:
    one stream, one rank-1 tensor, one action and one certificate per
    trial."""
    failures = []
    for trial in range(trials):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, trial))))
        factors = []
        for _ in range(phi.m):
            v = rng.standard_normal(phi.n)
            norm = np.linalg.norm(v)
            while norm < 1e-6:
                v = rng.standard_normal(phi.n)
                norm = np.linalg.norm(v)
            factors.append(v / norm)
        with np.errstate(over="ignore", invalid="ignore"):  # np.dot may warn of an overflow
            image = apply_rank_preserver(phi, rank1(factors))
        if not is_rank1_tensor(image):
            failures.append(f"trial {trial}: image is not rank 1")
    return VerificationReport(trials, trials - len(failures), tuple(failures))


def _stacked_cases():
    """(m, n, tau) over m <= 4 and n <= 5, every tau for m <= 3 and four
    for m = 4."""
    rng = np.random.default_rng(150)
    for m in range(1, 5):
        taus = list(Permutation.all(m))
        if m == 4:
            taus = [taus[int(i)] for i in rng.choice(len(taus), 4, replace=False)]
        for n in range(1, 6):
            for tau in taus:
                yield m, n, tau


class TestStackedTrials:
    """verify_rank_preservation certifies its trials as stacks; each trial's
    verdict must be the per-trial loop's."""

    def test_the_report_is_the_per_trial_loops(self):
        rng = np.random.default_rng(151)
        failed = passed = 0
        for m, n, tau in _stacked_cases():
            # scales from 1 to 1e200, where the images overflow
            scale = 10.0 ** float(rng.choice([0, 50, 100, 160, 200]))
            phi = rank_preserver([scale * invertible(rng, n) for _ in range(m)], tau)
            trials, seed = int(rng.integers(1, 26)), int(rng.integers(2**32))
            report = verify_rank_preservation(phi, trials, seed)
            assert report == _reference_report(phi, trials, seed), (m, n, tau, scale)
            failed += report.trials - report.passed
            passed += report.passed
        assert failed > 100 and passed > 100  # both verdicts are exercised

    def test_each_image_has_the_bits_of_apply_rank_preserver(self):
        rng = np.random.default_rng(152)
        for m, n, tau in _stacked_cases():
            phi = rank_preserver([invertible(rng, n) for _ in range(m)], tau)
            units = preserver_mod._unit_factors(int(rng.integers(1000)), range(7), m, n)
            images = preserver_mod._rank1_images(phi, units)
            for unit, image in zip(units, images):
                want = apply_rank_preserver(phi, rank1(list(unit))).array
                assert image.shape == want.shape
                assert np.ascontiguousarray(image).tobytes() == np.ascontiguousarray(want).tobytes()

    @pytest.mark.parametrize("m,n", [(3, 12), (4, 6), (5, 4), (3, 16), (2, 40)])
    def test_the_benchmark_sizes_match_the_per_trial_loop(self, m, n):
        rng = np.random.default_rng(153 + m)
        tau = Permutation(rng.permutation(m) + 1)
        phi = rank_preserver([invertible(rng, n) for _ in range(m)], tau)
        trials = max(1, 2**16 // n**m) + 3  # two stacks
        assert verify_rank_preservation(phi, trials, 11) == _reference_report(phi, trials, 11)

    def test_stacks_hold_at_most_2_16_entries(self, monkeypatch):
        sizes = []
        real = preserver_mod._rank1_stack

        def spy(images):
            sizes.append(images.shape[0])
            return real(images)

        monkeypatch.setattr(preserver_mod, "_rank1_stack", spy)
        verify_rank_preservation(sym_preserver(np.eye(8), 3), 300, 0)
        assert sizes == [128, 128, 44]
        sizes.clear()
        verify_rank_preservation(sym_preserver(np.eye(300), 2), 2, 0)  # 90000 entries each
        assert sizes == [1, 1]

    def test_a_factor_of_tiny_norm_is_drawn_again(self):
        # at n = 1 a factor is one normal; this trial's third falls below 1e-6
        seed, trial = REDRAW_SEED, REDRAW_TRIAL
        draw = np.random.default_rng((seed, trial)).standard_normal(4)
        assert np.abs(draw).min() < 1e-6
        units = preserver_mod._unit_factors(seed, range(trial + 2), 4, 1)
        assert np.abs(units).min() == 1.0  # every unit factor is ±1
        assert units[trial].tobytes() == preserver_mod._drawn_factors(seed, trial, 4, 1).tobytes()
        assert units[trial].ravel().tolist() != np.sign(draw).tolist()
        phi = rank_preserver([np.array([[2.0]])] * 4, Permutation([2, 3, 4, 1]))
        assert verify_rank_preservation(phi, trial + 2, seed) == _reference_report(phi, trial + 2, seed)

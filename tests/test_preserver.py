import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commutant import (
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

    def test_a_rank_2_image_is_reported_per_trial(self, monkeypatch):
        phi = sym_preserver(np.eye(2), 2)
        monkeypatch.setattr(
            "commutant.preserver.apply_rank_preserver", lambda phi, a: identity_tensor(2, 2)
        )
        report = verify_rank_preservation(phi, trials=3, seed=0)
        assert (report.trials, report.passed, report.all_passed) == (3, 0, False)
        assert report.failures == tuple(f"trial {t}: image is not rank 1" for t in range(3))

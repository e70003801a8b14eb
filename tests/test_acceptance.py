"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single ``ACCEPTANCE nn PASS/FAIL`` line (visible under
``pytest -s``) and enforces the documented tolerance and runtime budgets.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from commutant import (
    DenseTensor,
    Permutation,
    PreconditionError,
    apply,
    apply_rank_preserver,
    build_commutation,
    build_ctensor,
    build_gct,
    build_mode_perm_tensor,
    check_nonneg_inverse,
    conjugate_kron,
    det_commutation,
    extract_sym_rank1,
    fixes_identity,
    gct_dense,
    gct_from_permutation,
    gct_identity,
    gct_inverse,
    gct_multiply,
    is_determinant_preserver,
    kron,
    linalg,
    matrix_preserver,
    mode_perm_dense,
    mul_2m,
    mul_2m_on_m,
    permute_modes,
    rank_preserver,
    serialize,
    sym_power,
    sym_preserver,
    tensor_transpose,
    trace_commutation,
    vec,
    verify_rank_preservation,
)
from commutant.cli import main as cli_main

# an input generator, not an oracle: the tests draw their matrices the way
# the verify suites do
from commutant.verify import _random_invertible

GOLDEN_K23 = np.array(
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


@contextlib.contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL — {label}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS — {label}")


def test_01_kmat_golden_bytes(capsys):
    with criterion(1, "gen-kmat 2 3 emits the exact 6x6 permutation matrix"):
        code = cli_main(["gen-kmat", "2", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == serialize.matrix_to_text(GOLDEN_K23)
        best = min(
            _timed(lambda: serialize.matrix_to_text(build_commutation(2, 3).dense()))
            for _ in range(5)
        )
        assert best < 1e-3, f"generation took {best * 1e3:.3f} ms"


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_02_vec_identity_and_uniqueness():
    with criterion(2, "K vec(X) == vec(X^T) for p,q <= 5, and K is unique"):
        start = time.perf_counter()
        rng = np.random.default_rng(1001)
        for p in range(1, 6):
            for q in range(1, 6):
                k = build_commutation(p, q)
                for _ in range(20):
                    x = rng.standard_normal((p, q))
                    assert np.array_equal(apply(k, vec(x)), vec(x.T))
                recon = np.zeros((p * q, p * q))
                for j in range(q):
                    for i in range(p):
                        basis = np.zeros((p, q))
                        basis[i, j] = 1.0
                        recon[:, j * p + i] = vec(basis.T)
                assert np.array_equal(recon, k.dense())
        assert time.perf_counter() - start < 1.0


def test_03_structural_constants():
    with criterion(3, "trace p, sign determinant, involution, symmetry"):
        start = time.perf_counter()
        for p in range(1, 9):
            assert trace_commutation(p) == p
        for p in range(1, 7):
            k = build_commutation(p, p)
            assert det_commutation(p, p) == (-1) ** (p * (p - 1) // 2)
            dense = k.dense()
            assert np.array_equal(dense @ dense, np.eye(p * p))
            assert np.array_equal(dense, dense.T)
        assert time.perf_counter() - start < 1.0


def test_04_swap_law_and_converse():
    with criterion(4, "K(x ⊗ y) == y ⊗ x, and the swap action determines K"):
        rng = np.random.default_rng(1004)
        for p in range(1, 6):
            for q in range(1, 6):
                k = build_commutation(p, q)
                for _ in range(20):
                    x = rng.standard_normal(q)
                    y = rng.standard_normal(p)
                    assert np.array_equal(
                        apply(k, np.kron(x, y)), np.kron(y, x)
                    )
                recon = np.zeros((p * q, p * q))
                for j in range(q):
                    for i in range(p):
                        ex = np.zeros(q)
                        ex[j] = 1.0
                        ey = np.zeros(p)
                        ey[i] = 1.0
                        recon[:, j * p + i] = np.kron(ey, ex)
                assert np.array_equal(recon, k.dense())


def test_05_kron_conjugation():
    with criterion(5, "K-conjugation turns B ⊗ A into A ⊗ B"):
        rng = np.random.default_rng(1005)
        for p, q in ((2, 2), (2, 3), (3, 4)):
            # conjugate_kron and kron share one kernel, so also check the
            # identity itself: K_{p,q} (B ⊗ A) K_{q,p}, with K_{q,p} = K_{p,q}ᵀ
            k = build_commutation(p, q).dense()
            for _ in range(20):
                a = rng.standard_normal((p, p))
                b = rng.standard_normal((q, q))
                err = float(np.max(np.abs(conjugate_kron(a, b) - kron(a, b))))
                assert err <= 1e-12
                err = float(np.max(np.abs(conjugate_kron(a, b) - k @ kron(b, a) @ k.T)))
                assert err <= 1e-12


def test_06_tensor_transpose():
    with criterion(6, "order-4 tensor contraction transposes, six-entry support"):
        rng = np.random.default_rng(1006)
        for m in range(1, 5):
            for n in range(1, 5):
                kt = build_ctensor(m, n)
                for _ in range(20):
                    x = rng.standard_normal((m, n))
                    assert np.array_equal(tensor_transpose(kt, x), x.T)
        kt32 = build_ctensor(3, 2)
        assert float(np.sum(kt32.backing.array)) == 6.0
        assert set(np.unique(kt32.backing.array)) == {0.0, 1.0}
        for i, j, k, l in (
            (1, 1, 1, 1),
            (2, 1, 1, 2),
            (1, 2, 2, 1),
            (2, 2, 2, 2),
            (1, 3, 3, 1),
            (2, 3, 3, 2),
        ):
            assert kt32.backing.entry(i, j, k, l) == 1.0


def test_07_powers_collapse():
    with criterion(7, "odd powers reproduce the tensor, even powers its square"):
        start = time.perf_counter()
        for n in (2, 3):
            base = build_ctensor(n, n).backing
            square = mul_2m(base, base)
            power = base
            for exp in range(2, 7):
                power = mul_2m(power, base)
                want = base if exp % 2 == 1 else square
                assert np.array_equal(power.array, want.array)
        assert time.perf_counter() - start < 2.0


def test_08_group_axioms_exhaustive():
    with criterion(8, "order-4 relabeling tensors over S_3 form a group"):
        m, n = 2, 3
        perms = list(Permutation.all(n))
        elements = {pi.images: gct_from_permutation(pi, m) for pi in perms}
        ident = gct_identity(m, n)
        assert len(perms) == 6
        for pi in perms:
            g = elements[pi.images]
            for prod in (gct_multiply(g, ident), gct_multiply(ident, g)):
                assert all(
                    np.array_equal(a, b)
                    for a, b in zip(prod.generators, g.generators)
                )
            ginv = gct_inverse(g)
            for prod in (gct_multiply(g, ginv), gct_multiply(ginv, g)):
                assert all(
                    np.allclose(a, b, atol=1e-12)
                    for a, b in zip(prod.generators, ident.generators)
                )
        count = 0
        for pi1 in perms:
            for pi2 in perms:
                g1, g2 = elements[pi1.images], elements[pi2.images]
                want = elements[pi1.compose(pi2).images]
                prod = gct_multiply(g1, g2)
                assert all(
                    np.array_equal(a, b)
                    for a, b in zip(prod.generators, want.generators)
                )
                dense = mul_2m(gct_dense(g1), gct_dense(g2))
                assert np.array_equal(dense.array, gct_dense(want).array)
                count += 1
        assert count == 36


def test_09_associativity():
    with criterion(9, "the order-4 product is associative"):
        rng = np.random.default_rng(1009)
        for _ in range(50):
            a, b, c = (
                DenseTensor(rng.standard_normal((2, 2, 2, 2))) for _ in range(3)
            )
            left = mul_2m(mul_2m(a, b), c).array
            right = mul_2m(a, mul_2m(b, c)).array
            assert float(np.max(np.abs(left - right))) <= 1e-12


def test_10_mode_permutation_lemma():
    with criterion(10, "index shuffle equals contraction by the relabeling tensor"):
        rng = np.random.default_rng(1010)
        m, n = 3, 2
        for tau in Permutation.all(m):
            acting = mode_perm_dense(build_mode_perm_tensor(tau, n))
            for _ in range(20):
                a = DenseTensor(rng.standard_normal((n,) * m))
                shuffled = permute_modes(a, tau).array
                contracted = mul_2m_on_m(acting, a).array
                assert float(np.max(np.abs(shuffled - contracted))) <= 1e-12


def test_11_slotwise_inverse():
    with criterion(11, "the slotwise-inverse tensor is a two-sided inverse"):
        rng = np.random.default_rng(1011)
        for m in (2, 3):
            for n in (2, 3):
                ident = gct_dense(gct_identity(m, n)).array
                for _ in range(20):
                    a = _random_invertible(rng, n)
                    ga = build_gct([a] * m)
                    gb = gct_inverse(ga)
                    assert all(
                        np.allclose(gen, linalg.inv(a), atol=1e-9)
                        for gen in gb.generators
                    )
                    left = mul_2m(gct_dense(ga), gct_dense(gb)).array
                    right = mul_2m(gct_dense(gb), gct_dense(ga)).array
                    assert float(np.max(np.abs(left - ident))) <= 1e-9
                    assert float(np.max(np.abs(right - ident))) <= 1e-9


def test_12_nonnegative_inverse_structure():
    with criterion(12, "nonnegative inverse pairs unfold to generalized permutations"):
        rng = np.random.default_rng(1012)
        combos = [(m, n) for m in (2, 3) for n in (2, 3)]
        for trial in range(20):
            m, n = combos[trial % len(combos)]
            gens = []
            for _ in range(m):
                pi = list(Permutation.all(n))[int(rng.integers(math.factorial(n)))]
                scale = np.diag(rng.uniform(0.5, 2.0, size=n))
                gens.append(scale @ pi.matrix())
            a = build_gct(gens)
            b = gct_inverse(a)
            witnesses = check_nonneg_inverse(gct_dense(a), gct_dense(b))
            size = n**m
            assert len(witnesses) == size
            assert sorted(r for r, _ in witnesses) == list(range(size))
            assert sorted(c for _, c in witnesses) == list(range(size))
        doubled = gct_dense(build_gct([2.0 * np.eye(2), 2.0 * np.eye(2)]))
        with pytest.raises(PreconditionError):
            check_nonneg_inverse(doubled, doubled)


def test_13_symmetric_rank1_extraction():
    with criterion(13, "scale and axis recovered from symmetric rank-1 tensors"):
        rng = np.random.default_rng(1013)
        combos = [(m, n) for m in (2, 3, 4) for n in (2, 3)]
        for trial in range(100):
            m, n = combos[trial % len(combos)]
            y = rng.standard_normal(n)
            while np.linalg.norm(y) < 0.1:
                y = rng.standard_normal(n)
            lam = float(rng.uniform(0.2, 3.0)) * (1 if trial % 2 else -1)
            t = DenseTensor(lam * sym_power(y, m).array)
            lam_hat, y_hat = extract_sym_rank1(t)
            recon = lam_hat * sym_power(y_hat, m).array
            scale = max(1.0, float(np.max(np.abs(t.array))))
            assert float(np.max(np.abs(recon - t.array))) <= 1e-9 * scale


def test_14_rank_preserver_suite():
    with criterion(14, "preservers map rank-1 to rank-1; order-2 matches PAQ forms"):
        rng = np.random.default_rng(1014)
        for m in (2, 3):
            for n in (2, 3):
                for ti, tau in enumerate(Permutation.all(m)):
                    phi = rank_preserver(
                        [_random_invertible(rng, n) for _ in range(m)], tau
                    )
                    report = verify_rank_preservation(
                        phi, trials=50, seed=1014 + 100 * m + 10 * n + ti
                    )
                    assert report.trials == 50
                    assert report.all_passed, report.failures
        for n in (2, 3):
            b1, b2 = _random_invertible(rng, n), _random_invertible(rng, n)
            a = rng.standard_normal((n, n))
            straight = rank_preserver([b1, b2], Permutation([1, 2]))
            got = apply_rank_preserver(straight, a).array
            assert float(np.max(np.abs(got - b1 @ a @ b2.T))) <= 1e-12
            swapped = rank_preserver([b1, b2], Permutation([2, 1]))
            got = apply_rank_preserver(swapped, a).array
            assert float(np.max(np.abs(got - b1 @ a.T @ b2.T))) <= 1e-12


def test_15_determinant_preserver():
    with criterion(15, "unit-product pairs preserve determinants; scaled pairs do not"):
        rng = np.random.default_rng(1015)
        sizes = (2, 3, 4)
        for trial in range(100):
            n = sizes[trial % len(sizes)]
            p = _random_invertible(rng, n)
            q = _random_invertible(rng, n)
            d = linalg.det(p @ q)
            if d < 0:
                q = q.copy()
                q[:, 0] = -q[:, 0]
                d = -d
            q = q / d ** (1.0 / n)
            t = matrix_preserver(p, q, transposed=bool(trial % 2))
            assert is_determinant_preserver(t)
            x = rng.standard_normal((n, n))
            dx = linalg.det(x)
            dfx = linalg.det(apply_rank_preserver(t, x).array)
            assert abs(dfx - dx) <= 1e-9 * max(1.0, abs(dx))
            scaled = matrix_preserver(p, q * 4.0 ** (1.0 / n))
            assert not is_determinant_preserver(scaled)
            dgx = linalg.det(apply_rank_preserver(scaled, x).array)
            assert abs(dgx - 4.0 * dx) <= 1e-9 * max(1.0, 4.0 * abs(dx))


def test_16_identity_fixing():
    with criterion(16, "identity tensor fixed exactly by permutation matrices"):
        rng = np.random.default_rng(1016)
        n = 3
        for pi in Permutation.all(n):
            for m in (2, 3):
                assert fixes_identity(sym_preserver(pi.matrix(), m))
        for _ in range(20):
            b = _random_invertible(rng, n)
            is_permutation_like = np.allclose(
                np.abs(b) * (np.abs(b) > 1e-9), np.rint(np.abs(b))
            ) and np.allclose(b @ b.T, np.eye(n), atol=1e-9)
            assert not is_permutation_like
            for m in (2, 3):
                assert not fixes_identity(sym_preserver(b, m))

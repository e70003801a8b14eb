import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commutant import (
    DimensionError,
    DomainError,
    kron,
    kron_vec,
    unvec,
    vec,
    vec_sandwich,
)
from commutant import errors as errors_mod
from commutant import linalg


def test_vec_stacks_columns():
    x = np.array([[1.0, 3.0], [2.0, 4.0]])
    assert np.array_equal(vec(x), [1.0, 2.0, 3.0, 4.0])
    x23 = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert np.array_equal(vec(x23), [1.0, 4.0, 2.0, 5.0, 3.0, 6.0])


def test_unvec_layouts():
    # one layout, column by column; there is no layout option
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    assert np.array_equal(unvec(x, 2, 3), [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])
    with pytest.raises(TypeError):
        unvec(x, 2, 3, "row-major")


@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_vec_unvec_roundtrip(p, q, seed):
    x = np.random.default_rng(seed).standard_normal((p, q))
    assert np.array_equal(unvec(vec(x), p, q), x)


def test_unvec_errors():
    with pytest.raises(DimensionError):
        unvec(np.zeros(5), 2, 3)
    with pytest.raises(DimensionError):
        unvec(np.zeros((2, 3)), 2, 3)


def test_kron_small_blocks():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    got = kron(np.eye(2), a)
    want = np.zeros((4, 4))
    want[:2, :2] = a
    want[2:, 2:] = a
    assert np.array_equal(got, want)
    # scalar factor
    assert np.array_equal(kron([[2.0]], a), 2 * a)


def test_kron_vec_entries():
    x = np.array([1.0, 2.0])
    y = np.array([3.0, 4.0, 5.0])
    got = kron_vec(x, y)
    assert np.array_equal(got, [3.0, 4.0, 5.0, 6.0, 8.0, 10.0])


def test_kron_mixed_product():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((3, 2))
    c = rng.standard_normal((3, 4))
    d = rng.standard_normal((4, 5))
    lhs = kron(a, c) @ kron(b, d)
    rhs = kron(a @ b, c @ d)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_kron_transpose_and_inverse():
    rng = np.random.default_rng(18)
    a = rng.standard_normal((3, 2))
    b = rng.standard_normal((2, 4))
    assert np.array_equal(kron(a, b).T, kron(a.T, b.T))
    ai = rng.standard_normal((3, 3)) + 2 * np.eye(3)
    bi = rng.standard_normal((2, 2)) + 2 * np.eye(2)
    lhs = linalg.inv(kron(ai, bi))
    rhs = kron(linalg.inv(ai), linalg.inv(bi))
    assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_vec_sandwich_identity_case():
    rng = np.random.default_rng(19)
    b = rng.standard_normal((3, 3))
    got = vec_sandwich(np.eye(3), b, np.eye(3))
    assert np.allclose(got, vec(b), atol=1e-12)


def test_vec_sandwich_matches_direct_product():
    rng = np.random.default_rng(20)
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((3, 4))
    c = rng.standard_normal((4, 2))
    assert np.allclose(vec_sandwich(a, b, c), vec(a @ b @ c), atol=1e-12)
    assert np.array_equal(vec_sandwich(a, np.zeros((3, 4)), c), np.zeros(4))


def test_vec_sandwich_chain_error():
    with pytest.raises(DimensionError):
        vec_sandwich(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((3, 2)))


# ------------------------------------- properties against dense np.kron oracles
# The oracles form Cᵀ ⊗ A with np.kron, which the library never does.

_extent = st.integers(1, 12)
_seed = st.integers(0, 2**31 - 1)


@given(_extent, _extent, _extent, _extent, _seed)
@example(1, 12, 1, 12, 0)
@example(12, 1, 12, 1, 1)
@settings(max_examples=120, deadline=None)
def test_vec_sandwich_matches_dense_kronecker(m, p, q, n, seed):
    rng = np.random.default_rng(seed)
    a, b, c = (rng.standard_normal(s) for s in ((m, p), (p, q), (q, n)))
    want = np.kron(c.T, a) @ b.ravel(order="F")
    # every entry is a sum of products a·b·c; its rounding is relative to
    # the largest sum of their magnitudes
    scale = max(1.0, float(np.max(np.abs(a) @ np.abs(b) @ np.abs(c))))
    got = vec_sandwich(a, b, c)
    assert got.shape == (m * n,)
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


@given(_extent, _extent, _extent, _extent, _seed)
@example(1, 12, 7, 1, 0)
@settings(max_examples=120, deadline=None)
def test_kron_is_np_kron(m, n, r, s, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((m, n)), rng.standard_normal((r, s))
    assert np.array_equal(kron(a, b), np.kron(a, b))


@given(
    st.tuples(_extent, _extent, _extent, _extent, _extent, _extent).filter(
        lambda d: d[1] != d[2] or d[3] != d[4]
    )
)
@settings(max_examples=60, deadline=None)
def test_vec_sandwich_refuses_chains_that_do_not_compose(d):
    a, b, c = np.ones((d[0], d[1])), np.ones((d[2], d[3])), np.ones((d[4], d[5]))
    with pytest.raises(DimensionError):
        vec_sandwich(a, b, c)


def test_kron_refuses_non_matrices():
    with pytest.raises(DimensionError):
        kron(np.ones(3), np.eye(2))
    with pytest.raises(DimensionError):
        kron(np.eye(2), np.ones((2, 2, 2)))


def test_kronecker_products_check_the_dense_budget(monkeypatch):
    monkeypatch.setattr(errors_mod, "MAX_DENSE_ENTRIES", 16)
    assert kron(np.ones((2, 2)), np.ones((2, 2))).size == 16
    assert kron_vec(np.ones(4), np.ones(4)).size == 16
    with pytest.raises(DomainError):
        kron(np.ones((2, 3)), np.ones((3, 1)))
    with pytest.raises(DomainError):
        kron_vec(np.ones(17), np.ones(1))


def test_kron_over_budget():
    # 10^12 float64s are 7 TiB
    with pytest.raises(DomainError):
        kron(np.eye(1000), np.eye(1000))

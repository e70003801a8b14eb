import numpy as np
import pytest

from commutant import DimensionError, DomainError, SingularMatrixError
from commutant import linalg


def test_det_small_cases():
    assert linalg.det([[1.0]]) == 1.0
    assert linalg.det([[1.0, 2.0], [3.0, 4.0]]) == pytest.approx(-2.0)
    assert linalg.det(np.eye(5)) == 1.0
    # a permutation matrix with an odd permutation
    p = np.zeros((3, 3))
    p[1, 0] = p[0, 1] = p[2, 2] = 1.0
    assert linalg.det(p) == -1.0


def test_det_singular_snaps_to_zero():
    assert linalg.det([[1.0, 2.0], [2.0, 4.0]]) == 0.0
    assert linalg.det(np.zeros((3, 3))) == 0.0


def test_det_matches_numpy_on_random():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        a = rng.standard_normal((n, n))
        assert linalg.det(a) == pytest.approx(np.linalg.det(a), rel=1e-9, abs=1e-11)


def test_inv_exact_and_random():
    a = [[2.0, 1.0], [1.0, 1.0]]  # det 1, integer inverse
    assert np.allclose(linalg.inv(a), [[1.0, -1.0], [-1.0, 2.0]], atol=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        a = rng.standard_normal((n, n)) + 2 * np.eye(n)
        assert np.allclose(linalg.inv(a) @ a, np.eye(n), atol=1e-9)
        assert np.allclose(linalg.inv(a), np.linalg.inv(a), atol=1e-9)


def test_inv_singular_raises():
    with pytest.raises(SingularMatrixError):
        linalg.inv([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError):
        linalg.inv(np.zeros((2, 2)))
    # pivot just below the threshold
    with pytest.raises(SingularMatrixError):
        linalg.inv([[1e-11]])


def test_shape_errors():
    with pytest.raises(DimensionError):
        linalg.det([[1.0, 2.0]])
    with pytest.raises(DimensionError):
        linalg.inv(np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        linalg.det(np.zeros(4))


# Earlier elimination loops of det and inv, kept as references: det must
# match its loop bit for bit, and inv its loop to rounding.


def _det_reference(mat):
    a = np.array(mat, dtype=float)
    n = a.shape[0]
    sign = 1.0
    for col in range(n):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        if a[piv, col] == 0.0:
            return 0.0
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            sign = -sign
        a[col + 1 :, col:] -= np.outer(a[col + 1 :, col] / a[col, col], a[col, col:])
    value = sign * float(np.prod(np.diagonal(a)))
    return 0.0 if abs(value) < linalg.DET_SINGULAR_TOL else value


def _inv_reference(mat):
    a = np.array(mat, dtype=float)
    n = a.shape[0]
    aug = np.hstack([a, np.eye(n)])
    for col in range(n):
        piv = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[piv, col]) < linalg.INVERSE_PIVOT_TOL:
            return None
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        aug[col] /= aug[col, col]
        for row in range(n):
            if row != col and aug[row, col] != 0.0:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, n:]


def _test_matrices(rng, count):
    """Random, low-rank (singular), integer and 0/1 matrices of sizes 1..8."""
    for i in range(count):
        rows, cols = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        kind = i % 4
        if kind == 0:
            yield rng.standard_normal((rows, cols))
        elif kind == 1:
            k = int(rng.integers(1, min(rows, cols) + 1))
            yield rng.standard_normal((rows, k)) @ rng.standard_normal((k, cols))
        elif kind == 2:
            yield rng.integers(-3, 4, (rows, cols)).astype(float)
        else:
            yield rng.integers(0, 2, (rows, cols)).astype(float)


def test_det_matches_the_reference_loop_bit_for_bit():
    rng = np.random.default_rng(31)
    for a in _test_matrices(rng, 1200):
        sq = a[: min(a.shape), : min(a.shape)]
        got, want = linalg.det(sq), _det_reference(sq)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_inv_matches_the_reference_loop():
    rng = np.random.default_rng(37)
    for a in _test_matrices(rng, 1200):
        sq = a[: min(a.shape), : min(a.shape)]
        want = _inv_reference(sq)
        if want is None:
            with pytest.raises(SingularMatrixError):
                linalg.inv(sq)
        else:
            got = linalg.inv(sq)
            assert np.allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_matrices_are_refused(bad):
    a = np.eye(3)
    a[1, 2] = bad
    for op in (linalg.det, linalg.inv):
        with pytest.raises(DomainError):
            op(a)


def test_slogdet_agrees_with_det_and_does_not_overflow():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 6):
        a = rng.standard_normal((n, n))
        sign, logabs = linalg._slogdet(a)
        assert sign * np.exp(logabs) == pytest.approx(linalg.det(a), rel=1e-12)
    assert linalg._slogdet(np.diag([2.0, -3.0])) == (-1.0, pytest.approx(np.log(6.0)))
    assert linalg._slogdet([[1.0, 2.0], [2.0, 4.0]]) == (0.0, -np.inf)
    # det(1e10 I) = 1e400 is beyond float range; its log is not
    assert linalg._slogdet(1e10 * np.eye(40)) == (1.0, pytest.approx(400 * np.log(10.0)))

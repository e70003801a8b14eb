import math

import numpy as np
import pytest

from commutant import DimensionError, DomainError, SingularMatrixError
from commutant import linalg
from commutant.commutation_tensor import build_gct, gct_inverse


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


def _inv_vectorised_reference(mat):
    """The whole-matrix Gauss-Jordan loop ``inv`` ran before its per-column
    numpy calls were cut: same pivots, same products, same errors."""
    a = linalg._square(mat)
    n = a.shape[0]
    aug = np.hstack([a, np.eye(n)])
    for col in range(n):
        piv = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[piv, col]) < linalg.INVERSE_PIVOT_TOL:
            raise SingularMatrixError(
                f"pivot {abs(aug[piv, col]):.3e} below threshold {linalg.INVERSE_PIVOT_TOL:g}"
            )
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        aug[col] /= aug[col, col]
        factor = aug[:, col].copy()
        factor[col] = 0.0
        aug -= np.outer(factor, aug[col])
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


def _bytes_or_error(f, a):
    try:
        return f(a).tobytes()
    except Exception as exc:  # the comparison is the test
        return type(exc), str(exc)


def _gauss_jordan_cases(rng):
    """The squares of ``_test_matrices``, then scaled permutations (a row
    swap at most columns), their perturbations, and entries spread over
    1e-150..1e150, which round differently and reach the pivot threshold."""
    for a in _test_matrices(rng, 1200):
        yield a[: min(a.shape), : min(a.shape)]
    for n in (1, 2, 5, 8, 12, 16):
        for _ in range(40):
            perm = np.eye(n)[rng.permutation(n)] * rng.uniform(0.5, 2.0, n)
            yield perm
            yield perm + 1e-3 * rng.standard_normal((n, n))
            yield rng.standard_normal((n, n)) * 10.0 ** rng.integers(-150, 151, (n, n))


def test_inv_matches_the_vectorised_loop_byte_for_byte():
    singular = total = 0
    for a in _gauss_jordan_cases(np.random.default_rng(41)):
        want = _bytes_or_error(_inv_vectorised_reference, a)
        assert _bytes_or_error(linalg.inv, a) == want
        singular += isinstance(want, tuple)
        total += 1
    assert 0 < singular < total  # both outcomes are exercised


@pytest.mark.parametrize(
    "pivot", [linalg.INVERSE_PIVOT_TOL, np.nextafter(linalg.INVERSE_PIVOT_TOL, 0.0)]
)
def test_inv_at_the_pivot_threshold_matches_the_vectorised_loop(pivot):
    # the threshold itself is accepted, the float below it refused
    a = np.diag([2.0, pivot, 3.0])[[1, 0, 2]]
    got = _bytes_or_error(linalg.inv, a)
    assert got == _bytes_or_error(_inv_vectorised_reference, a)
    assert isinstance(got, bytes) == (pivot == linalg.INVERSE_PIVOT_TOL)


def _scaled_permutation(rng, n, spread):
    """A permutation matrix with entries 10^e, e in -spread..spread, times a
    uniform in [0.5, 2)."""
    a = np.zeros((n, n))
    a[rng.permutation(n), np.arange(n)] = rng.uniform(0.5, 2.0, n) * 10.0 ** rng.integers(
        -spread, spread + 1, n
    )
    return a


@pytest.fixture
def shortcuts(monkeypatch):
    """Count the stacks found nonnegative monomial."""
    found = []
    test = linalg._nonneg_monomial

    def counting(stack):
        pattern = test(stack)
        found.append(pattern is not None)
        return pattern

    monkeypatch.setattr(linalg, "_nonneg_monomial", counting)
    return found


def _inverse_generators(*mats):
    """``gct_inverse`` of the operator with generators ``mats`` and tau = id:
    the inverse of each, one monomial test for all of them."""
    return gct_inverse(build_gct(mats)).generators


def test_group_case_inverses_are_the_loops_bytes(shortcuts):
    # bytes for bytes, or the loop's error on the first matrix it refuses
    rng = np.random.default_rng(43)
    refused = 0
    for n in (1, 2, 3, 5, 8, 12):
        for spread in (0, 5, 150, 300):
            mats = [_scaled_permutation(rng, n, spread) for _ in range(3)]
            want = [_bytes_or_error(_inv_vectorised_reference, a) for a in mats]
            errors = [w for w in want if isinstance(w, tuple)]
            got = _bytes_or_error(lambda ms: np.array(_inverse_generators(*ms)), mats)
            assert got == (errors[0] if errors else b"".join(want))
            refused += bool(errors)
    assert all(shortcuts) and len(shortcuts) == 24
    assert 0 < refused < 24  # both outcomes are exercised


@pytest.mark.parametrize(
    "pivots",
    [
        {4: linalg.INVERSE_PIVOT_TOL},
        {4: np.nextafter(linalg.INVERSE_PIVOT_TOL, 0.0)},
        {4: 1e-11, 1: 1e-12},
        {4: 1e-300, 1: linalg.INVERSE_PIVOT_TOL, 2: 1e-12},
    ],
)
def test_group_case_inverse_refuses_its_first_low_column(shortcuts, pivots):
    # the loop meets the pivots in column order, whatever their rows
    a = _scaled_permutation(np.random.default_rng(44), 6, 0)
    for col, value in pivots.items():
        a[np.flatnonzero(a[:, col]), col] = value
    got = _bytes_or_error(lambda x: _inverse_generators(x)[0], a)
    assert got == _bytes_or_error(_inv_vectorised_reference, a)
    assert shortcuts == [True]
    low = [col for col, value in sorted(pivots.items()) if value < linalg.INVERSE_PIVOT_TOL]
    if not low:
        assert isinstance(got, bytes)
    else:
        want = f"pivot {pivots[low[0]]:.3e} below threshold 1e-10"
        assert got == (SingularMatrixError, want)


@pytest.mark.parametrize("edit", ["negative", "negative zero"])
def test_signed_monomials_take_the_loop(shortcuts, edit):
    # the transposed reciprocals are the loop's bits only with every
    # entry's sign bit clear
    rng = np.random.default_rng(45)
    for n in (2, 3, 5, 8):
        for _ in range(20):
            a = _scaled_permutation(rng, n, 3)
            if edit == "negative":
                rows, cols = np.nonzero(a)
                a[rows[: n // 2 + 1], cols[: n // 2 + 1]] *= -1.0
            else:
                a[tuple(np.argwhere(a == 0)[0])] = -0.0
            (got,) = _inverse_generators(a)
            assert got.tobytes() == _inv_vectorised_reference(a).tobytes()
    assert shortcuts and not any(shortcuts)


def _first_refusal(mats):
    """What ``inv`` raises on the first of ``mats`` it refuses, or None."""
    for a in mats:
        try:
            linalg.inv(a)
        except Exception as exc:  # the comparison is the test
            return type(exc), str(exc)
    return None


def _gate_outcome(mats):
    try:
        linalg._require_invertible(mats)
    except Exception as exc:  # the comparison is the test
        return type(exc), str(exc)
    return None


def _gate_matrix(rng, n, kind):
    if kind == "gaussian":
        return rng.standard_normal((n, n))
    if kind == "singular":
        r = int(rng.integers(0, n))
        return rng.standard_normal((n, r)) @ rng.standard_normal((r, n))
    if kind == "tiny":  # pivots about 1e-11, just under the threshold
        return 1e-11 * rng.standard_normal((n, n))
    if kind == "near threshold":
        return rng.standard_normal((n, n)) * 10.0 ** rng.integers(-11, -9, (n, n))
    if kind == "non-finite":
        a = rng.standard_normal((n, n))
        a[rng.integers(0, n), rng.integers(0, n)] = rng.choice([np.nan, np.inf, -np.inf])
        return a
    if kind == "integer ties":
        return rng.integers(-2, 3, (n, n)).astype(float)
    if kind == "negative zero":
        a = rng.integers(-1, 2, (n, n)).astype(float)
        a[a == 0] = -0.0
        return a
    if kind == "monomial":
        return _scaled_permutation(rng, n, int(rng.choice([0, 5, 12])))
    if kind == "signed monomial":
        return _scaled_permutation(rng, n, 3) * rng.choice([-1.0, 1.0], n)
    if kind == "spread":
        return rng.standard_normal((n, n)) * 10.0 ** rng.integers(-150, 151, (n, n))
    if kind == "shear":  # the identity and a few entries off its diagonal
        a = np.eye(n)
        a[rng.integers(0, n, 3), rng.integers(0, n, 3)] = rng.choice([0.5, -3.0, 1e5, 1e-12], 3)
        return a
    if kind == "sparse":  # about a fifth nonzero, often singular, pivots near the threshold
        a = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-12, 4, (n, n))
        return a * (rng.random((n, n)) < 0.2)
    if kind == "sparse near overflow":
        a = np.eye(n) * rng.choice([1.0, -1.0], n)
        a[rng.integers(0, n), rng.integers(0, n)] = rng.choice([1e280, 1e295, 1e300, -1e307])
        return a
    return rng.standard_normal((n, n)) + n * np.eye(n)  # well conditioned


GATE_KINDS = (
    "gaussian", "singular", "tiny", "near threshold", "non-finite", "integer ties",
    "negative zero", "monomial", "signed monomial", "spread", "well conditioned",
    "shear", "sparse", "sparse near overflow",
)


@pytest.mark.parametrize("seed", range(8))
def test_the_gate_refuses_what_inv_refuses_first(seed):
    # one elimination of the stack meets each matrix's pivots as inv does:
    # the same first refused matrix, exception type and message
    rng = np.random.default_rng(900 + seed)
    refused = accepted = 0
    for _ in range(300):
        n, k = int(rng.integers(1, 9)), int(rng.integers(1, 6))
        kinds = rng.choice(GATE_KINDS, size=k)
        if rng.random() < 0.3:  # a stack of one kind, all monomial among them
            kinds[:] = kinds[0]
        mats = [_gate_matrix(rng, n, kind) for kind in kinds]
        want = _first_refusal(mats)
        assert _gate_outcome(mats) == want, (kinds, n)
        refused += want is not None
        accepted += want is None
    assert refused > 50 and accepted > 50  # both outcomes are exercised


@pytest.mark.parametrize(
    "pivot", [linalg.INVERSE_PIVOT_TOL, np.nextafter(linalg.INVERSE_PIVOT_TOL, 0.0)]
)
def test_the_gate_at_the_pivot_threshold(pivot):
    a = np.diag([2.0, pivot, 3.0])[[1, 0, 2]]
    for mats in ([a], [np.eye(3), a], [a, -a, np.eye(3)]):
        assert _gate_outcome(mats) == _first_refusal(mats)
    assert (_gate_outcome([a]) is None) == (pivot == linalg.INVERSE_PIVOT_TOL)


def test_the_gate_takes_the_first_refused_matrix_not_the_first_low_column():
    late = np.diag([1.0, 1.0, 1.0, 2e-11])  # refused at its last column
    early = np.diag([3e-11, 1.0, 1.0, 1.0])  # refused at its first
    bad = np.eye(4)
    bad[2, 3] = np.nan
    assert _gate_outcome([late, early]) == (SingularMatrixError, "pivot 2.000e-11 below threshold 1e-10")
    assert _gate_outcome([early, late]) == (SingularMatrixError, "pivot 3.000e-11 below threshold 1e-10")
    assert _gate_outcome([np.eye(4), bad, early]) == (DomainError, "matrix has a non-finite entry")
    assert _gate_outcome([late, bad]) == (SingularMatrixError, "pivot 2.000e-11 below threshold 1e-10")


@pytest.mark.parametrize("n", [2, 5, 8])
def test_the_gate_skips_columns_only_far_from_overflow(n):
    # a sparse stack whose largest entry is below _NO_OVERFLOW / 2**n skips
    # the columns with no nonzero below the pivot; at the bound or past it,
    # where a row divided by a small pivot could overflow, nothing is
    # skipped, and either way the outcome is inv's
    bound = math.ldexp(linalg._NO_OVERFLOW, -n)
    outcomes = set()
    for big in (np.nextafter(bound, 0.0), bound, 1e300, np.inf):
        # the first pivot, 1e-10, divides a row holding big: past the bound
        # that overflows, and the rows below, which need no update, turn NaN
        # under inv's 0 * inf, so the last pivot, 2e-11, is never met
        a = np.eye(n)
        a[0, 0], a[0, n - 1], a[n - 1, n - 1] = 1e-10, big, 2e-11
        for mats in ([a], [a, np.eye(n)], [np.eye(n), -a]):
            with np.errstate(all="ignore"):  # inv warns of the overflow
                want = _first_refusal(mats)
            assert _gate_outcome(mats) == want
            outcomes.add(want and want[0])
    assert outcomes == {SingularMatrixError, None, DomainError}


def test_the_gate_takes_a_sparse_signed_matrix_past_n_1024():
    # 2.0**n overflows a float from n = 1024 on; the skip bound of so large a
    # matrix underflows towards 0 instead, so nothing is skipped and the
    # outcome is still inv's (about 6 s: inv's loop at n = 1024)
    n = 1024
    assert math.ldexp(linalg._NO_OVERFLOW, -n) < 1.0
    low = -np.eye(n)
    low[n - 1, n - 1] = -2e-11
    assert _gate_outcome([low]) == _first_refusal([low])
    assert _gate_outcome([low]) == (SingularMatrixError, "pivot 2.000e-11 below threshold 1e-10")
    assert _gate_outcome([-np.eye(n)]) is None


def test_the_gate_decides_a_nonnegative_monomial_stack_from_its_pattern(shortcuts):
    rng = np.random.default_rng(46)
    mats = [_scaled_permutation(rng, 6, 4) for _ in range(3)]
    assert _gate_outcome(mats) is None
    mats[1][np.flatnonzero(mats[1][:, 2]), 2] = 1e-12
    assert _gate_outcome(mats) == (SingularMatrixError, "pivot 1.000e-12 below threshold 1e-10")
    assert shortcuts == [True, True]


def test_the_gate_neither_warns_nor_writes_to_its_input():
    # a zero pivot divides by zero past the refused column; no warning escapes
    a = np.array([[0.0, 1.0], [0.0, 1.0]])
    b = np.array([[1e308, 1e308], [-1e308, 1e308]])  # its update overflows
    before = a.tobytes(), b.tobytes()
    assert _gate_outcome([b, a]) == _first_refusal([a])
    assert (a.tobytes(), b.tobytes()) == before

import math

import numpy as np
import pytest

from commutant import DimensionError, DomainError, SingularMatrixError
from commutant import linalg
from commutant.commutation_tensor import build_gct, gct_inverse
from commutant.permutation import Permutation
from commutant.preserver import (
    compose_rank_preservers,
    matrix_preserver,
    rank_preserver,
    sym_preserver,
)


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


# Earlier elimination loops of det and inv, kept as references.  det and
# inv are LAPACK's now, so they match the loops to rounding, with the same
# zero verdicts and the same refusals; the gate meets the loop's pivots.


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


def _low_pivot(pivot):
    return SingularMatrixError(f"pivot {pivot:.3e} below threshold {linalg.INVERSE_PIVOT_TOL:g}")


def _inv_reference(mat):
    a = np.array(mat, dtype=float)
    n = a.shape[0]
    aug = np.hstack([a, np.eye(n)])
    for col in range(n):
        piv = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[piv, col]) < linalg.INVERSE_PIVOT_TOL:
            raise _low_pivot(abs(aug[piv, col]))
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        aug[col] /= aug[col, col]
        for row in range(n):
            if row != col and aug[row, col] != 0.0:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, n:]


#: the gate's refusal of a pivot that its elimination turned inf or NaN
PIVOT_OVERFLOW = (DomainError, "a pivot overflows in elimination")


def _inv_vectorised_reference(mat):
    """The whole-matrix Gauss-Jordan loop ``inv`` ran before its per-column
    numpy calls were cut: same pivots, same products, same errors.  A pivot
    that is inf or NaN is refused once the loop has met every pivot, so a
    low one after it keeps its precedence."""
    a = linalg._square(mat)
    n = a.shape[0]
    aug = np.hstack([a, np.eye(n)])
    overflowed = False
    with np.errstate(all="ignore"):  # an overflow is refused below
        for col in range(n):
            piv = col + int(np.argmax(np.abs(aug[col:, col])))
            if abs(aug[piv, col]) < linalg.INVERSE_PIVOT_TOL:
                raise _low_pivot(abs(aug[piv, col]))
            overflowed |= not math.isfinite(aug[piv, col])
            if piv != col:
                aug[[col, piv]] = aug[[piv, col]]
            aug[col] /= aug[col, col]
            factor = aug[:, col].copy()
            factor[col] = 0.0
            aug -= np.outer(factor, aug[col])
    if overflowed:
        raise DomainError(PIVOT_OVERFLOW[1])
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


def test_det_matches_the_reference_loop_to_rounding():
    # LAPACK's LU rounds otherwise than the loop: the same determinants snap
    # to zero, and the others agree to 1e-12 relative
    rng = np.random.default_rng(31)
    for a in _test_matrices(rng, 1200):
        sq = a[: min(a.shape), : min(a.shape)]
        got, want = linalg.det(sq), _det_reference(sq)
        assert (got == 0.0) == (want == 0.0)
        assert abs(got - want) <= 1e-12 * abs(want)


def _outcome(f, a):
    """f(a), or the type and message of what it raises."""
    try:
        return f(a)
    except Exception as exc:  # the comparison is the test
        return type(exc), str(exc)


def _assert_same_inverse(got, want):
    """The same refusal, or inverses within 1e-12 of the largest entry:
    LAPACK's inverse rounds otherwise than the loops."""
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
    else:
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_inv_matches_the_reference_loop():
    rng = np.random.default_rng(37)
    for a in _test_matrices(rng, 1200):
        sq = a[: min(a.shape), : min(a.shape)]
        _assert_same_inverse(_outcome(linalg.inv, sq), _outcome(_inv_reference, sq))


def test_inv_inverts_a_stack_as_each_matrix():
    rng = np.random.default_rng(6)
    stack = rng.standard_normal((4, 5, 5)) + 5 * np.eye(5)
    got = linalg.inv(stack)
    assert got.shape == stack.shape
    for a, a_inv in zip(stack, got):
        assert np.array_equal(a_inv, linalg.inv(a))
    # the first refused matrix raises, a non-finite one in its turn
    low, bad = np.diag([1.0, 3e-11, 1.0, 1.0, 1.0]), stack[2].copy()
    bad[0, 4] = np.nan
    with pytest.raises(SingularMatrixError, match="^pivot 3.000e-11 below threshold 1e-10$"):
        linalg.inv(np.stack([stack[0], low, bad]))
    with pytest.raises(DomainError, match="^matrix has a non-finite entry$"):
        linalg.inv(np.stack([stack[0], bad, low]))
    with pytest.raises(DimensionError):
        linalg.inv(np.zeros((2, 3, 4)))


def test_an_inverse_that_overflows_is_refused():
    # every pivot of a is at the threshold, and its inverse holds -1e310
    a = np.array([[1e-10, 1e290], [0.0, 1e-10]])
    with pytest.raises(DomainError, match="^inverse has a non-finite entry$"):
        linalg.inv(a)
    with pytest.raises(DomainError, match="^inverse has a non-finite entry$"):
        gct_inverse(build_gct([np.eye(2), a]))


def test_a_pivot_that_overflows_is_refused_before_lapack(monkeypatch):
    # the gate's second pivot is 1e308 + 1e308 = inf: the gate refuses the
    # matrix, whose LAPACK inverse would be the finite but wrong
    # [[1e-308, 0], [0, 0]]
    a = np.array([[1e308, 1e308], [-1e308, 1e308]])
    assert _gate_outcome([a]) == (DomainError, "a pivot overflows in elimination")

    def no_lapack(x):
        raise AssertionError("LAPACK called")

    monkeypatch.setattr(np.linalg, "inv", no_lapack)
    with pytest.raises(DomainError, match="^a pivot overflows in elimination$"):
        linalg.inv(a)
    with pytest.raises(DomainError, match="^a pivot overflows in elimination$"):
        linalg.inv(np.stack([np.eye(2), a]))
    with pytest.raises(DomainError, match="^a pivot overflows in elimination$"):
        gct_inverse(build_gct([np.eye(2), a]))


def test_inv_refuses_an_exactly_zero_lapack_pivot():
    # two equal rows: the loop's pivot x * (y / x) - y is rounding, above
    # the threshold, so the gate accepts; LAPACK's is exactly 0
    a = np.array([[1e7 / 7, 5e7 / 7]] * 2)
    assert _gate_outcome([a]) is None
    with pytest.raises(SingularMatrixError, match="^matrix is exactly singular in LAPACK's LU$"):
        linalg.inv(a)


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
    got = _outcome(f, a)
    return got if isinstance(got, tuple) else got.tobytes()


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


def test_inv_matches_the_vectorised_loop_to_rounding():
    # the loop's refusals exactly, and its values to 1e-12 of the largest
    # entry where cond(a) * eps < 1; past that, two backward-stable inverses
    # share no digit (Higham, Accuracy and Stability, ch. 14), so the values
    # of those matrices, all "spread" ones with cond(a) >= 2e21, are not
    # compared, and their count is pinned
    singular = total = uncompared = 0
    for a in _gauss_jordan_cases(np.random.default_rng(41)):
        got, want = _outcome(linalg.inv, a), _outcome(_inv_vectorised_reference, a)
        if isinstance(want, tuple) or np.linalg.cond(a) * np.finfo(float).eps < 1:
            _assert_same_inverse(got, want)
        else:
            assert not isinstance(got, tuple)
            uncompared += 1
        singular += isinstance(want, tuple)
        total += 1
    assert 0 < singular < total  # both outcomes are exercised
    assert uncompared == 160


#: the gate's second pivot is 1e308 + 1e308 = inf
OVERFLOW = np.array([[1e308, 1e308], [-1e308, 1e308]])
#: what inv alone refuses, after the gate accepts: LAPACK's own LU meets an
#: exact zero, or the inverse overflows
LAPACK_REFUSALS = {
    (SingularMatrixError, "matrix is exactly singular in LAPACK's LU"),
    (DomainError, "inverse has a non-finite entry"),
}


def _outcome_of(call):
    try:
        call()
    except Exception as exc:  # the comparison is the test
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("seed", range(4))
def test_rank_preserver_refuses_what_inv_refuses(seed):
    # the constructor and inv run one gate: the same first refused matrix,
    # exception type and message; LAPACK's two refusals stay inv's alone
    rng = np.random.default_rng(950 + seed)
    seen = set()
    for _ in range(150):
        n, k = int(rng.integers(2, 9)), int(rng.integers(1, 5))
        mats = [_gate_matrix(rng, n, kind) for kind in rng.choice(GATE_KINDS, size=k)]
        if rng.random() < 0.3:  # the overflowing matrix in the top corner of I
            over = np.eye(n)
            over[:2, :2] = OVERFLOW
            mats.insert(int(rng.integers(0, k + 1)), over)
        want = _gate_outcome(mats)
        got = _outcome_of(lambda: rank_preserver(mats, Permutation.identity(len(mats))))
        assert got == want, n
        inverted = _outcome_of(lambda: linalg.inv(np.stack(mats)))
        assert inverted == want or (want is None and inverted in LAPACK_REFUSALS), n
        seen.add(want and want[1][:5])  # enough of the message to name its refusal
    # accepted stacks, low pivots, non-finite matrices and overflowed pivots
    assert seen == {None, "pivot", "matri", "a piv"}


def test_every_gated_constructor_refuses_a_pivot_that_overflows():
    want = (DomainError, "a pivot overflows in elimination")
    eye, shear = np.eye(2), np.array([[1.0, 1.0], [-1.0, 1.0]])
    big = rank_preserver([1e308 * eye, eye], Permutation([1, 2]))
    assert np.array_equal(big.generators[0] @ shear, OVERFLOW)
    for tau in (Permutation([1, 2]), Permutation([2, 1])):
        assert _outcome_of(lambda: rank_preserver([OVERFLOW, eye], tau)) == want
        assert _outcome_of(lambda: rank_preserver([eye, OVERFLOW], tau)) == want
        # generator 0 of the product is 1e308 I @ shear, which is OVERFLOW
        inner = rank_preserver([shear, eye], tau)
        assert _outcome_of(lambda: compose_rank_preservers(big, inner)) == want
    assert _outcome_of(lambda: sym_preserver(OVERFLOW, 3)) == want
    for transposed in (False, True):
        assert _outcome_of(lambda: matrix_preserver(OVERFLOW, eye, transposed)) == want
        assert _outcome_of(lambda: matrix_preserver(eye, OVERFLOW.T, transposed)) == want


def test_a_pivot_turned_nan_is_refused_as_an_overflow():
    # the first pivot, 1e-10, divides a row holding 1e300 to inf, and the
    # rows below turn 0 * inf = NaN, so the last pivot, 2e-11, is met as a
    # NaN: every gated constructor and inv refuse it as an overflow
    a = np.eye(3)
    a[0, 0], a[0, 2], a[2, 2] = 1e-10, 1e300, 2e-11
    assert _gate_outcome([a]) == _first_refusal([a]) == PIVOT_OVERFLOW
    assert _outcome_of(lambda: rank_preserver([a], Permutation([1]))) == PIVOT_OVERFLOW
    assert _outcome_of(lambda: sym_preserver(a, 2)) == PIVOT_OVERFLOW
    assert _outcome_of(lambda: linalg.inv(a)) == PIVOT_OVERFLOW
    assert _outcome_of(lambda: gct_inverse(build_gct([a]))) == PIVOT_OVERFLOW
    # a low pivot of any matrix of the stack comes first
    low = (SingularMatrixError, "pivot 3.000e-11 below threshold 1e-10")
    stack = [a, np.diag([1.0, 3e-11, 1.0])]
    assert _gate_outcome(stack) == _first_refusal(stack) == low
    assert _outcome_of(lambda: linalg.inv(np.stack(stack))) == low


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
    """Count the stacks found nonnegative monomial, by the one test that
    the gate and the pattern of :func:`linalg._nonneg_monomial` both run."""
    found = []
    test = linalg._monomial_pivots

    def counting(stack):
        pivots = test(stack)
        found.append(pivots is not None)
        return pivots

    monkeypatch.setattr(linalg, "_monomial_pivots", counting)
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
    # a signed monomial matrix is not the group case, and takes LAPACK's
    # inverse: the loop's values, though a negative entry's zeros may differ
    # from the loop's in sign
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
            want = _inv_vectorised_reference(a)
            if edit == "negative":
                assert np.array_equal(got, want)
            else:
                assert got.tobytes() == want.tobytes()
    assert shortcuts and not any(shortcuts)


def _first_refusal(mats):
    """What the vectorised loop raises on the first of ``mats`` it refuses,
    or None: the gate's oracle, built on no code of the gate's.  A pivot
    that overflows is refused only where no matrix has a low pivot or a
    non-finite entry, as the gate eliminates the whole stack first."""
    outcomes = [_outcome(_inv_vectorised_reference, a) for a in mats]
    refusals = [got for got in outcomes if isinstance(got, tuple)]
    firm = [got for got in refusals if got != PIVOT_OVERFLOW]
    return (firm or refusals or [None])[0]


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
        # under 0 * inf, so the last pivot, 2e-11, is met as a NaN, which
        # is refused as an overflow
        a = np.eye(n)
        a[0, 0], a[0, n - 1], a[n - 1, n - 1] = 1e-10, big, 2e-11
        for mats in ([a], [a, np.eye(n)], [np.eye(n), -a]):
            want = _first_refusal(mats)
            assert _gate_outcome(mats) == want
            outcomes.add(want)
    assert outcomes == {
        (SingularMatrixError, "pivot 2.000e-11 below threshold 1e-10"),
        PIVOT_OVERFLOW,
        (DomainError, "matrix has a non-finite entry"),
    }


def test_the_gate_takes_a_sparse_signed_matrix_past_n_1024():
    # 2.0**n overflows a float from n = 1024 on; the skip bound of so large a
    # matrix underflows towards 0 instead, so nothing is skipped and the
    # last pivot is still met (2-4 s: two of the gate's eliminations at n = 1024)
    n = 1024
    assert math.ldexp(linalg._NO_OVERFLOW, -n) < 1.0
    low = -np.eye(n)
    low[n - 1, n - 1] = -2e-11
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

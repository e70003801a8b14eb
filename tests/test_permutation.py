import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commutant import ArgumentError, Permutation, RangeError


def brute_sign(images):
    # independent oracle: parity of the number of inversions
    inv = sum(
        1
        for a, b in itertools.combinations(range(len(images)), 2)
        if images[a] > images[b]
    )
    return -1 if inv % 2 else 1


def test_identity():
    e = Permutation.identity(4)
    assert e.images == (1, 2, 3, 4)
    assert e.is_identity()
    assert e.sign() == 1
    assert Permutation.identity(np.int64(2)).images == (1, 2)
    assert all(type(i) is int for i in Permutation.identity(np.int64(2)).images)
    for k in (0, -3):
        with pytest.raises(ArgumentError, match="degree must be at least 1"):
            Permutation.identity(k)


def test_rejects_non_permutations():
    with pytest.raises(ArgumentError):
        Permutation([1, 1, 2])
    with pytest.raises(ArgumentError):
        Permutation([0, 1])
    with pytest.raises(ArgumentError):
        Permutation([])


def test_call_and_range():
    p = Permutation([2, 3, 1])
    assert [p(i) for i in (1, 2, 3)] == [2, 3, 1]
    with pytest.raises(RangeError):
        p(0)
    with pytest.raises(RangeError):
        p(4)


def test_from_cycles():
    assert Permutation.from_cycles(3, (1, 2, 3)).images == (2, 3, 1)
    assert Permutation.from_cycles(4, (1, 2), (3, 4)).images == (2, 1, 4, 3)
    assert Permutation.from_cycles(3).is_identity()


@pytest.mark.parametrize("k", [2, 3, 4])
def test_compose_inverse_sign_exhaustive(k):
    perms = list(Permutation.all(k))
    assert len(perms) == math.factorial(k)
    for s in perms:
        assert s.compose(s.inverse()).is_identity()
        assert s.inverse().compose(s).is_identity()
        assert s.sign() == brute_sign(s.images)
        for t in perms:
            st = s.compose(t)
            # composition acts as s after t
            assert all(st(i) == s(t(i)) for i in range(1, k + 1))
            assert st.sign() == s.sign() * t.sign()


@pytest.mark.parametrize("k", [2, 3, 4])
def test_matrix_convention(k):
    # column convention: P e_j = e_{sigma(j)}, so P(s) P(t) = P(s∘t)
    for s in Permutation.all(k):
        mat = s.matrix()
        for j in range(1, k + 1):
            e = np.zeros(k)
            e[j - 1] = 1.0
            out = mat @ e
            assert out[s(j) - 1] == 1.0 and out.sum() == 1.0
    a = Permutation.from_cycles(k, (1, 2))
    b = Permutation.from_cycles(k, tuple(range(1, k + 1)))
    assert np.array_equal(a.matrix() @ b.matrix(), a.compose(b).matrix())


def test_matrix_inverse_is_transpose():
    s = Permutation([3, 1, 4, 2])
    assert np.array_equal(s.inverse().matrix(), s.matrix().T)


@given(st.integers(1, 8).flatmap(lambda k: st.permutations(range(1, k + 1))))
@settings(max_examples=300, deadline=None)
def test_sign_matches_inversion_parity(images):
    assert Permutation(images).sign() == brute_sign(images)


def test_rejects_non_integral_images():
    with pytest.raises(ArgumentError):
        Permutation([1.7, 2])
    with pytest.raises(ArgumentError):
        Permutation([1, 2.5, 3])
    with pytest.raises(ArgumentError):
        Permutation(["1", "2"])


@pytest.mark.parametrize(
    "images", [[True, 2], [2, True], [np.True_, 2], np.array([True])], ids=repr
)
def test_rejects_boolean_images(images):
    # True == 1, so only the type tells a boolean from an image
    with pytest.raises(ArgumentError):
        Permutation(images)


def test_accepts_integral_values():
    assert Permutation([2.0, 1.0]).images == (2, 1)
    assert Permutation(np.array([3, 1, 2])).images == (3, 1, 2)
    assert all(type(v) is int for v in Permutation(np.array([2.0, 1.0])).images)

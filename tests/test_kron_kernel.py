"""The one Kronecker kernel behind ``kron``, ``conjugate_kron`` and
``gct_dense``: byte for byte equal to ``np.kron`` (and ``gct_dense`` to the
strided outer-product loop it replaced) on every shape, layout and IEEE
special value, with the same over-budget messages.

One product has no fixed bytes: NaN times NaN is a NaN whose sign and
payload IEEE 754 leaves open.  numpy takes it from either operand depending
on the loop it runs (its SIMD body and its scalar tail differ within one
``np.kron`` call), so at those entries the tests ask for a NaN only."""

import itertools

import numpy as np
import pytest

from commutant import (
    DomainError,
    Permutation,
    build_commutation,
    build_gct,
    conjugate_kron,
    gct_dense,
    kron,
)
from commutant import commutation_tensor as ct_mod
from commutant import tensor as tensor_mod


def _nan(bits):
    return np.array([bits], dtype=np.uint64).view(float)[0]


#: -0.0, infinities, NaNs of both signs and two payloads, subnormals, extremes
SPECIALS = np.array([
    0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
    _nan(0x7FF8000000000123), _nan(0xFFF8000000000456),
    5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308, -1e-300, 1.5, -3.0,
])


def _draw(rng, shape, specials):
    """Gaussian entries, or entries drawn from SPECIALS mixed with Gaussians."""
    x = rng.standard_normal(shape)
    if specials:
        mask = rng.random(shape) < 0.5
        x[mask] = rng.choice(SPECIALS, size=int(mask.sum()))
    return x


def _bits_match(got, want, nan_by_nan):
    """The same bytes in logical order, except that where ``nan_by_nan``
    marks a product of two NaNs both sides need only be NaN."""
    same = got.view(np.uint64) == want.view(np.uint64)
    return bool(np.all(same | (nan_by_nan & np.isnan(got) & np.isnan(want))))


def _same(got, want, a, b):
    """``got`` is C-contiguous (``np.kron``'s layout follows its inputs')
    and matches ``want``, the Kronecker product of ``a`` and ``b``."""
    nan_by_nan = np.kron(np.isnan(a), np.isnan(b)).astype(bool)
    return (
        got.shape == want.shape
        and got.flags.c_contiguous
        and _bits_match(got, want, nan_by_nan)
    )


KRON_SHAPES = [
    ((1, 1), (1, 1)),
    ((1, 7), (7, 1)),
    ((7, 1), (1, 7)),
    ((1, 5), (1, 4)),
    ((5, 1), (4, 1)),
    ((1, 1), (6, 3)),
    ((6, 3), (1, 1)),
    ((2, 3), (4, 5)),
    ((3, 2), (5, 4)),
    ((30, 20), (25, 30)),
    ((3, 3), (3, 3)),
    ((7, 7), (3, 3)),
    ((30, 30), (30, 30)),
    ((0, 3), (2, 2)),
    ((2, 2), (3, 0)),
]


@pytest.mark.parametrize("specials", [False, True])
@pytest.mark.parametrize("xs,ys", KRON_SHAPES)
def test_kron_is_np_kron_byte_for_byte(xs, ys, specials):
    rng = np.random.default_rng(sum(xs) * 31 + sum(ys))
    a, b = _draw(rng, xs, specials), _draw(rng, ys, specials)
    with np.errstate(all="ignore"):  # inf * 0 is an invalid operation
        got, want = kron(a, b), np.kron(a, b)
    assert _same(got, want, a, b) and got.flags.writeable
    assert not np.shares_memory(got, a) and not np.shares_memory(got, b)


def _layouts(rng, shape):
    """The same kind of matrix as a transpose, a strided slice, a reversed
    view and a Fortran-order copy."""
    r, c = shape
    yield rng.standard_normal((c, r)).T
    yield rng.standard_normal((2 * r, 3 * c))[::2, 1::3]
    yield rng.standard_normal((r, c))[::-1, ::-1]
    yield np.asfortranarray(rng.standard_normal((r, c)))


@pytest.mark.parametrize("xs,ys", [((3, 4), (5, 2)), ((6, 6), (6, 6)), ((1, 9), (9, 1))])
def test_kron_reads_any_layout(xs, ys):
    rng = np.random.default_rng(7)
    for a, b in itertools.product(_layouts(rng, xs), _layouts(rng, ys)):
        assert _same(kron(a, b), np.kron(a, b), a, b)


@pytest.mark.parametrize("specials", [False, True])
@pytest.mark.parametrize("p,q", [(1, 1), (1, 6), (6, 1), (2, 3), (5, 4), (11, 10), (30, 30)])
def test_conjugate_kron_is_np_kron_byte_for_byte(p, q, specials):
    rng = np.random.default_rng(p * 100 + q)
    a, b = _draw(rng, (p, p), specials), _draw(rng, (q, q), specials)
    with np.errstate(all="ignore"):
        got, want = conjugate_kron(a, b), np.kron(a, b)
    assert _same(got, want, a, b)
    rng = np.random.default_rng(p + q)
    for x, y in itertools.product(_layouts(rng, (p, p)), _layouts(rng, (q, q))):
        assert _same(conjugate_kron(x, y), np.kron(x, y), x, y)


@pytest.mark.parametrize("p,q", [(2, 3), (3, 2), (4, 4), (1, 5), (5, 1), (30, 10)])
def test_conjugation_through_k_index_is_a_kron_b(p, q):
    # the kron-conjugation suite's reference: K_{p,q} (B ⊗ A) K_{q,p} as gathers
    rng = np.random.default_rng(p * q)
    a, b = rng.standard_normal((p, p)), rng.standard_normal((q, q))
    idx = build_commutation(p, q).idx
    want = kron(b, a)[idx][:, idx]
    assert want.tobytes() == np.kron(a, b).tobytes()
    assert want.tobytes() == conjugate_kron(a, b).tobytes()


def reference_gct_dense(g):
    """The dense GCT as the strided outer-product loop wrote it: from
    [[1.0]], kron(B_k, acc) for k = m..1, each step ``np.multiply.outer``
    into a transposed view of a fresh array, then tau on the trailing modes.
    Also where that product has two or more NaN factors."""
    m, n = g.m, g.n
    acc, nans = np.ones((1, 1)), np.zeros((1, 1))
    for gen in reversed(g.generators):
        size = acc.shape[0]
        out = np.empty((n, size, n, size))
        np.multiply.outer(gen, acc, out=out.transpose(0, 2, 1, 3))
        acc = out.reshape(n * size, n * size)
        nans = np.kron(np.isnan(gen), np.ones_like(nans)) + np.kron(np.ones_like(gen), nans)
    axes = tuple(range(m)) + tuple(m + k for k in g.tau.inverse().zero_based())
    shape = (n,) * (2 * m)
    return acc.reshape(shape).transpose(axes), (nans >= 2).reshape(shape).transpose(axes)


def _gct_matches(g):
    """gct_dense(g) matches the loop and shares no memory with g."""
    with np.errstate(all="ignore"):
        got = gct_dense(g).array
        want, nan_by_nan = reference_gct_dense(g)
    return (
        got.strides == want.strides
        and _bits_match(got, want, nan_by_nan)
        and not any(np.shares_memory(got, gen) for gen in g.generators)
    )


def _taus(m):
    if m <= 3:
        return [Permutation([i + 1 for i in p]) for p in itertools.permutations(range(m))]
    return [Permutation.identity(m), Permutation([2, 3, 4, 1]), Permutation([4, 3, 1, 2])]


@pytest.mark.parametrize("specials", [False, True])
@pytest.mark.parametrize("m,n", [(1, 1), (1, 5), (2, 1), (2, 3), (2, 30), (3, 2), (3, 8), (4, 3)])
def test_gct_dense_matches_the_outer_product_loop(m, n, specials):
    rng = np.random.default_rng(m * 50 + n)
    # one generator -0.0 on the diagonal, so no generator stack is all identity
    gens = [_draw(rng, (n, n), specials) for _ in range(m)]
    gens[0][0, 0] = -0.0
    for tau in _taus(m):
        assert _gct_matches(ct_mod._operator(gens, tau)), tau.images


def test_gct_dense_repeats_one_generator_and_mixes_layouts():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((4, 4))
    for gens in ([b] * 3, [b.T, b[::-1], np.asfortranarray(b)]):
        assert _gct_matches(build_gct(gens))


def test_gct_dense_at_one_mode_is_its_generator():
    # a fresh copy of B_1, byte for byte: a signaling NaN stays signaling,
    # where the loop's B_1 * 1.0 returned it quieted
    snan = _nan(0x7FF0000000000001)
    b = np.array([[snan, -0.0], [np.inf, 5e-324]])
    g = build_gct([b])
    arr = gct_dense(g).array
    assert arr.tobytes() == b.tobytes()
    assert not np.shares_memory(arr, g.generators[0])


class TestOverBudgetMessages:
    # every size here is refused before anything of its size is allocated

    def test_kron(self):
        with pytest.raises(DomainError) as err:
            kron(np.ones((1, 5000)), np.ones((5000, 1)))
        assert str(err.value) == (
            "A ⊗ B: (1, 5000, 5000, 1) is over MAX_DENSE_ENTRIES=16777216"
        )

    def test_conjugate_kron(self):
        with pytest.raises(DomainError) as err:
            conjugate_kron(np.eye(70), np.eye(60))
        assert str(err.value) == (
            "A ⊗ B: (70, 60, 70, 60) is over MAX_DENSE_ENTRIES=16777216"
        )

    @pytest.mark.parametrize(
        "m,n,shape",
        [(2, 65, "(65, 65, 65, 65)"), (3, 17, "(17, 289, 17, 289)")],
    )
    def test_gct_dense(self, m, n, shape):
        g = build_gct([2 * np.eye(n)] * m)
        with pytest.raises(DomainError) as err:
            gct_dense(g)
        assert str(err.value) == f"dense GCT: {shape} is over MAX_DENSE_ENTRIES=16777216"

    def test_gct_dense_first_step(self, monkeypatch):
        # a generator alone over the budget is refused as the step B_m ⊗ [1]
        monkeypatch.setattr(tensor_mod, "MAX_DENSE_ENTRIES", 8)
        for m in (1, 2):
            with pytest.raises(DomainError) as err:
                gct_dense(build_gct([2 * np.eye(3)] * m))
            assert str(err.value) == "dense GCT: (3, 1, 3, 1) is over MAX_DENSE_ENTRIES=8"

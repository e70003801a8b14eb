"""The one Kronecker kernel behind ``kron``, ``conjugate_kron`` and
``gct_dense``, and the outer product behind ``kron_vec``: byte for byte
equal to ``np.kron`` (and ``gct_dense`` to the strided outer-product loop
it replaced) on every shape, layout and IEEE special value, with the same
over-budget messages.

One product has no fixed bytes: NaN times NaN is a NaN whose sign and
payload IEEE 754 leaves open.  numpy takes it from either operand depending
on the loop it runs (its SIMD body and its scalar tail differ within one
``np.kron`` call), so at those entries the tests ask for a NaN only."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commutant import (
    DomainError,
    Permutation,
    build_commutation,
    build_gct,
    conjugate_kron,
    gct_dense,
    kron,
    kron_vec,
)
from commutant import commutation_tensor as ct_mod
from commutant import errors as errors_mod


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


@pytest.mark.parametrize("specials", [False, True])
@pytest.mark.parametrize("xn,yn", [(1, 1), (1, 7), (7, 1), (3, 4), (30, 30), (0, 3), (2, 0)])
def test_kron_vec_is_np_kron_byte_for_byte(xn, yn, specials):
    rng = np.random.default_rng(xn * 31 + yn)
    x, y = _draw(rng, xn, specials), _draw(rng, yn, specials)
    with np.errstate(all="ignore"):  # inf * 0 is an invalid operation
        got, want = kron_vec(x, y), np.kron(x, y)
    assert _same(got[None], want[None], x[None], y[None]) and got.flags.writeable
    assert not np.shares_memory(got, x) and not np.shares_memory(got, y)


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
        g = build_gct([np.ones((n, n))] * m)
        with pytest.raises(DomainError) as err:
            gct_dense(g)
        assert str(err.value) == f"dense GCT: {shape} is over MAX_DENSE_ENTRIES=16777216"

    def test_gct_dense_first_step(self, monkeypatch):
        # a generator alone over the budget is refused as the step B_m ⊗ [1]
        monkeypatch.setattr(errors_mod, "MAX_DENSE_ENTRIES", 8)
        for m in (1, 2):
            with pytest.raises(DomainError) as err:
                gct_dense(build_gct([np.ones((3, 3))] * m))
            assert str(err.value) == "dense GCT: (3, 1, 3, 1) is over MAX_DENSE_ENTRIES=8"


def _scaled_permutations(rng, m, n, spread):
    """m generators, each a permutation matrix with entries 10^e, e drawn
    from -spread..spread, times a uniform in [0.5, 2)."""
    gens = []
    for _ in range(m):
        g = np.zeros((n, n))
        scale = rng.uniform(0.5, 2.0, n) * 10.0 ** rng.integers(-spread, spread + 1, n)
        g[rng.permutation(n), np.arange(n)] = scale
        gens.append(g)
    return gens


@pytest.fixture
def routes(monkeypatch):
    """Count the stacks the scatter route built, and those it handed over."""
    built = []
    scatter = ct_mod._scatter_dense

    def counting(pattern, tau, n):
        arr = scatter(pattern, tau, n)
        built.append(arr is not None)
        return arr

    monkeypatch.setattr(ct_mod, "_scatter_dense", counting)
    return built


@st.composite
def monomial_operators(draw):
    """An operator of m <= 3 nonnegative monomial n x n generators, n <= 5,
    and any tau: each nonzero a mantissa in [0.5, 2) times 10^e, |e| <= 200,
    so that products of two or three of them can overflow or underflow."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    tau = Permutation([k + 1 for k in draw(st.permutations(range(m)))])
    gens = []
    for _ in range(m):
        g = np.zeros((n, n))
        scale = draw(st.lists(st.floats(0.5, 2.0, exclude_max=True), min_size=n, max_size=n))
        powers = draw(st.lists(st.integers(-200, 200), min_size=n, max_size=n))
        rows = draw(st.permutations(range(n)))
        g[rows, np.arange(n)] = np.multiply(scale, 10.0 ** np.array(powers))
        gens.append(g)
    return ct_mod._operator(gens, tau)


class TestScatterRoute:
    """Nonnegative monomial generators: the scatter route writes the bytes
    of the outer-product loop (which are the kron route's), and every stack
    the route must refuse keeps them."""

    @pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 5) for n in range(1, 6)])
    def test_bytes_match_the_kron_route_for_every_tau(self, routes, m, n):
        rng = np.random.default_rng(m * 10 + n)
        for tau in Permutation.all(m):
            for spread in (0, 150):
                g = ct_mod._operator(_scaled_permutations(rng, m, n, spread), tau)
                with np.errstate(all="ignore"):  # a product may overflow
                    got = gct_dense(g).array
                    loop, _ = reference_gct_dense(g)
                assert got.tobytes() == loop.tobytes(), tau.images
                assert not np.shares_memory(got, g.generators[0])
        # e = ±150 on four modes overflows and underflows some products:
        # the route builds the in-range stacks and hands the others over
        assert any(routes) and (m < 3 or n < 2 or not all(routes))

    @pytest.mark.parametrize("m,n", [(1, 4), (2, 3), (3, 4), (4, 3)])
    def test_bytes_match_the_kron_routes_own_at_tau_id_and_not(self, routes, m, n):
        # the kron route itself, taken by a twin operator whose monomial test
        # is set to None; tau = id scatters with no shuffle gather
        rng = np.random.default_rng(700 + 10 * m + n)
        for tau in Permutation.all(m):
            gens = _scaled_permutations(rng, m, n, 3)
            twin = ct_mod._operator(gens, tau)
            vars(twin)["_monomial"] = None
            got = gct_dense(ct_mod._operator(gens, tau)).array
            assert got.tobytes() == gct_dense(twin).array.tobytes(), tau.images
        assert routes == [True] * len(list(Permutation.all(m)))

    @given(monomial_operators())
    @settings(max_examples=300, deadline=None)
    def test_every_size_matches_the_loop_and_keeps_its_support(self, g):
        m, size = g.m, g.n**g.m
        with np.errstate(all="ignore"):  # a product may overflow
            t = gct_dense(g)
            loop, _ = reference_gct_dense(g)
        assert t.array.tobytes() == loop.tobytes()
        finite = bool(np.isfinite(loop).all())
        in_range = finite and np.count_nonzero(loop) == size  # none over- or underflowed
        identity = all(np.array_equal(b, np.eye(g.n)) for b in g.generators)
        assert (t._support is not None) == (in_range and not identity)
        assert t.array.flags.c_contiguous or not finite
        if t._support is not None:
            scanned = ct_mod._monomial_support(t.array, m)
            assert [x.tolist() for x in t._support] == [x.tolist() for x in scanned]

    def test_the_route_is_c_contiguous(self, routes):
        g = ct_mod._operator(_scaled_permutations(np.random.default_rng(5), 3, 4, 3),
                             Permutation([3, 1, 2]))
        arr = gct_dense(g).array
        assert routes == [True] and arr.flags.c_contiguous
        assert arr.tobytes() == reference_gct_dense(g)[0].tobytes()

    @pytest.mark.parametrize(
        "edit",
        ["negative zero", "negative", "inf", "nan", "second nonzero in a row", "overflow"],
    )
    def test_refused_stacks_keep_the_kron_route_bytes(self, routes, edit):
        n = 3
        gens = _scaled_permutations(np.random.default_rng(9), 3, n, 2)
        target = gens[1]
        on, off = tuple(np.argwhere(target)[1]), tuple(np.argwhere(target == 0)[1])
        if edit == "negative zero":
            target[off] = -0.0
        elif edit == "negative":
            target[on] = -target[on]
        elif edit == "inf":
            target[on] = np.inf
        elif edit == "nan":
            target[on] = np.nan
        elif edit == "second nonzero in a row":
            target[on[0], (on[1] + 1) % n] = 0.25
        else:
            gens = [1e200 * np.eye(2)] * 3
        g = build_gct(gens)
        assert _gct_matches(g)
        assert routes in ([], [False])

    def test_overflow_keeps_the_kron_routes_nans(self):
        # 1e200 * 1e200 overflows to inf on the way, and 0 * inf is NaN: the
        # scatter route hands the stack to the kron route
        g = build_gct([1e200 * np.eye(8)] * 3)
        with np.errstate(all="ignore"):
            arr = gct_dense(g).array
        assert np.isnan(arr).sum() == 3584 and _gct_matches(g)
        assert not np.isnan(gct_dense(build_gct([1e100 * np.eye(8)] * 3)).array).any()

    def test_over_budget_identity_keeps_the_shuffle_message(self):
        with pytest.raises(DomainError) as err:
            gct_dense(build_gct([np.eye(65)] * 2))
        assert str(err.value) == (
            "mode-permutation tensor: (4225, 4225) is over MAX_DENSE_ENTRIES=16777216"
        )

    @pytest.mark.parametrize("m,n,shape", [(2, 65, "(4225, 4225)"), (3, 17, "(4913, 4913)")])
    def test_over_budget_stack_is_refused_as_its_unfolding(self, routes, m, n, shape):
        gens = _scaled_permutations(np.random.default_rng(n), m, n, 1)
        with pytest.raises(DomainError) as err:
            gct_dense(build_gct(gens))
        assert str(err.value) == f"dense GCT: {shape} is over MAX_DENSE_ENTRIES=16777216"
        assert routes == []  # refused inside the route, before it built anything

"""Laws of the one order-2m operator (generators plus a mode permutation tau),
exhaustive over S_m for m <= 4.  S_3 and S_4 hold permutations that are not
involutions, so tau and tau^-1 are told apart."""

import itertools
import tracemalloc

import numpy as np
import pytest

from commutant import (
    ArgumentError,
    DenseTensor,
    DimensionError,
    DomainError,
    Permutation,
    apply_rank_preserver,
    balance_unfold,
    build_ctensor,
    build_gct,
    build_mode_perm_tensor,
    compose_rank_preservers,
    gct_dense,
    gct_from_permutation,
    gct_identity,
    gct_inverse,
    gct_multiply,
    identity_tensor,
    mode_perm_dense,
    mul_2m,
    mul_2m_on_m,
    rank1,
    rank_preserver,
    sym_preserver,
)
from commutant.tensor import _shuffle_dense
from commutant.verify import _random_invertible as invertible

N = 3
#: one permutation of each degree that is not an involution where S_m has one
CYCLE = {1: [1], 2: [2, 1], 3: [2, 3, 1], 4: [2, 3, 4, 1]}


def _operator(rng, tau, n=N):
    return rank_preserver([invertible(rng, n) for _ in range(tau.degree)], tau)


def _close(a, b):
    return np.allclose(a, b, rtol=1e-12, atol=1e-12 * max(1.0, float(np.abs(b).max())))


CASES = [
    pytest.param(tau, id=f"m{m}-tau{''.join(map(str, tau.images))}")
    for m in range(1, 5)
    for tau in Permutation.all(m)
]


@pytest.mark.parametrize("tau", CASES)
class TestLaws:
    def test_dense_form_acts_as_the_action(self, tau):
        rng = np.random.default_rng(sum(tau.images) * 31 + tau.degree)
        op = _operator(rng, tau)
        a = rng.standard_normal((N,) * tau.degree)
        assert _close(mul_2m_on_m(gct_dense(op), a).array, apply_rank_preserver(op, a).array)

    def test_action_moves_rank1_factors_by_tau(self, tau):
        rng = np.random.default_rng(sum(tau.images) * 37 + tau.degree)
        op = _operator(rng, tau)
        alpha = [rng.standard_normal(N) for _ in range(tau.degree)]
        want = rank1([b @ alpha[t - 1] for b, t in zip(op.generators, tau.images)])
        assert _close(apply_rank_preserver(op, rank1(alpha)).array, want.array)

    def test_dense_form_is_the_gct_after_the_mode_shuffle(self, tau):
        rng = np.random.default_rng(sum(tau.images) * 41 + tau.degree)
        op = _operator(rng, tau)
        want = mul_2m(
            gct_dense(build_gct(op.generators)),
            mode_perm_dense(build_mode_perm_tensor(tau.inverse(), N)),
        )
        assert _close(gct_dense(op).array, want.array)

    def test_compose_is_the_dense_product(self, tau):
        rng = np.random.default_rng(sum(tau.images) * 43 + tau.degree)
        a = _operator(rng, tau)
        b = _operator(rng, Permutation(CYCLE[tau.degree]))
        for outer, inner in ((a, b), (b, a), (a, a)):
            want = mul_2m(gct_dense(outer), gct_dense(inner)).array
            assert _close(gct_dense(gct_multiply(outer, inner)).array, want)
            composed = compose_rank_preservers(outer, inner)
            assert composed.tau == inner.tau.compose(outer.tau)
            assert _close(gct_dense(composed).array, want)

    def test_inverse_gives_the_identity_on_both_sides(self, tau):
        rng = np.random.default_rng(sum(tau.images) * 47 + tau.degree)
        op = _operator(rng, tau)
        inv = gct_inverse(op)
        assert inv.tau == tau.inverse()
        ident = np.eye(N**tau.degree)
        for prod in (gct_multiply(op, inv), gct_multiply(inv, op)):
            assert prod.tau.is_identity()
            assert all(np.allclose(g, np.eye(N), atol=1e-12) for g in prod.generators)
            assert np.allclose(balance_unfold(gct_dense(prod)), ident, atol=1e-12)
        a = rng.standard_normal((N,) * tau.degree)
        assert _close(apply_rank_preserver(inv, apply_rank_preserver(op, a)).array, a)

    def test_mode_permutation_dense_form_is_the_shuffle(self, tau):
        # the dense form of a mode permutation sigma is the 0/1 array of the
        # shuffle by sigma^-1, byte for byte, with j_k = i_sigma(k) at its ones
        m = tau.degree
        dense = mode_perm_dense(build_mode_perm_tensor(tau, N)).array
        shuffle = _shuffle_dense((N,) * m, tau.inverse().zero_based(), "shuffle")
        assert dense.tobytes() == shuffle.tobytes() and dense.flags.c_contiguous
        want = np.zeros((N,) * (2 * m))
        for i in itertools.product(range(N), repeat=m):
            want[i + tuple(i[t - 1] for t in tau.images)] = 1.0
        assert np.array_equal(dense, want)


def test_tau_and_its_inverse_differ_off_the_involutions():
    # the laws above would also hold for a dense form built with tau in place
    # of tau^-1 only if tau were an involution
    rng = np.random.default_rng(7)
    for m in (3, 4):
        tau = Permutation(CYCLE[m])
        gens = [invertible(rng, N) for _ in range(m)]
        a = rng.standard_normal((N,) * m)
        got = apply_rank_preserver(rank_preserver(gens, tau), a).array
        other = apply_rank_preserver(rank_preserver(gens, tau.inverse()), a).array
        assert not np.allclose(got, other)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_swap_dense_form_is_the_commutation_tensor(n):
    swap = build_mode_perm_tensor(Permutation([2, 1]), n)
    assert gct_dense(swap).array.tobytes() == build_ctensor(n, n).backing.array.tobytes()


def test_identity_generators_with_a_shuffle_take_the_shuffle_route():
    # same bits whichever constructor made the identity generators
    tau = Permutation([3, 1, 2])
    by_preserver = gct_dense(rank_preserver([np.eye(2)] * 3, tau)).array
    by_shuffle = gct_dense(build_mode_perm_tensor(tau.inverse(), 2)).array
    assert by_preserver.tobytes() == by_shuffle.tobytes()
    assert gct_dense(gct_identity(3, 2)).array.tobytes() == _shuffle_dense(
        (2,) * 3, (0, 1, 2), "identity"
    ).tobytes()


@pytest.mark.parametrize("m", [0, -1])
def test_no_modes_is_an_argument_error(m):
    # the one validator refuses an empty stack of generators
    with pytest.raises(ArgumentError):
        gct_from_permutation(Permutation([2, 1]), m)
    with pytest.raises(ArgumentError):
        sym_preserver(np.eye(2), m)
    with pytest.raises(ArgumentError):
        gct_identity(m, 2)


def test_empty_generators_are_refused():
    # an n = 0 operator would be written to GCT JSON that does not load
    with pytest.raises(DimensionError, match="nonempty"):
        build_gct([np.zeros((0, 0))])
    with pytest.raises(ArgumentError):
        gct_identity(2, 0)
    with pytest.raises(DimensionError):
        rank_preserver([np.zeros((0, 0))], Permutation([1]))


def test_builders_of_square_generators_check_the_budget_first():
    # an n x n identity or permutation matrix of 5000^2 entries is 200 MB
    big = Permutation(list(range(2, 5001)) + [1])
    tracemalloc.start()
    try:
        for build in (
            lambda: build_mode_perm_tensor(Permutation([2, 1]), 5000),
            lambda: gct_identity(2, 5000),
            lambda: gct_from_permutation(big, 1),
        ):
            with pytest.raises(DomainError, match="MAX_DENSE_ENTRIES"):
                build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


class TestOrderAboveNumpysLimit:
    """An order over numpy's 64 modes is refused with DimensionError."""

    @pytest.mark.parametrize("gen", [[[1.0]], [[2.0]]], ids=["shuffle", "kron"])
    def test_dense_form(self, gen):
        with pytest.raises(DimensionError, match="order 66"):
            gct_dense(build_gct([gen] * 33))
        assert gct_dense(build_gct([gen] * 32)).shape == (1,) * 64

    def test_identity_tensor_and_rank1(self):
        with pytest.raises(DimensionError, match="order 70"):
            identity_tensor(70, 1)
        with pytest.raises(DimensionError, match="order 70"):
            rank1([[1.0]] * 70)
        with pytest.raises(DimensionError, match="order 70"):
            DenseTensor.from_flat((1,) * 70, [1.0])

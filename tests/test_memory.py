"""Who owns the arrays a builder returns, and how much a builder allocates.

A DenseTensor built from a caller's array copies it; a tensor a builder
fills itself adopts that array, frozen in place.  The budgets below count
bytes with tracemalloc, which numpy reports every allocation to, so they
hold on any machine and do not depend on timing.
"""

import functools
import tracemalloc

import numpy as np
import pytest

from commutant import (
    DenseTensor,
    Permutation,
    apply_rank_preserver,
    balance_unfold,
    build_ctensor,
    build_gct,
    build_mode_perm_tensor,
    conjugate_kron,
    cp_form,
    ctensor_flatten,
    gct_dense,
    identity_tensor,
    kron,
    materialize,
    mode_perm_dense,
    mul_2m,
    mul_2m_on_m,
    permute_modes,
    rank1,
    rank_preserver,
    sym_power,
    sym_preserver,
    tensor_transpose,
    vec_sandwich,
)


def _inputs(seed, *shapes):
    """Fresh writable Gaussian arrays; square matrices get 3·I added so
    that preservers accept them as invertible."""
    rng = np.random.default_rng(seed)
    out = [rng.standard_normal(s) for s in shapes]
    return [x + 3 * np.eye(len(x)) if x.ndim == 2 and x.shape[0] == x.shape[1] else x
            for x in out]


# name -> (shapes of the caller's arrays, builder taking those arrays)
BUILDERS = {
    "DenseTensor": ([(2, 3, 4)], lambda x: DenseTensor(x)),
    "from_flat": ([(24,)], lambda v: DenseTensor.from_flat((2, 3, 4), v)),
    "permute_modes": ([(2, 3, 4)], lambda x: permute_modes(x, Permutation([2, 3, 1]))),
    # one matrix on every mode: the action of build_gct([b] * m)
    "complete_right_product": (
        [(3, 3, 3), (3, 3)],
        lambda x, b: apply_rank_preserver(build_gct([b] * 3), x),
    ),
    "mul_2m": ([(2, 2, 2, 2), (2, 2, 2, 2)], mul_2m),
    "mul_2m_on_m": ([(2, 2, 2, 2), (2, 2)], mul_2m_on_m),
    "rank1": ([(2,), (3,), (4,)], lambda *v: rank1(v)),
    "rank1_one_vector": ([(5,)], lambda v: rank1([v])),
    "sym_power": ([(3,)], lambda v: sym_power(v, 3)),
    "materialize": ([(2, 2), (3, 2)], lambda f, g: materialize(cp_form([f, g]))),
    "gct_dense": ([(3, 3), (3, 3)], lambda a, b: gct_dense(build_gct([a, b]))),
    "gct_dense_m1": ([(4, 4)], lambda a: gct_dense(build_gct([a]))),
    "apply_rank_preserver": (
        [(3, 3), (3, 3), (3, 3)],
        lambda a, b, x: apply_rank_preserver(rank_preserver([a, b], Permutation([2, 1])), x),
    ),
    "apply_sym_preserver": (
        [(3, 3), (3, 3)],
        lambda b, x: apply_rank_preserver(sym_preserver(b, 2), x),
    ),
}

#: builders that take no caller array at all
FRESH = {
    "build_ctensor": lambda: build_ctensor(2, 3).backing,
    "mode_perm_dense": lambda: mode_perm_dense(
        build_mode_perm_tensor(Permutation([2, 3, 1]), 2)
    ),
    "identity_tensor": lambda: identity_tensor(3, 2),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_result_is_read_only_and_shares_nothing_with_the_caller(name):
    shapes, build = BUILDERS[name]
    args = _inputs(0, *shapes)
    t = build(*args)
    assert not t.array.flags.writeable
    with pytest.raises(ValueError):
        t.array.flat[0] = 1.0
    for x in args:
        assert not np.shares_memory(t.array, x)
    before = t.array.copy()
    for x in args:
        x[...] = 7.0
    assert np.array_equal(t.array, before)


def test_results_do_not_alias_an_input_tensor():
    t = DenseTensor(np.arange(24.0).reshape(2, 3, 4))
    assert not np.shares_memory(permute_modes(t, Permutation([2, 3, 1])).array, t.array)


@pytest.mark.parametrize("name", sorted(FRESH))
def test_builder_without_inputs_returns_read_only(name):
    t = FRESH[name]()
    assert not t.array.flags.writeable
    with pytest.raises(ValueError):
        t.array.flat[0] = 1.0


@pytest.mark.parametrize("m,n", [(1, 3), (2, 3), (3, 2), (3, 8)])
def test_gct_dense_is_c_contiguous(m, n):
    gens = _inputs(m * n, *[(n, n)] * m)
    arr = gct_dense(build_gct(gens)).array
    assert arr.flags.c_contiguous
    # rows i_1..i_m and columns j_1..j_m in C order: kron(gen_1, ..., gen_m)
    want = functools.reduce(np.kron, gens)
    assert np.allclose(arr.reshape(n**m, n**m), want, rtol=1e-15, atol=0)


def _peak_bytes(call):
    """Result of ``call()`` and the most bytes traced at once while it ran."""
    call()  # numpy's first-call caches are not allocations of the call itself
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_vec_sandwich_never_forms_the_kronecker_matrix():
    a, b, c = _inputs(1, (30, 30), (30, 30), (30, 30))
    _, peak = _peak_bytes(lambda: vec_sandwich(a, b, c))
    assert peak < 0.1 * 900 * 900 * 8


def test_tensor_transpose_allocates_only_its_result():
    kt = build_ctensor(60, 40)  # its dense form would be 44 MiB
    x = _inputs(6, (60, 40))[0]
    result, peak = _peak_bytes(lambda: tensor_transpose(kt, x))
    assert result.shape == (40, 60) and peak <= 1.25 * result.nbytes


SIZED = {
    "conjugate_kron": conjugate_kron,
    "kron": kron,
    "kron_rectangular": lambda a, b: kron(a[:, :20], b[:25]),
}


@pytest.mark.parametrize("name", sorted(SIZED))
def test_kronecker_products_write_their_result_once(name):
    a, b = _inputs(2, (30, 30), (30, 30))
    result, peak = _peak_bytes(lambda: SIZED[name](a, b))
    assert peak <= 1.25 * result.nbytes


@pytest.mark.parametrize(
    "name,call",
    [
        ("build_ctensor", lambda: build_ctensor(30, 30).backing),
        (
            "mode_perm_dense",
            lambda: mode_perm_dense(build_mode_perm_tensor(Permutation([3, 1, 4, 2]), 5)),
        ),
        ("gct_dense", lambda: gct_dense(build_gct(_inputs(3, (8, 8), (8, 8), (8, 8))))),
    ],
)
def test_dense_builders_allocate_their_result_once(name, call):
    result, peak = _peak_bytes(call)
    assert peak <= 1.25 * result.array.nbytes


@pytest.mark.parametrize(
    "name,make,unfold",
    [
        ("balance_unfold", lambda: DenseTensor(_inputs(5, (8,) * 6)[0]), balance_unfold),
        (
            "balance_unfold_F",
            lambda: DenseTensor(np.asfortranarray(_inputs(5, (8,) * 6)[0])),
            balance_unfold,
        ),
        ("ctensor_flatten", lambda: build_ctensor(30, 20), ctensor_flatten),
    ],
)
def test_unfoldings_copy_once(name, make, unfold):
    operand = make()
    result, peak = _peak_bytes(lambda: unfold(operand))
    assert peak <= 1.25 * result.nbytes

"""Who owns the arrays a builder returns, and how much a builder allocates.

A DenseTensor built from a caller's array copies it; a tensor a builder
fills itself adopts that array, frozen in place.  A call that only reads a
tensor operand reads it in place, and writes and shares none of it.  The budgets below count
bytes with tracemalloc, which numpy reports every allocation to, so they
hold on any machine and do not depend on timing.
"""

import functools
import sys
import tracemalloc

import numpy as np
import pytest

from commutant import (
    DenseTensor,
    Permutation,
    apply,
    apply_rank_preserver,
    balance_unfold,
    build_commutation,
    build_ctensor,
    build_gct,
    build_mode_perm_tensor,
    check_nonneg_inverse,
    conjugate_kron,
    extract_sym_rank1,
    fixes_identity,
    ctensor_flatten,
    gct_dense,
    gct_inverse,
    gct_from_permutation,
    identity_tensor,
    is_balanced_permutation,
    is_pair_symmetric,
    is_rank1_tensor,
    kron,
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
    verify_rank_preservation,
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


def _scaled_permutations(*sizes):
    """Permutation matrices of the given sizes with entries in [0.5, 2)."""
    rng = np.random.default_rng(8)
    out = []
    for n in sizes:
        g = np.zeros((n, n))
        g[rng.permutation(n), np.arange(n)] = rng.uniform(0.5, 2.0, n)
        out.append(g)
    return out


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


def _large_steps(call, size):
    """Result of ``call()`` and how many of its steps, each one bytecode
    instruction of a Python frame it runs, raised the traced bytes by at
    least ``size / 2``: one per array that large, whether or not it is freed
    before the call's peak.  Half, because a step may free a few small
    objects before it allocates."""
    call()  # numpy's first-call caches are not allocations of the call itself
    steps, before, tracer = 0, 0, sys.gettrace()

    def step(frame, event, arg):
        nonlocal steps, before
        current, peak = tracemalloc.get_traced_memory()
        steps += peak - before >= size / 2
        tracemalloc.reset_peak()
        before = current
        return step

    def enter(frame, event, arg):
        frame.f_trace_opcodes = True
        return step(frame, event, arg)

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sys.settrace(enter)
        try:
            result = call()
        finally:
            sys.settrace(tracer)
        step(None, "return", None)
    finally:
        tracemalloc.stop()
    return result, steps


@pytest.mark.parametrize("k", [3, 2**10, 2**16])
def test_identity_permutation_builds_its_images_once(k):
    # one tuple of k ints, 8 bytes a slot and 32 an int: 40 bytes a degree,
    # where checking the images as any Permutation's took 96
    result, peak = _peak_bytes(lambda: Permutation.identity(k))
    assert result.degree == k and result.is_identity()
    assert peak <= 48 * k + 1024


def test_vec_sandwich_never_forms_the_kronecker_matrix():
    a, b, c = _inputs(1, (30, 30), (30, 30), (30, 30))
    _, peak = _peak_bytes(lambda: vec_sandwich(a, b, c))
    assert peak < 0.1 * 900 * 900 * 8


def test_tensor_transpose_allocates_only_its_result():
    kt = build_ctensor(60, 40)  # its dense form would be 44 MiB
    x = _inputs(6, (60, 40))[0]
    result, peak = _peak_bytes(lambda: tensor_transpose(kt, x))
    assert result.shape == (40, 60) and peak <= 1.25 * result.nbytes


def test_k_acts_with_no_index():
    # K built in the call, as each request builds it: the action is a transpose
    # copy, where a gather through a fresh int64 index held 720 KB more
    x = _inputs(7, (300 * 300,))[0]
    result, peak = _peak_bytes(lambda: apply(build_commutation(300, 300), x))
    assert result.nbytes == x.nbytes and peak <= result.nbytes + 4096


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


@pytest.mark.parametrize("x_shape,y_shape", [((1, 900), (900, 1)), ((900, 1), (1, 900))])
def test_kron_of_a_single_row_factor_expands_to_the_result_size(x_shape, y_shape):
    # the kernel's row expansions hold (1/m + 1/r) of the result for an
    # m-row x and an r-row y: a single-row factor costs a second result
    x, y = _inputs(4, x_shape, y_shape)
    m, r = x_shape[0], y_shape[0]
    result, peak = _peak_bytes(lambda: kron(x, y))
    assert result.shape == (900, 900)
    assert peak <= (1.25 + 1 / m + 1 / r) * result.nbytes


@pytest.mark.parametrize(
    "name,call",
    [
        ("build_ctensor", lambda: build_ctensor(30, 30).backing),
        (
            "mode_perm_dense",
            lambda: mode_perm_dense(build_mode_perm_tensor(Permutation([3, 1, 4, 2]), 5)),
        ),
        ("gct_dense", lambda: gct_dense(build_gct(_inputs(3, (8, 8), (8, 8), (8, 8))))),
        # nonnegative monomial generators: zeros with the 512 products scattered in
        (
            "gct_dense_monomial",
            lambda: gct_dense(
                rank_preserver(_scaled_permutations(8, 8, 8), Permutation([2, 3, 1]))
            ),
        ),
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


def test_check_nonneg_inverse_reads_an_exactly_monomial_pair_in_place():
    # a GCT of generalized permutations and its inverse, m = 3, n = 8: the
    # certifier keeps a nonzero mask of one operand at a time (1/8 of its
    # bytes) and the 2N support entries, and copies neither operand
    rng = np.random.default_rng(7)
    gens = []
    for _ in range(3):
        g = np.zeros((8, 8))
        g[rng.permutation(8), np.arange(8)] = rng.uniform(0.5, 2.0, 8)
        gens.append(g)
    # plain tensors of the same entries, so the certifier scans them
    a = DenseTensor(gct_dense(build_gct(gens)).array)
    b = DenseTensor(gct_dense(gct_inverse(build_gct(gens))).array)
    result, peak = _peak_bytes(lambda: check_nonneg_inverse(a, b))
    assert len(result) == 512
    assert peak < 0.25 * a.array.nbytes


def test_check_nonneg_inverse_allocates_o_n_on_a_kept_pair():
    # the same pair as gct_dense returns it, each keeping its support: no
    # mask, only O(N) arrays (N = 512: a few KiB against a 2 MiB operand)
    rng = np.random.default_rng(7)
    gens = []
    for _ in range(3):
        g = np.zeros((8, 8))
        g[rng.permutation(8), np.arange(8)] = rng.uniform(0.5, 2.0, 8)
        gens.append(g)
    a = gct_dense(build_gct(gens))
    b = gct_dense(gct_inverse(build_gct(gens)))
    result, peak = _peak_bytes(lambda: check_nonneg_inverse(a, b))
    assert len(result) == 512
    assert peak < 0.05 * a.array.nbytes


def test_verify_rank_preservation_holds_one_stack_of_trials_at_a_time():
    # 10,000 trials at m = 3, n = 8 are certified 128 at a time (2**16
    # entries, 512 KiB a stack): the peak is a few stacks, whatever the trial
    # count, where all trials at once would hold 40 MB per array
    rng = np.random.default_rng(9)
    gens = [rng.standard_normal((8, 8)) + 3 * np.eye(8) for _ in range(3)]
    phi = rank_preserver(gens, Permutation([2, 3, 1]))
    stack_bytes = 2**16 * 8
    report, peak = _peak_bytes(lambda: verify_rank_preservation(phi, 10_000, 5))
    assert report.all_passed and report.trials == 10_000
    assert peak <= 5 * stack_bytes
    _, one_stack = _peak_bytes(lambda: verify_rank_preservation(phi, 128, 5))
    assert peak <= 1.05 * one_stack


def test_the_group_case_pipeline_writes_no_dense_form():
    # the m3n8 request of the certify benchmark: build, two dense forms, the
    # inverse and the check.  The dense forms keep their supports and the
    # check reads only those, so neither 2 MiB array is ever written: the
    # peak is O(N) arrays, under 5% of one dense form
    rng = np.random.default_rng(11)
    gens = []
    for _ in range(3):
        g = np.zeros((8, 8))
        g[rng.permutation(8), np.arange(8)] = rng.uniform(0.5, 2.0, 8)
        gens.append(g)

    def pipeline():
        g = build_gct(gens)
        return check_nonneg_inverse(gct_dense(g), gct_dense(gct_inverse(g)))

    result, peak = _peak_bytes(pipeline)
    assert len(result) == 512
    assert peak < 0.05 * 8**6 * 8


def test_check_nonneg_inverse_writes_no_kept_second_operand():
    # a plain first operand and the inverse's dense form as gct_dense
    # returns it: a is scanned (a mask of 1/8 of its bytes) and b's support
    # stands for its nonzero count, so b's 2 MiB array is never written
    gens = _scaled_permutations(8, 8, 8)
    a = DenseTensor(gct_dense(build_gct(gens)).array)
    inverse = gct_inverse(build_gct(gens))
    result, peak = _peak_bytes(lambda: check_nonneg_inverse(a, gct_dense(inverse)))
    assert len(result) == 512
    assert peak < 0.25 * a.array.nbytes


#: fixes_identity's traced peak, in image sizes n^m * 8 rounded up, when it
#: built I and applied the operator mode by mode
FIXES_IDENTITY_PARENT_PEAK = {(3, 8): 4.45, (4, 8): 4.06, (5, 6): 4.04}


@pytest.mark.parametrize("m,n", sorted(FIXES_IDENTITY_PARENT_PEAK))
def test_fixes_identity_holds_at_most_the_parents_peak(m, n):
    phi = build_gct(_inputs(12, *[(n, n)] * m))
    verdict, peak = _peak_bytes(lambda: fixes_identity(phi))
    assert verdict is False
    assert peak <= FIXES_IDENTITY_PARENT_PEAK[m, n] * n**m * 8


def test_fixes_identity_holds_the_image_and_its_one_operand():
    # past numpy's constant ufunc buffers: the Khatri-Rao operand and the
    # product, with no identity tensor and no per-mode intermediate
    phi = build_gct(_inputs(13, (40, 40), (40, 40), (40, 40)))
    _, peak = _peak_bytes(lambda: fixes_identity(phi))
    assert peak <= 2.05 * 40**3 * 8


@pytest.mark.parametrize("layout", ["C", "F"])
def test_is_rank1_tensor_reads_an_array_in_place(layout):
    # the traced peak on a caller's array is the one on a tensor that
    # already holds it: the certificate copies nothing first
    arr = np.asarray(rank1(_inputs(14, (8,), (8,), (8,), (8,))).array, order=layout)
    _, on_array = _peak_bytes(lambda: is_rank1_tensor(arr))
    held = DenseTensor(arr)
    _, on_tensor = _peak_bytes(lambda: is_rank1_tensor(held))
    assert on_array <= on_tensor + 1024
    assert on_array < 4 * arr.nbytes


#: a call on C-contiguous float64 operands, how many result sizes it holds
#: at its peak past a small constant, and at most how many arrays at least
#: half its smallest operand's size it allocates: its results and products,
#: never a copy of an operand.  The one exception is by design:
#: apply_rank_preserver reads a C-ordered matrix (m = 2) through an F-ordered
#: copy, so that the operand's layout does not change the product's bits
IN_PLACE = {
    "mul_2m": lambda: (mul_2m, _inputs(20, (8,) * 6, (8,) * 6), 1, 1),
    "mul_2m_on_m": lambda: (mul_2m_on_m, _inputs(21, (8,) * 6, (8,) * 3), 1, 1),
    "balance_unfold": lambda: (balance_unfold, _inputs(22, (8,) * 6), 1, 1),
    "permute_modes": lambda: (
        functools.partial(permute_modes, tau=Permutation([2, 3, 1, 5, 6, 4])),
        _inputs(23, (8,) * 6),
        1,
        1,
    ),
    # m = 1: one product, whose result is the operand's size
    "apply_rank_preserver": lambda: (
        functools.partial(apply_rank_preserver, build_gct(_inputs(24, (1024, 1024)))),
        _inputs(25, (1024,)),
        1,
        1,
    ),
    # m = 2: the first mode product is held while the second is written; the
    # F-ordered copy is dropped before then, and is the third array
    "apply_rank_preserver_m2": lambda: (
        functools.partial(
            apply_rank_preserver,
            rank_preserver(_inputs(26, (300, 300), (300, 300)), Permutation([2, 1])),
        ),
        _inputs(27, (300, 300)),
        2,
        3,
    ),
}


@pytest.mark.parametrize("name", sorted(IN_PLACE))
def test_tensor_operands_are_read_in_place(name):
    call, operands, results, arrays = IN_PLACE[name]()
    assert all(x.flags.c_contiguous and x.dtype == np.float64 for x in operands)
    result, peak = _peak_bytes(lambda: call(*operands))
    out = result if isinstance(result, np.ndarray) else result.array
    assert peak <= results * out.nbytes + 2048
    # the peak misses a copy dropped before it; the count of large arrays does not
    _, allocated = _large_steps(lambda: call(*operands), min(x.nbytes for x in operands))
    assert allocated <= arrays


def _nonneg_pair():
    g = build_gct(_scaled_permutations(3, 3))
    return [gct_dense(g).array.copy(), gct_dense(gct_inverse(g)).array.copy()]


#: every public call that reads tensor operands in place, with writable
#: operands of its domain; each returns an array, a tensor, (lambda, y), a
#: bool or a list
READERS = {
    "mul_2m": (mul_2m, lambda: _inputs(30, (3,) * 4, (3,) * 4)),
    "mul_2m_on_m": (mul_2m_on_m, lambda: _inputs(31, (3,) * 4, (3,) * 2)),
    "balance_unfold": (balance_unfold, lambda: _inputs(32, (2,) * 6)),
    "permute_modes": (
        lambda x: permute_modes(x, Permutation([3, 1, 2])),
        lambda: _inputs(33, (2, 3, 4)),
    ),
    "apply_rank_preserver": (
        lambda x: apply_rank_preserver(
            rank_preserver(_inputs(34, (3, 3), (3, 3), (3, 3)), Permutation([2, 3, 1])), x
        ),
        lambda: _inputs(35, (3, 3, 3)),
    ),
    "is_pair_symmetric": (is_pair_symmetric, lambda: _inputs(36, (3,) * 4)),
    "is_balanced_permutation": (
        is_balanced_permutation,
        lambda: [gct_dense(gct_from_permutation(Permutation([2, 3, 1]), 2)).array.copy()],
    ),
    "check_nonneg_inverse": (check_nonneg_inverse, _nonneg_pair),
    "is_rank1_tensor": (is_rank1_tensor, lambda: [rank1(_inputs(37, (3,), (4,))).array.copy()]),
    "extract_sym_rank1": (
        extract_sym_rank1,
        lambda: [sym_power(_inputs(38, (4,))[0], 3).array.copy()],
    ),
}


def _layout(x, layout):
    """``x``'s entries in a fresh writable array of the named layout."""
    if layout == "strided":  # every other row of a larger array
        big = np.zeros((2 * x.shape[0],) + x.shape[1:])
        big[::2] = x
        return big[::2]
    return np.array(x, order=layout)


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("name", sorted(READERS))
def test_readers_leave_the_callers_array_as_it_was(name, layout):
    call, make = READERS[name]
    operands = [_layout(x, layout) for x in make()]
    before = [x.tobytes() for x in operands]
    result = call(*operands)
    for x, b in zip(operands, before):
        assert x.flags.writeable and x.tobytes() == b
    if isinstance(result, tuple):  # extract_sym_rank1's (lambda, y)
        result = result[1]
    out = result.array if isinstance(result, DenseTensor) else result
    assert isinstance(out, (np.ndarray, bool, list))
    if isinstance(out, np.ndarray):
        assert not any(np.shares_memory(out, x) for x in operands)

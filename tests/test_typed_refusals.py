"""Each bad library call below is refused with its own CommutantError
subclass and message, never an untyped numpy or Python error."""

import tracemalloc

import numpy as np
import pytest

from commutant import (
    ArgumentError,
    DenseTensor,
    DimensionError,
    DomainError,
    Permutation,
    RangeError,
    apply,
    build_commutation,
    build_ctensor,
    build_gct,
    build_mode_perm_tensor,
    det_commutation,
    gct_from_permutation,
    gct_identity,
    identity_tensor,
    kron_vec,
    linalg,
    matrix_preserver,
    permute_modes,
    rank1,
    rank_preserver,
    sym_power,
    sym_preserver,
    trace_commutation,
    unvec,
    vec,
    verify_rank_preservation,
)
from commutant import serialize as ser
from commutant.preserver import MAX_TRIALS
from commutant.verify import RunConfig

REFUSALS = {
    "permute_modes-wrong-degree": (
        lambda: permute_modes(np.ones((2, 2)), Permutation([1, 2, 3])),
        DimensionError,
        "degree 3 != order 2",
    ),
    "identity_tensor-no-modes": (lambda: identity_tensor(0, 2), ArgumentError, "m=0"),
    "entry-wrong-coordinates": (
        lambda: DenseTensor(np.eye(2)).entry(1),
        DimensionError,
        "1 coordinates for order 2",
    ),
    "kron_vec-matrix": (lambda: kron_vec(np.eye(2), np.ones(2)), DimensionError, "two vectors"),
    "unvec-zero-rows": (lambda: unvec(np.ones(4), 0, 2), ArgumentError, "p=0"),
    "apply-matrix": (
        lambda: apply(build_commutation(2, 2), np.eye(2)),
        DimensionError,
        "expected a vector",
    ),
    "rank1-matrix-factor": (lambda: rank1([np.eye(2)]), DimensionError, "vectors"),
    "sym_power-zero": (lambda: sym_power(np.ones(2), 0), ArgumentError, "got 0"),
    "from_cycles-out-of-range": (
        lambda: Permutation.from_cycles(3, [1, 4]),
        RangeError,
        "outside 1..3",
    ),
    "from_cycles-repeated": (
        lambda: Permutation.from_cycles(3, [1, 1]),
        ArgumentError,
        "repeated entry",
    ),
    "compose-across-degrees": (
        lambda: Permutation([1, 2]).compose(Permutation([1, 2, 3])),
        ArgumentError,
        "degree mismatch",
    ),
    "verify_rank_preservation-no-trials": (
        lambda: verify_rank_preservation(sym_preserver(np.eye(2), 2), 0, 0),
        ArgumentError,
        "trials must be positive",
    ),
    "verify_rank_preservation-negative-seed": (
        lambda: verify_rank_preservation(sym_preserver(np.eye(2), 2), 3, -1),
        ArgumentError,
        "seed must be a non-negative integer, got -1",
    ),
    "verify_rank_preservation-float-seed": (
        lambda: verify_rank_preservation(sym_preserver(np.eye(2), 2), 3, 0.5),
        ArgumentError,
        "seed must be a non-negative integer, got 0.5",
    ),
    "verify_rank_preservation-bool-seed": (
        lambda: verify_rank_preservation(sym_preserver(np.eye(2), 2), 3, True),
        ArgumentError,
        "seed must be a non-negative integer, got True",
    ),
    "verify_rank_preservation-float-trials": (
        lambda: verify_rank_preservation(sym_preserver(np.eye(2), 2), 2.5, 0),
        ArgumentError,
        "trials must be an integer, got 2.5",
    ),
    "verify_rank_preservation-bool-trials": (
        lambda: verify_rank_preservation(sym_preserver(np.eye(2), 2), True, 0),
        ArgumentError,
        "trials must be an integer, got True",
    ),
    "RunConfig-float-trials": (
        lambda: RunConfig(trials=2.5),
        ArgumentError,
        "trials must be a positive integer, got 2.5",
    ),
    "RunConfig-bool-trials": (
        lambda: RunConfig(trials=True),
        ArgumentError,
        "trials must be a positive integer, got True",
    ),
    "RunConfig-float-seed": (
        lambda: RunConfig(seed=1.5),
        ArgumentError,
        "seed must be a non-negative integer, got 1.5",
    ),
    "RunConfig-bool-seed": (
        lambda: RunConfig(seed=False),
        ArgumentError,
        "seed must be a non-negative integer, got False",
    ),
    "RunConfig-float-size": (
        lambda: RunConfig(sizes=((2.5, 2),)),
        ArgumentError,
        r"sizes must be pairs of positive integers, got \(\(2.5, 2\),\)",
    ),
    "RunConfig-bool-size": (
        lambda: RunConfig(sizes=((2, True),)),
        ArgumentError,
        "sizes must be pairs of positive integers",
    ),
    "RunConfig-size-triple": (
        lambda: RunConfig(sizes=((2, 2, 2),)),
        ArgumentError,
        r"sizes must be pairs of positive integers, got \(\(2, 2, 2\),\)",
    ),
    "RunConfig-size-not-a-pair": (
        lambda: RunConfig(sizes=(2,)),
        ArgumentError,
        r"sizes must be pairs of positive integers, got \(2,\)",
    ),
    "RunConfig-string-tol": (
        lambda: RunConfig(tol="a"),
        ArgumentError,
        "tolerance must be positive and finite, got 'a'",
    ),
    "RunConfig-bool-tol": (
        lambda: RunConfig(tol=True),
        ArgumentError,
        "tolerance must be positive and finite, got True",
    ),
    "build_ctensor-float-size": (
        lambda: build_ctensor(2.5, 2),
        ArgumentError,
        "dimensions must be positive integers, got p=2.5, q=2",
    ),
    "build_commutation-float-size": (
        lambda: build_commutation(2.5, 3).idx,
        ArgumentError,
        "dimensions must be positive integers, got p=2.5, q=3",
    ),
    "trace_commutation-float-size": (
        lambda: trace_commutation(2.5),
        ArgumentError,
        "got p=2.5",
    ),
    "det_commutation-float-size": (
        lambda: det_commutation(2.5, 2),
        ArgumentError,
        "got p=2.5, q=2",
    ),
    "build_mode_perm_tensor-float-size": (
        lambda: build_mode_perm_tensor(Permutation([2, 1]), 2.5),
        ArgumentError,
        "n must be a positive integer, got 2.5",
    ),
    "gct_identity-float-modes": (
        lambda: gct_identity(2.5, 2),
        ArgumentError,
        "permutation degree must be an integer, got 2.5",
    ),
    "gct_identity-float-size": (
        lambda: gct_identity(2, 2.5),
        ArgumentError,
        "n must be a positive integer, got 2.5",
    ),
    "identity_tensor-float-modes": (
        lambda: identity_tensor(2.5, 2),
        ArgumentError,
        "m and n must be positive integers, got m=2.5, n=2",
    ),
    "unvec-float-rows": (
        lambda: unvec(np.ones(4), 2.5, 2),
        ArgumentError,
        "p and q must be positive integers, got p=2.5, q=2",
    ),
    "gct_from_permutation-float-modes": (
        lambda: gct_from_permutation(Permutation([2, 1]), 2.5),
        ArgumentError,
        "m must be a positive integer, got 2.5",
    ),
    "sym_power-float": (
        lambda: sym_power(np.ones(2), 2.5),
        ArgumentError,
        "power must be a positive integer, got 2.5",
    ),
    "sym_preserver-float-modes": (
        lambda: sym_preserver(np.eye(2), 2.5),
        ArgumentError,
        "m must be a positive integer, got 2.5",
    ),
    "from_flat-float-extent": (
        lambda: DenseTensor.from_flat([2.5], [1, 2]),
        ArgumentError,
        r"bad shape \(2.5,\)",
    ),
    "from_flat-bool-extent": (
        lambda: DenseTensor.from_flat([True, 2], [1, 2]),
        ArgumentError,
        r"bad shape \(True, 2\)",
    ),
    "from_cycles-float-entry": (
        lambda: Permutation.from_cycles(3, (1.5, 2)),
        ArgumentError,
        r"cycle entries must be integers: \[1.5, 2\]",
    ),
    "from_cycles-string-entry": (
        lambda: Permutation.from_cycles(3, (1, "a")),
        ArgumentError,
        "cycle entries must be integers",
    ),
    "entry-float-coordinate": (
        lambda: DenseTensor(np.eye(2)).entry(1.5, 1),
        ArgumentError,
        r"coordinates must be integers, got \(1.5, 1\)",
    ),
    "entry-bool-coordinate": (
        lambda: DenseTensor(np.eye(2)).entry(True, 2),
        ArgumentError,
        r"coordinates must be integers, got \(True, 2\)",
    ),
    "Permutation.all-float-degree": (
        lambda: Permutation.all(2.5),
        ArgumentError,
        "permutation degree must be an integer, got 2.5",
    ),
    "Permutation-float-index": (
        lambda: Permutation([2, 1, 3])(1.5),
        ArgumentError,
        "index must be an integer, got 1.5",
    ),
    "Permutation-bool-index": (
        lambda: Permutation([2, 1, 3])(True),
        ArgumentError,
        "index must be an integer, got True",
    ),
    "build_gct-scalar": (lambda: build_gct(2.0), ArgumentError, "must be a sequence, got 2.0"),
    "rank_preserver-scalar": (
        lambda: rank_preserver(2.0, Permutation([1])),
        ArgumentError,
        "must be a sequence, got 2.0",
    ),
    "rank1-scalar": (lambda: rank1(2.0), ArgumentError, "must be a sequence, got 2.0"),
    "from_cycles-scalar-cycle": (
        lambda: Permutation.from_cycles(3, 2),
        ArgumentError,
        "a cycle must be a sequence, got 2",
    ),
    "from_flat-scalar-shape": (
        lambda: DenseTensor.from_flat(2, [1, 2]),
        ArgumentError,
        "a shape must be a sequence, got 2",
    ),
    "vec-string": (
        lambda: vec("a"),
        ArgumentError,
        "not a regular array of numbers for a matrix: <U1 entries",
    ),
    "vec-complex": (
        lambda: vec(np.array([[1 + 2j, 3]])),
        ArgumentError,
        "not a regular array of numbers for a matrix: complex128 entries",
    ),
    "unvec-ragged": (
        lambda: unvec([[1.0, 2.0], [3.0]], 1, 2),
        ArgumentError,
        "not a regular array of numbers for a vector",
    ),
    "apply-none-entries": (
        lambda: apply(build_commutation(1, 2), [None, 1.0]),
        ArgumentError,
        "not a regular array of numbers for a vector: object entries",
    ),
    "kron_vec-complex": (
        lambda: kron_vec(np.ones(2), np.array([1j])),
        ArgumentError,
        "not a regular array of numbers for two vectors: complex128 entries",
    ),
    "rank1-string-factor": (
        lambda: rank1([[1.0, 2.0], "ab"]),
        ArgumentError,
        "not a regular array of numbers for vectors: <U2 entries",
    ),
    "linalg-det-string": (
        lambda: linalg.det([["1", "2"], ["3", "4"]]),
        ArgumentError,
        "not a regular array of numbers for a matrix: <U1 entries",
    ),
    "matrix_preserver-array-transposed": (
        lambda: matrix_preserver(np.eye(2), np.eye(2), np.ones(2)),
        ArgumentError,
        "transposed must be True or False",
    ),
    "preserver_from_json-integral-float": (
        lambda: ser.preserver_from_json('{"m":1,"n":1.0,"tau":[1],"matrices":[[[2]]]}'),
        ser.ParseError,
        r"fields \['m', 'n'\] must be integers",
    ),
}

#: calls whose order m is 10**30, over MAX_ORDER
HUGE_ORDERS = {
    "identity_tensor": lambda: identity_tensor(10**30, 1),
    "sym_power": lambda: sym_power([1.0], 10**30),
    "sym_preserver": lambda: sym_preserver(np.eye(2), 10**30),
    "gct_from_permutation": lambda: gct_from_permutation(Permutation([2, 1]), 10**30),
}

#: calls whose permutation degree k is over the bound 2**21 of Permutation.identity
HUGE_DEGREES = {
    "identity": Permutation.identity,
    "from_cycles": lambda k: Permutation.from_cycles(k, (1, 2)),
    "all": Permutation.all,
    "gct_identity": lambda k: gct_identity(k, 2),
}

#: calls whose trial count is over MAX_TRIALS
HUGE_TRIALS = {
    "RunConfig": lambda t: RunConfig(trials=t),
    "verify_rank_preservation": lambda t, phi=sym_preserver(np.eye(2), 2): (
        verify_rank_preservation(phi, t, 0)
    ),
}


@pytest.mark.parametrize("call,error,message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refused_with_its_type(call, error, message):
    with pytest.raises(error, match=message):
        call()


def _refused_building_nothing(call, error, message):
    tracemalloc.start()
    try:
        with pytest.raises(error, match=message):
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**14


@pytest.mark.parametrize("call", HUGE_ORDERS.values(), ids=HUGE_ORDERS.keys())
def test_an_order_over_max_order_is_refused_before_any_work(call):
    # refused by its order alone: no length-m sequence, array or generator is built
    _refused_building_nothing(call, DimensionError, f"order {10**30} is over numpy's 64 modes")


@pytest.mark.parametrize("k", [2**21 + 1, 2**24 + 1, 10**9, 10**30])
@pytest.mark.parametrize("call", HUGE_DEGREES.values(), ids=HUGE_DEGREES.keys())
def test_a_degree_over_the_dense_budget_is_refused_before_any_image(call, k):
    # no range(1, k + 1) is consumed: the refusal is a DomainError, not an
    # overflow; the bound keeps the image tuple (~36 B an image) near 72 MiB
    _refused_building_nothing(
        lambda: call(k), DomainError, f"^permutation degree {k} is over the bound 2097152$"
    )


@pytest.mark.parametrize("trials", [MAX_TRIALS + 1, 10**12, 10**30])
@pytest.mark.parametrize("call", HUGE_TRIALS.values(), ids=HUGE_TRIALS.keys())
def test_a_trial_count_over_its_bound_is_refused_before_any_trial(call, trials):
    _refused_building_nothing(
        lambda: call(trials), DomainError, f"trials={trials} is over the bound MAX_TRIALS"
    )


def test_the_largest_trial_count_is_a_config():
    assert RunConfig(trials=MAX_TRIALS).trials == MAX_TRIALS

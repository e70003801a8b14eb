"""Each bad library call below is refused with its own CommutantError
subclass and message, never an untyped numpy or Python error."""

import numpy as np
import pytest

from commutant import (
    ArgumentError,
    DenseTensor,
    DimensionError,
    Permutation,
    RangeError,
    apply,
    build_commutation,
    cp_form,
    identity_tensor,
    kron_vec,
    permute_modes,
    rank1,
    sym_power,
    sym_preserver,
    unvec,
    verify_rank_preservation,
)
from commutant import serialize as ser
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
    "cp_to_json-non-cubical": (
        lambda: ser.cp_to_json(cp_form([np.ones((2, 1)), np.ones((3, 1))])),
        DimensionError,
        "cubical",
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
}


@pytest.mark.parametrize("call,error,message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refused_with_its_type(call, error, message):
    with pytest.raises(error, match=message):
        call()

"""Every public callable, and each array writer of the serialize module,
given a known-good call with one argument (or one element of a list or
tuple argument) replaced by a bad value, either returns a valid result or
raises a CommutantError: never an untyped numpy or Python error, and never
a warning (pytest turns warnings into errors).

An argument that is one of the package's own objects (a Gct, Permutation
or CommutationMatrix) is held fixed: a float in its place is a programming
error that Python reports as an AttributeError.  So callables whose
arguments are all such objects (``gct_dense``, ``gct_inverse``,
``gct_multiply``, ``compose_rank_preservers`` and the like) are not swept."""

import numpy as np
import pytest

import commutant as C
from commutant import CommutantError, CommutationMatrix, DenseTensor, Gct, Permutation
from commutant import serialize

BAD = {
    "2.5": 2.5,
    "True": True,
    "str": "a",
    "None": None,
    "nan": float("nan"),
    "10**30": 10**30,
    "1-D": np.array([1.0, 2.0]),
    "ragged": [[1.0, 2.0], [3.0]],
    "complex": np.full((2, 2), 1 + 2j),
}

K = C.build_commutation(2, 3)
G = C.build_gct([np.eye(2), np.eye(2)])
PHI = C.sym_preserver(np.eye(2), 2)
SWAP = Permutation([2, 1])
IDENTITY_2M = C.gct_dense(G).array

#: name -> (callable, known-good arguments)
GOOD = {
    "DenseTensor": (DenseTensor, ([[1.0, 2.0], [3.0, 4.0]],)),
    "DenseTensor.from_flat": (DenseTensor.from_flat, ((2, 2), [1.0, 2.0, 3.0, 4.0])),
    "DenseTensor.entry": (DenseTensor(np.eye(2)).entry, (1, 2)),
    "identity_tensor": (C.identity_tensor, (2, 2)),
    "mul_2m": (C.mul_2m, (np.ones((2, 2)), np.eye(2))),
    "mul_2m_on_m": (C.mul_2m_on_m, (np.eye(2), [1.0, 2.0])),
    "balance_unfold": (C.balance_unfold, (np.ones((2, 2, 2, 2)),)),
    "permute_modes": (C.permute_modes, (np.ones((2, 3)), SWAP)),
    "Permutation": (Permutation, ([2, 1, 3],)),
    "Permutation.identity": (Permutation.identity, (3,)),
    "Permutation.from_cycles": (Permutation.from_cycles, (3, (1, 2))),
    "Permutation.all": (lambda k: list(Permutation.all(k)), (3,)),
    "Permutation.__call__": (Permutation([2, 1, 3]), (1,)),
    "CommutationMatrix": (CommutationMatrix, (2, 3)),
    "build_commutation": (C.build_commutation, (2, 3)),
    "build_commutation_rank1": (C.build_commutation_rank1, (2, 3)),
    "build_ctensor": (C.build_ctensor, (2, 3)),
    "det_commutation": (C.det_commutation, (2, 3)),
    "trace_commutation": (C.trace_commutation, (3,)),
    "apply": (C.apply, (K, np.arange(6.0))),
    "tensor_transpose": (C.tensor_transpose, (K, np.ones((2, 3)))),
    "conjugate_kron": (C.conjugate_kron, (np.eye(2), np.eye(3))),
    "build_gct": (C.build_gct, ([np.eye(2), np.eye(2)],)),
    "build_mode_perm_tensor": (C.build_mode_perm_tensor, (SWAP, 2)),
    "gct_from_permutation": (C.gct_from_permutation, (SWAP, 2)),
    "gct_identity": (C.gct_identity, (2, 2)),
    "apply_rank_preserver": (C.apply_rank_preserver, (G, np.ones((2, 2)))),
    "is_balanced_permutation": (C.is_balanced_permutation, (IDENTITY_2M,)),
    "is_pair_symmetric": (C.is_pair_symmetric, (np.ones((2, 2, 2, 2)),)),
    "check_nonneg_inverse": (C.check_nonneg_inverse, (IDENTITY_2M, IDENTITY_2M)),
    "extract_sym_rank1": (C.extract_sym_rank1, (np.ones((2, 2)),)),
    "is_symmetric": (C.is_symmetric, (np.ones((2, 2)),)),
    "rank1": (C.rank1, ([[1.0, 2.0], [3.0, 4.0]],)),
    "sym_power": (C.sym_power, ([1.0, 2.0], 2)),
    "is_rank1_tensor": (C.is_rank1_tensor, (np.ones((2, 2)),)),
    "matrix_preserver": (C.matrix_preserver, (np.eye(2), 2 * np.eye(2), True)),
    "rank_preserver": (C.rank_preserver, ([np.eye(2), np.eye(2)], SWAP)),
    "sym_preserver": (C.sym_preserver, (np.eye(2), 2)),
    "verify_rank_preservation": (C.verify_rank_preservation, (PHI, 3, 0)),
    "kron": (C.kron, (np.eye(2), np.ones((2, 3)))),
    "kron_vec": (C.kron_vec, ([1.0, 2.0], [3.0])),
    "unvec": (C.unvec, (np.arange(6.0), 2, 3)),
    "vec": (C.vec, (np.ones((2, 3)),)),
    "vec_sandwich": (C.vec_sandwich, (np.eye(2), np.ones((2, 3)), np.eye(3))),
    "serialize.tensor_to_json": (serialize.tensor_to_json, (np.ones((2, 3)),)),
    "serialize.matrix_to_text": (serialize.matrix_to_text, (np.eye(2),)),
}

OWN_TYPES = (Gct, Permutation, CommutationMatrix)


def _cases():
    for name, (_, args) in GOOD.items():
        for i, arg in enumerate(args):
            if isinstance(arg, OWN_TYPES):
                continue
            for label, bad in BAD.items():
                bad_args = args[:i] + (bad,) + args[i + 1 :]
                yield pytest.param(name, bad_args, id=f"{name}-{i}-{label}")
                if isinstance(arg, (list, tuple)) and not isinstance(bad, (list, tuple)):
                    for j in range(len(arg)):
                        spliced = type(arg)([*arg[:j], bad, *arg[j + 1 :]])
                        yield pytest.param(
                            name,
                            args[:i] + (spliced,) + args[i + 1 :],
                            id=f"{name}-{i}.{j}-{label}",
                        )


def _is_valid(result) -> bool:
    """An array result, bare or in a tensor, holds real numbers."""
    arr = getattr(result, "array", result)
    return not isinstance(arr, np.ndarray) or arr.dtype.kind in "biuf"


@pytest.mark.parametrize("name", GOOD)
def test_the_known_good_call_is_good(name):
    call, args = GOOD[name]
    assert _is_valid(call(*args))


@pytest.mark.parametrize("name,args", _cases())
def test_a_bad_argument_ends_typed_or_valid(name, args):
    call, _ = GOOD[name]
    try:
        result = call(*args)
    except CommutantError:
        return
    assert _is_valid(result)

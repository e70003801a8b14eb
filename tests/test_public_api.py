"""The set of public names of the package, pinned so that no refactor grows
(or shrinks) the API without a visible change here."""

import types

import commutant

PUBLIC = {
    # errors
    "ArgumentError", "CommutantError", "DimensionError", "DomainError", "ModeError",
    "PreconditionError", "RangeError", "RankError", "SingularMatrixError",
    "SymmetryError",
    # permutations and the commutation matrix
    "Permutation", "CommutationMatrix", "apply", "block_to_flat", "build_commutation",
    "build_commutation_rank1", "conjugate_kron", "det_commutation", "flat_to_block",
    "trace_commutation", "transpose_matrix",
    # commutation tensors
    "CommutationTensor4", "Gct", "ModePermTensor", "build_ctensor", "build_gct",
    "build_mode_perm_tensor", "check_nonneg_inverse", "ctensor_flatten", "ctensor_power",
    "gct_dense", "gct_from_permutation", "gct_identity", "gct_inverse", "gct_multiply",
    "is_balanced_permutation", "is_pair_symmetric", "mode_perm_dense", "tensor_transpose",
    # CP forms
    "CpForm", "SymCpForm", "cp_form", "extract_sym_rank1", "is_symmetric", "materialize",
    "materialize_sym", "permute_cp_factors", "rank1", "sym_cp_form", "sym_power",
    # preservers
    "RankPreserver", "VerificationReport", "apply_rank_preserver",
    "compose_rank_preservers", "fixes_identity", "is_determinant_preserver",
    "is_rank1_tensor", "matrix_preserver", "rank_preserver", "sym_preserver",
    "verify_rank_preservation",
    # dense tensors
    "DenseTensor", "balance_refold", "balance_unfold", "complete_right_product",
    "contract_34", "coords_from_offset", "flat_offset", "identity_tensor",
    "mode_n_product", "mul_2m", "mul_2m_on_m", "permute_modes",
    # vec-Kronecker calculus
    "VecLayout", "kron", "kron_vec", "trace_via_vec", "unvec", "vec", "vec_sandwich",
}


def test_public_names_are_pinned():
    # submodules become attributes as tests import them, so they are not counted
    names = {
        name
        for name, value in vars(commutant).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == PUBLIC

"""commutant: commutation matrices and tensors, vec-Kronecker calculus,
rank-1 CP forms, and linear rank/determinant preservers."""

from .commutation_matrix import (
    CommutationMatrix,
    apply,
    block_to_flat,
    build_commutation,
    build_commutation_rank1,
    conjugate_kron,
    det_commutation,
    flat_to_block,
    trace_commutation,
    transpose_matrix,
)
from .commutation_tensor import (
    CommutationTensor4,
    Gct,
    apply_rank_preserver,
    build_ctensor,
    build_gct,
    build_mode_perm_tensor,
    check_nonneg_inverse,
    ctensor_flatten,
    ctensor_power,
    gct_dense,
    gct_from_permutation,
    gct_identity,
    gct_inverse,
    gct_multiply,
    is_balanced_permutation,
    is_pair_symmetric,
    mode_perm_dense,
    tensor_transpose,
)
from .cp import (
    CpForm,
    SymCpForm,
    cp_form,
    extract_sym_rank1,
    is_symmetric,
    materialize,
    materialize_sym,
    permute_cp_factors,
    rank1,
    sym_cp_form,
    sym_power,
)
from .errors import (
    ArgumentError,
    CommutantError,
    DimensionError,
    DomainError,
    ModeError,
    PreconditionError,
    RangeError,
    RankError,
    SingularMatrixError,
    SymmetryError,
)
from .permutation import Permutation
from .preserver import (
    VerificationReport,
    compose_rank_preservers,
    fixes_identity,
    is_determinant_preserver,
    is_rank1_tensor,
    matrix_preserver,
    rank_preserver,
    sym_preserver,
    verify_rank_preservation,
)
from .tensor import (
    DenseTensor,
    balance_refold,
    balance_unfold,
    contract_34,
    coords_from_offset,
    flat_offset,
    identity_tensor,
    mode_n_product,
    mul_2m,
    mul_2m_on_m,
    permute_modes,
)
from .veckron import VecLayout, kron, kron_vec, trace_via_vec, unvec, vec, vec_sandwich

__version__ = "0.1.0"

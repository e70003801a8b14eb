"""commutant: commutation matrices and tensors, vec-Kronecker calculus,
rank-1 CP forms, and linear rank/determinant preservers."""

from .commutation_matrix import (
    CommutationMatrix,
    apply,
    build_commutation,
    build_commutation_rank1,
    build_ctensor,
    conjugate_kron,
    ctensor_flatten,
    det_commutation,
    tensor_transpose,
    trace_commutation,
    transpose_matrix,
)
from .commutation_tensor import (
    Gct,
    apply_rank_preserver,
    build_gct,
    build_mode_perm_tensor,
    check_nonneg_inverse,
    gct_dense,
    gct_from_permutation,
    gct_identity,
    gct_inverse,
    gct_multiply,
    is_balanced_permutation,
    is_pair_symmetric,
    mode_perm_dense,
)
from .cp import (
    CpForm,
    cp_form,
    extract_sym_rank1,
    is_symmetric,
    materialize,
    permute_cp_factors,
    rank1,
    sym_power,
)
from .errors import (
    ArgumentError,
    CommutantError,
    DimensionError,
    DomainError,
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
    balance_unfold,
    identity_tensor,
    mul_2m,
    mul_2m_on_m,
    permute_modes,
)
from .veckron import kron, kron_vec, unvec, vec, vec_sandwich

__version__ = "0.1.0"

"""commutant: commutation matrices and tensors, vec-Kronecker calculus,
rank-1 forms, and linear rank/determinant preservers.

Each public name is imported from its submodule on first access (PEP 562)
and then cached here, so ``import commutant`` loads no submodule and a
caller pays only for the layers it uses."""

from importlib import import_module as _import_module

_NAMES_BY_MODULE = {
    "commutation_matrix": (
        "CommutationMatrix", "apply", "build_commutation", "build_commutation_rank1",
        "build_ctensor", "conjugate_kron", "ctensor_flatten", "det_commutation",
        "tensor_transpose", "trace_commutation", "transpose_matrix",
    ),
    "commutation_tensor": (
        "Gct", "apply_rank_preserver", "build_gct", "build_mode_perm_tensor",
        "check_nonneg_inverse", "gct_dense", "gct_from_permutation", "gct_identity",
        "gct_inverse", "gct_multiply", "is_balanced_permutation", "is_pair_symmetric",
        "mode_perm_dense",
    ),
    "cp": (
        "extract_sym_rank1", "is_symmetric", "rank1", "sym_power",
    ),
    "errors": (
        "ArgumentError", "CommutantError", "DimensionError", "DomainError",
        "PreconditionError", "RangeError", "RankError", "SingularMatrixError",
        "SymmetryError",
    ),
    "permutation": ("Permutation",),
    "preserver": (
        "VerificationReport", "compose_rank_preservers", "fixes_identity",
        "is_determinant_preserver", "is_rank1_tensor", "matrix_preserver",
        "rank_preserver", "sym_preserver", "verify_rank_preservation",
    ),
    "tensor": (
        "DenseTensor", "balance_unfold", "identity_tensor", "mul_2m", "mul_2m_on_m",
        "permute_modes",
    ),
    "veckron": ("kron", "kron_vec", "unvec", "vec", "vec_sandwich"),
}

#: public name -> the submodule that defines it
_SUBMODULE = {name: mod for mod, names in _NAMES_BY_MODULE.items() for name in names}

__all__ = list(_SUBMODULE)

__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        mod = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(_import_module(f".{mod}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

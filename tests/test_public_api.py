"""The set of public names of the package, pinned so that no refactor grows
(or shrinks) the API without a visible change here."""

import re
import types
from pathlib import Path

import commutant

PUBLIC = {
    # errors
    "ArgumentError", "CommutantError", "DimensionError", "DomainError", "ModeError",
    "PreconditionError", "RangeError", "RankError", "SingularMatrixError",
    "SymmetryError",
    # permutations and the commutation matrix
    "Permutation", "CommutationMatrix", "apply", "build_commutation",
    "build_commutation_rank1", "conjugate_kron", "det_commutation",
    "trace_commutation", "transpose_matrix",
    # commutation tensors and the one order-2m operator
    "CommutationTensor4", "Gct", "apply_rank_preserver", "build_ctensor", "build_gct",
    "build_mode_perm_tensor", "check_nonneg_inverse", "ctensor_flatten", "ctensor_power",
    "gct_dense", "gct_from_permutation", "gct_identity", "gct_inverse", "gct_multiply",
    "is_balanced_permutation", "is_pair_symmetric", "mode_perm_dense", "tensor_transpose",
    # CP forms
    "CpForm", "cp_form", "extract_sym_rank1", "is_symmetric", "materialize",
    "permute_cp_factors", "rank1", "sym_power",
    # preservers
    "VerificationReport", "compose_rank_preservers", "fixes_identity",
    "is_determinant_preserver", "is_rank1_tensor", "matrix_preserver", "rank_preserver",
    "sym_preserver", "verify_rank_preservation",
    # dense tensors
    "DenseTensor", "balance_unfold", "identity_tensor", "mode_n_product", "mul_2m",
    "mul_2m_on_m", "permute_modes",
    # vec-Kronecker calculus
    "kron", "kron_vec", "unvec", "vec", "vec_sandwich",
}


def test_public_names_are_pinned():
    # submodules become attributes as tests import them, so they are not counted
    names = {
        name
        for name, value in vars(commutant).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == PUBLIC


def test_every_name_the_benchmark_calls_resolves():
    # the benchmark reaches the library as ``C.<name>``; an API cut that
    # drops one of those names fails here before it fails a benchmark run
    bench = Path(__file__).resolve().parents[1] / "bench"
    called = {
        name
        for path in bench.glob("*.py")
        for name in re.findall(r"\bC\.([A-Za-z_]\w*)", path.read_text(encoding="utf-8"))
    }
    assert called, "no C.<name> call found under bench/"
    assert sorted(name for name in called if not hasattr(commutant, name)) == []


def test_readme_library_entry_points_run():
    # the README's Python example is the API a reader sees first; an API cut
    # that leaves it stale fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library entry points", 1)[1]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert blocks, "no python block under 'Library entry points'"
    exec(compile(blocks[0], "README.md", "exec"), {})

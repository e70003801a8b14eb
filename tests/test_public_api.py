"""The set of public names of the package, pinned so that no refactor grows
(or shrinks) the API without a visible change here."""

import argparse
import importlib
import re
import types
from pathlib import Path

import commutant
from commutant import cli

README = Path(__file__).resolve().parents[1] / "README.md"
PYPROJECT = README.with_name("pyproject.toml")

PUBLIC = {
    # errors
    "ArgumentError", "CommutantError", "DimensionError", "DomainError",
    "PreconditionError", "RangeError", "RankError", "SingularMatrixError",
    "SymmetryError",
    # permutations, the commutation matrix and the commutation tensor
    "Permutation", "CommutationMatrix", "apply", "build_commutation",
    "build_commutation_rank1", "build_ctensor", "conjugate_kron", "ctensor_flatten",
    "det_commutation", "tensor_transpose", "trace_commutation", "transpose_matrix",
    # the one order-2m operator
    "Gct", "apply_rank_preserver", "build_gct", "build_mode_perm_tensor",
    "check_nonneg_inverse", "gct_dense", "gct_from_permutation", "gct_identity",
    "gct_inverse", "gct_multiply", "is_balanced_permutation", "is_pair_symmetric",
    "mode_perm_dense",
    # rank-1 forms
    "extract_sym_rank1", "is_symmetric", "rank1", "sym_power",
    # preservers
    "VerificationReport", "compose_rank_preservers", "fixes_identity",
    "is_determinant_preserver", "is_rank1_tensor", "matrix_preserver", "rank_preserver",
    "sym_preserver", "verify_rank_preservation",
    # dense tensors
    "DenseTensor", "balance_unfold", "identity_tensor", "mul_2m", "mul_2m_on_m",
    "permute_modes",
    # vec-Kronecker calculus
    "kron", "kron_vec", "unvec", "vec", "vec_sandwich",
}


def test_public_names_are_pinned():
    # names load on first access, so the package's namespace holds only those
    # used so far: the pin reads __all__, dir() and a star import instead.
    # Submodules become attributes as tests import them, so they are not counted
    assert set(commutant.__all__) == PUBLIC
    listed = {
        name
        for name in dir(commutant)
        if not name.startswith("_")
        and not isinstance(getattr(commutant, name), types.ModuleType)
    }
    assert listed == PUBLIC
    star = {}
    exec("from commutant import *", star)
    del star["__builtins__"]
    assert set(star) == PUBLIC
    assert all(value is getattr(commutant, name) for name, value in star.items())


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


def test_console_script_resolves_to_cli_run():
    # the installed ``commutant`` command runs what [project.scripts] names;
    # a moved or renamed entry fails here, not at a user's shell
    pyproject = PYPROJECT.read_text(encoding="utf-8")
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)", pyproject, flags=re.S | re.M)
    assert scripts, "no [project.scripts] table in pyproject.toml"
    target = re.search(r'^commutant\s*=\s*"([\w.]+):(\w+)"\s*$', scripts.group(1), flags=re.M)
    assert target, "no commutant entry under [project.scripts]"
    module, attr = target.groups()
    assert getattr(importlib.import_module(module), attr) is cli.run


def test_readme_library_entry_points_run():
    # the README's Python example is the API a reader sees first; an API cut
    # that leaves it stale fails here
    readme = README.read_text(encoding="utf-8")
    section = readme.split("## Library entry points", 1)[1]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert blocks, "no python block under 'Library entry points'"
    exec(compile(blocks[0], "README.md", "exec"), {})


def _readme_cli_examples():
    """The README's CLI examples that show their output, as (argv, output)."""
    readme = README.read_text(encoding="utf-8")
    block = re.search(r"Examples:\n\n```sh\n(.*?)```", readme, flags=re.S).group(1)
    examples = []
    for line in block.splitlines():
        if line.startswith("$ commutant "):
            examples.append((line.removeprefix("$ commutant ").split("#")[0].split(), []))
        elif line:
            examples[-1][1].append(line + "\n")
    return [(argv, "".join(shown)) for argv, shown in examples if shown]


def test_readme_cli_examples_print_what_the_readme_shows(capsys):
    # the README's shown output is what a reader compares a run against; a
    # change of the output bytes that leaves it stale fails here
    examples = _readme_cli_examples()
    assert [argv[0] for argv, _ in examples] == ["gen-kmat", "verify"]
    for argv, shown in examples:
        assert cli.main(argv) == 0, argv
        assert capsys.readouterr().out == shown, argv


def _readme_synopsis():
    """The options on each subcommand's README synopsis line, by subcommand;
    an indented line continues the one above it."""
    readme = README.read_text(encoding="utf-8")
    block = re.search(r"## CLI\n\n```\n(.*?)```", readme, flags=re.S).group(1)
    options = {}
    for line in block.splitlines():
        if line.startswith("commutant "):
            command = line.split()[1]
            options[command] = set()
        options[command] |= set(re.findall(r"--[a-z-]+", line))
    return options


def test_each_subcommand_accepts_exactly_its_readme_synopsis():
    # an option a subcommand accepts but never reads would pass silently;
    # the synopsis names every option, and the parser accepts no other
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    accepted = {
        command: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for command, p in sub.choices.items()
    }
    assert accepted == _readme_synopsis()

"""Command-line interface.

Subcommands
-----------
* ``gen-kmat P Q``      — emit the commutation matrix K_{P,Q}.
* ``gen-ktensor M N``   — emit the order-4 transpose tensor for M x N input.
* ``gen-gct M N``       — emit a generalized commutation tensor built from a
  permutation of 1..N (``--perm``, identity by default) repeated on M modes.
* ``verify``            — run named verification suites and print a report.
* ``apply PHI A``       — apply a preserver file to a tensor/matrix file.
* ``unfold A``          — emit the balance unfolding of an even-order tensor.

Exit codes: 0 success, 1 stdout closed before the output was written,
2 usage or parse error, 3 dimension/domain error, 4 verification failure.

A fixed command line (plus seed) yields identical bytes on one machine with
one BLAS thread count.  Across machines, ``apply``'s floats may differ:
their rounding depends on the BLAS build, its kernel and its thread count.
Verdicts, counts, refusals and exit codes do not, nor does ``verify``'s
output, which prints verdicts and counts, nor do the ``gen-*`` and
``unfold`` bytes, which are closed forms and a re-indexing with no
arithmetic.  The environment variable ``COMMUTANT_SEED`` overrides
``--seed``.

Input is read with the standard library and built with numpy: a handler
reads its files through ``serialize``'s readers, one per format, checks
``--perm`` and ``COMMUTANT_SEED``, and only then imports the layers that
build and run.  So a malformed argument, file or seed exits 2 before numpy
loads.  ``apply`` reads both files before it builds the preserver: every
check of its tensor file comes before numpy loads, ahead of what only the
preserver's build refuses.  Tensor JSON and matrix text are read to the
same shape and first-mode-fastest values, so one matrix gives the same
``apply`` bytes in either format.  The ``gen-*`` subcommands build nothing:
``serialize`` writes K, C and the permutation GCTs from their closed forms
with the standard library, so they never load numpy, and refuse an
over-budget size with the dense budget of :mod:`commutant.errors`, which
the builders obey.  Nor does ``unfold``: it checks the shape with
``balance_unfold``'s rule from the same module, and a tensor's
first-mode-fastest values are its balance unfolding's entries column by
column, so ``serialize`` re-indexes the checked values.
``apply`` and ``unfold`` write their result in parts, through the writers
of ``tensor_to_json`` and ``matrix_to_text``, and ``apply`` refuses a
non-finite result before it writes any of it.

:func:`run`, the process entry, calls :func:`main` and then freezes the
heap, so that interpreter exit frees it by reference counts instead of
collecting every object the imports made.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys

from .errors import ArgumentError, CommutantError, RangeError
from .errors import _check_dense_budget, _check_order, _even_order_cubic

# Only the stdlib and ``errors`` (the error types and the shape rules) load
# with this module, so a usage error exits before numpy is imported.  Each handler imports the layers its
# subcommand runs, so a ``gen-kmat`` process never loads numpy, the
# certifiers or the suites.

EXIT_OK = 0
EXIT_CLOSED_STDOUT = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_VERIFY = 4


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _sizes(text: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    for chunk in text.split(","):
        parts = chunk.lower().split("x")
        if len(parts) != 2:
            raise argparse.ArgumentTypeError(f"bad size {chunk!r}; expected like 2x3")
        try:
            pairs.append((_positive_int(parts[0]), _positive_int(parts[1])))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad size {chunk!r}: {exc}") from exc
    return tuple(pairs)


def _perm_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad permutation {text!r}: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format where both are defined (default: text)",
    )

    parser = argparse.ArgumentParser(
        prog="commutant",
        description="Commutation matrices/tensors, vec-Kronecker calculus, "
        "and rank/determinant preservers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-kmat", parents=[common], help="emit K_{P,Q}")
    p.add_argument("p", type=_positive_int)
    p.add_argument("q", type=_positive_int)

    p = sub.add_parser("gen-ktensor", help="emit the order-4 transpose tensor")
    p.add_argument("m", type=_positive_int)
    p.add_argument("n", type=_positive_int)

    p = sub.add_parser("gen-gct", help="emit a generalized commutation tensor")
    p.add_argument("m", type=_positive_int)
    p.add_argument("n", type=_positive_int)
    p.add_argument(
        "--perm",
        type=_perm_arg,
        default=None,
        help="permutation of 1..N as comma-separated images (default: identity)",
    )

    p = sub.add_parser("verify", parents=[common], help="run verification suites")
    p.add_argument("--tol", type=_positive_float, default=1e-12, help="comparison tolerance")
    p.add_argument("--seed", type=_seed, default=0, help="random seed (non-negative)")
    p.add_argument(
        "--trials", type=_positive_int, default=20, help="random trials per check"
    )
    p.add_argument(
        "--suite",
        action="append",
        dest="suites",
        metavar="NAME",
        help="suite to run, repeatable (default: all)",
    )
    p.add_argument(
        "--sizes",
        type=_sizes,
        default=None,
        metavar="AxB,CxD",
        help="comma-separated size pairs (default: 2x2,2x3,3x2,3x3)",
    )
    p.add_argument(
        "--inject-fault",
        action="store_true",
        help="corrupt one check to demonstrate failure reporting",
    )

    p = sub.add_parser("apply", help="apply a preserver to a tensor")
    p.add_argument("preserver", help="preserver JSON file")
    p.add_argument("tensor", help="tensor JSON or matrix text file")

    p = sub.add_parser("unfold", parents=[common], help="balance-unfold a tensor")
    p.add_argument("tensor", help="tensor JSON or matrix text file")

    return parser


def _read(path: str) -> str:
    from .serialize import ParseError

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _read_tensor_file(path: str) -> tuple[tuple[int, ...], list[float]]:
    """A tensor JSON or matrix text file's shape and first-mode-fastest
    values, read and checked by the reader of its format."""
    from . import serialize

    text = _read(path)
    if text.lstrip().startswith("{"):
        return serialize._flat_tensor(text)
    return serialize._flat_matrix_text(text)


def _effective_seed(args) -> int:
    from .serialize import ParseError

    env = os.environ.get("COMMUTANT_SEED")
    if env is None:
        return args.seed
    try:
        return _seed(env)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ParseError(
            f"COMMUTANT_SEED is not a non-negative integer: {env!r}"
        ) from exc


def _cmd_gen_kmat(args) -> int:
    from . import serialize

    if args.format == "json":
        print(serialize._commutation_json(args.p, args.q))
    else:
        sys.stdout.write(serialize._commutation_to_text(args.p, args.q))
    return EXIT_OK


def _cmd_gen_ktensor(args) -> int:
    from . import serialize

    print(serialize._ctensor_to_json(args.m, args.n))
    return EXIT_OK


def _cmd_gen_gct(args) -> int:
    from . import serialize
    from .permutation import Permutation

    if args.perm is not None:
        try:
            pi = Permutation(args.perm)
            if pi.degree != args.n:
                raise ArgumentError(f"degree {pi.degree} != {args.n}")
        except (ArgumentError, RangeError) as exc:
            raise serialize.ParseError(f"--perm must permute 1..{args.n}: {exc}") from exc
    # gct_from_permutation's refusals, before the default's n images exist
    _check_order(args.m, "group-case tensor")
    _check_dense_budget((args.n, args.n), "permutation matrix")
    if args.perm is None:
        pi = Permutation.identity(args.n)
    sys.stdout.writelines(serialize._permutation_gct_json(pi, args.m))
    return EXIT_OK


def _cmd_verify(args) -> int:
    seed = _effective_seed(args)

    from . import serialize, verify

    cfg = verify.RunConfig(
        sizes=args.sizes if args.sizes is not None else verify.DEFAULT_SIZES,
        seed=seed,
        trials=args.trials,
        tol=args.tol,
    )
    results = verify.run_suites(cfg, args.suites, inject_fault=args.inject_fault)
    if args.format == "json":
        payload = {
            "seed": cfg.seed,
            "suites": [
                {"name": r.name, "checks": r.checks, "failures": list(r.failures)}
                for r in results
            ],
            "passed": all(r.passed for r in results),
        }
        print(serialize.canonical_json(payload))
    else:
        for r in results:
            if r.passed:
                print(f"{r.name}: PASS ({r.checks} checks)")
            else:
                print(f"{r.name}: FAIL ({len(r.failures)}/{r.checks} checks failed)")
                for msg in r.failures:
                    print(f"  FAIL {msg}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


def _cmd_apply(args) -> int:
    from . import serialize

    build_phi = serialize._parse_preserver(_read(args.preserver))
    shape, values = _read_tensor_file(args.tensor)

    import numpy as np

    from .commutation_tensor import apply_rank_preserver

    phi, tensor = build_phi(), serialize._array(shape, values)
    del values  # as many objects as the result's values
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, before any byte
        result = apply_rank_preserver(phi, tensor).array
    values = serialize._finite_values(result)
    sys.stdout.writelines(serialize._tensor_json(result.shape, values, "\n"))
    return EXIT_OK


def _cmd_unfold(args) -> int:
    from . import serialize

    shape, values = _read_tensor_file(args.tensor)
    m, n = _even_order_cubic(shape, "balance_unfold")
    side = n**m
    if args.format == "json":
        parts = serialize._tensor_json((side, side), values, "\n")
    else:
        parts = serialize._matrix_text(side, values)
    sys.stdout.writelines(parts)
    return EXIT_OK


_COMMANDS = {
    "gen-kmat": _cmd_gen_kmat,
    "gen-ktensor": _cmd_gen_ktensor,
    "gen-gct": _cmd_gen_gct,
    "verify": _cmd_verify,
    "apply": _cmd_apply,
    "unfold": _cmd_unfold,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):
            return EXIT_OK
        return EXIT_USAGE
    from .serialize import ParseError

    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CommutantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def run(argv: list[str] | None = None) -> int:
    """The process entry of ``python -m commutant.cli`` and the ``commutant``
    script: :func:`main`, then ``gc.freeze()``.

    Interpreter exit flushes the standard streams and runs the atexit
    handlers, then runs full collections over every object the imports
    made; frozen, those are freed by their reference counts alone, which
    saved 7-10 ms a process on a 2-core VM.  Only the finalizers of objects
    in reference cycles are skipped, and the OS takes back their memory
    anyway.  ``main`` itself does not freeze: a caller that runs it in
    process keeps its collector.

    A closed stdout ends the process with exit 1 and nothing on stderr:
    stdout is pointed at the null device, as Python's ``signal`` docs
    advise, so that the flush at exit does not fail again."""
    try:
        code = main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = EXIT_CLOSED_STDOUT
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())

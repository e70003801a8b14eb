"""Named randomized/exhaustive verification suites behind the CLI.

Each suite draws its randomness from one stream per size, seeded by
(seed, suite index, size index), so a run is reproducible from the seed
alone and independent of suite execution order.  A size's trials read their
inputs from its stream trial by trial, in chunks of at most DRAW_CHUNK
entries, so the inputs of ``trials=T`` are the first T of any larger trial
count.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from . import linalg
from .commutation_matrix import apply as kapply
from .commutation_matrix import build_commutation, build_ctensor, conjugate_kron
from .commutation_tensor import (
    apply_rank_preserver,
    build_mode_perm_tensor,
    gct_dense,
    gct_from_permutation,
    gct_identity,
    gct_inverse,
    gct_multiply,
    mode_perm_dense,
)
from .cp import sym_power
from .errors import ArgumentError, _is_integer
from .permutation import Permutation
from .preserver import (
    _check_trials,
    fixes_identity,
    is_determinant_preserver,
    matrix_preserver,
    rank_preserver,
    sym_preserver,
    verify_rank_preservation,
)
from .tensor import DenseTensor, _check_dense_budget, mul_2m, mul_2m_on_m, permute_modes
from .veckron import kron, kron_vec, vec

DEFAULT_SIZES: tuple[tuple[int, int], ...] = ((2, 2), (2, 3), (3, 2), (3, 3))
#: largest kmax the powers suite builds: it forms one product per power
MAX_POWER = 64
#: largest (kmax + 1) * n^6 the powers suite admits: its kmax products are
#: n^2 x n^2 matrix products of n^6 multiply-adds each
MAX_POWER_WORK = 2**36
#: c in the determinant check's backward-error bound c * n * eps * cond_2(P x Q)
DET_ROUNDING_FACTOR = 1.0
#: most entries one draw of a size's trials holds (512 KiB of float64s)
DRAW_CHUNK = 2**16


@dataclass(frozen=True)
class RunConfig:
    """Shared knobs for a verification run."""

    sizes: tuple[tuple[int, int], ...] = DEFAULT_SIZES
    seed: int = 0
    trials: int = 20
    tol: float = 1e-12

    def __post_init__(self):
        pairs = isinstance(self.sizes, (tuple, list)) and all(
            isinstance(s, (tuple, list))
            and len(s) == 2
            and all(_is_integer(d) and d > 0 for d in s)
            for s in self.sizes
        )
        if not pairs:
            raise ArgumentError(f"sizes must be pairs of positive integers, got {self.sizes}")
        if not self.sizes:
            raise ArgumentError("at least one size is required")
        if not _is_integer(self.seed) or self.seed < 0:
            raise ArgumentError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not _is_integer(self.trials) or self.trials < 1:
            raise ArgumentError(f"trials must be a positive integer, got {self.trials!r}")
        _check_trials(self.trials)
        real = isinstance(self.tol, numbers.Real) and not isinstance(self.tol, bool)
        if not (real and math.isfinite(self.tol) and self.tol > 0):
            raise ArgumentError(f"tolerance must be positive and finite, got {self.tol!r}")


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, ok: bool, message: Callable[[], str]) -> None:
        """Count one check; ``message()`` is formatted only if it failed."""
        self.checks += 1
        if not ok:
            self.failures.append(message())


class FaultInjector:
    """Corrupts exactly one computed value when armed — used to prove the
    harness can see a failure."""

    def __init__(self, armed: bool = False):
        self.armed = armed

    def corrupt(self, arr: np.ndarray) -> np.ndarray:
        if not self.armed:
            return arr
        self.armed = False
        out = arr.copy()
        out.flat[0] += 1.0
        return out


def _rng(cfg: RunConfig, suite: str, size_index: int) -> np.random.Generator:
    """The one stream of ``suite`` at ``cfg.sizes[size_index]``."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((cfg.seed, SUITE_INDEX[suite], size_index)))
    )


def _trial_draws(rng: np.random.Generator, trials: int, shape) -> Iterator[np.ndarray]:
    """``trials`` standard normal arrays of ``shape``, read trial by trial
    from ``rng`` in draws of at most DRAW_CHUNK entries (of one trial at
    least).  numpy fills a draw in order from the stream, so the arrays do
    not depend on the chunking, and the first T of them not on ``trials``."""
    per_draw = max(1, DRAW_CHUNK // math.prod(shape))
    for start in range(0, trials, per_draw):
        yield from rng.standard_normal((min(per_draw, trials - start), *shape))


def _unit(shape, at) -> np.ndarray:
    """The basis array of ``shape`` with its one 1 at ``at``."""
    e = np.zeros(shape)
    e[at] = 1.0
    return e


def _rebuilds_dense(k, column) -> bool:
    """Whether K_{p,q}'s dense form is the matrix whose column j*p + i is
    ``column(i, j)``, K's action on the basis input at (i, j) (0-based) as
    an oracle computes it.  ``k.dense()`` checks the dense budget before the
    reconstruction is allocated."""
    p, q = k.p, k.q
    dense = k.dense()
    recon = np.zeros((p * q, p * q))
    for j in range(q):
        for i in range(p):
            recon[:, j * p + i] = column(i, j)
    return np.array_equal(recon, dense)


def _suite_vec_identity(cfg: RunConfig, fault: FaultInjector) -> SuiteResult:
    res = SuiteResult("vec-identity")
    for si, (p, q) in enumerate(cfg.sizes):
        k = build_commutation(p, q)
        # uniqueness: the matrix reconstructed column-by-column from the vec
        # action must be the built matrix
        res.record(
            _rebuilds_dense(k, lambda i, j: vec(_unit((p, q), (i, j)).T)),
            lambda: f"size {p}x{q}: reconstructed matrix differs from the built one",
        )
        for t, x in enumerate(_trial_draws(_rng(cfg, res.name, si), cfg.trials, (p, q))):
            got = fault.corrupt(kapply(k, vec(x)))
            res.record(
                np.array_equal(got, vec(x.T)),
                lambda: f"size {p}x{q} trial {t}: K vec(X) != vec(X^T)",
            )
    return res


def _suite_swap_law(cfg: RunConfig, fault: FaultInjector) -> SuiteResult:
    res = SuiteResult("swap-law")
    for si, (p, q) in enumerate(cfg.sizes):
        k = build_commutation(p, q)
        res.record(
            _rebuilds_dense(k, lambda i, j: kron_vec(_unit(p, i), _unit(q, j))),
            lambda: f"size {p}x{q}: swap-action reconstruction differs",
        )
        for t, xy in enumerate(_trial_draws(_rng(cfg, res.name, si), cfg.trials, (q + p,))):
            x, y = xy[:q], xy[q:]
            got = fault.corrupt(kapply(k, kron_vec(x, y)))
            res.record(
                np.array_equal(got, kron_vec(y, x)),
                lambda: f"size {p}x{q} trial {t}: K(x ⊗ y) != y ⊗ x",
            )
    return res


def _suite_kron_conjugation(cfg: RunConfig, fault: FaultInjector) -> SuiteResult:
    res = SuiteResult("kron-conjugation")
    for si, (p, q) in enumerate(cfg.sizes):
        _check_dense_budget((p, q, p, q), "A ⊗ B")  # before A and B are drawn
        idx = build_commutation(p, q).idx
        draws = _trial_draws(_rng(cfg, res.name, si), cfg.trials, (p * p + q * q,))
        for t, ab in enumerate(draws):
            a, b = ab[: p * p].reshape(p, p), ab[p * p :].reshape(q, q)
            got = fault.corrupt(conjugate_kron(a, b))
            # K_{p,q} (B ⊗ A) K_{q,p}, the two permutation products as gathers
            err = float(np.max(np.abs(got - kron(b, a)[idx][:, idx])))
            res.record(
                err <= cfg.tol,
                lambda: f"size {p}x{q} trial {t}: conjugation error {err:.3e} > {cfg.tol:g}",
            )
    return res


def _suite_powers(cfg: RunConfig, fault: FaultInjector) -> SuiteResult:
    res = SuiteResult("powers")
    for kmax, _ in cfg.sizes:
        if kmax > MAX_POWER:
            raise ArgumentError(f"powers: kmax={kmax} is over the bound MAX_POWER={MAX_POWER}")
    for kmax, n in cfg.sizes:
        build_ctensor(n, n)  # allocates nothing; an over-budget n is refused here first
        if (kmax + 1) * n**6 > MAX_POWER_WORK:
            raise ArgumentError(
                f"powers: (kmax+1)*n^6 = {(kmax + 1) * n**6} at kmax={kmax}, n={n} "
                f"is over the bound MAX_POWER_WORK={MAX_POWER_WORK}"
            )
    for kmax, n in cfg.sizes:
        base = build_ctensor(n, n).backing
        square = mul_2m(base, base)
        power = base
        for exp in range(1, kmax + 1):
            if exp > 1:  # one product per power
                power = mul_2m(power, base)
            got = fault.corrupt(power.array)
            want = base.array if exp % 2 == 1 else square.array
            which = "the tensor itself" if exp % 2 == 1 else "its square"
            res.record(
                np.array_equal(got, want),
                lambda: f"n={n}: power {exp} differs from {which}",
            )
    return res


def _suite_group_axioms(cfg: RunConfig, fault: FaultInjector) -> SuiteResult:
    res = SuiteResult("group-axioms")
    for m, n in cfg.sizes:
        if math.factorial(n) > 120 or m > 3:
            raise ArgumentError(
                f"group-axioms is exhaustive; size {m}x{n} is too large (n <= 5, m <= 3)"
            )
        perms = list(Permutation.all(n))
        elements = {pi.images: gct_from_permutation(pi, m) for pi in perms}
        ident = gct_identity(m, n)
        # each element's dense form, built once, when every one is small
        dense = (
            {key: gct_dense(g) for key, g in elements.items()}
            if n ** (2 * m) <= 5000
            else None
        )
        for pi in perms:
            g = elements[pi.images]
            left = gct_multiply(g, ident)
            res.record(
                all(np.array_equal(a, b) for a, b in zip(left.generators, g.generators)),
                lambda: f"({m},{n}): identity law fails for {pi}",
            )
            ginv = gct_inverse(g)
            prod = gct_multiply(g, ginv)
            res.record(
                all(
                    np.allclose(a, b, atol=cfg.tol)
                    for a, b in zip(prod.generators, ident.generators)
                ),
                lambda: f"({m},{n}): inverse law fails for {pi}",
            )
        for pi1 in perms:
            for pi2 in perms:
                key = pi1.compose(pi2).images
                prod = gct_multiply(elements[pi1.images], elements[pi2.images])
                structured_ok = all(
                    np.array_equal(a, b)
                    for a, b in zip(prod.generators, elements[key].generators)
                )
                res.record(
                    structured_ok,
                    lambda: f"({m},{n}): closure fails for {pi1}∘{pi2}",
                )
                if dense is not None:
                    dense_prod = fault.corrupt(
                        mul_2m(dense[pi1.images], dense[pi2.images]).array
                    )
                    res.record(
                        np.array_equal(dense_prod, dense[key].array),
                        lambda: f"({m},{n}): dense product disagrees for {pi1}∘{pi2}",
                    )
    return res


def _suite_mode_perm_lemma(cfg: RunConfig, fault: FaultInjector) -> SuiteResult:
    res = SuiteResult("mode-perm-lemma")
    for si, (m, n) in enumerate(cfg.sizes):
        if m > 4:
            raise ArgumentError(f"mode-perm-lemma is exhaustive over S_m; m={m} > 4")
        _check_dense_budget((n**m, n**m), "mode-permutation tensor")  # before any generator
        taus = list(Permutation.all(m))
        rng = _rng(cfg, res.name, si)
        # trial t draws one input per tau; each tau reads the stream again
        # from its start, so only one chunk of inputs is held at a time
        start = rng.bit_generator.state
        for k, tau in enumerate(taus):
            acting = mode_perm_dense(build_mode_perm_tensor(tau, n))
            rng.bit_generator.state = start
            for t, inputs in enumerate(_trial_draws(rng, cfg.trials, (len(taus),) + (n,) * m)):
                a = DenseTensor(inputs[k])
                shuffled = fault.corrupt(permute_modes(a, tau).array)
                contracted = mul_2m_on_m(acting, a).array
                err = float(np.max(np.abs(shuffled - contracted)))
                res.record(
                    err <= cfg.tol,
                    lambda: f"({m},{n}) tau={tau} trial {t}: routes differ by {err:.3e}",
                )
    return res


def _random_invertible(rng: np.random.Generator, n: int) -> np.ndarray:
    while True:
        mat = rng.standard_normal((n, n))
        if linalg._slogdet(mat)[1] > math.log(0.1):
            return mat


def _det_tolerance(fx: np.ndarray) -> float:
    """Relative bound on |det(P x Q) - det x| for the image ``fx`` = P x Q:
    the rounding of forming and factoring an n x n matrix perturbs its
    determinant by about n * eps * cond_2 relative to it, so the bound is
    that, scaled by DET_ROUNDING_FACTOR, and never below 1e-9."""
    n = fx.shape[0]
    return max(1e-9, DET_ROUNDING_FACTOR * n * np.finfo(float).eps * np.linalg.cond(fx))


def _suite_preserver(cfg: RunConfig, fault: FaultInjector) -> SuiteResult:
    res = SuiteResult("preserver-suite")
    for si, (m, n) in enumerate(cfg.sizes):
        rng = _rng(cfg, res.name, si)
        tau = Permutation(rng.permutation(m) + 1)
        phi = rank_preserver([_random_invertible(rng, n) for _ in range(m)], tau)
        report = verify_rank_preservation(phi, cfg.trials, cfg.seed + si)
        res.checks += report.trials
        res.failures.extend(
            f"({m},{n}) rank preservation: {msg}" for msg in report.failures
        )
        if m == 2:
            # reduction to Marcus's formulae, both branches, written out
            p_mat = phi.generators[0]
            q_mat = phi.generators[1].T
            a = rng.standard_normal((n, n))
            via_tensor = fault.corrupt(apply_rank_preserver(phi, a).array)
            via_matrix = p_mat @ (a if tau.is_identity() else a.T) @ q_mat
            err = float(np.max(np.abs(via_tensor - via_matrix)))
            res.record(
                err <= cfg.tol,
                lambda: f"({m},{n}): order-2 reduction differs by {err:.3e}",
            )
            # determinant preserver: normalize det(PQ) to 1 through the log
            # determinants of P and Q, since det(PQ) overflows at large n
            (sign_p, log_p), (sign_q, log_q) = linalg._slogdet(p_mat), linalg._slogdet(q_mat)
            if sign_p * sign_q < 0:
                q_mat = q_mat.copy()
                q_mat[:, 0] = -q_mat[:, 0]
            q_mat = q_mat / math.exp((log_p + log_q) / n)
            dp = matrix_preserver(p_mat, q_mat)
            res.record(
                is_determinant_preserver(dp),
                lambda: f"({m},{n}): normalized pair is not a determinant preserver",
            )
            x = rng.standard_normal((n, n))
            x = x / math.exp(linalg._slogdet(x)[1] / n)  # |det x| = 1
            fx = apply_rank_preserver(dp, x).array
            dx, dfx = linalg.det(x), linalg.det(fx)
            res.record(
                abs(dfx - dx) <= _det_tolerance(fx) * max(1.0, abs(dx)),
                lambda: f"({m},{n}): determinant not preserved ({dx:.6f} -> {dfx:.6f})",
            )
        # identity fixing: permutation matrices fix the identity tensor
        pi_n = Permutation(rng.permutation(n) + 1)
        res.record(
            fixes_identity(sym_preserver(pi_n.matrix(), m)),
            lambda: f"({m},{n}): permutation matrix does not fix the identity tensor",
        )
        shear = np.eye(n)
        shear[0, -1] += 0.5
        res.record(
            not fixes_identity(sym_preserver(shear, m)),
            lambda: f"({m},{n}): shear unexpectedly fixes the identity tensor",
        )
        # symmetric preserver pushes through the factor
        y = rng.standard_normal(n)
        b = _random_invertible(rng, n)
        lhs = apply_rank_preserver(sym_preserver(b, m), sym_power(y, m)).array
        rhs = sym_power(b @ y, m).array
        err = float(np.max(np.abs(lhs - rhs)))
        res.record(
            err <= 1e-9 * max(1.0, float(np.max(np.abs(rhs)))),
            lambda: f"({m},{n}): symmetric preserver does not push through the factor",
        )
    return res


SUITES = {
    "vec-identity": _suite_vec_identity,
    "swap-law": _suite_swap_law,
    "kron-conjugation": _suite_kron_conjugation,
    "powers": _suite_powers,
    "group-axioms": _suite_group_axioms,
    "mode-perm-lemma": _suite_mode_perm_lemma,
    "preserver-suite": _suite_preserver,
}

SUITE_INDEX = {name: i for i, name in enumerate(SUITES)}


def run_suites(
    cfg: RunConfig, names: list[str] | None = None, inject_fault: bool = False
) -> list[SuiteResult]:
    """Run the named suites (all, by default) under one config."""
    selected = list(SUITES) if names is None else names
    unknown = [n for n in selected if n not in SUITES]
    if unknown:
        raise ArgumentError(
            f"unknown suite(s): {', '.join(unknown)}; the suites are {', '.join(SUITES)}"
        )
    fault = FaultInjector(inject_fault)
    return [SUITES[name](cfg, fault) for name in selected]

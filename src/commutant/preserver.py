"""Linear maps on tensor space that preserve rank-1 structure.

One type, :class:`RankPreserver`: an invertible matrix per mode and a mode
permutation tau.  It maps the rank-1 tensor with factors ``alpha_k`` to the
one with factors ``matrices[k] @ alpha_{tau(k)}``.  At m = 2, with P =
matrices[0] and Q = matrices[1]ᵀ, tau = id is Marcus's A -> P A Q and the
swap is A -> P Aᵀ Q.  The symmetric preserver is one matrix on every mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .cp import _rank1_residual, rank1
from .errors import ArgumentError, DimensionError
from .permutation import Permutation
from .tensor import (
    DenseTensor,
    TensorLike,
    _frozen,
    _mode_products,
    _square_stack,
    as_matrix,
    as_tensor,
    identity_tensor,
)

#: relative tolerance for rank-1 certification of preserver outputs
CERT_TOL = 1e-9
#: |det(PQ) - 1| bound for determinant preservation
DET_ONE_TOL = 1e-9
#: tolerance for structural comparisons (identity fixing, reductions)
EXACT_TOL = 1e-12

__all__ = [
    "RankPreserver",
    "VerificationReport",
    "rank_preserver",
    "sym_preserver",
    "matrix_preserver",
    "apply_rank_preserver",
    "compose_rank_preservers",
    "is_determinant_preserver",
    "fixes_identity",
    "is_rank1_tensor",
    "verify_rank_preservation",
]


@dataclass(frozen=True, eq=False)
class RankPreserver:
    """One invertible n x n matrix per mode plus a mode permutation tau."""

    matrices: tuple[np.ndarray, ...]
    tau: Permutation


def rank_preserver(matrices, tau: Permutation) -> RankPreserver:
    """Validate and freeze a rank preserver.  Raises SingularMatrixError if
    any matrix is singular at the inversion pivot threshold."""
    mats = _square_stack(matrices, "mode matrices")
    for m in mats:
        linalg.inv(m)  # gate: raises unless finite and invertible
    if tau.degree != len(mats):
        raise DimensionError(
            f"permutation degree {tau.degree} != {len(mats)} mode matrices"
        )
    return RankPreserver(mats, tau)


def sym_preserver(b, m: int) -> RankPreserver:
    """The symmetric preserver: the one matrix ``b`` on each of ``m`` modes,
    tau = id.  All modes hold the same frozen copy of ``b``."""
    bm = _frozen(as_matrix(b))
    linalg.inv(bm)  # gate: raises unless square, finite and invertible
    if m < 1:
        raise ArgumentError(f"order must be positive, got {m}")
    return RankPreserver((bm,) * m, Permutation.identity(m))


def matrix_preserver(p, q, transposed: bool = False) -> RankPreserver:
    """Marcus's A -> P A Q, or A -> P Aᵀ Q when transposed: the preserver
    with mode matrices (P, Qᵀ) and tau the swap when transposed."""
    tau = Permutation([2, 1]) if transposed else Permutation.identity(2)
    return rank_preserver([p, as_matrix(q).T], tau)


def apply_rank_preserver(phi: RankPreserver, a: TensorLike) -> DenseTensor:
    """Apply the preserver: shuffle the modes so that mode k draws its factor
    from mode tau(k), then act with matrices[k] on mode k.  On a rank-1
    input with factors alpha_k the output factors are matrices[k] @
    alpha_{tau(k)}."""
    t = as_tensor(a)
    n = phi.matrices[0].shape[0]
    if t.order != len(phi.matrices) or any(d != n for d in t.shape):
        raise DimensionError(
            f"tensor shape {t.shape} does not match preserver ({len(phi.matrices)} "
            f"modes of size {n})"
        )
    # permute_modes by tau^-1, whose transpose axes are tau's own images
    shuffled = np.transpose(t.array, phi.tau.zero_based())
    return DenseTensor._adopt(_mode_products(shuffled, enumerate(phi.matrices)))


def compose_rank_preservers(outer: RankPreserver, inner: RankPreserver) -> RankPreserver:
    """The preserver acting as ``outer after inner``.  Its mode matrices are
    ``outer.matrices[k] @ inner.matrices[outer.tau(k)]`` and its permutation
    is ``inner.tau ∘ outer.tau``."""
    if len(outer.matrices) != len(inner.matrices):
        raise DimensionError("mode counts differ")
    if outer.matrices[0].shape != inner.matrices[0].shape:
        raise DimensionError("matrix sizes differ")
    mats = [
        outer.matrices[k - 1] @ inner.matrices[outer.tau(k) - 1]
        for k in range(1, len(outer.matrices) + 1)
    ]
    return rank_preserver(mats, inner.tau.compose(outer.tau))


def is_determinant_preserver(phi: RankPreserver, tol: float = DET_ONE_TOL) -> bool:
    """Whether det(P Q) == 1 within ``tol`` for P = matrices[0] and Q =
    matrices[1]ᵀ — exactly when A -> P A Q (or P Aᵀ Q) leaves every
    determinant unchanged.  Raises DimensionError unless m = 2."""
    if len(phi.matrices) != 2:
        raise DimensionError(f"a determinant preserver has 2 modes, not {len(phi.matrices)}")
    p, q_t = phi.matrices
    return abs(linalg.det(p @ q_t.T) - 1.0) <= tol


def fixes_identity(phi: RankPreserver) -> bool:
    """Whether the preserver maps the order-m identity tensor to itself.
    The symmetric preserver of B does precisely when B is a permutation
    matrix."""
    ident = identity_tensor(len(phi.matrices), phi.matrices[0].shape[0])
    image = apply_rank_preserver(phi, ident)
    return bool(np.max(np.abs(image.array - ident.array)) <= EXACT_TOL)


def is_rank1_tensor(a: TensorLike, tol: float = CERT_TOL) -> bool:
    """Certify rank 1: finite, nonzero, and rank-1 residual at most ``tol``
    times the entry scale max|a|, at every order in O(m * a.size).  (A 2x2
    unfolding minor of rank-1-plus-E is about scale * |E|, so this matches
    the former bound of tol * scale**2 on every minor.)"""
    t = as_tensor(a)
    if not np.isfinite(t.array).all():
        return False
    scale = float(np.abs(t.array).max())
    if scale == 0.0:
        return False
    return _rank1_residual(t.array) <= tol * scale


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a randomized property check."""

    trials: int
    passed: int
    failures: tuple[str, ...]

    @property
    def all_passed(self) -> bool:
        return self.passed == self.trials


def verify_rank_preservation(
    phi: RankPreserver, trials: int, seed: int
) -> VerificationReport:
    """Draw random unit-factor rank-1 tensors, apply the preserver, and
    certify every output is rank 1.  The random stream is split per trial
    index, so results are independent of execution order."""
    if trials < 1:
        raise ArgumentError(f"trials must be positive, got {trials}")
    m = len(phi.matrices)
    n = phi.matrices[0].shape[0]
    failures = []
    for trial in range(trials):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, trial))))
        factors = []
        for _ in range(m):
            v = rng.standard_normal(n)
            while np.linalg.norm(v) < 1e-6:
                v = rng.standard_normal(n)
            factors.append(v / np.linalg.norm(v))
        image = apply_rank_preserver(phi, rank1(factors))
        if not is_rank1_tensor(image):
            failures.append(f"trial {trial}: image is not rank 1")
    return VerificationReport(trials, trials - len(failures), tuple(failures))

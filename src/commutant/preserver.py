"""Linear maps on tensor space that preserve rank-1 structure.

A preserver is the order-2m operator :class:`~commutant.commutation_tensor.Gct`
with invertible generators, one per mode, and a mode permutation tau.  At
m = 2, with P = generators[0] and Q = generators[1]ᵀ, tau = id is Marcus's
A -> P A Q and the swap is A -> P Aᵀ Q.  The symmetric preserver is one
matrix on every mode.  The constructors here gate on ``linalg.inv``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .commutation_tensor import Gct, _operator, apply_rank_preserver, gct_multiply
from .cp import _rank1_residual, rank1
from .errors import ArgumentError, DimensionError
from .permutation import Permutation
from .tensor import TensorLike, as_matrix, as_tensor, identity_tensor

#: relative tolerance for rank-1 certification of preserver outputs
CERT_TOL = 1e-9
#: |det(PQ) - 1| bound for determinant preservation
DET_ONE_TOL = 1e-9
#: tolerance for structural comparisons (identity fixing, reductions)
EXACT_TOL = 1e-12


def _invertible(phi: Gct) -> Gct:
    """The invertibility gate: ``phi`` once ``linalg.inv`` accepts each shared
    generator once; else SingularMatrixError, or DomainError if non-finite."""
    for gen in {id(b): b for b in phi.generators}.values():
        linalg.inv(gen)
    return phi


def rank_preserver(matrices, tau: Permutation) -> Gct:
    """Validate and freeze a rank preserver.  Raises SingularMatrixError if
    any matrix is singular at the inversion pivot threshold."""
    return _invertible(_operator(matrices, tau))


def sym_preserver(b, m: int) -> Gct:
    """The symmetric preserver: the one matrix ``b`` on each of ``m`` modes,
    tau = id.  All modes hold the same frozen copy of ``b``."""
    return _invertible(_operator([b] * m))


def matrix_preserver(p, q, transposed: bool = False) -> Gct:
    """Marcus's A -> P A Q, or A -> P Aᵀ Q when transposed: the preserver
    with generators (P, Qᵀ) and tau the swap when transposed."""
    tau = Permutation([2, 1]) if transposed else Permutation.identity(2)
    return rank_preserver([p, as_matrix(q).T], tau)


def compose_rank_preservers(outer: Gct, inner: Gct) -> Gct:
    """The preserver acting as ``outer after inner`` (the operator product,
    :func:`~commutant.commutation_tensor.gct_multiply`), with the
    invertibility gate of :func:`rank_preserver`."""
    return _invertible(gct_multiply(outer, inner))


def is_determinant_preserver(phi: Gct) -> bool:
    """Whether det(P Q) == 1 within ``DET_ONE_TOL`` for P = generators[0] and
    Q = generators[1]ᵀ — exactly when A -> P A Q (or P Aᵀ Q) leaves every
    determinant unchanged.  Raises DimensionError unless m = 2."""
    if phi.m != 2:
        raise DimensionError(f"a determinant preserver has 2 modes, not {phi.m}")
    p, q_t = phi.generators
    return abs(linalg.det(p @ q_t.T) - 1.0) <= DET_ONE_TOL


def fixes_identity(phi: Gct) -> bool:
    """Whether the preserver maps the order-m identity tensor to itself.
    The symmetric preserver of B does precisely when B is a permutation
    matrix."""
    ident = identity_tensor(phi.m, phi.n)
    image = apply_rank_preserver(phi, ident)
    return bool(np.max(np.abs(image.array - ident.array)) <= EXACT_TOL)


def is_rank1_tensor(a: TensorLike) -> bool:
    """Certify rank 1: finite, nonzero, and rank-1 residual at most ``CERT_TOL``
    times the entry scale max|a|, at every order in O(m * a.size).  (A 2x2
    unfolding minor of rank-1-plus-E is about scale * |E|, so this matches
    the former bound of CERT_TOL * scale**2 on every minor.)"""
    t = as_tensor(a)
    if not np.isfinite(t.array).all():
        return False
    scale = float(np.abs(t.array).max())
    if scale == 0.0:
        return False
    return _rank1_residual(t.array) <= CERT_TOL * scale


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a randomized property check."""

    trials: int
    passed: int
    failures: tuple[str, ...]

    @property
    def all_passed(self) -> bool:
        return self.passed == self.trials


def verify_rank_preservation(phi: Gct, trials: int, seed: int) -> VerificationReport:
    """Draw random unit-factor rank-1 tensors, apply the preserver, and
    certify every output is rank 1.  The random stream is split per trial
    index, so results are independent of execution order."""
    if trials < 1:
        raise ArgumentError(f"trials must be positive, got {trials}")
    m, n = phi.m, phi.n
    failures = []
    for trial in range(trials):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, trial))))
        factors = []
        for _ in range(m):
            v = rng.standard_normal(n)
            norm = np.linalg.norm(v)
            while norm < 1e-6:
                v = rng.standard_normal(n)
                norm = np.linalg.norm(v)
            factors.append(v / norm)
        image = apply_rank_preserver(phi, rank1(factors))
        if not is_rank1_tensor(image):
            failures.append(f"trial {trial}: image is not rank 1")
    return VerificationReport(trials, trials - len(failures), tuple(failures))

"""Linear maps on tensor space that preserve rank-1 structure.

A preserver is the order-2m operator :class:`~commutant.commutation_tensor.Gct`
with invertible generators, one per mode, and a mode permutation tau.  At
m = 2, with P = generators[0] and Q = generators[1]ᵀ, tau = id is Marcus's
A -> P A Q and the swap is A -> P Aᵀ Q.  The symmetric preserver is one
matrix on every mode.  The constructors here gate on invertibility, decided
for all of an operator's distinct generators by one pivot-only elimination
of their stack (``linalg._require_invertible``, which ``linalg.inv`` runs).
:func:`verify_rank_preservation` certifies its trials as stacks, in a fixed
number of numpy calls per stack, with each trial's verdict its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .commutation_tensor import Gct, _operator, gct_multiply
from .errors import ArgumentError, DimensionError, DomainError, _is_integer
from .permutation import Permutation
from .tensor import (
    TensorLike,
    _check_dense_budget,
    _check_order,
    _mode_products,
    _rank1_residual,
    _tensor_entries,
    as_matrix,
)

#: relative tolerance for rank-1 certification of preserver outputs
CERT_TOL = 1e-9
#: |det(PQ) - 1| bound for determinant preservation
DET_ONE_TOL = 1e-9
#: tolerance for structural comparisons (identity fixing, reductions)
EXACT_TOL = 1e-12
#: a random factor of smaller norm is drawn again
_FACTOR_MIN_NORM = 1e-6
#: most entries in one stack of trial tensors
_TRIAL_STACK_ENTRIES = 2**16
#: most random trials one check runs (the verify default is 20); a larger
#: count is refused before any trial is drawn
MAX_TRIALS = 2**16


def _invertible(phi: Gct) -> Gct:
    """The invertibility gate: ``phi`` once each shared generator passes;
    else the gate's error on the first it refuses, SingularMatrixError, or
    DomainError if non-finite or a pivot overflows.  All of them are
    decided by one pivot-only elimination of their stack."""
    linalg._require_invertible(list({id(b): b for b in phi.generators}.values()))
    return phi


def rank_preserver(matrices, tau: Permutation) -> Gct:
    """Validate and freeze a rank preserver.  Raises SingularMatrixError if
    any matrix is singular at the inversion pivot threshold."""
    return _invertible(_operator(matrices, tau))


def sym_preserver(b, m: int) -> Gct:
    """The symmetric preserver: the one matrix ``b`` on each of ``m`` modes,
    tau = id.  All modes hold the same frozen copy of ``b``."""
    if not _is_integer(m) or m < 1:
        raise ArgumentError(f"m must be a positive integer, got {m}")
    _check_order(m, "symmetric preserver")  # before [b] * m is built
    return _invertible(_operator([b] * m))


def matrix_preserver(p, q, transposed: bool = False) -> Gct:
    """Marcus's A -> P A Q, or A -> P Aᵀ Q when transposed: the preserver
    with generators (P, Qᵀ) and tau the swap when transposed."""
    if not isinstance(transposed, (bool, np.bool_)):
        raise ArgumentError(f"transposed must be True or False, got {transposed!r}")
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


def _identity_image(phi: Gct) -> np.ndarray:
    """The image of the order-m identity tensor I, without building I: the
    entries of ``apply_rank_preserver(phi, I)``, for finite generators with
    their bits up to the sign of zeros, as a fresh C-order (n^(m-1), n)
    array, the image's own layout read as a matrix.

    I is fixed by every mode shuffle, so tau drops out, and I's first m - 1
    mode products only multiply: before its last step
    :func:`~commutant.tensor._mode_products` holds the Khatri-Rao array
    prod_{k<m} B_k[j_k, i], C-ordered with I's last index i first (I is the
    rank-n CP form with I_n on every mode; Kolda & Bader, SIAM Review 2009,
    §3).  Built here in m - 2 broadcast products in the kernel's order, it
    takes that last step's one BLAS product on the same view, and that
    product is the image: O(n^(m+1)) flops where m mode products take
    O(m n^(m+1))."""
    m, n, gens = phi.m, phi.n, phi.generators
    _check_dense_budget((n,) * m, "identity tensor")
    krao = np.ascontiguousarray(gens[0].T) if m > 1 else np.ones((n, 1))
    for k in range(1, m - 1):
        krao = np.multiply(krao[..., None], gens[k].T.reshape((n,) + (1,) * k + (n,)), order="C")
    return np.matmul(krao.reshape(n, -1).T, gens[-1].T)


def fixes_identity(phi: Gct) -> bool:
    """Whether the preserver maps the order-m identity tensor I to itself,
    each entry within ``EXACT_TOL``, decided by one BLAS product on the
    generators.  A non-finite image does not.

    The symmetric preserver of B maps I to the sum of the m-th outer powers
    of B's columns, so by CP uniqueness (Kruskal 1977) it fixes I, at odd
    m >= 3, precisely when B is a permutation matrix, and at even m >= 4
    when B is a signed one.  At m = 2 it does when B is orthogonal, B Bᵀ =
    I, and at m = 1 when every row of B sums to 1."""
    with np.errstate(all="ignore"):  # an inf or NaN image fails the check
        image = _identity_image(phi)
        # entry (i, ..., i) is at flat index i * (1 + n + ... + n^(m-1))
        m, n = phi.m, phi.n
        image.reshape(-1)[:: (n**m - 1) // (n - 1) if n > 1 else m] -= 1.0
        return bool(np.abs(image, out=image).max() <= EXACT_TOL)


def is_rank1_tensor(a: TensorLike) -> bool:
    """Certify rank 1: finite, nonzero, and rank-1 residual at most ``CERT_TOL``
    times the entry scale max|a|, at every order in O(m * a.size).  (A 2x2
    unfolding minor of rank-1-plus-E is about scale * |E|, so this matches
    the former bound of CERT_TOL * scale**2 on every minor.)  The entries
    are read in place, and the scale is finite exactly when every entry
    is, a NaN propagating."""
    arr = _tensor_entries(a)
    pivot = int(np.abs(arr).argmax())  # a NaN counts as the max
    scale = abs(float(arr.flat[pivot]))
    if not 0.0 < scale < math.inf:
        return False
    return _rank1_residual(arr, pivot) <= CERT_TOL * scale


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a randomized property check."""

    trials: int
    passed: int
    failures: tuple[str, ...]

    @property
    def all_passed(self) -> bool:
        return self.passed == self.trials


def _drawn_factors(seed: int, trial: int, m: int, n: int) -> np.ndarray:
    """Trial ``trial``'s m unit factors, one at a time from its own stream,
    a factor of norm below ``_FACTOR_MIN_NORM`` drawn again."""
    rng = np.random.default_rng((seed, trial))  # the stream of SeedSequence((seed, trial))
    factors = np.empty((m, n))
    for f in factors:
        v = rng.standard_normal(n)
        norm = np.linalg.norm(v)
        while norm < _FACTOR_MIN_NORM:
            v = rng.standard_normal(n)
            norm = np.linalg.norm(v)
        f[:] = v / norm
    return factors


def _unit_factors(seed: int, trials: range, m: int, n: int) -> np.ndarray:
    """The (T, m, n) unit factors of ``trials``, each trial's as
    :func:`_drawn_factors` gives them.  Its m·n normals are one draw from its
    stream, the same numbers as m draws of n, and the factor norms are one
    stacked np.matmul, each a dot product as np.linalg.norm takes it; only
    a trial with a factor to draw again is drawn again one factor at a
    time."""
    draws = np.empty((len(trials), m, n))
    for out, trial in zip(draws, trials):
        np.random.default_rng((seed, trial)).standard_normal(out=out)
    norms = np.sqrt(draws[..., None, :] @ draws[..., :, None])[..., 0]
    units = draws / norms
    for i in np.flatnonzero((norms < _FACTOR_MIN_NORM).any(axis=(1, 2))):
        units[i] = _drawn_factors(seed, trials[i], m, n)
    return units


def _rank1_images(phi: Gct, units: np.ndarray) -> np.ndarray:
    """``apply_rank_preserver(phi, rank1(units[t]))`` for every t, as one
    (T, n, ..., n) stack with the same bits: the outer products in rank1's
    order, the modes shuffled by tau, and the m cyclic GEMMs of the one
    kernel over the stack."""
    x = units[:, 0]
    for k in range(1, units.shape[1]):
        x = x[..., None] * units[(slice(None), k) + (None,) * k]
    shuffled = np.transpose(x, (0, *(1 + a for a in phi.tau.zero_based())))
    with np.errstate(all="ignore"):  # an image that overflows fails its certificate
        return _mode_products(shuffled, phi.generators)


def _rank1_stack(images: np.ndarray) -> np.ndarray:
    """:func:`is_rank1_tensor` of each tensor of a (T, n, ..., n) stack, as a
    (T,) bool array: finite, nonzero, and the rank-1 residual of
    :func:`~commutant.tensor._rank1_residual` at most ``CERT_TOL`` times the
    entry scale, with the same pivot, fibres and products.  The scale max|a|
    is finite exactly when every entry is, a NaN propagating."""
    t, m = images.shape[0], images.ndim - 1
    flat = images.reshape(t, -1)
    mags = np.abs(flat)
    scale = mags.max(axis=1)
    pivot = (np.arange(t), *np.unravel_index(mags.argmax(axis=1), images.shape[1:]))
    del mags
    fibres = [images[pivot[: k + 1] + (slice(None),) + pivot[k + 2 :]] for k in range(m)]
    with np.errstate(all="ignore"):  # a tensor that fails anyway may divide by 0 or overflow
        cand = fibres[0]
        for k in range(1, m):
            f = fibres[k] / images[pivot][:, None]
            cand = cand[..., None] * f.reshape((t,) + (1,) * k + f.shape[1:])
        resid = cand.reshape(t, -1)
        np.abs(np.subtract(flat, resid, out=resid), out=resid)
        return (0.0 < scale) & (scale < math.inf) & (resid.max(axis=1) <= CERT_TOL * scale)


def _check_trials(trials: int) -> None:
    """Refuse a trial count over MAX_TRIALS before any trial runs."""
    if trials > MAX_TRIALS:
        raise DomainError(f"trials={trials} is over the bound MAX_TRIALS={MAX_TRIALS}")


def verify_rank_preservation(phi: Gct, trials: int, seed: int) -> VerificationReport:
    """Draw random unit-factor rank-1 tensors, apply the preserver, and
    certify every output is rank 1.  The random stream is split per trial
    index, so results are independent of execution order.

    Trial t draws its m factors from ``SeedSequence((seed, t))``, a factor
    of norm below 1e-6 drawn again.  The trials are certified as stacks of
    at most ``max(1, 2**16 // n**m)`` tensors, in a fixed number of numpy
    calls per stack; each trial's image, and so its verdict, is the one
    :func:`~commutant.commutation_tensor.apply_rank_preserver` and
    :func:`is_rank1_tensor` give it alone.  Raises ArgumentError unless
    ``trials`` is a positive and ``seed`` a non-negative integer, neither of
    them a bool, and DomainError when ``trials`` is over ``MAX_TRIALS``."""
    if not _is_integer(trials):
        raise ArgumentError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ArgumentError(f"trials must be positive, got {trials}")
    _check_trials(trials)
    if not _is_integer(seed) or seed < 0:
        raise ArgumentError(f"seed must be a non-negative integer, got {seed!r}")
    trials = int(trials)
    m, n = phi.m, phi.n
    _check_dense_budget((n,) * m, "rank-1 tensor")
    chunk = max(1, _TRIAL_STACK_ENTRIES // n**m)
    failures = []
    for start in range(0, trials, chunk):
        batch = range(start, min(start + chunk, trials))
        passed = _rank1_stack(_rank1_images(phi, _unit_factors(seed, batch, m, n)))
        failures += [f"trial {t}: image is not rank 1" for t in np.array(batch)[~passed]]
    return VerificationReport(trials, trials - len(failures), tuple(failures))

"""Independent numpy and closed-form answers the workloads check against,
and the input helpers they share.

Nothing here imports ``commutant``: an oracle must not share code with the
program it checks.
"""

from __future__ import annotations

import numpy as np


def k_index(p: int, q: int) -> np.ndarray:
    """Closed form of K_{p,q}: row s holds its 1 in column (s % q)·p + s // q."""
    s = np.arange(p * q)
    return (s % q) * p + s // q


def k_dense(p: int, q: int) -> np.ndarray:
    return np.eye(p * q)[k_index(p, q)]


def vec(x: np.ndarray) -> np.ndarray:
    """Columns stacked: first index fastest."""
    return x.ravel(order="F")


def outer(vectors) -> np.ndarray:
    """v_1 ⊗ ... ⊗ v_m as an order-m array."""
    out = np.array(1.0)
    for v in vectors:
        out = np.multiply.outer(out, v)
    return out


def kron_all(mats) -> np.ndarray:
    """kron(g_m, ..., g_1): the balance unfolding of the order-2m tensor with
    entries prod_k g_k[i_k, j_k], first mode fastest."""
    out = np.ones((1, 1))
    for g in mats:
        out = np.kron(g, out)
    return out


def close(got, want, rtol: float = 1e-12) -> bool:
    """Same shape, and entries within ``rtol`` of the larger of 1 and the
    largest magnitude in ``want``."""
    got, want = np.asarray(got), np.asarray(want)
    scale = max(1.0, float(np.max(np.abs(want))))
    return got.shape == want.shape and bool(np.max(np.abs(got - want)) <= rtol * scale)


def well_conditioned(rng, n: int) -> np.ndarray:
    """A random n x n matrix far from singular: Gaussian plus n·I."""
    return rng.standard_normal((n, n)) + n * np.eye(n)

"""``structured`` workload: the K layer, GCTs and mode permutations.

Chosen because ``permutation``, ``commutation_matrix``, ``commutation_tensor``
and ``veckron`` do nearly all the work here, in per-entry Python loops.  No
certifier runs, so a certifier change must leave this workload unmoved.
Sizes: p, q in {10, 30, 100, 300}; dense forms and determinants up to
pq = 1600; m in {2, 3, 4}.  ``--seed`` draws the data, never the sizes.
"""

from __future__ import annotations

import numpy as np

import commutant as C

from harness import Request
from oracles import close, k_dense, kron_all, vec, well_conditioned

#: passes over the request list per second of --seconds, calibrated when the
#: benchmark was written so that a run measures about --seconds
PASSES_PER_SECOND = 2.0

K_APPLY = ((10, 10), (10, 300), (30, 30), (100, 30), (100, 100), (300, 300))
K_TRANSPOSE = ((10, 30), (30, 100), (300, 100))
K_DENSE = ((10, 10), (10, 30), (30, 30), (10, 100))
K_RANK1 = ((10, 10), (10, 30))
K_TRACE = (10, 30, 100, 300)
K_DET = ((10, 10), (30, 10), (30, 30), (10, 100), (40, 40))
CONJ_KRON = ((10, 11), (30, 10), (30, 30))
SANDWICH = ((10, 10), (10, 30), (30, 30))
CTENSOR = ((10, 10), (10, 30), (30, 30))
GCT = ((2, 10), (3, 5), (4, 3))
MODE_PERM = ((2, 10), (3, 6), (4, 4), (4, 5))


def _k_apply(rng, p, q):
    x = rng.standard_normal((p, q))
    want = vec(x.T)
    call = lambda: C.apply(C.build_commutation(p, q), C.vec(x))
    return Request("k_apply", f"{p}x{q}", call, lambda out: np.array_equal(out, want))


def _k_transpose(rng, p, q):
    x = rng.standard_normal((p, q))
    xt, want = x.T.copy(), vec(x)

    def call():
        kt = C.transpose_matrix(C.build_commutation(p, q))
        return kt.p, kt.q, C.apply(kt, C.vec(xt))

    return Request(
        "k_transpose",
        f"{p}x{q}",
        call,
        lambda out: out[:2] == (q, p) and np.array_equal(out[2], want),
    )


def _k_dense(p, q):
    call = lambda: C.build_commutation(p, q).dense()
    return Request("k_dense", f"{p}x{q}", call, lambda out: np.array_equal(out, k_dense(p, q)))


def _k_rank1(p, q):
    call = lambda: C.build_commutation_rank1(p, q)
    return Request("k_rank1_sum", f"{p}x{q}", call, lambda out: np.array_equal(out, k_dense(p, q)))


def _k_trace(p):
    return Request("k_trace", f"{p}x{p}", lambda: C.trace_commutation(p), lambda out: out == p)


def _k_det(p, q):
    want = -1 if (p * (p - 1) * q * (q - 1) // 4) % 2 else 1
    return Request("k_det", f"{p}x{q}", lambda: C.det_commutation(p, q), lambda out: out == want)


def _conjugate_kron(rng, p, q):
    a, b = rng.standard_normal((p, p)), rng.standard_normal((q, q))
    want = np.kron(a, b)
    call = lambda: C.conjugate_kron(a, b)
    return Request("conjugate_kron", f"{p}x{q}", call, lambda out: close(out, want))


def _sandwich(rng, p, q):
    a, b, c = (rng.standard_normal(s) for s in ((p, p), (p, q), (q, q)))
    want = vec(a @ b @ c)

    def call():
        return C.vec_sandwich(a, b, c), C.unvec(C.vec(b), p, q), C.kron(a, c)

    def check(out):
        return close(out[0], want, 1e-10) and np.array_equal(out[1], b) and (
            np.array_equal(out[2], np.kron(a, c))
        )

    return Request("vec_sandwich", f"{p}x{q}", call, check)


def _ctensor(rng, m, n):
    x = rng.standard_normal((m, n))

    def call():
        kt = C.build_ctensor(m, n)
        return C.tensor_transpose(kt, x), C.ctensor_flatten(kt)

    def check(out):
        return np.array_equal(out[0], x.T) and np.array_equal(out[1], k_dense(m, n))

    return Request("ctensor", f"{m}x{n}", call, check)


def _gct(rng, m, n):
    gens = [well_conditioned(rng, n) for _ in range(m)]
    other = [well_conditioned(rng, n) for _ in range(m)]
    want_dense = kron_all(gens)
    eye = np.eye(n)

    def call():
        g = C.build_gct(gens)
        dense = C.gct_dense(g).array
        prod = C.gct_multiply(g, C.build_gct(other))
        return dense, prod.generators, C.gct_inverse(g).generators

    def check(out):
        dense, prod, inv = out
        side = n**m
        return (
            close(dense.reshape(side, side, order="F"), want_dense)
            and all(close(p, a @ b) for p, a, b in zip(prod, gens, other))
            and all(close(i @ a, eye, 1e-9) for i, a in zip(inv, gens))
        )

    return Request("gct", f"m{m}n{n}", call, check)


def _mode_perm(rng, m, n):
    tau0 = rng.permutation(m)
    tau = C.Permutation(tau0 + 1)
    a = rng.standard_normal((n,) * m)
    # entry i of the shuffle is a[i_tau(1), ..., i_tau(m)]
    want = np.transpose(a, np.argsort(tau0))

    def call():
        acting = C.mode_perm_dense(C.build_mode_perm_tensor(tau, n))
        return C.mul_2m_on_m(acting, a).array, C.permute_modes(a, tau).array

    def check(out):
        return np.array_equal(out[1], want) and close(out[0], out[1])

    return Request("mode_perm", f"m{m}n{n}", call, check)


def build(rng) -> list[Request]:
    reqs = [_k_apply(rng, p, q) for p, q in K_APPLY]
    reqs += [_k_transpose(rng, p, q) for p, q in K_TRANSPOSE]
    reqs += [_k_dense(p, q) for p, q in K_DENSE]
    reqs += [_k_rank1(p, q) for p, q in K_RANK1]
    reqs += [_k_trace(p) for p in K_TRACE]
    reqs += [_k_det(p, q) for p, q in K_DET]
    reqs += [_conjugate_kron(rng, p, q) for p, q in CONJ_KRON]
    reqs += [_sandwich(rng, p, q) for p, q in SANDWICH]
    reqs += [_ctensor(rng, m, n) for m, n in CTENSOR]
    reqs += [_gct(rng, m, n) for m, n in GCT]
    reqs += [_mode_perm(rng, m, n) for m, n in MODE_PERM]
    return reqs

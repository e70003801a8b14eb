"""``certify`` workload: rank-1 certification, extraction and preservers.

Chosen because ``cp`` and ``preserver`` dominate here and the K layer is never
called.  The certifier's accept path walks every 2x2 minor while its reject
path exits at the first large one (about 40x apart at order 4, n = 8), so a
change that speeds only one path shows.  Varied: order m in {3, 4, 5}; n up to
where the slowest request takes about half a second; entry scale in {1, 1e3};
and what the certifier sees (rank 1: accept; rank 2 and near rank 1: reject).

Entry scale s means the tensor is s times a product of standard normal
factors, so its entries are of order s.
"""

from __future__ import annotations

import numpy as np

import commutant as C

from harness import Request
from oracles import close, kron_all, outer, well_conditioned

PASSES_PER_SECOND = 1.3

#: (m, n) for verify_rank_preservation, with a few trials each
VERIFY = ((3, 12), (4, 6), (5, 4))
VERIFY_TRIALS = 3
#: (m, n, scale, input) for is_rank1_tensor
CERTIFY = (
    (3, 8, 1.0, "rank1"),
    (3, 12, 1e3, "rank1"),
    (3, 16, 1.0, "rank1"),
    (4, 5, 1e3, "rank1"),
    (4, 6, 1.0, "rank1"),
    (4, 8, 1e3, "rank1"),
    (5, 4, 1.0, "rank1"),
    (5, 5, 1e3, "rank1"),
    (3, 16, 1.0, "rank2"),
    (4, 8, 1e3, "rank2"),
    (5, 5, 1.0, "rank2"),
    (3, 12, 1e3, "rank2"),
    (3, 16, 1e3, "near-rank1"),
    (4, 8, 1.0, "near-rank1"),
    (5, 5, 1e3, "near-rank1"),
    (4, 6, 1.0, "near-rank1"),
)
#: relative size of the perturbation that makes a near-rank-1 input
NEAR = 1e-5
EXTRACT = ((3, 12), (4, 6), (5, 4))
SCALES = (1.0, 1e3)
NONNEG = ((2, 8), (3, 5), (3, 8))
COMPOSE = ((3, 8), (4, 6), (5, 4))
FIXES = ((3, 8), (4, 6), (5, 4))


def _perm(rng, m: int):
    return C.Permutation(rng.permutation(m) + 1)


def _verify(rng, m, n, seed):
    mats = [well_conditioned(rng, n) for _ in range(m)]
    tau = _perm(rng, m)

    def call():
        phi = C.rank_preserver(mats, tau)
        return C.verify_rank_preservation(phi, VERIFY_TRIALS, seed)

    # rank preservers map rank-1 tensors to rank-1 tensors
    check = lambda rep: rep.trials == VERIFY_TRIALS and rep.all_passed
    return Request("verify_rank_preservation", f"m{m}n{n}", call, check)


def _certify(rng, m, n, scale, kind):
    t = scale * outer(rng.standard_normal(n) for _ in range(m))
    if kind == "rank2":
        t = t + scale * outer(rng.standard_normal(n) for _ in range(m))
    elif kind == "near-rank1":
        t = t + NEAR * scale * rng.standard_normal(t.shape)
    want = kind == "rank1"
    call = lambda: C.is_rank1_tensor(t)
    return Request(f"is_rank1_tensor:{kind}", f"m{m}n{n}s{scale:g}", call, lambda out: out is want)


def _extract(rng, m, n, scale):
    y = rng.standard_normal(n)
    norm = float(np.linalg.norm(y))
    unit = y / norm
    lam = scale * norm**m
    t = scale * outer([y] * m)

    def check(out):
        got_lam, got_y = out
        # got_y = ±unit, and the sign moves into lambda when m is odd or even
        align = float(np.dot(got_y, unit))
        return abs(abs(align) - 1.0) <= 1e-9 and abs(got_lam * align**m - lam) <= 1e-9 * lam

    defect = seen = None
    if scale != 1.0:
        defect = "extract_sym_rank1 rejects a scaled rank-1 tensor (absolute 1e-10 minor tolerance)"
        seen = lambda out, exc: isinstance(exc, C.RankError)
    return Request(
        "extract_sym_rank1",
        f"m{m}n{n}s{scale:g}",
        lambda: C.extract_sym_rank1(t),
        check,
        defect=defect,
        seen=seen,
    )


def _nonneg(rng, m, n):
    perms = [rng.permutation(n) for _ in range(m)]
    gens = []
    for p in perms:
        g = np.zeros((n, n))
        g[p, np.arange(n)] = rng.uniform(0.5, 2.0, n)
        gens.append(g)
    rows, cols = np.nonzero(kron_all(gens))
    want = sorted(zip(rows.tolist(), cols.tolist()))

    def call():
        g = C.build_gct(gens)
        return C.check_nonneg_inverse(C.gct_dense(g), C.gct_dense(C.gct_inverse(g)))

    return Request("check_nonneg_inverse", f"m{m}n{n}", call, lambda out: out == want)


def _compose(rng, m, n):
    outer_m = [well_conditioned(rng, n) for _ in range(m)]
    inner_m = [well_conditioned(rng, n) for _ in range(m)]
    outer_t, inner_t = _perm(rng, m), _perm(rng, m)
    alpha = [rng.standard_normal(n) for _ in range(m)]
    x = outer(alpha)
    # factor k of phi(rank1(alpha)) is matrices[k] @ alpha[tau(k)]
    beta = [inner_m[k] @ alpha[inner_t.images[k] - 1] for k in range(m)]
    gamma = [outer_m[k] @ beta[outer_t.images[k] - 1] for k in range(m)]
    want = outer(gamma)

    def call():
        phi = C.compose_rank_preservers(
            C.rank_preserver(outer_m, outer_t), C.rank_preserver(inner_m, inner_t)
        )
        return C.apply_rank_preserver(phi, x).array

    return Request("compose_apply", f"m{m}n{n}", call, lambda out: close(out, want, 1e-10))


def _fixes(rng, m, n, permutation: bool):
    if permutation:
        b = np.eye(n)[rng.permutation(n)]
    else:
        b = np.eye(n)
        i, j = rng.choice(n, size=2, replace=False)
        b[i, j] = 0.5
    call = lambda: C.fixes_identity(C.sym_preserver(b, m))
    # B fixes the identity tensor exactly when B is a permutation matrix
    kind = "permutation" if permutation else "shear"
    return Request(f"fixes_identity:{kind}", f"m{m}n{n}", call, lambda out: out is permutation)


def build(rng) -> list[Request]:
    reqs = [_verify(rng, m, n, int(rng.integers(2**31))) for m, n in VERIFY]
    reqs += [_certify(rng, *spec) for spec in CERTIFY]
    reqs += [_extract(rng, m, n, s) for m, n in EXTRACT for s in SCALES]
    reqs += [_nonneg(rng, m, n) for m, n in NONNEG]
    reqs += [_compose(rng, m, n) for m, n in COMPOSE]
    reqs += [_fixes(rng, m, n, perm) for m, n in FIXES for perm in (True, False)]
    return reqs

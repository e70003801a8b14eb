"""The permutation layer is one shuffle: K_{p,q}, the transpose tensor and
the mode-permutation tensors are each the 0/1 array of one axis permutation.
The constructions they replaced are kept here as reference oracles, and
every result must equal its oracle bit for bit and be C-contiguous (the
contractions that consume these arrays are several times slower on an
F-ordered copy of the same values)."""

import itertools

import numpy as np
import pytest

from commutant import (
    Permutation,
    build_commutation,
    build_ctensor,
    build_mode_perm_tensor,
    mode_perm_dense,
)
from commutant.commutation_tensor import _operator, gct_dense
from commutant.serialize import _k_columns, commutation_to_json
from commutant.tensor import _shuffle_dense

SIZES = list(itertools.product(range(1, 8), repeat=2))


def _k_closed_form(p, q):
    """Row s of K_{p,q} (0-based) has its 1 in column (s % q)·p + s // q."""
    s = np.arange(p * q)
    return (s % q) * p + s // q


def _ctensor_scatter(m, n):
    """Entry (i, j, j, i) is 1, written for every (i, j) by broadcasting."""
    arr = np.zeros((n, m, m, n))
    i, j = np.arange(n)[:, None], np.arange(m)
    arr[i, j, j, i] = 1.0
    return arr


def _mode_perm_scatter(tau, n):
    """Entry (i_1..i_m, j_1..j_m) is 1 where j_k = i_{tau(k)}, written at
    every multi-index i at once."""
    m = tau.degree
    arr = np.zeros((n,) * (2 * m))
    i = tuple(np.indices((n,) * m).reshape(m, -1))
    arr[i + tuple(i[k] for k in tau.zero_based())] = 1.0
    return arr


@pytest.mark.parametrize("p,q", SIZES)
def test_k_matches_the_closed_form(p, q):
    k = build_commutation(p, q)
    want = _k_closed_form(p, q)
    assert np.array_equal(k.idx, want)
    dense = k.dense()
    ref = np.zeros((p * q, p * q))
    ref[np.arange(p * q), want] = 1.0
    assert np.array_equal(dense, ref)
    assert dense.flags.c_contiguous


@pytest.mark.parametrize("p,q", [(30, 30), (100, 40)])
def test_k_json_is_written_from_the_closed_form(p, q):
    images = ",".join(str(v) for v in _k_closed_form(p, q) + 1)
    want = f'{{"p":{p},"q":{q},"perm":[{images}]}}'
    assert commutation_to_json(build_commutation(p, q)) == want


def test_the_writers_closed_form_is_ks_index():
    # the one K index rule: gen-kmat's text and JSON and the JSON reader
    # read serialize's closed form, and K's own index must equal it
    for p, q in itertools.product(range(1, 65), repeat=2):
        want = build_commutation(p, q).idx.tolist()
        assert list(itertools.chain.from_iterable(_k_columns(p, q))) == want, (p, q)


@pytest.mark.parametrize("m,n", SIZES)
def test_ctensor_matches_the_broadcast_scatter(m, n):
    arr = build_ctensor(m, n).backing.array
    assert np.array_equal(arr, _ctensor_scatter(m, n))
    assert arr.flags.c_contiguous


@pytest.mark.parametrize("m,n", list(itertools.product(range(1, 5), repeat=2)))
def test_mode_perm_matches_the_indices_scatter_for_every_tau(m, n):
    # S_3 and S_4 hold 3- and 4-cycles, on which a shuffle through tau in
    # place of tau^-1 builds a different tensor
    for tau in Permutation.all(m):
        arr = mode_perm_dense(build_mode_perm_tensor(tau, n)).array
        assert np.array_equal(arr, _mode_perm_scatter(tau, n)), tau
        assert arr.flags.c_contiguous


@pytest.mark.parametrize("m,n", list(itertools.product(range(1, 5), repeat=2)))
def test_identity_generators_are_the_shuffle_builders_array(m, n):
    # K, C and every mode-permutation tensor come from one builder
    for tau in Permutation.all(m):
        arr = gct_dense(_operator([np.eye(n)] * m, tau)).array
        want = _shuffle_dense((n,) * m, tau.zero_based(), "mode-permutation tensor")
        assert arr.tobytes() == want.tobytes() and arr.strides == want.strides, tau
        assert arr.shape == want.shape

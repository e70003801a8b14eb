"""Process pinning and the machine description recorded with every result."""

from __future__ import annotations

import ctypes
import os
import platform

#: every process the benchmark starts runs BLAS and OpenMP on one thread:
#: with two threads a 10x10 (x) 11x11 Kronecker conjugation varied 60x
#: between processes on a 2-core machine
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
#: glibc moves its mmap and trim thresholds with a process's allocation
#: history, so the same multi-megabyte temporaries were either reused or
#: unmapped and faulted in again depending on what ran before: the order-4,
#: n = 8 rank-1 certification took 220 ms in some processes and 400 ms in
#: others.  Fixed at the values the dynamic rule tops out at (32 MiB, and
#: twice that for trimming), every process serves them the same way.
MALLOC_VARS = {"MALLOC_MMAP_THRESHOLD_": "33554432", "MALLOC_TRIM_THRESHOLD_": "67108864"}


def pin(env) -> None:
    """Set the BLAS/OpenMP thread counts to 1 and fix the malloc thresholds."""
    for var in THREAD_VARS:
        env[var] = "1"
    env.update(MALLOC_VARS)


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return sizes
    for entry in entries:
        try:
            with open(f"{base}/{entry}/level") as fh:
                level = fh.read().strip()
            with open(f"{base}/{entry}/type") as fh:
                kind = fh.read().strip()
            with open(f"{base}/{entry}/size") as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind == "Unified":
            sizes[f"L{level}"] = size
    return sizes


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def describe(seed: int) -> dict:
    """nproc, Python/numpy versions, BLAS library and threads, caches, seed."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "malloc": {k: os.environ.get(k) for k in MALLOC_VARS},
        "caches": _cache_sizes(),
        "seed": seed,
    }

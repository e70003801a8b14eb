"""Exact work budgets for the benchmark's in-process requests.

Every request kind of ``bench/certify.py`` and ``bench/structured.py``,
built with a fixed seed, runs once to warm up and once under
``cProfile.Profile(builtins=True)``.  Two counts are read per kind:

* ``c_calls``: C functions called directly from a ``commutant`` frame, read
  from pstats' callers.  numpy's own Python wrappers call C functions too,
  and those change with numpy's release, so they are not counted;
* ``py_calls``: calls of ``commutant``'s Python functions.

With the seed fixed the counts move with the code alone, so each is held
as an upper bound by the checked-in table ``work_budgets.json``; wall time
is not checked.  The table records the numpy and Python versions it was
counted under (Python 3.12 inlines list comprehensions, which are calls
under 3.11), and under any other the check is skipped.  A change that
lowers a count lowers its budget, and one that raises a count raises its
budget and says why.  ``pytest -rA tests/test_work.py`` prints every
kind's delta; ``PYTHONPATH=src python tests/test_work.py`` rewrites the
table from this checkout.
"""

from __future__ import annotations

import cProfile
import importlib
import json
import os
import pstats
import sys
from pathlib import Path

import numpy as np
import pytest

import commutant

BENCH = Path(__file__).resolve().parents[1] / "bench"
TABLE = Path(__file__).with_name("work_budgets.json")
WORKLOADS = ("certify", "structured")
SEED = 0
PACKAGE = os.path.dirname(commutant.__file__) + os.sep
COUNTS = ("c_calls", "py_calls")


def _versions() -> dict:
    return {"numpy": np.__version__, "python": "%d.%d" % sys.version_info[:2]}


def _requests() -> list:
    sys.path.insert(0, str(BENCH))  # a workload imports its harness by name
    try:
        rng = np.random.default_rng(SEED)
        return [req for name in WORKLOADS for req in importlib.import_module(name).build(rng)]
    finally:
        sys.path.remove(str(BENCH))


def _ours(key) -> bool:
    """Whether a pstats key, (file, line, name), is a ``commutant`` function."""
    return key[0].startswith(PACKAGE)


def _count(call) -> dict:
    prof = cProfile.Profile(builtins=True)
    prof.enable()
    try:
        call()
    except Exception:  # a refusal is work like any other
        pass
    finally:
        prof.disable()
    stats = pstats.Stats(prof).stats
    c_calls = sum(
        calls
        for key, (*_, callers) in stats.items()
        if key[0] == "~"  # a C function
        for caller, (calls, *_) in callers.items()
        if _ours(caller)
    )
    py_calls = sum(calls for key, (_, calls, *_) in stats.items() if _ours(key))
    return dict(zip(COUNTS, (c_calls, py_calls)))


def work_counts() -> dict:
    """The counts of every request kind, by its label."""
    counts = {}
    for req in _requests():
        _count(req.call)  # warm up: lazy imports and first-use caches
        counts[req.label] = _count(req.call)
    return counts


def _write_table(counts: dict) -> None:
    rows = ",\n".join(f"    {json.dumps(label)}: {json.dumps(c)}" for label, c in counts.items())
    head = json.dumps(_versions())[1:-1]
    TABLE.write_text(f'{{\n  {head},\n  "budgets": {{\n{rows}\n  }}\n}}\n', encoding="utf-8")


def test_each_request_kind_stays_within_its_work_budget():
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    here = _versions()
    recorded = {key: table[key] for key in here}
    if recorded != here:
        pytest.skip(f"the budgets were counted under {recorded}, this is {here}")
    budgets = table["budgets"]
    counts = work_counts()
    assert sorted(counts) == sorted(budgets)
    deltas, over = [], []
    for label, got in counts.items():
        for kind in COUNTS:
            budget, value = budgets[label][kind], got[kind]
            if value != budget:
                deltas.append(f"{label} {kind}: {budget} -> {value} ({value - budget:+d})")
            if value > budget:
                over.append(deltas[-1])
    print(f"{len(counts)} request kinds; deltas against {TABLE.name}:")
    print("\n".join(deltas) or "none")
    assert not over, "over budget:\n" + "\n".join(over)


if __name__ == "__main__":
    _write_table(work_counts())

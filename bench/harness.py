"""Requests, oracle verdicts and the closed loop shared by every workload.

One client sends one request at a time and sends the next only after the
previous one returned and its output was checked.  Latency is the time of the
call alone; the oracle check is the client's think time and is not timed.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable

#: the tail percentile leaves at least this many samples above it
TAIL_BEYOND = 10

OK = "ok"
KNOWN = "known-defect"
UNEXPECTED = "unexpected"


@dataclass
class Request:
    """One request of a workload.

    ``call`` performs it and returns the output; ``check`` is the independent
    oracle on that output.  ``defect`` names a failure reproduced on the
    seed, and ``seen`` recognises it from ``(output, exception)``: such a
    request still counts as failed, but not as a new failure.
    """

    kind: str
    size: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    defect: str | None = None
    seen: Callable[[Any, BaseException | None], bool] | None = None

    @property
    def label(self) -> str:
        return f"{self.kind}[{self.size}]"


def judge(req: Request, out, exc) -> tuple[str, str]:
    """Classify one outcome as (OK | KNOWN | UNEXPECTED, what happened)."""
    if exc is None:
        try:
            if req.check(out):
                return OK, "ok"
            what = "wrong output"
        except Exception as err:  # a malformed output can break the oracle
            what = f"oracle could not read the output: {err!r}"
    else:
        what = f"raised {type(exc).__name__}: {exc}"
    if req.seen is not None and req.seen(out, exc):
        return KNOWN, req.defect
    return UNEXPECTED, what


def schedule(rng, n_requests: int, passes: int) -> list[int]:
    """Request indices: each pass visits every request once, shuffled."""
    order = []
    for _ in range(passes):
        order.extend(int(i) for i in rng.permutation(n_requests))
    return order


def run_loop(requests, order, deadline_s: float, on_request=None):
    """Closed loop over ``order``; returns (latencies_ns, verdicts).

    Stops early, with fewer samples, once ``deadline_s`` has passed.
    """
    clock = time.perf_counter_ns
    latencies, verdicts = [], []
    stop = time.perf_counter() + deadline_s
    for rid, idx in enumerate(order):
        req = requests[idx]
        if on_request is not None:
            on_request(rid)
        out = exc = None
        t0 = clock()
        try:
            out = req.call()
        except Exception as err:  # every failure is scored, never fatal
            exc = err
        t1 = clock()
        latencies.append(t1 - t0)
        verdicts.append((idx,) + judge(req, out, exc))
        if time.perf_counter() > stop:
            break
    return latencies, verdicts


def latency_stats(latencies_ns) -> dict:
    """Throughput over busy time, median, and the tail percentile that leaves
    at least TAIL_BEYOND samples above it."""
    n = len(latencies_ns)
    ordered = sorted(latencies_ns)
    beyond = min(TAIL_BEYOND, n - 1)
    return {
        "requests": n,
        "throughput_rps": n / (sum(ordered) / 1e9),
        "latency_p50_ms": statistics.median(ordered) / 1e6,
        "latency_tail_ms": ordered[n - 1 - beyond] / 1e6,
        "tail_percentile": 100.0 * (n - beyond) / n,
        "tail_samples_beyond": beyond,
    }

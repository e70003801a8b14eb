"""One workload process: make the inputs, warm up, signal READY, run the loop.

Started by ``run.py``, which times process start to the READY line as the
set-up time.  With ``--setup-only`` the process exits right after READY.
The last line of standard output is a JSON summary for ``run.py``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import harness
import machine

#: workload name -> module that builds its requests
MODULES = {"structured": "structured", "certify": "certify", "cli": "climix"}
#: per-process ceiling on the timed loops, so that a slow program still ends
#: well inside the three minutes one run may take
DEADLINE_S = 100.0
PROBES = 5


def _median_run_ms(argv, n=PROBES) -> float:
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def _scored(requests, verdicts, latencies) -> dict:
    failed = [v for v in verdicts if v[1] != harness.OK]
    known = {}
    unexpected = set()
    for idx, cls, what in failed:
        label = f"{requests[idx].label}: {what}"
        if cls == harness.KNOWN:
            known[label] = known.get(label, 0) + 1
        else:
            unexpected.add(label)
    stats = harness.latency_stats(latencies)
    stats["error_rate"] = len(failed) / len(verdicts)
    return {
        "stats": stats,
        "attempted": len(verdicts),
        "failed": len(failed),
        "known": known,
        "unexpected": sorted(unexpected),
        "verdicts_agree": True,
    }


def _traced(requests, rng, pairs: int, tracer) -> dict:
    """Run each pass twice, untraced then traced, in the same order.

    Alternating keeps warm-up effects out of the tracing overhead; running the
    same order twice lets the oracle verdicts be compared request by request.
    """
    deadline = DEADLINE_S / (2 * pairs)
    plain_ns, traced_ns, plain_v, traced_v = [], [], [], []
    for pair in range(pairs):
        order = harness.schedule(rng, len(requests), 1)
        latencies, verdicts = harness.run_loop(requests, order, deadline)
        plain_ns += latencies
        plain_v += verdicts
        base = pair * len(requests)

        def on_request(rid):
            tracer.request = base + rid

        tracer.install()
        try:
            latencies, verdicts = harness.run_loop(requests, order, deadline, on_request)
        finally:
            tracer.uninstall()
        traced_ns += latencies
        traced_v += verdicts
    result = _scored(requests, plain_v, plain_ns)
    mismatch = sorted(
        {requests[a[0]].label for a, b in zip(plain_v, traced_v) if a[:2] != b[:2]}
    )
    if mismatch or len(plain_v) != len(traced_v):
        print(f"traced and untraced verdicts differ on: {mismatch}", file=sys.stderr)
        result["verdicts_agree"] = False
    layers = tracer.layer_metrics()
    traced_rps = harness.latency_stats(traced_ns)["throughput_rps"]
    layers["trace.overhead_pct"] = 100.0 * (result["stats"]["throughput_rps"] / traced_rps - 1.0)
    interp = _median_run_ms([sys.executable, "-c", "pass"])
    layers["cli.interp_ms"] = interp
    layers["cli.import_ms"] = _median_run_ms([sys.executable, "-c", "import commutant"]) - interp
    result.update(layers=layers, traced_requests=len(traced_ns))
    return result


def _warm_up(requests) -> None:
    """Run the first request of each kind, unscored."""
    kinds = {r.kind for r in requests}
    for req in requests:
        if req.kind in kinds:
            kinds.discard(req.kind)
            try:
                req.call()
            except Exception:  # failures are scored in the timed loop
                pass


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=MODULES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    mod = importlib.import_module(MODULES[args.workload])
    rng = np.random.default_rng([args.seed, list(MODULES).index(args.workload)])
    workdir = None
    try:
        if args.workload == "cli":
            scratch = os.path.join(args.root, ".bench_tmp")
            os.makedirs(scratch, exist_ok=True)
            workdir = tempfile.mkdtemp(dir=scratch)
            # spans cannot cross a process boundary, so a traced run stays in-process
            runner = mod.InProcessRunner() if args.trace else mod.SubprocessRunner(args.root)
            requests = mod.build(rng, workdir, runner)
        else:
            requests = mod.build(rng)
        if args.workload == "cli" and not args.trace:
            # every request is a fresh process: importing here compiles and
            # caches the files each of them loads
            import commutant.cli  # noqa: F401
        else:
            _warm_up(requests)
        print("READY", flush=True)
        if args.setup_only:
            return 0

        passes = max(1, round(args.seconds * mod.PASSES_PER_SECOND))
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            result = _traced(requests, rng, max(2, passes // 2), tracer)
            out_dir = os.path.join(args.root, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            tracer.write(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.tsv"))
        else:
            order = harness.schedule(rng, len(requests), passes)
            latencies, verdicts = harness.run_loop(requests, order, DEADLINE_S)
            result = _scored(requests, verdicts, latencies)
            usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            result["stats"]["peak_rss_mib"] = resource.getrusage(usage).ru_maxrss / 1024
        result["machine"] = machine.describe(args.seed)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                os.rmdir(os.path.dirname(workdir))
            except OSError:  # another run still holds files there
                pass


if __name__ == "__main__":
    sys.exit(main())

"""Layered closed-loop benchmark of ``commutant``.

    python3 bench/run.py --workload {structured,certify,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source tree (it imports ``src/commutant``).  Every
metric is printed by name with its unit; the last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``,
measured untraced; with ``--trace 1`` they are its per-layer ones, from a
traced replay.  ``bench/NOTES.md`` describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from machine import pin  # noqa: E402

#: set-up is timed this many times per run (the last is the measured process
#: itself) and reported as the median
SETUP_SAMPLES = 5
#: a worker that has not finished by then is killed; one run must end in 180 s
WORKER_TIMEOUT_S = 150


def _run_worker(cmd, env, cwd) -> tuple[float, str]:
    """Start a worker; return the seconds until it printed READY and the rest
    of its standard output."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if line.strip() != "READY":
            raise RuntimeError(f"worker did not reach its first request: {line!r}")
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return setup_s, out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("structured", "certify", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.path.dirname(HERE)
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "commutant", "__init__.py")):
        print(f"error: no commutant sources under {src}", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    env = dict(os.environ)
    pin(env)
    env.pop("COMMUTANT_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--root", root,
    ]
    setups = [_run_worker(cmd + ["--setup-only"], env, root)[0] for _ in range(SETUP_SAMPLES - 1)]
    setup_s, out = _run_worker(cmd, env, root)
    setups.append(setup_s)
    result = json.loads(out.strip().splitlines()[-1])
    result["stats"]["setup_s"] = statistics.median(setups)
    _report(args, spec, result)
    return 0


def _report(args, spec, result) -> None:
    stats = result["stats"]
    print(f"# workload {args.workload}: closed loop, one client, seed {args.seed}")
    print(f"# machine {json.dumps(result['machine'], sort_keys=True)}")
    if args.trace:
        print(f"# traced replay of {result['traced_requests']} requests")
        values, wanted = result["layers"], spec["per_layer"]
    else:
        values, wanted = stats, spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(
        f"# latency_tail_ms is p{stats['tail_percentile']:.2f} of {stats['requests']} "
        f"requests ({stats['tail_samples_beyond']} samples beyond it)"
    )
    print(f"error_rate = {stats['error_rate']:.6g} ratio ({result['failed']}/{result['attempted']})")
    for label, n in sorted(result["known"].items()):
        print(f"# known defect x{n}: {label}")
    for label in result["unexpected"]:
        print(f"# UNEXPECTED failure: {label}")
    if not result["verdicts_agree"]:
        print("# traced and untraced replays disagree on some verdicts")
    print(
        json.dumps(
            {
                "correct": not result["unexpected"] and result["verdicts_agree"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    sys.exit(main())

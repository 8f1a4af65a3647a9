"""Benchmark of mcrsp: one seeded workload per call, measured in its own process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads, metrics and units are those of BENCHMARK.json at the root of the
checkout.  mcrsp is imported from the checkout's src/ and nothing is built.
Each workload runs as a closed loop with one caller in one worker process
with a single BLAS/OpenMP thread, and workloads run one at a time, so the
numbers measure the program and not the scheduler.

--trace 0 prints the end-to-end metrics.  --trace 1 instead runs half the
time untraced and half traced, and prints the per-layer metrics and the
tracing overhead; its spans are written to .bench_out/.  The last stdout
line is always one JSON object: correct, attempted, failed, metrics.
Exits 2 without a result if mcrsp's sources are missing or a process fails.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"

THREAD_PINS = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
# Fresh processes timed for setup_s, half before the worker and half after
# it, so that a burst of load from elsewhere cannot hit them all; the median
# is reported.  Each half starts with one untimed process, so that
# byte-compiling the sources is not counted.
SETUP_PROBES = 12
PROBE_TIMEOUT_S = 60
# A worker runs its warm-up op, the measured seconds and at most one more
# op or block; the whole call must end within 180 s.
WORKER_TIMEOUT_S = 150
P90_MIN_OPS = 100


class BenchError(Exception):
    pass


def spawn(args, env, timeout) -> dict:
    """Run a worker to completion and parse its last stdout line."""
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], env=env,
                              stdout=subprocess.PIPE, timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} did not finish within {timeout} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited with {proc.returncode}")
    return json.loads(lines[-1])


def setup_samples(env, count: int) -> list:
    spawn(["--probe"], env, PROBE_TIMEOUT_S)
    samples = []
    for _ in range(count):
        t0 = time.monotonic()
        probe = spawn(["--probe"], env, PROBE_TIMEOUT_S)
        samples.append({"setup_s": probe["ready"] - t0,
                        "table_load_s": probe["table_load_s"]})
    return samples


def end_to_end(result: dict, setups: list) -> dict:
    lat = result["latencies"]
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "ops_per_s": result["ops_per_s"],
        "op_p50_s": statistics.median(lat),
        "peak_rss_mib": result["peak_rss_mib"],
    }


def summary(args, result: dict, metrics: dict, units: dict) -> list:
    """Human-readable lines: every metric with its unit, plus the op p90
    where a run has enough ops for it, and the failure fraction."""
    lines = [f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
             f"trace={args.trace} attempted={result['attempted']} failed={result['failed']}"]
    lines += [f"{name}={value!r} {units[name]}" for name, value in metrics.items()]
    if not args.trace:
        lat = result["latencies"]
        if len(lat) >= P90_MIN_OPS:
            p90 = statistics.quantiles(lat, n=10, method="inclusive")[8]
            lines.append(f"op_p90_s={p90!r} s (n={len(lat)})")
        else:
            lines.append(f"op_p90_s=not reported: {len(lat)} timed ops, "
                         f"fewer than {P90_MIN_OPS}")
    lines.append(f"failed_frac={result['failed'] / result['attempted']!r} ratio "
                 f"({result['failed']} of {result['attempted']} ops)")
    return lines


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "mcrsp" / "__init__.py").is_file():
        print(f"error: no mcrsp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = dict(os.environ, **THREAD_PINS)
    try:
        setups = setup_samples(env, SETUP_PROBES // 2)
        result = spawn(["--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", str(args.trace)],
                       env, WORKER_TIMEOUT_S)
        setups += setup_samples(env, SETUP_PROBES - SETUP_PROBES // 2)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        measured = dict(result["layers"], **{
            "oracle.table_load_s": statistics.median(s["table_load_s"] for s in setups)})
    else:
        measured = end_to_end(result, setups)
    units = {m["name"]: m["unit"] for m in declared}
    metrics = {name: measured[name] for name in units}
    for line in summary(args, result, metrics, units):
        print(line)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

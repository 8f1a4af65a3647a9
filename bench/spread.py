"""Run the benchmark over several seeds and report each end-to-end metric's
median and run-to-run spread.

    python3 bench/spread.py [--workload NAME ...] [--runs 10] [--first-seed 1]

The spread is the distance between the first and third quartiles of the
runs, as a share of their median, which is how a change is judged against
the bounds in BENCHMARK.json.  Progress goes to stderr; stdout gets one JSON
document with the machine, and per workload and metric the values, median,
quartiles, spread and bound, plus the per-layer metrics of one traced run.
bench/baseline.json is this output at the commit that defined the benchmark.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def machine() -> dict:
    """The facts a reader needs to compare numbers across machines."""
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}
    try:
        import numpy
        info["numpy"] = numpy.__version__
    except ImportError:
        info["numpy"] = None
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True).stdout
    except OSError:
        out = ""
    for line in out.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("Model name", "L3 cache"):
            info[key.strip().lower().replace(" ", "_")] = value.strip()
    return info


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"machine": machine(), "run_seconds": spec["run_seconds"],
              "runs": args.runs, "workloads": {}}
    for workload in args.workload or names:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: failed run")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed={seed} " + " ".join(
                f"{n}={v[-1]:.6g}" for n, v in values.items()), file=sys.stderr)
        summary = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med, "bound": bounds[name],
                             "values": vals}
            print(f"{workload} {name}: median={med:.6g} spread={(q3 - q1) / med:.4f} "
                  f"bound={bounds[name]}", file=sys.stderr)
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(args.first_seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        traced = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        report["workloads"][workload] = summary
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

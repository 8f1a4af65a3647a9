"""One workload process: set up, run a closed loop of ops, report as JSON.

Started by run.py with BLAS/OpenMP pinned to one thread; not meant to be
run by hand.  With --probe it only times its own set-up (import mcrsp, load
the shipped derived table) and exits.  Otherwise it prints one JSON object
on its last stdout line with the op latencies, failure counts, peak RSS
and, with --trace 1, the per-layer metrics of a traced phase.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
# Failure reasons printed per phase before the rest are only counted.
MAX_REPORTED_FAILURES = 5


def import_mcrsp():
    """Import mcrsp from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "mcrsp" / "__init__.py").is_file():
        raise SystemExit(f"error: no mcrsp sources under {src}")
    sys.path.insert(0, str(src))
    import mcrsp
    if Path(mcrsp.__file__).resolve().parent != (src / "mcrsp").resolve():
        raise SystemExit(f"error: imported mcrsp from {mcrsp.__file__}, not {src}")
    return mcrsp


def set_up() -> dict:
    """What every CLI call pays before its first op: the time it was done,
    and how long loading the table took."""
    mcrsp = import_mcrsp()
    t0 = time.monotonic()
    mcrsp.oracle.default_derived_table()
    ready = time.monotonic()
    return {"ready": ready, "table_load_s": ready - t0}


@dataclass
class Phase:
    """Outcome of a run of consecutive ops."""

    latencies: list = field(default_factory=list)
    failed: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def ops_per_s(self) -> float:
        """Ops that passed their check, per second spent inside ops."""
        return (self.attempted - self.failed) / sum(self.latencies)


def run_op(workload, index: int, phase: Phase) -> None:
    case = workload.case(index)
    t0 = time.perf_counter()
    try:
        output = workload.run(case)
    except Exception:  # an op that raises is a failed op; the loop goes on
        phase.latencies.append(time.perf_counter() - t0)
        problems = [traceback.format_exc()]
    else:
        phase.latencies.append(time.perf_counter() - t0)
        try:
            problems = workload.check(case, output)
        except Exception:
            problems = [traceback.format_exc()]
    if problems:
        phase.failed += 1
        if phase.failed <= MAX_REPORTED_FAILURES:
            print(f"{workload.name} op {index} failed: " + "; ".join(problems),
                  file=sys.stderr)


def run_phase(workload, start: int, seconds: float) -> tuple:
    """Closed loop from op `start` until `seconds` were spent inside ops.

    Always runs at least one op and stops only at a block boundary, so a
    phase covers whole blocks of the workload's op mix.  Returns the phase
    and the index of the next op.
    """
    phase = Phase()
    index = start
    while True:
        run_op(workload, index, phase)
        index += 1
        if sum(phase.latencies) >= seconds and index % workload.block == 0:
            return phase, index


def measure(workload, seconds: float, trace: bool) -> dict:
    # Op 0 is the warm-up: checked and counted, not timed.
    warm = Phase()
    run_op(workload, 0, warm)
    start = workload.block
    if not trace:
        phase, _ = run_phase(workload, start, seconds)
        return {
            "attempted": warm.attempted + phase.attempted,
            "failed": warm.failed + phase.failed,
            "latencies": phase.latencies,
            "ops_per_s": phase.ops_per_s(),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    from tracer import Tracer
    plain, index = run_phase(workload, start, seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced, index = run_phase(workload, index, seconds / 2)
        layers = tracer.layer_metrics(traced.attempted)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{workload.name}.npz")
        alloc = Phase()
        tracemalloc.start()
        try:
            run_op(workload, index, alloc)
        finally:
            tracemalloc.stop()
    finally:
        tracer.uninstall()
    layers["engine.enumerate.peak_alloc_mib"] = float(tracer.counters["alloc_peak_mib"])
    untraced = plain.ops_per_s()
    layers["trace.overhead_frac"] = 1.0 - traced.ops_per_s() / untraced if untraced else 0.0
    phases = (warm, plain, traced, alloc)
    return {
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "layers": layers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setup = set_up()
    if args.probe:
        print(json.dumps(setup))
        return 0

    import workloads
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        workload = workloads.make(args.workload, args.seed, ROOT, workdir)
        result = measure(workload, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark.

    python3 -m pytest bench/test_bench.py

Runs every workload for a few ops in both modes and checks that each metric
of BENCHMARK.json is printed with its unit, and that a wrong output is
counted as a failed op.  Takes about a minute.
"""
import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from worker import OUT_DIR, import_mcrsp, run_phase

import_mcrsp()
import workloads  # noqa: E402  (needs mcrsp on the path)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    *summary, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    for name, unit in declared.items():
        assert any(line.startswith(f"{name}=") and line.endswith(f" {unit}")
                   for line in summary), name


def test_truncated_csv_counts_as_failed():
    class Truncating(workloads.EnumerateWide):
        def run(self, case):
            output = super().run(case)
            with open(case.out, "r+b") as fh:
                fh.truncate(fh.seek(0, 2) // 2)
            return output

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        phase, _ = run_phase(Truncating(7, workdir), 1, 0.0)
    assert (phase.attempted, phase.failed) == (1, 1)


def test_paper_table_where_oracle_expected_counts_as_failed():
    class PaperTable(workloads.ParamScan):
        def run(self, case):
            return super().run(dataclasses.replace(case, source="paper"))

    wl = PaperTable(7)
    phase, _ = run_phase(wl, 0, 0.0)
    oracle_ops = sum(wl.case(i).source == "oracle" for i in range(wl.block))
    assert oracle_ops > 0
    assert (phase.attempted, phase.failed) == (wl.block, oracle_ops)


def test_fails_without_the_program():
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, Path(bare) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "param-scan", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout == ""

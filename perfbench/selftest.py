"""Self-test of the benchmark, from smoke runs of every workload at 2^4.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the package's default test collection: it
starts about twenty child processes and checks the benchmark, not dklattice.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _smoke(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_the_workloads_the_benchmark_runs():
    assert sorted(WORKLOADS) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    result = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        spans = values["cli.main_self_s"] + sum(
            values[f"{span}_s"] for span, *_ in layertrace.LAYERS)
        assert spans == pytest.approx(values["trace.op_s"], rel=1e-6)


def test_failing_operation_is_counted_not_dropped():
    # The p=0 block is singular at mass 0, so the CLI exits 2.
    workload = run.Solve("solve-singular", run.WARMUP_DIMS, mass="0,0")
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = run.Runner(work, deadline=time.perf_counter() + 120)
        workload.generate(runner, 5)
        results = run.timed_ops(workload, runner, 5, seconds=0)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    line = json.loads(run.result_line(results, {}, None))
    assert line["attempted"] == 1
    assert line["failed"] == 1
    assert line["correct"] is False
    assert results[0][1].startswith("exit code 2")

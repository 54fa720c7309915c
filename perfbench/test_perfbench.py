"""Smoke test of the benchmark harness at tiny input sizes.

Checks that every workload named in BENCHMARK.json runs, passes its
output checks, and prints the result schema the file promises: the
end-to-end metrics untraced, the per-layer metrics traced. It says
nothing about performance.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    command = [
        sys.executable,
        str(BENCH_DIR / "run.py"),
        "--workload", workload,
        "--seed", "7",
        "--seconds", "0.2",
        "--trace", str(trace),
        "--scale", "tiny",
    ]
    return subprocess.run(
        command, cwd=cwd, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )


def test_spec_names():
    assert WORKLOADS == ["population_hybrid", "fig17_cold", "fig17_warm"]
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert names == [
        "device_rounds_per_s", "op_s_p50", "op_s_tail", "setup_s",
        "peak_rss_mb",
    ]
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_schema(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float)
    if trace:
        assert result["metrics"]["trace.top_level_share"]["value"] >= 0.9
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_unknown_workload_fails_without_result():
    proc = run_bench("no_such_workload", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Smoke tests of the benchmark itself: every workload, untraced and traced,
at the tiny --smoke sizes. Each run is a fresh process, as in a real run."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
QUALITY = ("train_loss", "raw_mpjpe_mm", "refined_mpjpe_mm")


def run_bench(cwd: Path, workload: str, trace: int, seed: int = 3):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric_and_repeats_quality(workload):
    first = result_of(run_bench(ROOT, workload, trace=0))
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for m in first["metrics"].values():
        assert isinstance(m["value"], float) and m["value"] > 0

    again = result_of(run_bench(ROOT, workload, trace=0))
    for name in QUALITY:
        assert again["metrics"][name]["value"] == first["metrics"][name]["value"], name

    traced = result_of(run_bench(ROOT, workload, trace=1))
    assert units(traced) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert traced["metrics"]["tcn.forward_calls_per_sample"]["value"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, WORKLOADS[0], trace=0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

"""Tests of the benchmark's own code.

Run from the repository root with ``python -m pytest perfbench -q``.  The
end-to-end cases run ``run.py --smoke`` in a subprocess, so the class-level
wrappers it installs never leak into this process.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import percentile_with_tail  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def smoke(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def result_of(completed: subprocess.CompletedProcess) -> dict:
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_p99_used_when_ten_samples_lie_beyond_it():
    value, used, beyond = percentile_with_tail(range(1, 2001))
    assert (value, used, beyond) == (1980, 99.0, 20)


def test_falls_back_to_highest_percentile_with_ten_beyond():
    value, used, beyond = percentile_with_tail(range(1, 501))
    assert (value, used, beyond) == (490, 98.0, 10)


def test_too_few_samples_report_the_maximum_with_nothing_beyond():
    assert percentile_with_tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_emitted_with_its_unit(workload):
    completed = smoke(workload, trace=0)
    assert completed.returncode == 0, completed.stderr
    result = result_of(completed)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {entry["name"]: entry["unit"] for entry in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "decide samples n=" in completed.stdout
    assert "decide_ms_p99 is p" in completed.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    completed = smoke(workload, trace=1)
    assert completed.returncode == 0, completed.stderr
    result = result_of(completed)
    assert result["correct"]
    expected = {entry["name"]: entry["unit"] for entry in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert result["metrics"]["sim.jobs"]["value"] > 0


def copy_benchmark(tmp_path: Path) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def test_corrupted_fingerprint_counts_every_case_as_failed(tmp_path):
    root = copy_benchmark(tmp_path)
    (root / "src").symlink_to(ROOT / "src", target_is_directory=True)
    pinned_path = root / "perfbench" / "pinned.json"
    pinned = json.loads(pinned_path.read_text())
    pinned["digests"]["smoke"]["sweep"] = "0" * 16
    pinned_path.write_text(json.dumps(pinned))
    completed = smoke("sweep", trace=0, root=root)
    result = result_of(completed)
    assert completed.returncode == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_without_program_source_it_exits_nonzero_and_prints_no_result(tmp_path):
    root = copy_benchmark(tmp_path)
    completed = smoke("sweep", trace=0, root=root)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout

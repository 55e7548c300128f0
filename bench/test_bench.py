"""Tests of the benchmark itself: python3 -m pytest -q bench/test_bench.py"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


def test_fleet_builder_is_byte_identical_for_one_seed(tmp_path):
    pkg = run.import_package()
    first = workloads.build_fleet(pkg, tmp_path / "a", 7, "tiny")
    second = workloads.build_fleet(pkg, tmp_path / "b", 7, "tiny")
    other = workloads.build_fleet(pkg, tmp_path / "c", 8, "tiny")
    for name in ("fleet.jsonl", "meta.json", "corpus.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert first.trace.read_bytes() != other.trace.read_bytes()
    with open(first.trace, encoding="utf-8") as fh:
        events = pkg.trace.parse_trace(fh)
    assert len(events) == first.events == second.events
    assert len({e.sw_id for e in events if e.sw_id}) == first.workers


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric_and_no_failure(workload, trace, seed):
    done = bench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                 "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert "failed_frac 0.0000 ratio" in done.stdout
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_metrics_match_the_spec():
    assert list(tracer.LAYER_UNITS.items()) == [(m["name"], m["unit"]) for m in SPEC["per_layer"]]


def test_wrong_outputs_fail_the_run(tmp_path):
    pkg = run.import_package()
    workload = workloads.ddos_single(pkg, tmp_path / "work", 0, "tiny")
    checked = run.Run(pkg, workload, pinned={"ddos.jsonl": "0" * 64})
    assert checked.one_pass(run.SpeedClock(tmp_path / "calibration", 0), None) is not None
    checked.check_outputs()
    assert (checked.attempted, checked.failed) == (4, 1)

    enforce = workload.steps[1]
    result = enforce.run()
    with open(tmp_path / "work" / "enforce" / "actions.jsonl", "a", encoding="utf-8") as fh:
        fh.write("{}\n")
    assert enforce.check(result) != []


def test_ordered_partition_handles_repeated_lines():
    assert workloads._is_ordered_partition(["a", "x", "a"], ["a"], ["a", "x"])
    assert workloads._is_ordered_partition(["a", "b", "c"], ["a", "c"], ["b"])
    assert not workloads._is_ordered_partition(["a", "b", "c"], ["c", "a"], ["b"])
    assert not workloads._is_ordered_partition(["a", "b"], ["a"], ["c"])


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench("--workload", "ddos_single", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

Smoke runs put the Figure-1 graph in place of every workload graph, so
each takes one Spark session and a few seconds of work.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END  # noqa: E402
from spans import per_layer_metrics  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == ["build-exact", "query-sweep", "build-approx"]
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == per_layer_metrics()
    assert 1 <= len(doc["per_layer"]) <= 128
    for m in doc["per_layer"]:
        assert re.fullmatch(r"[a-z_]+(\.[a-z_]+)+\.[a-z_]+", m["name"]), m["name"]
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize(
    "workload, trace",
    [("build-exact", 0), ("query-sweep", 0), ("build-approx", 0), ("build-approx", 1)],
)
def test_smoke_run_emits_every_metric(workload, trace):
    code, out = bench(
        "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace), "--smoke"
    )
    assert code == 0, "\n".join(out)
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    want = per_layer_metrics() if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        k: unit for k, (unit, _) in want.items()
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_corrupted_clustering_is_counted_and_fails_the_run():
    code, out = bench(
        "--workload", "query-sweep", "--seed", "1", "--seconds", "0", "--trace", "0",
        "--smoke", "--corrupt",
    )
    assert code != 0
    result = json.loads(out[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    frac = next(line for line in out if line.startswith("failed_ops_frac"))
    assert float(frac.split("=")[1]) == 1.0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, out = bench(
        "--workload", "build-exact", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert code != 0
    assert not any(line.startswith("{") for line in out)

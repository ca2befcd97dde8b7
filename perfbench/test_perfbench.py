"""The benchmark's own checks: run with ``python3 -m pytest perfbench``.

Traced runs with one seed must report identical counts, so later
changes can rest count claims on them.  Every metric that
``BENCHMARK.json`` names must be present with its unit, and the
command must fail without the program's sources.
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Counts (not times) that must repeat exactly for one seed.
COUNTS = (
    "builder.label_paths",
    "alg3.connect_top_expansions",
    "alg3.paths_per_query",
    "exact.expansions_per_query",
    "exact.prune_ratio",
    "fused.expansions_per_query",
    "fused.prune_ratio",
    "maint.levels_replayed_per_update",
    "maint.full_rebuild_share",
    "maint.csr_rebuilds",
    "plan.exact_share",
    "cache.hit_rate",
    "cache.invalidated",
)


def run(workload: str, trace: int, cwd: Path = ROOT, seconds: str = "1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0, proc.stderr[-3000:]
    assert doc["attempted"] >= 1
    return doc


def assert_metrics(doc: dict, section: str) -> None:
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    reported = {name: m["unit"] for name, m in doc["metrics"].items()}
    assert reported == expected


WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_one_seed(workload):
    first, second = (result(run(workload, 1)) for _ in range(2))
    assert_metrics(first, "per_layer")
    assert {n: first["metrics"][n]["value"] for n in COUNTS} == {
        n: second["metrics"][n]["value"] for n in COUNTS
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_reported_and_nonzero(workload):
    doc = result(run(workload, 0))
    assert_metrics(doc, "end_to_end")
    assert all(m["value"] > 0 for m in doc["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

"""Ablations of the backbone index's design choices (DESIGN.md Section 4).

The paper motivates several design decisions without isolating them
experimentally; these ablations do, on the scaled C9_NY_15K stand-in:

* **A1 — spanning-tree edge policy** (Section 4.2.3): prefer high
  degree-pair edges vs plain Kruskal in edge-id order.
* **A2 — condensing threshold** (Section 4.2.2, Figure 4): noise
  detection on (p_ind = 0.3) vs off (p_ind = 0).
* **A3 — label scope** (Section 4.3.1): label searches over removed
  edges only vs the full cluster subgraph.  The paper claims the
  restriction "speeds up the query process" at construction time.

Each ablation reports build time, index size, and workload quality.
"""

from __future__ import annotations

import time
from dataclasses import replace

import pytest

from repro.core import (
    BackboneParams,
    LabelScope,
    TreePolicy,
    build_backbone_index,
)
from repro.eval import fmt_bytes, fmt_seconds, format_table, random_queries
from repro.eval.runner import run_suite

from benchmarks.conftest import SCALED_M_MIN, SCALED_P, report, scaled_m


def _measure(graph, params, queries, exact):
    started = time.perf_counter()
    index = build_backbone_index(graph, params)
    build_seconds = time.perf_counter() - started
    summary = run_suite(graph, queries, index=index, run_exact=False)
    for record, exact_record in zip(summary.records, exact.records):
        record.exact_paths = exact_record.exact_paths
    return {
        "build_seconds": build_seconds,
        "bytes": index.size_bytes(),
        "rac": summary.mean_rac() if summary.compared else None,
        "query_seconds": summary.mean_approx_seconds(),
    }


@pytest.fixture(scope="module")
def ablation_data(ny_large):
    base = BackboneParams(
        m_max=scaled_m(200), m_min=SCALED_M_MIN, p=SCALED_P
    )
    queries = random_queries(ny_large, 6, seed=77, min_hops=10)
    exact = run_suite(ny_large, queries, exact_time_budget=90.0)

    settings = {
        "baseline (paper)": base,
        "A1 tree=arbitrary": replace(base, tree_policy=TreePolicy.ARBITRARY),
        "A2 p_ind=0 (no noise)": replace(base, p_ind=0.0),
        "A3 labels=full cluster": replace(
            base, label_scope=LabelScope.FULL_CLUSTER
        ),
    }
    data = {
        name: _measure(ny_large, params, queries, exact)
        for name, params in settings.items()
    }

    rows = []
    for name, row in data.items():
        rac_text = (
            ", ".join(f"{v:.2f}" for v in row["rac"]) if row["rac"] else "-"
        )
        rows.append(
            [
                name,
                fmt_seconds(row["build_seconds"]),
                fmt_bytes(row["bytes"]),
                fmt_seconds(row["query_seconds"]),
                rac_text,
            ]
        )
    report(
        "ablations",
        format_table(
            ["setting", "build", "index size", "query", "RAC"],
            rows,
            title="Design-choice ablations (C9_NY_15K stand-in)",
        ),
    )
    return data


def test_ablation_all_settings_work(ablation_data):
    for name, row in ablation_data.items():
        assert row["rac"] is not None, name
        for value in row["rac"]:
            assert 0.95 <= value <= 5.0, (name, value)


def test_ablation_full_cluster_labels_cost_more_to_build(ablation_data):
    """The paper's restricted-label argument: removed-edges-only labels
    are cheaper to construct."""
    baseline = ablation_data["baseline (paper)"]
    full = ablation_data["A3 labels=full cluster"]
    assert full["build_seconds"] >= 0.8 * baseline["build_seconds"]
    assert full["bytes"] >= baseline["bytes"] * 0.9


def test_ablation_benchmark(benchmark, ablation_data, ny_large):
    params = BackboneParams(
        m_max=scaled_m(200),
        m_min=SCALED_M_MIN,
        p=SCALED_P,
        tree_policy=TreePolicy.ARBITRARY,
    )
    index = benchmark.pedantic(
        lambda: build_backbone_index(ny_large, params), rounds=3, iterations=1
    )
    assert index.height >= 1

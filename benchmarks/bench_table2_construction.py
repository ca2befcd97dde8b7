"""Table 2 — index construction: Backbone vs GTree vs CH.

Regenerates the paper's Table 2 on the scaled C9_NY subgraph stand-ins
(5K/10K/15K -> 400/800/1200 nodes): construction time and index size
for the backbone index and the skyline-adapted GTree, plus the final
graph size for skyline CH.

Paper shape: the backbone index builds orders of magnitude faster than
both comparators; GTree construction explodes (their 10K row DNF'd
after a day); CH's final edge count blows up several-fold over the
input.  Build budgets mirror the paper's timeout as explicit DNFs.
"""

from __future__ import annotations

import time

import pytest

from repro.baselines import CHIndex, GTreeIndex
from repro.core import BackboneParams, build_backbone_index
from repro.datasets import load_subgraph
from repro.errors import BuildError
from repro.eval import fmt_bytes, fmt_seconds, format_table

from benchmarks.conftest import (
    SCALED_M_MIN,
    SCALED_P,
    record_telemetry,
    report,
    scaled_m,
)

SIZES = {"C9_NY_5K~400": 400, "C9_NY_10K~800": 800, "C9_NY_15K~1200": 1200}
BASELINE_BUDGET = 120.0  # seconds; the paper's analogue of "one day"


@pytest.fixture(scope="module")
def table2_data():
    data: dict[str, dict[str, object]] = {}
    for label, n_nodes in SIZES.items():
        graph = load_subgraph("C9_NY", n_nodes)
        row: dict[str, object] = {"graph": graph}

        started = time.perf_counter()
        backbone = build_backbone_index(
            graph,
            BackboneParams(
                m_max=scaled_m(200), m_min=SCALED_M_MIN, p=SCALED_P
            ),
        )
        row["backbone_seconds"] = time.perf_counter() - started
        row["backbone_bytes"] = backbone.size_bytes()

        started = time.perf_counter()
        try:
            gtree = GTreeIndex(
                graph, fanout=4, leaf_size=64, time_budget=BASELINE_BUDGET
            )
            row["gtree_seconds"] = time.perf_counter() - started
            row["gtree_vectors"] = gtree.size_vectors()
        except BuildError:
            row["gtree_seconds"] = None  # DNF
            row["gtree_vectors"] = None

        started = time.perf_counter()
        try:
            ch = CHIndex(graph, time_budget=BASELINE_BUDGET)
            row["ch_seconds"] = time.perf_counter() - started
            row["ch_nodes"] = ch.report.final_nodes
            row["ch_edges"] = ch.report.final_edge_entries
        except BuildError:
            row["ch_seconds"] = None
            row["ch_nodes"] = None
            row["ch_edges"] = None
        data[label] = row

    rows = []
    for label, row in data.items():
        graph = row["graph"]
        rows.append(
            [
                label,
                fmt_seconds(row["backbone_seconds"]),
                fmt_bytes(row["backbone_bytes"]),
                fmt_seconds(row["gtree_seconds"])
                if row["gtree_seconds"] is not None
                else "DNF",
                f"{row['gtree_vectors']:,} vecs"
                if row["gtree_vectors"] is not None
                else "DNF",
                fmt_seconds(row["ch_seconds"])
                if row["ch_seconds"] is not None
                else "DNF",
                f"{row['ch_nodes']:,}/{row['ch_edges']:,}"
                if row["ch_edges"] is not None
                else "DNF",
                f"{graph.num_nodes:,}/{graph.num_edge_entries:,}",
            ]
        )
    report(
        "table2_construction",
        format_table(
            [
                "graph",
                "backbone time",
                "backbone size",
                "GTree time",
                "GTree size",
                "CH time",
                "CH nodes/edges",
                "input nodes/edges",
            ],
            rows,
            title="Table 2: index construction comparison",
        ),
    )
    return data


def test_table2_backbone_builds_fastest_at_scale(table2_data):
    """Shape claim: on the largest graph, backbone construction beats
    both comparators (at the paper's sizes the gap is hours vs minutes;
    tiny scaled graphs flatten it, so we assert at the top size only)."""
    row = table2_data["C9_NY_15K~1200"]
    if row["gtree_seconds"] is not None:
        assert row["backbone_seconds"] < row["gtree_seconds"]
    if row["ch_seconds"] is not None:
        # CH and backbone are close at these scaled sizes; allow timer
        # noise while still catching a regression that inverts the order
        assert row["backbone_seconds"] < 1.5 * row["ch_seconds"]


def test_table2_baselines_grow_superlinearly(table2_data):
    """Shape claim: the baselines' *stored work* grows superlinearly in
    graph size — the mechanism behind the paper's DNFs.  Work metrics
    (stored vectors, shortcut edges) are used instead of wall time,
    which is too noisy at these scaled sizes."""
    small = table2_data["C9_NY_5K~400"]
    large = table2_data["C9_NY_15K~1200"]
    node_growth = (
        large["graph"].num_nodes / small["graph"].num_nodes
    )  # 3x by construction
    if large["gtree_vectors"] is not None and small["gtree_vectors"]:
        vector_growth = large["gtree_vectors"] / small["gtree_vectors"]
        assert vector_growth > node_growth
    if large["ch_edges"] is not None and small["ch_edges"]:
        small_blowup = small["ch_edges"] / small["graph"].num_edge_entries
        large_blowup = large["ch_edges"] / large["graph"].num_edge_entries
        assert large_blowup >= 0.9 * small_blowup  # blow-up never eases


def test_table2_ch_edges_blow_up(table2_data):
    """Shape claim: CH's final edge count exceeds the input edge count."""
    for label, row in table2_data.items():
        if row["ch_edges"] is None:
            continue
        assert row["ch_edges"] > row["graph"].num_edge_entries, label


def test_table2_scalar_vs_flat_build(workload_seed):
    """Construction A/B: the scalar reference build vs production.

    Independent of the comparator fixture (selectable with ``-k
    scalar_vs_flat``) so CI's perf-smoke job can run it alone.  Both
    pipelines build the same three-cost road networks at the Table 2
    stand-in sizes; best-of-5 walls absorb machine noise.  The
    production (flat) pipeline must (a) produce an index whose *served
    answers are bit-identical* to the scalar reference build's
    (:func:`repro.qa.reference.build_backbone_index`) — checked per
    query pair via ``backbone_query`` and via the provenance stamp —
    and (b) build the largest graph at least 1.8x faster.  The
    telemetry keeps its historical keys: ``python`` is the reference
    build, ``flat`` the production one.
    """
    import random

    from repro.core.query import backbone_query
    from repro.graph.generators import road_network
    from repro.qa import reference

    builders = {
        "python": reference.build_backbone_index,
        "flat": build_backbone_index,
    }

    params = BackboneParams(
        m_max=scaled_m(200), m_min=SCALED_M_MIN, p=SCALED_P
    )
    rounds = 5
    rows, telemetry = [], {}
    for n_nodes, graph_seed in ((400, 3), (800, 6), (1200, 9)):
        graph = road_network(n_nodes, dim=3, seed=graph_seed)
        best = {"python": float("inf"), "flat": float("inf")}
        built = {}
        for _ in range(rounds):
            for name, build in builders.items():
                started = time.perf_counter()
                built[name] = build(graph, params)
                best[name] = min(best[name], time.perf_counter() - started)

        # Bit-identity of the flat-pipeline build: same provenance stamp
        # and the same served skylines, node sequences and path order
        # included, on a sampled workload.
        assert built["python"].provenance == built["flat"].provenance
        rng = random.Random(workload_seed)
        nodes = sorted(graph.nodes())
        mismatches = 0
        for _ in range(40):
            source, target = rng.sample(nodes, 2)
            scalar_paths = [
                (p.nodes, p.cost)
                for p in backbone_query(built["python"], source, target).paths
            ]
            flat_paths = [
                (p.nodes, p.cost)
                for p in backbone_query(built["flat"], source, target).paths
            ]
            if scalar_paths != flat_paths:
                mismatches += 1
        assert mismatches == 0, f"n={n_nodes}: {mismatches} diverging queries"

        speedup = best["python"] / best["flat"]
        telemetry[f"n{n_nodes}"] = {
            "python_best_seconds": best["python"],
            "flat_best_seconds": best["flat"],
            "speedup": speedup,
            "rounds": rounds,
            "identical_answers": True,
        }
        rows.append(
            [
                f"road_network n={n_nodes} (dim=3)",
                fmt_seconds(best["python"]),
                fmt_seconds(best["flat"]),
                f"{speedup:.2f}x",
            ]
        )

    report(
        "table2_scalar_vs_flat_build",
        format_table(
            ["graph", "scalar build", "flat build", "speed-up"],
            rows,
            title="Table 2 extension: scalar vs flat construction pipeline",
        ),
    )
    record_telemetry("construction", scalar_vs_flat=telemetry)
    assert telemetry["n1200"]["speedup"] >= 1.8, (
        f"flat construction pipeline must deliver >=1.8x at the top size, "
        f"got {telemetry['n1200']['speedup']:.2f}x"
    )


def test_table2_backbone_build_benchmark(benchmark, table2_data):
    graph = table2_data["C9_NY_5K~400"]["graph"]
    params = BackboneParams(
        m_max=scaled_m(200), m_min=SCALED_M_MIN, p=SCALED_P
    )
    index = benchmark.pedantic(
        lambda: build_backbone_index(graph, params), rounds=3, iterations=1
    )
    assert index.height >= 1

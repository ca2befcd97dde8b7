"""End-to-end integration tests across the whole library."""

from __future__ import annotations

import pytest

from repro.core.builder import build_backbone_index
from repro.core.params import AggressiveMode, BackboneParams
from repro.datasets.catalog import load_subgraph
from repro.eval.metrics import goodness, rac
from repro.eval.queries import random_queries
from repro.eval.runner import run_suite
from repro.graph.generators import road_network
from repro.search.bbs import skyline_paths
from repro.search.dijkstra import shortest_costs


@pytest.mark.parametrize("style", ["delaunay", "grid"])
@pytest.mark.parametrize(
    "mode", [AggressiveMode.NONE, AggressiveMode.NORMAL, AggressiveMode.EACH]
)
def test_full_pipeline_every_variant_and_family(style, mode):
    graph = road_network(250, dim=3, style=style, seed=161)
    params = BackboneParams(m_max=25, m_min=5, p=0.05, aggressive=mode)
    index = build_backbone_index(graph, params)
    queries = random_queries(graph, 3, seed=7, min_hops=4)
    for q in queries:
        approx = index.query(q.source, q.target)
        assert approx
        minima = [
            shortest_costs(graph, q.source, i)[q.target] for i in range(3)
        ]
        for p in approx:
            assert p.source == q.source and p.target == q.target
            for i in range(3):
                assert p.cost[i] >= minima[i] - 1e-6


def test_catalog_to_query_pipeline():
    graph = load_subgraph("C9_NY", 350)
    index = build_backbone_index(
        graph, BackboneParams(m_max=30, m_min=6, p=0.05)
    )
    summary = run_suite(
        graph, random_queries(graph, 4, seed=11, min_hops=5), index=index
    )
    assert summary.compared
    assert all(v < 5.0 for v in summary.mean_rac())
    assert summary.mean_goodness() > 0.6


def test_speedup_on_long_queries():
    """The headline claim: backbone queries are much faster than BBS on
    long-haul queries while staying close in quality."""
    graph = road_network(900, dim=3, seed=163)
    index = build_backbone_index(
        graph, BackboneParams(m_max=40, m_min=8, p=0.03)
    )
    queries = random_queries(graph, 2, seed=5, min_hops=25)
    summary = run_suite(graph, queries, index=index)
    assert summary.compared
    assert summary.speedup() > 1.0


def test_save_build_query_roundtrip(tmp_path):
    from repro.core.index import BackboneIndex

    graph = road_network(250, dim=3, seed=164)
    index = build_backbone_index(
        graph, BackboneParams(m_max=25, m_min=5, p=0.05)
    )
    file_path = tmp_path / "net.rbi"
    index.save(file_path)
    loaded = BackboneIndex.load(file_path, graph)
    queries = random_queries(graph, 3, seed=3, min_hops=4)
    for q in queries:
        a = {p.cost for p in index.query(q.source, q.target)}
        b = {p.cost for p in loaded.query(q.source, q.target)}
        assert a == b


def test_quality_metrics_on_exact_results_are_perfect():
    graph = road_network(200, dim=3, seed=165)
    queries = random_queries(graph, 2, seed=2, min_hops=5)
    for q in queries:
        exact = skyline_paths(graph, q.source, q.target).paths
        assert rac(exact, exact) == pytest.approx((1.0, 1.0, 1.0))
        assert goodness(exact, exact) == pytest.approx(1.0)

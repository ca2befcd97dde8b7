"""Robustness and failure-injection tests across the library.

Degenerate topologies, extreme costs, disconnected inputs, corrupted
index files — everything a production deployment would eventually feed
the library.
"""

from __future__ import annotations

import json

import pytest

from repro.core.builder import build_backbone_index
from repro.core.index import BackboneIndex
from repro.core.params import BackboneParams
from repro.errors import BuildError
from repro.graph.mcrn import MultiCostGraph
from repro.qa import reference
from repro.search.bbs import skyline_paths
from repro.search.onetoall import one_to_all_skyline


def params(**kwargs):
    defaults = dict(m_max=10, m_min=1, p=0.1)
    defaults.update(kwargs)
    return BackboneParams(**defaults)


class TestDegenerateTopologies:
    def test_single_edge_graph(self):
        g = MultiCostGraph(2)
        g.add_edge(0, 1, (1.0, 2.0))
        index = build_backbone_index(g, params())
        assert index.query(0, 1)[0].cost == (1.0, 2.0)

    def test_pure_cycle(self):
        g = MultiCostGraph(2)
        for i in range(8):
            g.add_edge(i, (i + 1) % 8, (1.0, 1.0))
        index = build_backbone_index(g, params())
        paths = index.query(0, 4)
        assert paths
        assert min(p.cost[0] for p in paths) == pytest.approx(4.0)

    def test_star_graph(self):
        g = MultiCostGraph(2)
        for leaf in range(1, 12):
            g.add_edge(0, leaf, (float(leaf), 1.0))
        index = build_backbone_index(g, params())
        paths = index.query(3, 7)
        assert paths
        assert paths[0].cost == (10.0, 2.0)

    def test_complete_graph(self):
        g = MultiCostGraph(2)
        for u in range(8):
            for v in range(u + 1, 8):
                g.add_edge(u, v, (float(u + v), float(8 - u)))
        index = build_backbone_index(g, params())
        assert index.query(0, 7)

    def test_long_path_graph(self):
        g = MultiCostGraph(2)
        for i in range(60):
            g.add_edge(i, i + 1, (1.0, 2.0))
        index = build_backbone_index(g, params())
        paths = index.query(0, 60)
        assert paths
        assert paths[0].cost == (60.0, 120.0)

    def test_disconnected_components(self):
        g = MultiCostGraph(2)
        for i in range(5):
            g.add_edge(i, i + 1, (1.0, 1.0))
        for i in range(100, 105):
            g.add_edge(i, i + 1, (1.0, 1.0))
        index = build_backbone_index(g, params())
        # same-component query works; cross-component returns empty
        assert index.query(0, 5)
        assert index.query(0, 104) == []

    def test_two_node_components_everywhere(self):
        g = MultiCostGraph(2)
        for base in range(0, 40, 2):
            g.add_edge(base, base + 1, (1.0, 1.0))
        index = build_backbone_index(g, params())
        assert index.query(0, 1)
        assert index.query(0, 3) == []


class TestExtremeCosts:
    def test_all_equal_costs(self):
        g = MultiCostGraph(3)
        for i in range(20):
            g.add_edge(i, i + 1, (1.0, 1.0, 1.0))
            if i % 3 == 0 and i + 3 <= 20:
                g.add_edge(i, i + 3, (3.0, 3.0, 3.0))
        index = build_backbone_index(g, params())
        paths = index.query(0, 20)
        assert paths
        assert all(c == paths[0].cost[0] for c in paths[0].cost)

    def test_huge_cost_magnitudes(self):
        g = MultiCostGraph(2)
        g.add_edge(0, 1, (1e12, 1.0))
        g.add_edge(1, 2, (1.0, 1e12))
        index = build_backbone_index(g, params())
        paths = index.query(0, 2)
        assert paths
        assert paths[0].cost == (1e12 + 1.0, 1e12 + 1.0)

    def test_tiny_cost_magnitudes(self):
        g = MultiCostGraph(2)
        for i in range(10):
            g.add_edge(i, i + 1, (1e-9, 1e-9))
        result = skyline_paths(g, 0, 10)
        assert len(result.paths) == 1

    def test_zero_cost_edges_terminate(self):
        # zero-cost cycles could loop forever without equal-cost pruning
        g = MultiCostGraph(2)
        g.add_edge(0, 1, (0.0, 0.0))
        g.add_edge(1, 2, (0.0, 0.0))
        g.add_edge(2, 0, (0.0, 0.0))
        g.add_edge(2, 3, (1.0, 1.0))
        result = skyline_paths(g, 0, 3)
        assert result.paths
        assert result.paths[0].cost == (1.0, 1.0)

    def test_single_dimension_graph(self):
        g = MultiCostGraph(1)
        g.add_edge(0, 1, (2.0,))
        g.add_edge(1, 2, (2.0,))
        g.add_edge(0, 2, (5.0,))
        result = skyline_paths(g, 0, 2)
        assert [p.cost for p in result.paths] == [(4.0,)]
        index = build_backbone_index(g, params())
        assert index.query(0, 2)

    def test_five_dimensions(self):
        g = MultiCostGraph(5)
        for i in range(15):
            g.add_edge(i, i + 1, tuple(float(j + 1) for j in range(5)))
        index = build_backbone_index(g, params())
        paths = index.query(0, 15)
        assert paths and paths[0].dim == 5


class TestCorruptedIndexFiles:
    def test_truncated_json(self, tmp_path):
        g = MultiCostGraph(2)
        g.add_edge(0, 1, (1.0, 1.0))
        path = tmp_path / "broken.json"
        path.write_text('{"format": "repro-backbone-index", "vers')
        with pytest.raises(BuildError, match="not a backbone index store"):
            BackboneIndex.load(path, g)

    def test_wrong_format_marker(self, tmp_path):
        g = MultiCostGraph(2)
        g.add_edge(0, 1, (1.0, 1.0))
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps({"format": "parquet", "version": 1}))
        with pytest.raises(BuildError):
            BackboneIndex.load(path, g)

    def test_roundtrip_on_degenerate_graph(self, tmp_path):
        g = MultiCostGraph(2)
        g.add_edge(0, 1, (1.0, 1.0))
        index = build_backbone_index(g, params())
        file_path = tmp_path / "tiny.json"
        index.save(file_path)
        loaded = BackboneIndex.load(file_path, g)
        assert loaded.query(0, 1)


class TestSearchBudgets:
    def test_one_to_all_on_isolated_source(self):
        g = MultiCostGraph(2)
        g.add_node(0)
        g.add_edge(1, 2, (1.0, 1.0))
        result = one_to_all_skyline(g, 0)
        assert set(result) == {0}

    def test_bbs_partial_results_under_budget(self):
        from repro.graph.generators import road_network

        g = road_network(400, dim=3, seed=191)
        nodes = sorted(g.nodes())
        # extremely tight expansion cap (a reference-only knob): the
        # search must stop gracefully
        result = reference.skyline_paths(
            g, nodes[0], nodes[-1], max_expansions=10
        )
        assert result.stats.timed_out
        # seeded shortest paths are still returned as best effort
        assert result.paths


class TestBuilderEdgeCases:
    def test_min_cluster_larger_than_graph(self):
        g = MultiCostGraph(2)
        for i in range(6):
            g.add_edge(i, (i + 1) % 6, (1.0, 1.0))
        index = build_backbone_index(
            g, BackboneParams(m_max=100, m_min=50, p=0.1)
        )
        assert index.query(0, 3)

    def test_isolated_nodes_in_input(self):
        g = MultiCostGraph(2)
        for i in range(5):
            g.add_edge(i, i + 1, (1.0, 1.0))
        g.add_node(99)
        index = build_backbone_index(g, params())
        assert index.query(0, 5)
        assert index.query(0, 99) == []

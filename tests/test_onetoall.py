"""Tests for the one-to-all skyline search."""

from __future__ import annotations

import pytest

from repro.errors import NodeNotFoundError
from repro.graph.generators import road_network
from repro.graph.mcrn import MultiCostGraph
from repro.search.bbs import skyline_paths
from repro.search.onetoall import one_to_all_skyline

from tests.conftest import assert_valid_walk, costs_of, make_diamond_graph


class TestBasics:
    def test_diamond(self):
        g = make_diamond_graph()
        result = one_to_all_skyline(g, 0)
        assert costs_of(result[3]) == {(2.0, 8.0), (8.0, 2.0)}
        assert costs_of(result[1]) == {(1.0, 4.0)}
        assert result[0][0].is_trivial()

    def test_targets_filter(self):
        g = make_diamond_graph()
        result = one_to_all_skyline(g, 0, targets={3})
        assert set(result) == {3}

    def test_unreachable_absent(self):
        g = MultiCostGraph(2)
        g.add_edge(0, 1, (1.0, 1.0))
        g.add_node(7)
        result = one_to_all_skyline(g, 0)
        assert 7 not in result

    def test_missing_source(self):
        g = make_diamond_graph()
        with pytest.raises(NodeNotFoundError):
            one_to_all_skyline(g, 42)


class TestAgainstBBS:
    def test_matches_pairwise_bbs(self):
        g = road_network(120, dim=3, seed=17)
        nodes = sorted(g.nodes())
        source = nodes[0]
        result = one_to_all_skyline(g, source)
        for target in nodes[:: len(nodes) // 10][1:6]:
            expected = costs_of(skyline_paths(g, source, target).paths)
            assert costs_of(result[target]) == expected

    def test_all_paths_valid(self):
        g = road_network(80, dim=2, seed=18)
        source = sorted(g.nodes())[0]
        result = one_to_all_skyline(g, source)
        assert len(result) == g.num_nodes  # connected generator output
        for target, paths in list(result.items())[:30]:
            for p in paths:
                assert p.source == source and p.target == target
                assert_valid_walk(g, p)

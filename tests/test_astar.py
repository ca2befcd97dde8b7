"""Tests for A* single-dimension search."""

from __future__ import annotations

import pytest

from repro.errors import NodeNotFoundError, QueryError
from repro.graph.generators import road_network
from repro.graph.mcrn import MultiCostGraph
from repro.qa.bounds import LandmarkIndex
from repro.search.astar import astar_path, euclidean_heuristic
from repro.search.dijkstra import shortest_costs, shortest_path

from tests.conftest import assert_valid_walk


@pytest.fixture(scope="module")
def network():
    return road_network(400, dim=3, seed=221)


def sample_pairs(network, count=5):
    nodes = sorted(network.nodes())
    step = len(nodes) // (count + 1)
    return [(nodes[i * step], nodes[-(i * step + 1)]) for i in range(1, count)]


class TestCorrectness:
    def test_matches_dijkstra_with_zero_heuristic(self, network):
        for s, t in sample_pairs(network):
            path, _ = astar_path(network, s, t, 0)
            expected = shortest_path(network, s, t, 0)
            assert path.cost[0] == pytest.approx(expected.cost[0])
            assert_valid_walk(network, path)

    def test_matches_dijkstra_with_euclidean_heuristic(self, network):
        for s, t in sample_pairs(network):
            path, _ = astar_path(
                network, s, t, 0, heuristic=euclidean_heuristic(network, t)
            )
            expected = shortest_costs(network, s, 0)[t]
            assert path.cost[0] == pytest.approx(expected)

    def test_matches_dijkstra_with_landmark_heuristic(self, network):
        index = LandmarkIndex(network, 6)
        for s, t in sample_pairs(network):
            for dim_index in range(network.dim):
                path, _ = astar_path(
                    network,
                    s,
                    t,
                    dim_index,
                    heuristic=lambda node, t=t, k=dim_index: (
                        index.lower_bound(node, t)[k]
                    ),
                )
                expected = shortest_costs(network, s, dim_index)[t]
                assert path.cost[dim_index] == pytest.approx(expected)

    def test_source_equals_target(self, network):
        node = next(iter(network.nodes()))
        path, settled = astar_path(network, node, node, 0)
        assert path.is_trivial()
        assert settled == 0

    def test_unreachable(self):
        g = MultiCostGraph(2)
        g.add_edge(0, 1, (1.0, 1.0))
        g.add_node(9)
        path, _ = astar_path(g, 0, 9, 0)
        assert path is None

    def test_validation(self, network):
        with pytest.raises(NodeNotFoundError):
            astar_path(network, -1, 0, 0)
        node = next(iter(network.nodes()))
        with pytest.raises(QueryError):
            astar_path(network, node, node, 99)


class TestEfficiency:
    def test_heuristic_settles_fewer_nodes(self, network):
        """The goal-directed property: a good heuristic expands less."""
        wins = 0
        total = 0
        for s, t in sample_pairs(network):
            _, blind = astar_path(network, s, t, 0)
            _, guided = astar_path(
                network, s, t, 0, heuristic=euclidean_heuristic(network, t)
            )
            total += 1
            if guided <= blind:
                wins += 1
        assert wins >= total - 1  # allow one degenerate tie-breaking case

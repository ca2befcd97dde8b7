"""Tests for the reference landmark index and its lower bounds."""

from __future__ import annotations

import pytest

from repro.errors import BuildError
from repro.graph.generators import road_network
from repro.qa.bounds import LandmarkIndex, select_landmarks
from repro.search.dijkstra import shortest_costs


@pytest.fixture(scope="module")
def network():
    return road_network(250, dim=3, seed=21)


class TestSelectLandmarks:
    def test_count_respected(self, network):
        marks = select_landmarks(network, 5)
        assert len(marks) == 5
        assert len(set(marks)) == 5

    def test_capped_by_graph_size(self):
        g = road_network(30, dim=2, seed=3)
        marks = select_landmarks(g, 10_000)
        assert len(marks) <= g.num_nodes

    def test_landmarks_are_spread(self, network):
        # farthest-point landmarks should be pairwise far apart: the
        # minimum pairwise distance exceeds a tenth of the graph radius
        marks = select_landmarks(network, 4)
        dist = shortest_costs(network, marks[0], 0)
        radius = max(dist.values())
        for mark in marks[1:]:
            assert dist[mark] > radius / 10


class TestLandmarkIndex:
    def test_lower_bound_admissible(self, network):
        """Triangle bounds never exceed the true distance, per dim."""
        index = LandmarkIndex(network, 6)
        nodes = sorted(network.nodes())
        sample = nodes[:: max(1, len(nodes) // 15)]
        for source in sample[:5]:
            true = [
                shortest_costs(network, source, i) for i in range(network.dim)
            ]
            for target in sample:
                bound = index.lower_bound(source, target)
                for i in range(network.dim):
                    if target in true[i]:
                        assert bound[i] <= true[i][target] + 1e-9

    def test_bound_to_self_zero(self, network):
        index = LandmarkIndex(network, 3)
        node = next(iter(network.nodes()))
        assert index.lower_bound(node, node) == (0.0,) * network.dim

    def test_bound_exact_for_landmark(self, network):
        """From a landmark, the bound on its own dimension-0 distances
        is exact (the triangle inequality is tight)."""
        index = LandmarkIndex(network, 4)
        landmark = index.landmarks[0]
        true = shortest_costs(network, landmark, 0)
        for target in list(true)[:20]:
            assert index.lower_bound(landmark, target)[0] == pytest.approx(
                true[target]
            )

    def test_lower_bound_to_any_is_min(self, network):
        index = LandmarkIndex(network, 4)
        nodes = sorted(network.nodes())
        u, targets = nodes[0], nodes[5:8]
        multi = index.lower_bound_to_any(u, targets)
        singles = [index.lower_bound(u, t) for t in targets]
        for i in range(network.dim):
            assert multi[i] == pytest.approx(min(s[i] for s in singles))

    def test_bad_count(self, network):
        with pytest.raises(BuildError):
            LandmarkIndex(network, 0)

    def test_size_entries_positive(self, network):
        index = LandmarkIndex(network, 2)
        assert index.size_entries() >= 2 * network.dim * network.num_nodes * 0.5

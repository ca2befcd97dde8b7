"""Tests for the directed-network extension (paper Section 4.3.1)."""

from __future__ import annotations

import pytest

from repro.core.directed import DirectedBackboneIndex, project_undirected
from repro.core.params import BackboneParams
from repro.errors import BuildError, NodeNotFoundError
from repro.graph.generators import road_network
from repro.graph.mcrn import MultiCostGraph
from repro.search.bbs import skyline_paths
from repro.search.dijkstra import shortest_costs

from repro.graph.directed import to_directed

from tests.conftest import costs_of


@pytest.fixture(scope="module")
def directed_network():
    # The paper's directed regime: every road is two-way with mildly
    # asymmetric per-direction costs.  One-way roads are exercised by
    # the dedicated small-graph tests below (they degrade label chains
    # gracefully but can break long ones, which is documented).
    return to_directed(
        road_network(300, dim=3, seed=171), one_way_fraction=0.0, seed=171
    )


@pytest.fixture(scope="module")
def directed_index(directed_network):
    return DirectedBackboneIndex(
        directed_network, BackboneParams(m_max=30, m_min=5, p=0.12)
    )


class TestProjection:
    def test_projection_averages_both_directions(self, directed_network):
        projection = project_undirected(directed_network)
        assert not projection.directed
        assert projection.num_nodes == directed_network.num_nodes
        for u, v in list(projection.edge_pairs())[:20]:
            [stored] = projection.edge_costs(u, v)
            sources = []
            if directed_network.has_edge(u, v):
                sources += directed_network.edge_costs(u, v)
            if directed_network.has_edge(v, u):
                sources += directed_network.edge_costs(v, u)
            assert sources
            for i, value in enumerate(stored):
                expected = sum(c[i] for c in sources) / len(sources)
                assert value == pytest.approx(expected)

    def test_rejects_undirected_input(self):
        with pytest.raises(BuildError):
            project_undirected(MultiCostGraph(2))


class TestConstruction:
    def test_rejects_undirected_input(self):
        g = road_network(50, dim=2, seed=1)
        with pytest.raises(BuildError):
            DirectedBackboneIndex(g)

    def test_directed_top_graph(self, directed_index):
        top = directed_index.directed_top
        assert top.directed
        assert set(top.nodes()) == set(directed_index.inner.top_graph.nodes())


class TestQueries:
    def pairs(self, graph, count=4):
        nodes = sorted(graph.nodes())
        step = len(nodes) // (count + 1)
        return [(nodes[i * step], nodes[-(i * step + 1)]) for i in range(1, count)]

    def test_self_query(self, directed_index, directed_network):
        node = next(iter(directed_network.nodes()))
        result = directed_index.query(node, node)
        assert len(result.paths) == 1
        assert result.paths[0].is_trivial()

    def test_missing_nodes(self, directed_index):
        with pytest.raises(NodeNotFoundError):
            directed_index.query(-1, 0)

    def test_paths_are_valid_directed_walks(
        self, directed_index, directed_network
    ):
        found = 0
        for s, t in self.pairs(directed_network):
            for p in directed_index.query(s, t).paths:
                assert p.source == s and p.target == t
                # every consecutive pair must be a directed edge
                for u, v in zip(p.nodes, p.nodes[1:]):
                    assert directed_network.has_edge(u, v), (u, v)
                found += 1
        assert found > 0

    def test_costs_respect_directed_minima(
        self, directed_index, directed_network
    ):
        for s, t in self.pairs(directed_network):
            minima = [
                shortest_costs(directed_network, s, i).get(t)
                for i in range(3)
            ]
            for p in directed_index.query(s, t).paths:
                for i in range(3):
                    if minima[i] is not None:
                        assert p.cost[i] >= minima[i] - 1e-6

    def test_asymmetric_costs_produce_asymmetric_answers(
        self, directed_index, directed_network
    ):
        s, t = self.pairs(directed_network, 2)[0]
        forward = costs_of(directed_index.query(s, t).paths)
        backward = costs_of(directed_index.query(t, s).paths)
        # with asymmetric costs the two directions essentially never
        # produce identical cost sets
        assert forward and backward
        assert forward != backward

    def test_quality_against_directed_bbs(
        self, directed_index, directed_network
    ):
        """Directed BBS is exact on directed graphs; the directed
        backbone answers must stay in a sane RAC band against it."""
        from repro.eval.metrics import rac
        from repro.eval.queries import random_queries

        # long-haul queries: near pairs are the paper's acknowledged
        # weak spot for aggressive abstraction (Section 4.1)
        queries = random_queries(
            directed_index.projection, 4, seed=9, min_hops=12
        )
        from statistics import median

        values = []
        for q in queries:
            exact = skyline_paths(directed_network, q.source, q.target).paths
            approx = directed_index.query(q.source, q.target).paths
            if not exact or not approx:
                continue
            values.extend(rac(approx, exact))
        assert values
        # typical quality matches the undirected band; individual pairs
        # that meet at a shared condensed corridor can double back and
        # spike (a known weakness of label-chasing approximations)
        assert median(values) <= 2.5
        for value in values:
            assert 0.95 <= value <= 10.0

    def test_answers_through_a_shortcut_are_directed_walks(self):
        """Phase 3's middle path walks G_L, and the G_L edge 185 -> 114
        is a shortcut for 185, 319, 318, 114: answers crossing it must
        come back spliced into road-by-road walks."""
        graph = to_directed(
            road_network(400, dim=2, seed=5), one_way_fraction=0.1, seed=5
        )
        index = DirectedBackboneIndex(
            graph, BackboneParams(m_max=30, m_min=5, p=0.12)
        )
        assert index.directed_top.has_edge(185, 114)
        assert not graph.has_edge(185, 114)
        for source in (352, 324):
            paths = index.query(source, 118).paths
            assert paths
            for p in paths:
                assert p.source == source and p.target == 118
                for u, v in zip(p.nodes, p.nodes[1:]):
                    assert graph.has_edge(u, v), (u, v)

    def test_one_way_street_respected(self):
        """A network whose only cheap route is one-way must not be
        answered with the forbidden reverse traversal."""
        g = MultiCostGraph(2, directed=True)
        # two-way ring (expensive) + one-way shortcut 0 -> 3 (cheap)
        ring = [(0, 1), (1, 2), (2, 3)]
        for u, v in ring:
            g.add_edge(u, v, (5.0, 5.0))
            g.add_edge(v, u, (5.0, 5.0))
        g.add_edge(0, 3, (1.0, 1.0))  # one-way
        index = DirectedBackboneIndex(
            g, BackboneParams(m_max=4, m_min=1, p=0.2)
        )
        backward = index.query(3, 0).paths
        for p in backward:
            for u, v in zip(p.nodes, p.nodes[1:]):
                assert g.has_edge(u, v)
            assert p.cost[0] >= 15.0 - 1e-9  # must take the ring back

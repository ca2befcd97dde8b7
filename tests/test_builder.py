"""Tests for backbone index construction (Algorithm 2)."""

from __future__ import annotations

import pytest

from repro.core.builder import build_backbone_index, required_edge_removals
from repro.core.params import AggressiveMode, BackboneParams
from repro.errors import BuildError
from repro.graph.generators import road_network
from repro.graph.mcrn import MultiCostGraph
from repro.graph.traversal import is_connected
from repro.search.bbs import skyline_paths


@pytest.fixture(scope="module")
def network():
    return road_network(400, dim=3, seed=81)


def params(**kwargs) -> BackboneParams:
    defaults = dict(m_max=40, m_min=8, p=0.02)
    defaults.update(kwargs)
    return BackboneParams(**defaults)


class TestConstruction:
    def test_builds_with_defaults(self, network):
        index = build_backbone_index(network, params())
        assert index.height >= 1
        assert index.top_graph.num_nodes >= 1
        assert index.label_path_count() > 0

    def test_original_graph_untouched(self, network):
        nodes, edges = network.num_nodes, network.num_edge_entries
        build_backbone_index(network, params())
        assert network.num_nodes == nodes
        assert network.num_edge_entries == edges

    def test_top_graph_is_connected_if_input_was(self, network):
        assert is_connected(network)
        index = build_backbone_index(network, params())
        assert is_connected(index.top_graph)

    def test_level_stats_consistent(self, network):
        index = build_backbone_index(network, params())
        stats = index.build_stats
        assert len(stats.levels) == index.height
        assert stats.levels[0].nodes_before == network.num_nodes
        for level in stats.levels:
            assert level.removed_edges > 0
        # levels shrink monotonically
        sizes = [level.nodes_before for level in stats.levels]
        assert sizes == sorted(sizes, reverse=True)

    def test_deterministic(self, network):
        a = build_backbone_index(network, params())
        b = build_backbone_index(network, params())
        assert a.height == b.height
        assert sorted(a.top_graph.nodes()) == sorted(b.top_graph.nodes())
        assert a.label_path_count() == b.label_path_count()

    def test_empty_graph_rejected(self):
        with pytest.raises(BuildError):
            build_backbone_index(MultiCostGraph(2))

    def test_directed_graph_rejected(self):
        g = MultiCostGraph(2, directed=True)
        g.add_edge(0, 1, (1.0, 1.0))
        with pytest.raises(BuildError):
            build_backbone_index(g)

    def test_tiny_graph(self):
        g = MultiCostGraph(2)
        g.add_edge(0, 1, (1.0, 1.0))
        index = build_backbone_index(g, BackboneParams(m_max=5, m_min=1))
        assert index.top_graph.num_nodes >= 1

    def test_required_edge_removals(self, network):
        assert required_edge_removals(network, params(p=0.5)) == int(
            0.5 * network.num_edge_entries
        )


class TestVariants:
    def test_none_keeps_biggest_top_graph(self, network):
        """backbone_none keeps more nodes/edges in G_L (Section 6.2.1)."""
        none = build_backbone_index(
            network, params(aggressive=AggressiveMode.NONE)
        )
        each = build_backbone_index(
            network, params(aggressive=AggressiveMode.EACH)
        )
        assert none.top_graph.num_nodes >= each.top_graph.num_nodes

    def test_each_triggers_aggressive_on_some_level(self, network):
        index = build_backbone_index(
            network, params(aggressive=AggressiveMode.EACH)
        )
        assert any(level.aggressive_used for level in index.build_stats.levels)

    def test_none_never_aggressive(self, network):
        index = build_backbone_index(
            network, params(aggressive=AggressiveMode.NONE)
        )
        assert not any(
            level.aggressive_used for level in index.build_stats.levels
        )
        assert index.provenance == {}

    def test_max_levels_cap(self, network):
        index = build_backbone_index(network, params(max_levels=2))
        assert index.height <= 2


class TestParameterEffects:
    def test_larger_p_means_fewer_levels(self, network):
        small_p = build_backbone_index(network, params(p=0.01))
        large_p = build_backbone_index(network, params(p=0.2))
        assert large_p.height <= small_p.height

    def test_m_max_one_is_degenerate_but_legal(self, network):
        index = build_backbone_index(
            network, BackboneParams(m_max=2, m_min=1, p=0.02)
        )
        assert index.height >= 1


class TestWholeComponentClusters:
    """Regression: a dense cluster that is an entire connected component
    of the working graph has no highway entrance, and condensing it used
    to vacuum every node in it out of the index with no labels — queries
    inside the component silently returned empty skylines.

    The edge list below is the minimized reproduction found by
    ``repro qa shrink`` (fuzz seed 10 after its delete updates): a
    4-cycle component plus two isolated nodes.
    """

    EDGES = [
        (23, 42, (0.78, 60.3, 32.5, 80.3)),
        (12, 42, (0.87, 96.8, 32.0, 32.3)),
        (12, 39, (0.07, 12.6, 36.4, 74.6)),
        (23, 39, (0.57, 23.1, 48.4, 59.6)),
    ]

    def build(self):
        graph = MultiCostGraph(4)
        graph.add_node(13)
        graph.add_node(69)
        for u, v, cost in self.EDGES:
            graph.add_edge(u, v, cost)
        params = BackboneParams(m_max=10, m_min=2, p=0.2)
        return graph, build_backbone_index(graph, params)

    def test_every_node_stays_reachable_in_the_index(self):
        graph, index = self.build()
        accounted = set(index.top_graph.nodes())
        for level in index.levels:
            accounted |= set(level.nodes())
        assert accounted == set(graph.nodes())

    def test_intra_component_query_is_not_empty(self):
        from repro.core.query import backbone_query

        graph, index = self.build()
        result = backbone_query(index, 12, 23)
        assert result.paths
        exact = {p.cost for p in skyline_paths(graph, 12, 23).paths}
        assert {p.cost for p in result.paths} <= exact

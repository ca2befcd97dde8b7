"""Tests for level summarization: stripping, rounds, BFS partitions."""

from __future__ import annotations

from repro.core.labels import LevelIndex, record_label_rows
from repro.core.params import BackboneParams
from repro.core.summarize import (
    bfs_partitions,
    condense_round,
    fold_round,
    strip_degree_one,
)
from repro.graph.generators import road_network
from repro.graph.mcrn import MultiCostGraph
from repro.graph.traversal import connected_components

from tests.conftest import assert_valid_walk


def lollipop() -> MultiCostGraph:
    """A 4-cycle with a 3-node dangling chain at node 3."""
    g = MultiCostGraph(2)
    for u, v in [(0, 1), (1, 2), (2, 3), (3, 0)]:
        g.add_edge(u, v, (1.0, 2.0))
    g.add_edge(3, 10, (1.0, 1.0))
    g.add_edge(10, 11, (2.0, 2.0))
    g.add_edge(11, 12, (3.0, 3.0))
    return g


def strip_labels(result) -> LevelIndex:
    """The strip pass's priced rows as a level index."""
    index = LevelIndex()
    record_label_rows(index, result.plan.strip_rows)
    return index


class TestStripDegreeOne:
    def test_removes_the_tail(self):
        g = lollipop()
        result = strip_degree_one(g)
        assert result.removed_nodes == {10, 11, 12}
        assert set(g.nodes()) == {0, 1, 2, 3}
        assert g.degree(3) == 2

    def test_labels_point_to_surviving_anchor(self):
        g = lollipop()
        original = g.copy()
        labels = strip_labels(strip_degree_one(g))
        for node in (10, 11, 12):
            label = labels.get(node)
            assert label is not None
            assert set(label.entrances) == {3}
            for p in label.paths_to(3):
                assert p.source == node and p.target == 3
                assert_valid_walk(original, p)

    def test_label_costs_accumulate_along_chain(self):
        g = lollipop()
        [p] = strip_labels(strip_degree_one(g)).get(12).paths_to(3)
        assert p.cost == (6.0, 6.0)
        assert p.nodes == (12, 11, 10, 3)

    def test_parallel_edges_give_skyline_labels(self):
        g = MultiCostGraph(2)
        for u, v in [(0, 1), (1, 2), (2, 0)]:
            g.add_edge(u, v, (1.0, 1.0))
        g.add_edge(0, 10, (1.0, 9.0))
        g.add_edge(0, 10, (9.0, 1.0))
        paths = strip_labels(strip_degree_one(g)).get(10).paths_to(0)
        assert sorted(p.cost for p in paths) == [(1.0, 9.0), (9.0, 1.0)]

    def test_no_degree_one_noop(self):
        g = MultiCostGraph(1)
        for i in range(4):
            g.add_edge(i, (i + 1) % 4, (1.0,))
        result = strip_degree_one(g)
        assert not result.changed
        assert g.num_nodes == 4

    def test_records_removed_edges_with_costs(self):
        g = lollipop()
        original = g.copy()
        result = strip_degree_one(g)
        assert len(result.removed_edges) == 3
        for u, v, cost in result.removed_edges:
            assert cost in original.edge_costs(u, v)


class TestBfsPartitions:
    def test_every_node_in_exactly_one_chunk(self):
        g = road_network(300, dim=2, seed=71)
        clustering = bfs_partitions(g, 40)
        seen: set[int] = set()
        for chunk in clustering.clusters:
            assert not (chunk & seen)
            seen |= chunk
        assert seen == set(g.nodes())

    def test_chunk_sizes_bounded(self):
        g = road_network(300, dim=2, seed=71)
        clustering = bfs_partitions(g, 40)
        for chunk in clustering.clusters:
            assert len(chunk) <= 40

    def test_no_noise(self):
        g = road_network(200, dim=2, seed=71)
        assert bfs_partitions(g, 50).noise == set()


class TestCondenseRound:
    def test_shrinks_graph_and_reports(self):
        g = road_network(400, dim=3, seed=72)
        nodes_before = g.num_nodes
        edges_before = g.num_edge_entries
        result = condense_round(g, BackboneParams(m_max=40, m_min=5))
        assert result.changed
        assert g.num_nodes == nodes_before - len(result.removed_nodes)
        assert g.num_edge_entries == edges_before - len(result.removed_edges)

    def test_connectivity_never_degrades(self):
        g = road_network(400, dim=3, seed=73)
        before = len(connected_components(g))
        condense_round(g, BackboneParams(m_max=40, m_min=5))
        assert len(connected_components(g)) <= before

    def test_all_removed_nodes_labelled_or_isolated(self):
        g = road_network(400, dim=3, seed=74)
        original = g.copy()
        result = condense_round(g, BackboneParams(m_max=40, m_min=5))
        labels = fold_round(result.plan)
        surviving = set(g.nodes())
        labelled = 0
        for node in result.removed_nodes:
            label = labels.get(node)
            if label is None:
                continue  # unreachable via removed edges: acceptable, rare
            labelled += 1
            for entrance in label.entrances:
                assert entrance in surviving
        # the overwhelming majority of removed nodes must carry labels
        assert labelled >= 0.95 * len(result.removed_nodes)

    def test_label_paths_are_walks_in_the_level_graph(self):
        g = road_network(300, dim=3, seed=75)
        original = g.copy()
        result = condense_round(g, BackboneParams(m_max=30, m_min=5))
        labels = fold_round(result.plan)
        checked = 0
        for node in list(labels.nodes())[:40]:
            label = labels.get(node)
            for entrance, paths in label.entrances.items():
                for p in paths:
                    assert p.source == node and p.target == entrance
                    assert_valid_walk(original, p)
                    checked += 1
        assert checked > 0

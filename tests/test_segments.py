"""Tests for single segments and aggressive summarization (Def. 3.5)."""

from __future__ import annotations

from repro.core.builder import LevelPlan
from repro.core.labels import LevelIndex, record_label_rows
from repro.core.segments import condense_segments, find_single_segments
from repro.graph.mcrn import MultiCostGraph
from repro.graph.traversal import connected_components

from tests.conftest import assert_valid_walk


def segment_labels(result) -> LevelIndex:
    """The condensed segments' label rows as a level index."""
    index = LevelIndex()
    for piece in result.pieces:
        record_label_rows(index, piece.rows)
    return index


def shortcut_count(result) -> int:
    return sum(
        len(piece.shortcut_costs) for piece in result.pieces if piece.has_shortcut
    )


def add_k4(g: MultiCostGraph, base: int) -> None:
    """A K4 block: every node has degree >= 3, so no loop segments."""
    nodes = [base, base + 1, base + 2, base + 3]
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            g.add_edge(u, v, (1.0,) * g.dim)


def barbell(chain_length: int) -> MultiCostGraph:
    """Two K4 blocks connected by a degree-2 chain of given length."""
    g = MultiCostGraph(2)
    add_k4(g, 0)
    add_k4(g, 100)
    prev = 0
    for i in range(chain_length):
        node = 10 + i
        g.add_edge(prev, node, (2.0, 3.0))
        prev = node
    g.add_edge(prev, 100, (2.0, 3.0))
    return g


class TestDetection:
    def test_barbell_chain_detected(self):
        g = barbell(3)
        segments = find_single_segments(g)
        assert len(segments) == 1
        seg = segments[0]
        assert {seg.left, seg.right} == {0, 100}
        assert set(seg.interior) == {10, 11, 12}

    def test_no_segments_in_dense_graph(self):
        g = MultiCostGraph(1)
        for u in range(4):
            for v in range(u + 1, 4):
                g.add_edge(u, v, (1.0,))
        assert find_single_segments(g) == []

    def test_pure_cycle_skipped(self):
        g = MultiCostGraph(1)
        for i in range(5):
            g.add_edge(i, (i + 1) % 5, (1.0,))
        assert find_single_segments(g) == []

    def test_single_interior_node(self):
        g = barbell(1)
        segments = find_single_segments(g)
        assert len(segments) == 1
        assert segments[0].interior == [10]

    def test_dangling_chain_not_a_segment(self):
        # a run ending at a degree-1 node belongs to degree-1 stripping
        g = MultiCostGraph(1)
        add_k4(g, 0)
        g.add_edge(0, 10, (1.0,))
        g.add_edge(10, 11, (1.0,))
        assert find_single_segments(g) == []

    def test_degree_two_loop_detected_as_segment(self):
        # a cul-de-sac circle: all loop nodes degree 2, anchored at a
        # degree->=3 junction on both sides (left == right)
        g = MultiCostGraph(1)
        add_k4(g, 0)
        g.add_edge(0, 10, (1.0,))
        g.add_edge(10, 11, (1.0,))
        g.add_edge(11, 0, (1.0,))
        segments = find_single_segments(g)
        assert len(segments) == 1
        assert segments[0].left == segments[0].right == 0

    def test_multiple_segments_share_junction(self):
        # three chains radiating between K4 blocks and a center junction
        g = MultiCostGraph(1)
        hubs = [0, 100, 200]
        for base in hubs:
            add_k4(g, base)
        center = 500
        for i, base in enumerate(hubs):
            a = 600 + 10 * i
            g.add_edge(base, a, (1.0,))
            g.add_edge(a, center, (1.0,))
        segments = find_single_segments(g)
        assert len(segments) == 3


class TestCondense:
    def test_shortcut_cost_is_chain_sum(self):
        g = barbell(3)
        result = condense_segments(g, find_single_segments(g))
        assert g.has_edge(0, 100)
        costs = g.edge_costs(0, 100)
        assert costs == [(8.0, 12.0)]  # 4 edges of (2,3)
        assert result.removed_nodes == {10, 11, 12}
        assert not g.has_node(10)

    def test_interior_labels_to_both_endpoints(self):
        g = barbell(3)
        original = g.copy()
        result = condense_segments(g, find_single_segments(g))
        label = segment_labels(result).get(11)
        assert label is not None
        assert set(label.entrances) == {0, 100}
        for entrance, paths in label.entrances.items():
            for p in paths:
                assert p.source == 11 and p.target == entrance
                assert_valid_walk(original, p)

    def test_provenance_records_chain(self):
        g = barbell(2)
        result = condense_segments(g, find_single_segments(g))
        provenance = LevelPlan(segments=result.pieces).provenance()
        [(key, sequence)] = list(provenance.items())
        u, w, cost = key
        assert {u, w} == {0, 100}
        assert set(sequence) >= {10, 11}
        assert cost == (6.0, 9.0)

    def test_connectivity_preserved(self):
        g = barbell(4)
        before = len(connected_components(g))
        condense_segments(g, find_single_segments(g))
        assert len(connected_components(g)) == before

    def test_parallel_edges_in_chain_give_skyline_shortcut(self):
        g = MultiCostGraph(2)
        add_k4(g, 0)
        add_k4(g, 100)
        g.add_edge(0, 10, (1.0, 9.0))
        g.add_edge(0, 10, (9.0, 1.0))
        g.add_edge(10, 100, (1.0, 1.0))
        result = condense_segments(g, find_single_segments(g))
        costs = sorted(g.edge_costs(0, 100))
        assert costs == [(2.0, 10.0), (10.0, 2.0)]
        assert shortcut_count(result) == 2

    def test_removed_edges_reported_with_costs(self):
        g = barbell(2)
        original = g.copy()
        result = condense_segments(g, find_single_segments(g))
        for u, v, cost in result.removed_edges:
            assert cost in original.edge_costs(u, v)

    def test_loop_segment_labels_without_self_shortcut(self):
        g = MultiCostGraph(1)
        add_k4(g, 0)
        g.add_edge(0, 10, (1.0,))
        g.add_edge(10, 11, (1.0,))
        g.add_edge(11, 0, (1.0,))
        result = condense_segments(g, find_single_segments(g))
        assert result.removed_nodes == {10, 11}
        assert not g.has_node(10)
        assert not g.has_edge(0, 0) if g.has_node(0) else True
        labels = segment_labels(result)
        for node in (10, 11):
            label = labels.get(node)
            assert label is not None
            assert set(label.entrances) == {0}

    def test_shortcut_parallel_to_existing_edge(self):
        # endpoints already share a direct edge; the shortcut joins the
        # parallel skyline (or is pruned if dominated)
        g = MultiCostGraph(2)
        add_k4(g, 0)
        add_k4(g, 100)
        g.add_edge(0, 100, (1.0, 1.0))  # direct cheap edge
        g.add_edge(0, 10, (5.0, 0.1))
        g.add_edge(10, 100, (5.0, 0.1))
        result = condense_segments(g, find_single_segments(g))
        costs = sorted(g.edge_costs(0, 100))
        assert (1.0, 1.0) in costs
        assert (10.0, 0.2) in costs  # incomparable: survives
        assert shortcut_count(result) == 1

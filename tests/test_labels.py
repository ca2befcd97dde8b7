"""Tests for the label structures I_i and their composition (absorb)."""

from __future__ import annotations

from repro.core.labels import LevelIndex, NodeLabel, build_cluster_labels
from repro.graph.mcrn import MultiCostGraph
from repro.paths.path import Path

from tests.conftest import assert_valid_walk


class TestNodeLabel:
    def test_add_and_query(self):
        label = NodeLabel(1)
        p = Path((1, 2, 3), (2.0, 2.0))
        assert label.add_path(3, p)
        assert label.paths_to(3) == [p]
        assert label.paths_to(9) == []
        assert label.path_count() == 1

    def test_skyline_per_entrance(self):
        label = NodeLabel(1)
        label.add_path(3, Path((1, 2, 3), (1.0, 5.0)))
        assert label.add_path(3, Path((1, 4, 3), (5.0, 1.0)))
        assert not label.add_path(3, Path((1, 5, 3), (6.0, 6.0)))
        assert label.path_count() == 2


class TestLevelIndex:
    def test_self_paths_rejected(self):
        index = LevelIndex()
        assert not index.add_path(1, 1, Path((1,), (0.0,)))
        assert index.get(1) is None

    def test_counts(self):
        index = LevelIndex()
        index.add_path(1, 3, Path((1, 3), (1.0,)))
        index.add_path(1, 4, Path((1, 4), (1.0,)))
        index.add_path(2, 3, Path((2, 3), (1.0,)))
        assert len(index) == 2
        assert index.path_count() == 3
        assert index.entrance_count() == 3
        assert 1 in index and 9 not in index

    def test_absorb_retargets_stale_entrances(self):
        # level paths: 1 -> 5 (entrance); a later round removes 5 with
        # label 5 -> 9; absorbed label must read 1 -> 9 via 5.
        index = LevelIndex()
        index.add_path(1, 5, Path((1, 5), (1.0, 1.0)))
        later = LevelIndex()
        later.add_path(5, 9, Path((5, 7, 9), (2.0, 3.0)))
        index.absorb(later, surviving={9})
        label = index.get(1)
        assert set(label.entrances) == {9}
        [p] = label.paths_to(9)
        assert p.nodes == (1, 5, 7, 9)
        assert p.cost == (3.0, 4.0)

    def test_absorb_keeps_surviving_entrances(self):
        index = LevelIndex()
        index.add_path(1, 5, Path((1, 5), (1.0,)))
        index.absorb(LevelIndex(), surviving={5})
        assert set(index.get(1).entrances) == {5}

    def test_absorb_drops_unreachable_stale_entrances(self):
        index = LevelIndex()
        index.add_path(1, 5, Path((1, 5), (1.0,)))
        index.absorb(LevelIndex(), surviving={9})  # 5 gone, no extension
        label = index.get(1)
        assert label is None or not label.entrances

    def test_absorb_merges_new_labels(self):
        index = LevelIndex()
        later = LevelIndex()
        later.add_path(2, 7, Path((2, 7), (1.0,)))
        index.absorb(later, surviving={7})
        assert index.get(2) is not None

    def test_absorb_skips_cycle_back_to_self(self):
        # extension ending at the label's own node must not create a
        # self-entrance
        index = LevelIndex()
        index.add_path(1, 5, Path((1, 5), (1.0,)))
        later = LevelIndex()
        later.add_path(5, 1, Path((5, 1), (1.0,)))
        later.add_path(5, 9, Path((5, 9), (1.0,)))
        index.absorb(later, surviving={1, 9})
        label = index.get(1)
        assert 1 not in label.entrances
        assert 9 in label.entrances

    def test_absorb_prunes_dominated_compositions(self):
        index = LevelIndex()
        index.add_path(1, 5, Path((1, 5), (1.0, 1.0)))
        index.add_path(1, 6, Path((1, 6), (10.0, 10.0)))
        later = LevelIndex()
        later.add_path(5, 9, Path((5, 9), (1.0, 1.0)))
        later.add_path(6, 9, Path((6, 9), (1.0, 1.0)))
        index.absorb(later, surviving={9})
        paths = index.get(1).paths_to(9)
        assert [p.cost for p in paths] == [(2.0, 2.0)]


class TestBuildClusterLabels:
    def graph_and_cluster(self):
        """A 5-node cluster; removed edges form a path 10-11-12-13-14
        plus a chord, entrances are 10 and 14."""
        g = MultiCostGraph(2)
        removed = [
            (10, 11, (1.0, 4.0)),
            (11, 12, (1.0, 4.0)),
            (12, 13, (1.0, 4.0)),
            (13, 14, (1.0, 4.0)),
            (11, 13, (5.0, 1.0)),
        ]
        cluster = {10, 11, 12, 13, 14}
        return g, cluster, removed

    def test_every_node_labelled_to_reachable_entrances(self):
        g, cluster, removed = self.graph_and_cluster()
        index = LevelIndex()
        build_cluster_labels(2, cluster, removed, {10, 14}, into=index)
        for node in (11, 12, 13):
            label = index.get(node)
            assert set(label.entrances) == {10, 14}

    def test_entrance_to_entrance_paths_exist(self):
        g, cluster, removed = self.graph_and_cluster()
        index = LevelIndex()
        build_cluster_labels(2, cluster, removed, {10, 14}, into=index)
        label = index.get(10)
        assert label is not None and 14 in label.entrances

    def test_paths_use_removed_edges_only(self):
        g, cluster, removed = self.graph_and_cluster()
        restricted = MultiCostGraph(2)
        for u, v, cost in removed:
            restricted.add_edge(u, v, cost)
        index = LevelIndex()
        build_cluster_labels(2, cluster, removed, {10, 14}, into=index)
        for node in index.nodes():
            label = index.get(node)
            for paths in label.entrances.values():
                for p in paths:
                    assert_valid_walk(restricted, p)

    def test_skyline_through_chord(self):
        g, cluster, removed = self.graph_and_cluster()
        index = LevelIndex()
        build_cluster_labels(2, cluster, removed, {10, 14}, into=index)
        costs = {p.cost for p in index.get(10).paths_to(14)}
        # straight path (4, 16) and the chord route 10-11-13-14 (7, 9)
        assert (4.0, 16.0) in costs
        assert (7.0, 9.0) in costs

    def test_empty_inputs_noop(self):
        index = LevelIndex()
        build_cluster_labels(2, {1, 2}, [], {1}, into=index)
        assert len(index) == 0
        build_cluster_labels(2, {1, 2}, [(1, 2, (1.0, 1.0))], set(), into=index)
        assert len(index) == 0

"""Tests for dynamic index maintenance."""

from __future__ import annotations

import pytest

from repro.core.builder import build_backbone_index
from repro.core.maintenance import MaintainableIndex
from repro.core.params import BackboneParams
from repro.errors import EdgeNotFoundError, GraphError, NodeNotFoundError
from repro.graph.generators import road_network
from repro.graph.mcrn import MultiCostGraph
from repro.paths.path import Path
from repro.qa.invariants import index_identity_errors
from repro.search.dijkstra import shortest_costs

from tests.conftest import assert_valid_walk


def make_maintainer(seed=111, n=250):
    graph = road_network(n, dim=3, seed=seed)
    return MaintainableIndex(graph, BackboneParams(m_max=25, m_min=5, p=0.05))


@pytest.fixture(scope="module")
def maintainer():
    return make_maintainer()


def check_query_sound(m, s, t):
    """Query succeeds and never beats the exact per-dimension minima."""
    paths = m.query(s, t)
    assert paths
    minima = [shortest_costs(m.graph, s, i).get(t) for i in range(3)]
    for p in paths:
        for i in range(3):
            if minima[i] is not None:
                assert p.cost[i] >= minima[i] - 1e-6
    return paths


class TestEdgeOperations:
    def test_insert_edge(self):
        m = make_maintainer(seed=112)
        nodes = sorted(m.graph.nodes())
        s, t = nodes[1], nodes[-2]
        # add a superhighway directly between the endpoints
        m.insert_edge(s, t, (0.5, 0.5, 0.5))
        assert m.graph.has_edge(s, t)
        paths = check_query_sound(m, s, t)
        # the new edge dominates everything: it must be the single answer
        assert any(abs(p.cost[0] - 0.5) < 1e-6 for p in paths)

    def test_delete_edge(self):
        m = make_maintainer(seed=113)
        u, v = next(iter(m.graph.edge_pairs()))
        m.delete_edge(u, v)
        assert not m.graph.has_edge(u, v)
        nodes = sorted(m.graph.nodes())
        check_query_sound(m, nodes[0], nodes[-1])

    def test_delete_missing_edge(self, maintainer):
        with pytest.raises(EdgeNotFoundError):
            maintainer.delete_edge(-1, -2)

    def test_update_edge_cost_reflected(self):
        m = make_maintainer(seed=114)
        nodes = sorted(m.graph.nodes())
        s, t = nodes[1], nodes[-2]
        before = {p.cost for p in m.query(s, t)}
        u, v = next(iter(m.graph.edge_pairs()))
        old = m.graph.edge_costs(u, v)[0]
        m.update_edge_cost(u, v, old, tuple(c * 50 for c in old))
        assert tuple(c * 50 for c in old) in m.graph.edge_costs(u, v)
        check_query_sound(m, s, t)

    def test_stats_track_updates(self):
        m = make_maintainer(seed=115)
        u, v = next(iter(m.graph.edge_pairs()))
        old = m.graph.edge_costs(u, v)[0]
        m.update_edge_cost(u, v, old, tuple(c + 1 for c in old))
        assert m.maintenance_stats.updates == 1


class TestNodeOperations:
    def test_insert_node(self):
        m = make_maintainer(seed=116)
        nodes = sorted(m.graph.nodes())
        new = max(nodes) + 1
        m.insert_node(new, [(nodes[0], (1.0, 1.0, 1.0))])
        assert m.graph.has_node(new)
        paths = m.query(new, nodes[0])
        assert paths and paths[0].cost == (1.0, 1.0, 1.0)

    def test_insert_existing_node_rejected(self, maintainer):
        node = next(iter(maintainer.graph.nodes()))
        with pytest.raises(GraphError):
            maintainer.insert_node(node, [(node, (1.0, 1.0, 1.0))])

    def test_insert_isolated_node_rejected(self, maintainer):
        with pytest.raises(GraphError):
            maintainer.insert_node(10**6, [])

    def test_delete_node(self):
        m = make_maintainer(seed=117)
        nodes = sorted(m.graph.nodes())
        victim = nodes[len(nodes) // 2]
        m.delete_node(victim)
        assert not m.graph.has_node(victim)
        # remaining network still answers queries
        others = [n for n in nodes if n != victim]
        check_query_sound(m, others[0], others[-1])

    def test_delete_missing_node(self, maintainer):
        with pytest.raises(NodeNotFoundError):
            maintainer.delete_node(-99)


class TestReplayEconomy:
    def test_deep_edge_update_avoids_full_rebuild(self):
        """A cost update to an edge surviving into higher levels is
        repaired in place: no level replays."""
        m = make_maintainer(seed=118)
        index = m.index
        # pick an edge of a mid-level snapshot graph
        deep_edge = None
        for level in range(index.height - 1, 0, -1):
            snapshot = m._snapshots[level]
            if snapshot.num_edges:
                deep_edge = (level, next(iter(snapshot.edge_pairs())))
                break
        if deep_edge is None:
            pytest.skip("index too shallow for a deep edge")
        level, (u, v) = deep_edge
        old = m.graph.edge_costs(u, v)[0]
        m.update_edge_cost(u, v, old, tuple(c * 2 for c in old))
        assert m.maintenance_stats.full_rebuilds == 0
        assert m.maintenance_stats.levels_replayed == 0
        assert m.maintenance_stats.local_repairs == 1
        nodes = sorted(m.graph.nodes())
        check_query_sound(m, nodes[0], nodes[-1])

    def test_local_repair_shares_untouched_levels(self):
        m = make_maintainer(seed=119)
        before = m.index
        old_levels = list(before.levels)
        # an original road first read above level 0
        u, v = next(
            pair for pair in sorted(m.graph.edge_pairs())
            if m._reader_level({pair}) not in (None, 0)
        )
        old = m.graph.edge_costs(u, v)[0]
        m.update_edge_cost(u, v, old, tuple(c * 1.25 for c in old))
        assert m.maintenance_stats.local_repairs == 1
        # The published index is new; levels below the edge are shared,
        # and the old index's levels were not mutated.
        assert m.index is not before
        assert before.levels == old_levels
        assert m.index.levels[0] is old_levels[0]

    def test_rejected_update_changes_nothing(self):
        m = make_maintainer(seed=120)
        u, v = next(iter(m.graph.edge_pairs()))
        index, generation = m.index, m.generation
        with pytest.raises(EdgeNotFoundError):
            m.update_edge_cost(u, v, (-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
        with pytest.raises(GraphError):
            old = m.graph.edge_costs(u, v)[0]
            m.update_edge_cost(u, v, old, (float("nan"), 1.0, 1.0))
        assert m.index is index and m.generation == generation

    def test_index_without_levels_takes_every_update(self):
        # K4 has nothing to condense, so the index keeps no level and
        # no snapshot; updates re-derive only the graph and the top.
        g = MultiCostGraph(2)
        for u in range(4):
            for v in range(u + 1, 4):
                g.add_edge(u, v, (1.0 + u, 2.0 + v))
        params = BackboneParams(m_max=8, m_min=1, p=0.1)
        m = MaintainableIndex(g, params)
        assert m.index.height == 0
        m.update_edge_cost(0, 1, (1.0, 3.0), (2.0, 3.0))
        m.delete_edge(2, 3)
        m.insert_edge(2, 3, (1.0, 1.0))
        fresh = build_backbone_index(m.graph, params)
        assert index_identity_errors(fresh, m.index) == []


class TestShortcutResurrection:
    """Regression: a summarization shortcut dominated by a parallel edge
    was never stored in the level graph, and cost updates and deletes
    mutated only the edge in the kept snapshots, so the shortcut never
    came back.  Snapshots now re-derive a touched pair as the skyline of
    the costs carried from below and the level's recorded shortcuts.
    """

    GRAPH = dict(n=300, dim=3, seed=171)
    WIDE = BackboneParams(m_max=40, m_min=4, p=0.12)
    NARROW = BackboneParams(m_max=25, m_min=4, p=0.05)

    def maintainer(self, params):
        graph = road_network(
            self.GRAPH["n"], dim=self.GRAPH["dim"], seed=self.GRAPH["seed"]
        )
        return MaintainableIndex(graph, params)

    def assert_fresh(self, m, params):
        fresh = build_backbone_index(m.graph, params)
        assert index_identity_errors(fresh, m.index) == []

    def scale(self, m, u, v, factor):
        old = m.graph.edge_costs(u, v)[0]
        m.update_edge_cost(u, v, old, tuple(c * factor for c in old))

    def test_costlier_edge_brings_back_its_shortcut(self):
        m = self.maintainer(self.WIDE)
        self.scale(m, 4, 165, 2.0)
        costs = m._snapshots[2].edge_costs(4, 165)
        assert len(costs) == 2
        assert (4, 10, 165) in {
            m.index.provenance[(4, 165, cost)]
            for cost in costs
            if (4, 165, cost) in m.index.provenance
        }
        self.assert_fresh(m, self.WIDE)

    def test_costlier_edge_brings_back_its_shortcut_higher_up(self):
        m = self.maintainer(self.NARROW)
        self.scale(m, 20, 99, 1.25)
        assert len(m._snapshots[3].edge_costs(20, 99)) == 2
        self.assert_fresh(m, self.NARROW)

    def test_deleted_edge_leaves_its_shortcut(self):
        m = self.maintainer(self.WIDE)
        m.delete_edge(4, 165)
        [cost] = m._snapshots[2].edge_costs(4, 165)
        assert m.index.provenance[(4, 165, cost)] == (4, 10, 165)


class TestSnapshotPropagation:
    """Regression: replaying an update from level k used to leave the
    snapshots *below* k holding pre-update state; a later update
    replaying from one of those lower levels then resummarized from the
    stale snapshot and resurrected the old edge costs into the rebuilt
    index, so queries priced paths the current graph cannot achieve.
    """

    @staticmethod
    def ladder(rungs):
        g = MultiCostGraph(2)
        for i in range(rungs - 1):
            g.add_edge(2 * i, 2 * (i + 1), (1.0, 2.0))
            g.add_edge(2 * i + 1, 2 * (i + 1) + 1, (2.0, 1.0))
        for i in range(rungs):
            g.add_edge(2 * i, 2 * i + 1, (1.0, 1.0))
        return g

    def test_stale_lower_snapshots_do_not_resurrect_old_costs(self):
        m = MaintainableIndex(
            self.ladder(5), BackboneParams(m_max=6, m_min=1, p=0.15)
        )
        m.insert_edge(4, 1, (5.0, 5.0))
        for u, v in ((1, 3), (4, 6)):
            old = m.graph.edge_costs(u, v)[0]
            m.update_edge_cost(u, v, old, tuple(c * 1.5 for c in old))

        paths = m.query(0, 9)
        assert paths
        for path in paths:
            walk = path
            if not path.is_trivial():
                walk = Path(m.index.expand_path(path).nodes, path.cost)
            # Pre-fix this reported cost (9.0, 5.0) along 0-1-3-5-7-9,
            # achievable only with the pre-bump cost of edge (1, 3).
            assert_valid_walk(m.graph, walk)

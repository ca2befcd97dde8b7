"""White-box tests for Algorithm 2's level loop (summarize_levels)."""

from __future__ import annotations

import pytest

from repro.core.builder import (
    required_edge_removals,
    summarize_levels,
)
from repro.core.params import AggressiveMode, BackboneParams
from repro.graph.generators import road_network
from repro.graph.mcrn import MultiCostGraph
from repro.graph.traversal import connected_components


@pytest.fixture()
def network():
    return road_network(300, dim=3, seed=241)


def params(**kwargs) -> BackboneParams:
    defaults = dict(m_max=25, m_min=5, p=0.1)
    defaults.update(kwargs)
    return BackboneParams(**defaults)


class TestLevelLoop:
    def test_outcome_shapes_consistent(self, network):
        work = network.copy()
        p = params()
        outcome = summarize_levels(work, p, required_edge_removals(network, p))
        assert len(outcome.levels) == len(outcome.level_stats)
        assert len(outcome.levels) == len(outcome.plans)
        assert outcome.final_graph is work

    def test_snapshots_on_request(self, network):
        work = network.copy()
        p = params()
        outcome = summarize_levels(
            work,
            p,
            required_edge_removals(network, p),
            keep_snapshots=True,
        )
        assert len(outcome.snapshots) == len(outcome.levels)
        # the first snapshot is the original input graph
        assert outcome.snapshots[0].num_nodes == network.num_nodes
        # snapshots shrink monotonically
        sizes = [snap.num_nodes for snap in outcome.snapshots]
        assert sizes == sorted(sizes, reverse=True)

    def test_no_snapshots_by_default(self, network):
        work = network.copy()
        p = params()
        outcome = summarize_levels(work, p, required_edge_removals(network, p))
        assert outcome.snapshots == []

    def test_level_offset_only_relabels(self, network):
        p = params()
        required = required_edge_removals(network, p)
        plain = summarize_levels(network.copy(), p, required)
        shifted = summarize_levels(network.copy(), p, required, level_offset=3)
        assert len(plain.levels) == len(shifted.levels)
        assert [s.level for s in shifted.level_stats] == [
            s.level + 3 for s in plain.level_stats
        ]

    def test_removal_quota_terminates_loop(self, network):
        """An unreachable quota stops after the first level."""
        p = params()
        huge_quota = network.num_edge_entries * 10
        outcome = summarize_levels(network.copy(), p, huge_quota)
        assert len(outcome.levels) <= 1

    def test_connectivity_never_broken(self, network):
        work = network.copy()
        before = len(connected_components(network))
        p = params()
        summarize_levels(work, p, required_edge_removals(network, p))
        assert len(connected_components(work)) <= before

    def test_labels_target_survivors_of_their_level(self, network):
        """Every level-i label entrance is a node of G_{i+1} — either it
        survives to the top graph or it carries a label at some later
        level (it was condensed then)."""
        work = network.copy()
        p = params()
        outcome = summarize_levels(
            work, p, required_edge_removals(network, p), keep_snapshots=True
        )
        top_nodes = set(work.nodes())
        later_labelled = [set() for _ in outcome.levels]
        acc: set[int] = set()
        for i in range(len(outcome.levels) - 1, -1, -1):
            later_labelled[i] = set(acc)
            acc |= set(outcome.levels[i].nodes())
        for i, level in enumerate(outcome.levels):
            for node in level.nodes():
                label = level.get(node)
                for entrance in label.entrances:
                    assert (
                        entrance in top_nodes or entrance in later_labelled[i]
                    ), (i, node, entrance)

    def test_aggressive_none_records_no_provenance(self, network):
        p = params(aggressive=AggressiveMode.NONE)
        outcome = summarize_levels(
            network.copy(), p, required_edge_removals(network, p)
        )
        assert all(not plan.provenance() for plan in outcome.plans)

    def test_required_edge_removals_floor(self):
        g = MultiCostGraph(2)
        g.add_edge(0, 1, (1.0, 1.0))
        assert required_edge_removals(g, params()) == 1

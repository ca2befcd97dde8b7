"""Tests for backbone query processing (Algorithm 3) and one-to-all."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import build_backbone_index
from repro.core.params import AggressiveMode, BackboneParams
from repro.core.query import (
    backbone_one_to_all,
    backbone_query,
    backbone_query_shared_source,
)
from repro.errors import NodeNotFoundError
from repro.eval.metrics import goodness, rac
from repro.graph.generators import road_network
from repro.paths.dominance import dominates
from repro.search.bbs import skyline_paths
from repro.search.dijkstra import shortest_costs

from tests.conftest import assert_valid_walk


@pytest.fixture(scope="module")
def network():
    return road_network(350, dim=3, seed=101)


@pytest.fixture(scope="module")
def index(network):
    return build_backbone_index(
        network, BackboneParams(m_max=35, m_min=6, p=0.05)
    )


@pytest.fixture(scope="module")
def plain_index(network):
    """No aggressive summarization: every label path is an original walk."""
    return build_backbone_index(
        network,
        BackboneParams(m_max=35, m_min=6, p=0.05, aggressive=AggressiveMode.NONE),
    )


def sample_pairs(network, count=6):
    nodes = sorted(network.nodes())
    step = len(nodes) // (count + 1)
    return [(nodes[i * step], nodes[-(i * step + 1)]) for i in range(1, count)]


class TestBasics:
    def test_self_query(self, index, network):
        node = next(iter(network.nodes()))
        result = backbone_query(index, node, node)
        assert len(result.paths) == 1
        assert result.paths[0].is_trivial()

    def test_missing_nodes(self, index):
        with pytest.raises(NodeNotFoundError):
            backbone_query(index, -1, 0)

    def test_returns_nonempty_for_connected_pairs(self, index, network):
        for s, t in sample_pairs(network):
            result = backbone_query(index, s, t)
            assert result.paths, (s, t)

    def test_endpoints_correct(self, index, network):
        for s, t in sample_pairs(network, 4):
            for p in backbone_query(index, s, t).paths:
                assert p.source == s and p.target == t

    def test_results_mutually_nondominated(self, index, network):
        for s, t in sample_pairs(network, 4):
            paths = backbone_query(index, s, t).paths
            for i, a in enumerate(paths):
                for j, b in enumerate(paths):
                    if i != j:
                        assert not dominates(a.cost, b.cost)

    def test_stats_populated(self, index, network):
        s, t = sample_pairs(network, 2)[0]
        result = backbone_query(index, s, t)
        assert result.stats.elapsed_seconds > 0
        assert result.stats.source_keys >= 1
        assert result.stats.target_keys >= 1


class TestSoundness:
    def test_costs_bounded_below_by_dimension_minima(self, index, network):
        """Approximate costs can never beat the exact minima."""
        for s, t in sample_pairs(network, 4):
            minima = [shortest_costs(network, s, i)[t] for i in range(3)]
            for p in backbone_query(index, s, t).paths:
                for i in range(3):
                    assert p.cost[i] >= minima[i] - 1e-6

    def test_paths_without_aggressive_are_real_walks(self, plain_index, network):
        for s, t in sample_pairs(network, 4):
            for p in backbone_query(plain_index, s, t).paths:
                assert_valid_walk(network, p)

    def test_quality_against_exact(self, index, network):
        """RAC stays within the paper's observed band (1.0 - ~2.5)."""
        racs, goods = [], []
        for s, t in sample_pairs(network, 5):
            exact = skyline_paths(network, s, t).paths
            approx = backbone_query(index, s, t).paths
            if not exact or not approx:
                continue
            racs.append(rac(approx, exact))
            goods.append(goodness(approx, exact))
        assert racs
        for per_dim in racs:
            for value in per_dim:
                assert 0.99 <= value < 4.0
        assert sum(goods) / len(goods) > 0.7


class TestOneToAll:
    def test_covers_most_of_the_graph(self, index, network):
        source = sorted(network.nodes())[0]
        answers = backbone_one_to_all(index, source)
        assert len(answers) >= 0.9 * network.num_nodes

    def test_source_maps_to_trivial(self, index, network):
        source = sorted(network.nodes())[0]
        answers = backbone_one_to_all(index, source)
        assert any(p.is_trivial() for p in answers[source])

    def test_costs_bounded_below(self, index, network):
        source = sorted(network.nodes())[0]
        answers = backbone_one_to_all(index, source)
        minima = [shortest_costs(network, source, i) for i in range(3)]
        checked = 0
        for target, paths in list(answers.items())[:50]:
            if target == source:
                continue
            for p in paths:
                for i in range(3):
                    assert p.cost[i] >= minima[i][target] - 1e-6
                checked += 1
        assert checked > 0

    def test_endpoints(self, index, network):
        source = sorted(network.nodes())[0]
        answers = backbone_one_to_all(index, source)
        for target, paths in list(answers.items())[:50]:
            for p in paths:
                assert p.source == source and p.target == target

    def test_missing_source(self, index):
        with pytest.raises(NodeNotFoundError):
            backbone_one_to_all(index, -5)


class TestBudget:
    """An expired time budget must cost nothing and hide nothing.

    Regression: ``backbone_query`` used to pay for the first grow
    iteration (and could return its partial harvest) even when called
    with a budget that had already expired.
    """

    @pytest.mark.parametrize("budget", [0.0, -1.0])
    def test_expired_budget_truncates_immediately(
        self, index, network, budget
    ):
        nodes = sorted(network.nodes())
        result = backbone_query(
            index, nodes[0], nodes[-1], time_budget=budget
        )
        assert result.truncated
        assert result.paths == []
        assert result.stats.truncated_phase == "grow_s"
        # ... and must not have paid for any growing.
        assert result.stats.source_keys == 0
        assert result.stats.target_keys == 0

    def test_expired_budget_self_query_still_trivial(self, index, network):
        source = sorted(network.nodes())[0]
        result = backbone_query(index, source, source, time_budget=0.0)
        assert not result.truncated
        assert len(result.paths) == 1 and result.paths[0].is_trivial()

    @pytest.mark.parametrize("budget", [0.0, -1.0])
    def test_expired_budget_shared_source(self, index, network, budget):
        nodes = sorted(network.nodes())
        source = nodes[0]
        targets = [source, nodes[-1], nodes[-2]]
        answers = backbone_query_shared_source(
            index, source, targets, time_budget=budget
        )
        assert set(answers) == set(targets)
        assert not answers[source].truncated
        assert answers[source].paths[0].is_trivial()
        for target in targets[1:]:
            assert answers[target].truncated
            assert answers[target].paths == []
            assert answers[target].stats.source_keys == 0


def answer_rows(result):
    return [(tuple(p.nodes), p.cost) for p in result.paths]


class TestSharedSource:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_group_answers_equal_single_queries(self, index, network, data):
        """Growing S once for a group changes no target's answer: paths,
        costs and order equal the one-target call, with repeated
        targets and the source itself in the group."""
        nodes = sorted(network.nodes())
        source = data.draw(st.sampled_from(nodes))
        drawn = data.draw(
            st.lists(st.sampled_from(nodes), min_size=1, max_size=5)
        )
        targets = data.draw(st.permutations(drawn + [source, drawn[0]]))
        answers = backbone_query_shared_source(index, source, targets)
        assert set(answers) == set(targets)
        for target in set(targets):
            alone = backbone_query(index, source, target)
            assert answer_rows(answers[target]) == answer_rows(alone)
            assert not answers[target].truncated
        trivial = [((source,), (0.0,) * index.dim)]
        assert answer_rows(answers[source]) == trivial

"""Tests for the exact BBS skyline search, including the brute-force oracle."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NodeNotFoundError, QueryError
from repro.graph.generators import road_network
from repro.graph.mcrn import MultiCostGraph
from repro.paths.dominance import dominates
from repro.qa import reference
from repro.qa.bounds import ZeroBounds
from repro.search.bbs import brute_force_skyline, skyline_paths

from tests.conftest import assert_valid_walk, costs_of, make_diamond_graph


class TestBasics:
    def test_diamond_returns_both(self):
        g = make_diamond_graph()
        result = skyline_paths(g, 0, 3)
        assert costs_of(result.paths) == {(2.0, 8.0), (8.0, 2.0)}
        for p in result.paths:
            assert_valid_walk(g, p)

    def test_source_equals_target(self):
        g = make_diamond_graph()
        result = skyline_paths(g, 0, 0)
        assert len(result.paths) == 1
        assert result.paths[0].is_trivial()

    def test_unreachable_target(self):
        g = MultiCostGraph(2)
        g.add_edge(0, 1, (1.0, 1.0))
        g.add_node(9)
        assert skyline_paths(g, 0, 9).paths == []

    def test_missing_nodes(self):
        g = make_diamond_graph()
        with pytest.raises(NodeNotFoundError):
            skyline_paths(g, 99, 0)
        with pytest.raises(NodeNotFoundError):
            skyline_paths(g, 0, 99)

    def test_dominated_route_excluded(self):
        g = MultiCostGraph(2)
        g.add_edge(0, 1, (1.0, 1.0))
        g.add_edge(1, 3, (1.0, 1.0))
        g.add_edge(0, 2, (5.0, 5.0))
        g.add_edge(2, 3, (5.0, 5.0))
        result = skyline_paths(g, 0, 3)
        assert costs_of(result.paths) == {(2.0, 2.0)}

    def test_parallel_edges_contribute(self):
        g = MultiCostGraph(2)
        g.add_edge(0, 1, (1.0, 9.0))
        g.add_edge(0, 1, (9.0, 1.0))
        result = skyline_paths(g, 0, 1)
        assert costs_of(result.paths) == {(1.0, 9.0), (9.0, 1.0)}

    def test_without_seeding(self):
        g = make_diamond_graph()
        result = skyline_paths(g, 0, 3, seed_with_shortest_paths=False)
        assert costs_of(result.paths) == {(2.0, 8.0), (8.0, 2.0)}

    def test_zero_bounds_still_exact(self):
        # Providers other than the exact bound live in the reference.
        g = make_diamond_graph()
        result = reference.skyline_paths(g, 0, 3, bounds=ZeroBounds(2))
        assert costs_of(result.paths) == {(2.0, 8.0), (8.0, 2.0)}

    @pytest.mark.parametrize(
        "search", [skyline_paths, reference.skyline_paths],
        ids=["production", "reference"],
    )
    def test_restricted_seeds_stay_inside_the_restriction(self, search):
        """Regression: seeds used to come from the whole graph, so the
        0-1-3 path outside the restriction pruned the only restricted
        answer 0-2-3 and was returned in its place."""
        g = MultiCostGraph(2)
        g.add_edge(0, 1, (1.0, 1.0))
        g.add_edge(1, 3, (1.0, 1.0))
        g.add_edge(0, 2, (5.0, 5.0))
        g.add_edge(2, 3, (5.0, 5.0))
        result = search(g, 0, 3, restrict_to={0, 2, 3})
        assert [p.nodes for p in result.paths] == [(0, 2, 3)]
        assert costs_of(result.paths) == {(10.0, 10.0)}

    @pytest.mark.parametrize(
        "search", [skyline_paths, reference.skyline_paths],
        ids=["production", "reference"],
    )
    def test_target_outside_restriction_gets_no_seeds(self, search):
        g = make_diamond_graph()
        assert search(g, 0, 3, restrict_to={0, 1, 2}).paths == []


class TestBudget:
    def test_max_expansions_flags_timeout(self):
        # The expansion cap lives in the reference only.
        g = road_network(200, dim=3, seed=2)
        nodes = sorted(g.nodes())
        result = reference.skyline_paths(
            g, nodes[0], nodes[-1], max_expansions=3
        )
        assert result.stats.timed_out

    def test_time_budget_zero(self):
        g = road_network(200, dim=3, seed=2)
        nodes = sorted(g.nodes())
        result = skyline_paths(g, nodes[0], nodes[-1], time_budget=0.0)
        assert result.stats.timed_out
        # Regression: an already-expired budget used to seed the result
        # with the per-dimension shortest paths before checking the
        # clock, leaking partial answers from a query that did no work.
        assert result.paths == []
        assert result.stats.expansions == 0

    @pytest.mark.parametrize("budget", [-1.0, -0.001])
    def test_negative_time_budget_behaves_like_zero(self, budget):
        g = road_network(200, dim=3, seed=2)
        nodes = sorted(g.nodes())
        result = skyline_paths(g, nodes[0], nodes[-1], time_budget=budget)
        assert result.stats.timed_out
        assert result.paths == []
        assert result.stats.expansions == 0

    def test_stats_populated(self):
        g = make_diamond_graph()
        result = skyline_paths(g, 0, 3)
        assert result.stats.expansions > 0
        assert result.stats.elapsed_seconds >= 0.0
        assert not result.stats.timed_out


class TestBruteForceOracle:
    def test_rejects_large_graphs(self):
        g = road_network(200, dim=2, seed=1)
        nodes = sorted(g.nodes())
        with pytest.raises(QueryError):
            brute_force_skyline(g, nodes[0], nodes[1])

    def test_matches_bbs_on_diamond(self):
        g = make_diamond_graph()
        assert costs_of(brute_force_skyline(g, 0, 3)) == costs_of(
            skyline_paths(g, 0, 3).paths
        )


def random_small_graph(seed: int, n_nodes: int, extra_edges: int) -> MultiCostGraph:
    """A connected random multigraph with 2-d integer costs."""
    import random

    rng = random.Random(seed)
    g = MultiCostGraph(2)
    for i in range(1, n_nodes):
        j = rng.randrange(i)
        g.add_edge(i, j, (rng.randint(1, 9), rng.randint(1, 9)))
    for _ in range(extra_edges):
        u, v = rng.randrange(n_nodes), rng.randrange(n_nodes)
        if u != v:
            g.add_edge(u, v, (rng.randint(1, 9), rng.randint(1, 9)))
    return g


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_nodes=st.integers(min_value=2, max_value=9),
    extra_edges=st.integers(min_value=0, max_value=8),
)
def test_bbs_matches_brute_force(seed, n_nodes, extra_edges):
    """BBS finds exactly the brute-force skyline *cost vectors*."""
    g = random_small_graph(seed, n_nodes, extra_edges)
    source, target = 0, n_nodes - 1
    expected = costs_of(brute_force_skyline(g, source, target))
    got = costs_of(skyline_paths(g, source, target).paths)
    assert got == expected


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_nodes=st.integers(min_value=3, max_value=9),
)
def test_bbs_results_are_valid_mutually_nondominated_walks(seed, n_nodes):
    g = random_small_graph(seed, n_nodes, 5)
    result = skyline_paths(g, 0, n_nodes - 1)
    for p in result.paths:
        assert p.source == 0 and p.target == n_nodes - 1
        assert_valid_walk(g, p)
    for i, a in enumerate(result.paths):
        for j, b in enumerate(result.paths):
            if i != j:
                assert not dominates(a.cost, b.cost)


def test_bbs_on_road_network_beats_dimension_minima(small_road_network):
    """Every skyline path's cost is bounded below by the per-dimension
    shortest distances (a cheap exactness sanity on real-size input)."""
    from repro.search.dijkstra import shortest_costs

    g = small_road_network
    nodes = sorted(g.nodes())
    s, t = nodes[1], nodes[-2]
    result = skyline_paths(g, s, t)
    assert result.paths
    minima = [shortest_costs(g, s, i)[t] for i in range(g.dim)]
    for p in result.paths:
        for i in range(g.dim):
            assert p.cost[i] >= minima[i] - 1e-6
        assert_valid_walk(g, p)
    # and each dimension's minimum is realized by some skyline path
    for i in range(g.dim):
        assert any(abs(p.cost[i] - minima[i]) < 1e-6 for p in result.paths)

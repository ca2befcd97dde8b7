"""Tests for the many-to-many m_BBS search."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NodeNotFoundError
from repro.graph.generators import road_network
from repro.graph.mcrn import MultiCostGraph
from repro.qa import reference
from repro.qa.invariants import answer_set_errors, path_errors
from repro.paths.path import Path
from repro.qa.bounds import ExactBounds, LandmarkIndex, LandmarkLowerBounds
from repro.search.bbs import skyline_paths
from repro.search.mbbs import Seed, many_to_many_skyline

from tests.conftest import costs_of, make_diamond_graph


@pytest.fixture(scope="module")
def network():
    return road_network(150, dim=3, seed=31)


class TestBasics:
    def test_single_pair_matches_bbs(self, network):
        nodes = sorted(network.nodes())
        s, t = nodes[0], nodes[-1]
        dim = network.dim
        outcome = many_to_many_skyline(
            network, [Seed(s, (0.0,) * dim, payload="origin")], [t]
        )
        expected = costs_of(skyline_paths(network, s, t).paths)
        got = {
            tuple(round(c, 6) for c in cost) for cost, _ in outcome.hits[t]
        }
        assert got == expected

    def test_seed_cost_offsets_results(self):
        g = make_diamond_graph()
        offset = (100.0, 100.0)
        outcome = many_to_many_skyline(g, [Seed(0, offset, payload="p")], [3])
        costs = {cost for cost, _ in outcome.hits[3]}
        assert costs == {(102.0, 108.0), (108.0, 102.0)}

    def test_payload_and_local_path_returned(self):
        g = make_diamond_graph()
        prefix = Path((42, 0), (1.0, 1.0))
        outcome = many_to_many_skyline(
            g, [Seed(0, prefix.cost, payload=prefix)], [3]
        )
        for _cost, (payload, local) in outcome.hits[3]:
            assert payload is prefix
            assert local.source == 0 and local.target == 3
            assert local.cost in {(2.0, 8.0), (8.0, 2.0)}

    def test_multiple_seeds_pareto_merge(self):
        g = make_diamond_graph()
        # seed at node 1 with zero cost reaches 3 at (1,4); seed at node
        # 2 reaches 3 at (4,1); both survive at the target.
        outcome = many_to_many_skyline(
            g,
            [Seed(1, (0.0, 0.0), payload="a"), Seed(2, (0.0, 0.0), payload="b")],
            [3],
        )
        costs = {cost for cost, _ in outcome.hits[3]}
        assert costs == {(1.0, 4.0), (4.0, 1.0)}

    def test_seed_on_target(self):
        g = make_diamond_graph()
        outcome = many_to_many_skyline(g, [Seed(3, (0.0, 0.0), payload="x")], [3])
        costs = {cost for cost, _ in outcome.hits[3]}
        assert (0.0, 0.0) in costs

    def test_multiple_targets(self, network):
        """Production (unbounded) and the reference with the paper's
        landmark bound both reach every target's exact skyline."""
        nodes = sorted(network.nodes())
        s = nodes[0]
        targets = [nodes[-1], nodes[-2], nodes[len(nodes) // 2]]
        seeds = [Seed(s, (0.0,) * network.dim, payload=None)]
        bounds = LandmarkLowerBounds(LandmarkIndex(network, 4), targets)
        for outcome in (
            many_to_many_skyline(network, seeds, targets),
            reference.many_to_many_skyline(
                network, seeds, targets, bounds=bounds
            ),
        ):
            for t in targets:
                expected = costs_of(skyline_paths(network, s, t).paths)
                got = {
                    tuple(round(c, 6) for c in cost)
                    for cost, _ in outcome.hits[t]
                }
                assert got == expected

    def test_missing_target_raises(self):
        g = make_diamond_graph()
        with pytest.raises(NodeNotFoundError):
            many_to_many_skyline(g, [Seed(0, (0.0, 0.0), payload=None)], [99])

    def test_missing_seed_raises(self):
        g = make_diamond_graph()
        with pytest.raises(NodeNotFoundError):
            many_to_many_skyline(g, [Seed(99, (0.0, 0.0), payload=None)], [3])

    def test_expansion_budget(self, network):
        # The expansion cap lives in the reference only.
        nodes = sorted(network.nodes())
        outcome = reference.many_to_many_skyline(
            network,
            [Seed(nodes[0], (0.0,) * network.dim, payload=None)],
            [nodes[-1]],
            max_expansions=2,
        )
        assert outcome.stats.timed_out

    @pytest.mark.parametrize("budget", [0.0, -1.0])
    def test_expired_time_budget_times_out_with_no_work(
        self, network, budget
    ):
        # Regression: an already-expired budget must not build
        # frontiers or expand anything before reporting the timeout.
        nodes = sorted(network.nodes())
        outcome = many_to_many_skyline(
            network,
            [Seed(nodes[0], (0.0,) * network.dim, payload=None)],
            [nodes[-1]],
            time_budget=budget,
        )
        assert outcome.stats.timed_out
        assert outcome.hits == {}
        assert outcome.stats.expansions == 0
        assert outcome.stats.pushes == 0


# A node id no generated graph uses: the virtual origin every seed hangs
# off when hits are priced as whole walks.
_ORIGIN = 10_000


def seeded_multigraph(seed: int, directed: bool) -> MultiCostGraph:
    """Sparse ids, parallel edges and integer costs (exact float sums)."""
    rng = random.Random(seed)
    dim = rng.choice((2, 3))
    graph = MultiCostGraph(dim, directed=directed)
    nodes = rng.sample(range(1000), rng.randint(2, 14))
    for node in nodes:
        graph.add_node(node)
    for _ in range(rng.randint(1, 36)):
        u, v = rng.sample(nodes, 2)
        graph.add_edge(u, v, tuple(float(rng.randint(1, 9)) for _ in range(dim)))
    return graph


def hit_walks(outcome, targets, priced: MultiCostGraph) -> dict:
    """target -> the hits as walks from ``_ORIGIN`` at their total cost."""
    walks = {}
    for target in targets:
        walks[target] = [
            Path((_ORIGIN,) + tuple(local.nodes), cost)
            for cost, (_payload, local) in outcome.hits.get(target, ())
        ]
        for walk in walks[target]:
            assert not path_errors(priced, walk, target=target), walk
    return walks


class TestBoundsOnlyReorder:
    """m_BBS has no result-dominance test, so a bound only changes pop
    order (an infinite one also skips nodes that reach no target):
    production m_BBS, which takes no bound, returns the same answer set
    as the reference bounded by exact reverse Dijkstra, on undirected
    and directed multigraphs."""

    @pytest.mark.parametrize("directed", [False, True])
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_unbounded_and_exact_bounds_agree(self, seed, directed):
        graph = seeded_multigraph(seed, directed)
        rng = random.Random(seed + 1)
        nodes = sorted(graph.nodes())
        seeds = [
            Seed(node, tuple(float(rng.randint(0, 5)) for _ in range(graph.dim)),
                 payload=node)
            for node in rng.sample(nodes, min(len(nodes), 2))
        ]
        targets = rng.sample(nodes, min(len(nodes), 3))
        # Price whole walks: a virtual origin reaches each seed at its cost.
        priced = graph.copy()
        priced.add_node(_ORIGIN)
        for item in seeds:
            priced.add_edge(_ORIGIN, item.node, item.cost)

        unbounded = many_to_many_skyline(graph, seeds, targets)
        bounded = reference.many_to_many_skyline(
            graph, seeds, targets, bounds=ExactBounds(graph, targets)
        )
        assert set(unbounded.hits) == set(bounded.hits)
        walks_a = hit_walks(unbounded, targets, priced)
        walks_b = hit_walks(bounded, targets, priced)
        for target in targets:
            assert not answer_set_errors(
                "unbounded", walks_a[target], "exact_bounds", walks_b[target],
                graph=priced,
            ), target

"""The production kernels' contract with the reference.

Every search has one production kernel, held **bit-identical** to the
reference oracle of :mod:`repro.qa.reference` — same paths, same order,
same counters — on every input shape the serving path produces:

* integer-cost multigraphs with parallel edges, sparse ids and both
  directedness modes, where exact cost ties are common;
* corridor restrictions (``restrict_to``), pre-seeded result skylines
  (``seed_paths``), and many-to-many seeds with payloads;
* budgets, trivial and unreachable endpoints.

The reference's other bound providers (zero, landmarks) prune
differently but must reach the same answer set.
"""

from __future__ import annotations

import random
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.csr import CSRSnapshot
from repro.graph.mcrn import MultiCostGraph
from repro.paths.path import Path
from repro.qa import reference
from repro.qa.invariants import answer_set_errors
from repro.qa.workload import CaseSpec, build_case
from repro.search.bbs import skyline_paths
from repro.qa.bounds import (
    ExactBounds,
    LandmarkIndex,
    LandmarkLowerBounds,
    ZeroBounds,
)
from repro.search.mbbs import Seed, many_to_many_skyline


def random_multigraph(seed: int) -> MultiCostGraph:
    """A small graph with sparse ids, parallel edges, random direction."""
    rng = random.Random(seed)
    dim = rng.choice((2, 3))
    graph = MultiCostGraph(dim, directed=rng.random() < 0.5)
    nodes = rng.sample(range(1000), rng.randint(2, 16))
    for node in nodes:
        graph.add_node(node)
    for _ in range(rng.randint(0, 36)):
        u, v = rng.sample(nodes, 2)
        cost = tuple(float(rng.randint(1, 9)) for _ in range(dim))
        graph.add_edge(u, v, cost)
    return graph


@lru_cache(maxsize=None)
def workload_case(seed: int):
    """Cached qa case + snapshot (hypothesis revisits seeds freely)."""
    case = build_case(
        CaseSpec.from_seed(seed, n_nodes=40, n_queries=3, n_updates=0)
    )
    return case, CSRSnapshot.from_graph(case.graph)


def sorted_answers(result):
    return sorted((p.cost, p.nodes) for p in result.paths)


def assert_identical(ours, theirs):
    """Same paths in the same order, same search counters."""
    assert [(p.nodes, p.cost) for p in ours.paths] == [
        (p.nodes, p.cost) for p in theirs.paths
    ]
    assert ours.stats.as_span_counters() == theirs.stats.as_span_counters()
    assert ours.stats.timed_out == theirs.stats.timed_out


def hit_rows(result):
    """m_BBS hits in iteration order, payloads included."""
    return {
        target: [
            (cost, payload, path.nodes, path.cost)
            for cost, (payload, path) in pareto
        ]
        for target, pareto in result.hits.items()
    }


class TestAnswerSetEquality:
    """Production BBS against the reference: identical on every input."""

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_multigraph_equality_modulo_cost_ties(self, seed):
        """Integer costs tie freely; tie resolution must still match,
        because both searches push in the same order."""
        graph = random_multigraph(seed)
        snapshot = CSRSnapshot.from_graph(graph)
        nodes = sorted(graph.nodes())
        rng = random.Random(seed + 1)
        for _ in range(4):
            source, target = rng.sample(nodes, 2)
            assert_identical(
                reference.skyline_paths(graph, source, target),
                skyline_paths(graph, source, target, snapshot=snapshot),
            )

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_workload_paths_identical_sorted_by_cost(self, seed):
        """Landmark bounds (the paper's provider, reference only) prune
        differently but reach production's answer set."""
        case, snapshot = workload_case(seed)
        landmarks = LandmarkIndex(case.graph, 4)
        for source, target in case.queries:
            bounds = LandmarkLowerBounds(landmarks, [target])
            assert not answer_set_errors(
                "landmark",
                reference.skyline_paths(
                    case.graph, source, target, bounds=bounds
                ).paths,
                "production",
                skyline_paths(
                    case.graph, source, target, snapshot=snapshot
                ).paths,
                case.graph,
            )

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_bound_providers_preserve_equality(self, seed):
        """An explicit exact provider is production's own bound, so the
        run is identical; zero bounds reach the same answer set."""
        case, snapshot = workload_case(seed)
        source, target = case.queries[0]
        production = skyline_paths(
            case.graph, source, target, snapshot=snapshot
        )
        assert_identical(
            reference.skyline_paths(
                case.graph, source, target,
                bounds=ExactBounds(case.graph, [target]),
            ),
            production,
        )
        assert not answer_set_errors(
            "zero",
            reference.skyline_paths(
                case.graph, source, target,
                bounds=ZeroBounds(case.graph.dim),
            ).paths,
            "production",
            production.paths,
            case.graph,
        )


class TestRestrictionAndSeeding:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_corridor_mask_equality(self, seed):
        """A random node restriction (the corridor-serving shape)."""
        case, snapshot = workload_case(seed)
        rng = random.Random(seed + 2)
        source, target = case.queries[0]
        nodes = sorted(case.graph.nodes())
        corridor = set(rng.sample(nodes, max(2, len(nodes) * 2 // 3)))
        corridor.update((source, target))
        assert_identical(
            reference.skyline_paths(
                case.graph, source, target, restrict_to=corridor
            ),
            skyline_paths(
                case.graph, source, target, snapshot=snapshot,
                restrict_to=corridor,
            ),
        )

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_seed_paths_equality(self, seed):
        """Pre-seeded result skylines (the corridor hands the backbone
        answer down) prune both searches identically."""
        case, snapshot = workload_case(seed)
        source, target = case.queries[0]
        exact = reference.skyline_paths(case.graph, source, target).paths
        if not exact:
            return
        seeds = [Path(exact[0].nodes, exact[0].cost)]
        ours = reference.skyline_paths(
            case.graph, source, target, seed_with_shortest_paths=False,
            seed_paths=seeds,
        )
        theirs = skyline_paths(
            case.graph, source, target, snapshot=snapshot,
            seed_with_shortest_paths=False, seed_paths=seeds,
        )
        assert_identical(ours, theirs)
        assert sorted_answers(theirs) == sorted(
            (p.cost, p.nodes) for p in exact
        )


class TestManyToMany:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_hits_equal_flat(self, seed):
        """Seeds with payloads and non-zero initial costs: every
        target's hit list must match the reference, in order."""
        case, snapshot = workload_case(seed)
        nodes = sorted(case.graph.nodes())
        dim = case.graph.dim
        rng = random.Random(seed + 3)
        seeds = [
            Seed(nodes[0], (0.0,) * dim, payload="a"),
            Seed(
                nodes[1],
                tuple(round(rng.uniform(0.1, 3.0), 3) for _ in range(dim)),
                payload="b",
            ),
        ]
        targets = nodes[-3:]
        ours = reference.many_to_many_skyline(case.graph, seeds, targets)
        theirs = many_to_many_skyline(
            case.graph, seeds, targets, snapshot=snapshot
        )
        assert hit_rows(ours) == hit_rows(theirs)
        assert (
            ours.stats.as_span_counters() == theirs.stats.as_span_counters()
        )

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=12, deadline=None)
    def test_restriction_matches_induced_subgraph(self, seed):
        """The reference's node restriction is the unrestricted search
        over the induced subgraph: same hits in the same order, and the
        same counters once the skipped slots are set aside."""
        case, _snapshot = workload_case(seed)
        nodes = sorted(case.graph.nodes())
        dim = case.graph.dim
        rng = random.Random(seed + 4)
        corridor = set(rng.sample(nodes, max(2, len(nodes) * 2 // 3)))
        corridor.update(nodes[:2])
        corridor.update(nodes[-2:])
        seeds = [Seed(nodes[0], (0.0,) * dim), Seed(nodes[1], (0.0,) * dim)]
        targets = nodes[-2:]
        ours = reference.many_to_many_skyline(
            case.graph, seeds, targets, restrict_to=corridor
        )
        theirs = many_to_many_skyline(
            case.graph.induced_subgraph(corridor), seeds, targets
        )
        assert hit_rows(ours) == hit_rows(theirs)
        counters = ours.stats.as_span_counters()
        counters["pruned_by_corridor"] = 0
        assert counters == theirs.stats.as_span_counters()


class TestBudgets:
    def test_max_expansions_reports_timeout(self):
        # The expansion cap lives in the reference only.
        case, _snapshot = workload_case(11)
        source, target = case.queries[0]
        capped = reference.skyline_paths(
            case.graph, source, target, max_expansions=1
        )
        assert capped.stats.timed_out
        assert capped.stats.expansions == 1

    def test_trivial_and_unreachable(self):
        graph = MultiCostGraph(2, directed=True)
        for node in (1, 2, 3):
            graph.add_node(node)
        graph.add_edge(1, 2, (1.0, 1.0))
        snapshot = CSRSnapshot.from_graph(graph)
        hit = skyline_paths(graph, 1, 2, snapshot=snapshot)
        assert [p.cost for p in hit.paths] == [(1.0, 1.0)]
        miss = skyline_paths(graph, 2, 3, snapshot=snapshot)
        assert miss.paths == []
        assert_identical(reference.skyline_paths(graph, 2, 3), miss)

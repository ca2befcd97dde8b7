"""Flat one-to-all kernel parity and exact bound-matrix admissibility.

The one-to-all kernel carries the same contract as the point-to-point
kernels: it is bit-identical to the reference search of
:mod:`repro.qa.reference` — same reached nodes, same skyline paths in
the same order, same counters.  The properties here drive both over
randomized multigraphs (parallel edges, sparse node ids, both
directedness modes, dimensions 2 to 4 so that the sweep's generic
branch runs too) and through the ``targets`` filter.

``exact_bound_matrix`` is the bound of every served exact search: it
must equal :class:`~repro.qa.bounds.ExactBounds` bit for bit (also
confined to a node mask, as the corridor tier runs it), never exceed a
reachable path's cost per dimension, and never fall below the landmark
ALT bound — exact per-dimension distances are the tightest admissible
bound there is.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.bounds import exact_bound_matrix
from repro.accel.csr import CSRSnapshot
from repro.errors import NodeNotFoundError
from repro.graph.mcrn import MultiCostGraph
from repro.qa import reference
from repro.qa.bounds import ExactBounds, LandmarkIndex
from repro.search.bbs import SearchStats
from repro.search.onetoall import one_to_all_skyline


def random_multigraph(seed: int) -> MultiCostGraph:
    """A small graph with sparse ids, parallel edges, random direction."""
    rng = random.Random(seed)
    dim = rng.choice((2, 3, 4))
    graph = MultiCostGraph(dim, directed=rng.random() < 0.5)
    nodes = rng.sample(range(1000), rng.randint(2, 16))
    for node in nodes:
        graph.add_node(node)
    for _ in range(rng.randint(0, 36)):
        u, v = rng.sample(nodes, 2)
        cost = tuple(float(rng.randint(1, 9)) for _ in range(dim))
        graph.add_edge(u, v, cost)
    return graph


def rendered(reached: dict) -> dict:
    """node -> ordered (nodes, cost) pairs, for bit-identity compares."""
    return {
        node: [(p.nodes, p.cost) for p in paths]
        for node, paths in reached.items()
    }


class TestFlatOneToAllParity:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_flat_bit_identical_on_multigraphs(self, seed):
        graph = random_multigraph(seed)
        snapshot = CSRSnapshot.from_graph(graph)
        source = sorted(graph.nodes())[seed % graph.num_nodes]
        python_stats, flat_stats = SearchStats(), SearchStats()
        python = reference.one_to_all_skyline(
            graph, source, stats=python_stats
        )
        flat = one_to_all_skyline(
            graph, source, snapshot=snapshot, stats=flat_stats
        )
        assert list(flat) == list(python)
        assert rendered(flat) == rendered(python)
        assert (
            flat_stats.as_span_counters() == python_stats.as_span_counters()
        )

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_targets_filter_parity(self, seed):
        graph = random_multigraph(seed)
        snapshot = CSRSnapshot.from_graph(graph)
        rng = random.Random(seed + 1)
        nodes = sorted(graph.nodes())
        source = nodes[seed % len(nodes)]
        targets = rng.sample(nodes, min(len(nodes), 3))
        python = reference.one_to_all_skyline(graph, source, targets=targets)
        flat = one_to_all_skyline(
            graph, source, targets=targets, snapshot=snapshot
        )
        assert set(python) <= set(targets)
        assert rendered(flat) == rendered(python)

    def test_missing_source_raises_on_both_engines(self):
        graph = random_multigraph(7)
        snapshot = CSRSnapshot.from_graph(graph)
        with pytest.raises(NodeNotFoundError):
            reference.one_to_all_skyline(graph, 10_001)
        with pytest.raises(NodeNotFoundError):
            one_to_all_skyline(graph, 10_001, snapshot=snapshot)


def zero_cost_multigraph(seed: int, directed: bool) -> MultiCostGraph:
    """Parallel arcs and zero-cost edges (some all-zero) on sparse ids."""
    rng = random.Random(seed)
    dim = rng.choice((2, 3))
    graph = MultiCostGraph(dim, directed=directed)
    nodes = rng.sample(range(1000), rng.randint(2, 16))
    for node in nodes:
        graph.add_node(node)
    for _ in range(rng.randint(0, 40)):
        u, v = rng.sample(nodes, 2)
        cost = tuple(float(rng.choice((0, 0, 1, 2, 5))) for _ in range(dim))
        graph.add_edge(u, v, cost)
        if rng.random() < 0.3:  # a parallel arc with other costs
            other = tuple(float(rng.randint(0, 9)) for _ in range(dim))
            graph.add_edge(u, v, other)
    return graph


class TestExactBoundMatrix:
    """The bound matrix every served exact search prunes with."""

    @pytest.mark.parametrize("directed", [False, True])
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_exact_bounds_bit_for_bit(self, seed, directed):
        graph = zero_cost_multigraph(seed, directed)
        snapshot = CSRSnapshot.from_graph(graph)
        rng = random.Random(seed + 2)
        nodes = sorted(graph.nodes())
        targets = rng.sample(nodes, min(len(nodes), 2))
        for chosen in ([targets[0]], targets):
            matrix = exact_bound_matrix(
                snapshot, [snapshot.dense_of(t) for t in chosen]
            )
            provider = ExactBounds(graph, chosen)
            for node in nodes:
                row = tuple(matrix[snapshot.dense_of(node)].tolist())
                assert row == provider.bound(node)

    @pytest.mark.parametrize("directed", [False, True])
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_masked_matrix_matches_restricted_exact_bounds(
        self, seed, directed
    ):
        graph = zero_cost_multigraph(seed, directed)
        snapshot = CSRSnapshot.from_graph(graph)
        rng = random.Random(seed + 3)
        nodes = sorted(graph.nodes())
        target = rng.choice(nodes)
        within = set(rng.sample(nodes, rng.randint(1, len(nodes))))
        masked = exact_bound_matrix(
            snapshot,
            [snapshot.dense_of(target)],
            node_mask=snapshot.node_mask(within),
        )
        full = exact_bound_matrix(snapshot, [snapshot.dense_of(target)])
        provider = ExactBounds(graph, [target], within=within)
        for node in nodes:
            row = masked[snapshot.dense_of(node)]
            assert tuple(row.tolist()) == provider.bound(node)
            # Confining the reverse search only ever raises a bound.
            assert bool(np.all(row >= full[snapshot.dense_of(node)]))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_admissible_against_true_skyline_costs(self, seed):
        # Lower-bound admissibility: for every node that can reach the
        # target, the per-dimension bound never exceeds any skyline
        # path's cost in that dimension.
        graph = random_multigraph(seed)
        if graph.directed:
            graph = random_multigraph(seed + 5000)
            if graph.directed:
                return  # property needs forward paths; skip this draw
        snapshot = CSRSnapshot.from_graph(graph)
        nodes = sorted(graph.nodes())
        target = nodes[seed % len(nodes)]
        matrix = exact_bound_matrix(snapshot, [snapshot.dense_of(target)])
        for node, paths in one_to_all_skyline(graph, target).items():
            row = matrix[snapshot.dense_of(node)]
            for path in paths:
                for i, cost in enumerate(path.cost):
                    assert row[i] <= cost + 1e-9

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_at_least_as_tight_as_landmark_alt(self, seed):
        graph = random_multigraph(seed)
        snapshot = CSRSnapshot.from_graph(graph)
        if graph.directed:
            return  # LandmarkIndex covers undirected networks
        rng = random.Random(seed + 3)
        nodes = sorted(graph.nodes())
        targets = rng.sample(nodes, min(len(nodes), 2))
        dense = [snapshot.dense_of(t) for t in targets]
        landmarks = LandmarkIndex(graph, min(3, graph.num_nodes))
        exact = exact_bound_matrix(snapshot, dense)
        # Exact distances dominate any admissible ALT bound.
        for node in nodes:
            alt = landmarks.lower_bound_to_any(node, targets)
            row = exact[snapshot.dense_of(node)]
            assert bool(np.all(row >= np.asarray(alt) - 1e-9))

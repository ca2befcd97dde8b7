"""Property-based tests: maintenance soundness under update sequences."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.builder import build_backbone_index
from repro.core.maintenance import MaintainableIndex
from repro.core.params import BackboneParams
from repro.graph.generators import road_network
from repro.graph.mcrn import MultiCostGraph
from repro.qa.invariants import index_identity_errors
from repro.search.dijkstra import shortest_costs


def ladder_network(rungs: int) -> MultiCostGraph:
    """A ladder graph: 2 x rungs nodes, richly connected, never
    disconnected by removing a single rung edge."""
    g = MultiCostGraph(2)
    for i in range(rungs - 1):
        g.add_edge(2 * i, 2 * (i + 1), (1.0, 2.0))
        g.add_edge(2 * i + 1, 2 * (i + 1) + 1, (2.0, 1.0))
    for i in range(rungs):
        g.add_edge(2 * i, 2 * i + 1, (1.0, 1.0))
    return g


update_ops = st.lists(
    st.tuples(
        st.sampled_from(["bump", "restore", "insert", "delete_insert"]),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=1,
    max_size=5,
)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(rungs=st.integers(min_value=4, max_value=10), ops=update_ops)
def test_random_update_sequences_keep_queries_sound(rungs, ops):
    graph = ladder_network(rungs)
    maintainer = MaintainableIndex(
        graph, BackboneParams(m_max=6, m_min=1, p=0.15)
    )
    n_nodes = 2 * rungs
    for op, seed in ops:
        pairs = sorted(maintainer.graph.edge_pairs())
        u, v = pairs[seed % len(pairs)]
        if op == "bump":
            old = maintainer.graph.edge_costs(u, v)[0]
            maintainer.update_edge_cost(u, v, old, tuple(c * 1.5 for c in old))
        elif op == "restore":
            old = maintainer.graph.edge_costs(u, v)[0]
            maintainer.update_edge_cost(u, v, old, (1.0, 1.0))
        elif op == "insert":
            a = seed % n_nodes
            b = (seed * 7 + 3) % n_nodes
            if a != b:
                maintainer.insert_edge(a, b, (5.0, 5.0))
        elif op == "delete_insert":
            maintainer.delete_edge(u, v)
            maintainer.insert_edge(u, v, (3.0, 3.0))

    # after the whole sequence, queries remain sound against the
    # mutated graph's true per-dimension minima
    source, target = 0, n_nodes - 1
    paths = maintainer.query(source, target)
    minima = [
        shortest_costs(maintainer.graph, source, i).get(target)
        for i in range(2)
    ]
    if all(m is not None for m in minima):
        assert paths
        for p in paths:
            assert p.source == source and p.target == target
            for i in range(2):
                assert p.cost[i] >= minima[i] - 1e-6


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(rungs=st.integers(min_value=4, max_value=8))
def test_maintained_equals_fresh_build_quality(rungs):
    """After an update, the maintained index answers at least as well
    as a fresh build on the mutated graph (same algorithm, possibly
    different but equally valid structure)."""
    from repro.core.builder import build_backbone_index

    graph = ladder_network(rungs)
    params = BackboneParams(m_max=6, m_min=1, p=0.15)
    maintainer = MaintainableIndex(graph, params)
    u, v = sorted(maintainer.graph.edge_pairs())[0]
    old = maintainer.graph.edge_costs(u, v)[0]
    maintainer.update_edge_cost(u, v, old, tuple(c * 2 for c in old))

    fresh = build_backbone_index(maintainer.graph, params)
    source, target = 0, 2 * rungs - 1
    maintained_best = min(
        (sum(p.cost) for p in maintainer.query(source, target)),
        default=None,
    )
    fresh_best = min(
        (sum(p.cost) for p in fresh.query(source, target)), default=None
    )
    assert (maintained_best is None) == (fresh_best is None)
    if maintained_best is not None:
        assert maintained_best == pytest.approx(fresh_best, rel=0.5)


# The two parameter sets of the shortcut-resurrection regressions.
CONTRACT_PARAMS = (
    BackboneParams(m_max=40, m_min=4, p=0.12),
    BackboneParams(m_max=25, m_min=4, p=0.05),
)

cost_updates = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([0.5, 0.8, 1.25, 2.0]),
    ),
    min_size=1,
    max_size=8,
)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    nodes=st.integers(min_value=200, max_value=400),
    dim=st.integers(min_value=2, max_value=3),
    seed=st.integers(min_value=0, max_value=500),
    params_set=st.sampled_from([0, 1]),
    updates=cost_updates,
)
# road_network(300, dim=3, seed=171): pair 13 is (4, 165), pair 52 is
# (20, 99) — the edges whose dearer cost must bring back a shortcut.
@example(nodes=300, dim=3, seed=171, params_set=0, updates=[(13, 2.0)])
@example(nodes=300, dim=3, seed=171, params_set=1, updates=[(52, 1.25)])
def test_cost_updates_keep_index_identical_to_fresh_build(
    nodes, dim, seed, params_set, updates
):
    """After every cost-only update the maintained index is the index a
    fresh build of the updated network gives: labels, top graph,
    provenance, level statistics and the top graph's CSR arrays."""
    params = CONTRACT_PARAMS[params_set]
    maintainer = MaintainableIndex(
        road_network(nodes, dim=dim, seed=seed), params
    )
    pairs = sorted(maintainer.graph.edge_pairs())
    for choice, factor in updates:
        u, v = pairs[choice % len(pairs)]
        old = maintainer.graph.edge_costs(u, v)[0]
        maintainer.update_edge_cost(u, v, old, tuple(c * factor for c in old))
        fresh = build_backbone_index(maintainer.graph, params)
        assert index_identity_errors(fresh, maintainer.index) == [], (u, v)


"""Property-based end-to-end soundness of the whole pipeline.

Hypothesis drives random small road networks through index construction
and querying, asserting invariants that must hold for *any* input:
valid endpoints, costs bounded below by the exact per-dimension optima,
mutual non-domination, and (without aggressive shortcuts) real-walk
results.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.builder import build_backbone_index
from repro.core.params import AggressiveMode, BackboneParams
from repro.graph.mcrn import MultiCostGraph
from repro.paths.dominance import dominates
from repro.search.dijkstra import shortest_costs

from tests.conftest import assert_valid_walk


def build_random_network(seed: int, n_nodes: int, extra: int) -> MultiCostGraph:
    import random

    rng = random.Random(seed)
    g = MultiCostGraph(2)
    for i in range(1, n_nodes):
        j = rng.randrange(i)
        g.add_edge(i, j, (rng.randint(1, 20), rng.randint(1, 20)))
    for _ in range(extra):
        u, v = rng.randrange(n_nodes), rng.randrange(n_nodes)
        if u != v:
            g.add_edge(u, v, (rng.randint(1, 20), rng.randint(1, 20)))
    return g


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=5000),
    n_nodes=st.integers(min_value=4, max_value=40),
    extra=st.integers(min_value=0, max_value=30),
    m_max=st.integers(min_value=2, max_value=15),
    p=st.sampled_from([0.05, 0.1, 0.25]),
    mode=st.sampled_from(list(AggressiveMode)),
)
def test_index_query_soundness(seed, n_nodes, extra, m_max, p, mode):
    graph = build_random_network(seed, n_nodes, extra)
    params = BackboneParams(m_max=m_max, m_min=1, p=p, aggressive=mode)
    index = build_backbone_index(graph, params)

    source, target = 0, n_nodes - 1
    paths = index.query(source, target)

    minima = [shortest_costs(graph, source, i).get(target) for i in range(2)]
    reachable = all(m is not None for m in minima)
    if reachable:
        assert paths, "connected pair must get an answer"
    for p_ in paths:
        assert p_.source == source and p_.target == target
        for i in range(2):
            assert p_.cost[i] >= minima[i] - 1e-6
    for i, a in enumerate(paths):
        for j, b in enumerate(paths):
            if i != j:
                assert not dominates(a.cost, b.cost)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=5000),
    n_nodes=st.integers(min_value=4, max_value=30),
    extra=st.integers(min_value=0, max_value=20),
)
def test_plain_index_returns_real_walks(seed, n_nodes, extra):
    """Without aggressive shortcuts every result is an original walk."""
    graph = build_random_network(seed, n_nodes, extra)
    params = BackboneParams(
        m_max=8, m_min=1, p=0.1, aggressive=AggressiveMode.NONE
    )
    index = build_backbone_index(graph, params)
    for p_ in index.query(0, n_nodes - 1):
        assert_valid_walk(graph, p_)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=5000),
    n_nodes=st.integers(min_value=4, max_value=30),
)
def test_expanded_paths_are_real_walks(seed, n_nodes):
    """With aggressive shortcuts, expansion recovers original walks."""
    graph = build_random_network(seed, n_nodes, 10)
    params = BackboneParams(
        m_max=6, m_min=1, p=0.1, aggressive=AggressiveMode.EACH
    )
    index = build_backbone_index(graph, params)
    for p_ in index.query(0, n_nodes - 1)[:5]:
        expanded = index.expand_path(p_)
        assert expanded.source == p_.source
        assert expanded.target == p_.target
        assert_valid_walk(graph, expanded)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=5000),
    n_nodes=st.integers(min_value=4, max_value=25),
)
def test_save_load_equivalence(seed, n_nodes, tmp_path_factory):
    """A reloaded index answers every query identically."""
    from repro.core.index import BackboneIndex

    graph = build_random_network(seed, n_nodes, 8)
    index = build_backbone_index(
        graph, BackboneParams(m_max=6, m_min=1, p=0.1)
    )
    path = tmp_path_factory.mktemp("roundtrip") / "index.rbi"
    index.save(path)
    loaded = BackboneIndex.load(path, graph)
    for target in range(1, n_nodes, max(1, n_nodes // 4)):
        original = {p.cost for p in index.query(0, target)}
        reloaded = {p.cost for p in loaded.query(0, target)}
        assert original == reloaded

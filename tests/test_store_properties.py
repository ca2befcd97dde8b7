"""Property tests: a freshly built index and its store round-trips
(eager and lazy) must answer identical skyline queries — including for
directed networks and after maintenance updates."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.builder import build_backbone_index
from repro.core.directed import DirectedBackboneIndex
from repro.core.index import BackboneIndex
from repro.core.maintenance import MaintainableIndex
from repro.core.params import BackboneParams
from repro.graph.mcrn import MultiCostGraph

from tests.conftest import costs_of


def build_random_network(
    seed: int, n_nodes: int, extra: int, *, directed: bool = False
) -> MultiCostGraph:
    rng = random.Random(seed)
    g = MultiCostGraph(2, directed=directed)
    for i in range(1, n_nodes):
        j = rng.randrange(i)
        g.add_edge(i, j, (rng.randint(1, 20), rng.randint(1, 20)))
    for _ in range(extra):
        u, v = rng.randrange(n_nodes), rng.randrange(n_nodes)
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v, (rng.randint(1, 20), rng.randint(1, 20)))
    return g


def round_trips(index: BackboneIndex, graph: MultiCostGraph, tmp_path):
    """Yield (label, reloaded index) for every persistence route."""
    binary_path = tmp_path / "rt.rbi"
    index.save(binary_path)
    yield "binary", BackboneIndex.load(binary_path, graph)
    yield "binary-lazy", BackboneIndex.load(binary_path, graph, lazy=True)


def assert_same_answers(index, graph, tmp_path, pairs):
    expected = {pair: costs_of(index.query(*pair)) for pair in pairs}
    for label, loaded in round_trips(index, graph, tmp_path):
        for pair, want in expected.items():
            got = costs_of(loaded.query(*pair))
            assert got == want, f"{label} load diverged on {pair}"


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)
@given(
    seed=st.integers(min_value=0, max_value=5000),
    n_nodes=st.integers(min_value=5, max_value=35),
    extra=st.integers(min_value=0, max_value=25),
    m_max=st.integers(min_value=2, max_value=12),
    p=st.sampled_from([0.05, 0.1, 0.25]),
)
def test_round_trip_answers_match_fresh(
    tmp_path, seed, n_nodes, extra, m_max, p
):
    graph = build_random_network(seed, n_nodes, extra)
    params = BackboneParams(m_max=m_max, m_min=1, p=p)
    index = build_backbone_index(graph, params)
    rng = random.Random(seed + 1)
    pairs = {(0, n_nodes - 1)} | {
        (rng.randrange(n_nodes), rng.randrange(n_nodes)) for _ in range(4)
    }
    pairs = {(s, t) for s, t in pairs if s != t}
    assert_same_answers(index, graph, tmp_path, pairs)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)
@given(
    seed=st.integers(min_value=0, max_value=5000),
    n_nodes=st.integers(min_value=5, max_value=30),
    extra=st.integers(min_value=5, max_value=25),
)
def test_directed_inner_round_trip(tmp_path, seed, n_nodes, extra):
    graph = build_random_network(seed, n_nodes, extra, directed=True)
    directed = DirectedBackboneIndex(
        graph, BackboneParams(m_max=8, m_min=1, p=0.1)
    )
    # The directed wrapper delegates all index state to ``inner`` built
    # over the undirected projection; persist and compare that.
    assert_same_answers(
        directed.inner, directed.projection, tmp_path, [(0, n_nodes - 1)]
    )


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)
@given(
    seed=st.integers(min_value=0, max_value=5000),
    n_nodes=st.integers(min_value=6, max_value=30),
    extra=st.integers(min_value=0, max_value=20),
    updates=st.integers(min_value=1, max_value=4),
)
def test_round_trip_after_maintenance(tmp_path, seed, n_nodes, extra, updates):
    graph = build_random_network(seed, n_nodes, extra)
    maintainer = MaintainableIndex(
        graph, BackboneParams(m_max=8, m_min=1, p=0.1)
    )
    rng = random.Random(seed + 2)
    for _ in range(updates):
        u, v = rng.randrange(n_nodes), rng.randrange(n_nodes)
        if u == v:
            continue
        if maintainer.graph.has_edge(u, v):
            maintainer.delete_edge(u, v)
        else:
            maintainer.insert_edge(
                u, v, (rng.randint(1, 20), rng.randint(1, 20))
            )
    assert_same_answers(
        maintainer.index, maintainer.graph, tmp_path, [(0, n_nodes - 1)]
    )


def test_round_trip_three_dimensions(tmp_path):
    rng = random.Random(99)
    g = MultiCostGraph(3)
    for i in range(1, 25):
        g.add_edge(i, rng.randrange(i), tuple(rng.randint(1, 9) for _ in range(3)))
    for _ in range(20):
        u, v = rng.randrange(25), rng.randrange(25)
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v, tuple(rng.randint(1, 9) for _ in range(3)))
    index = build_backbone_index(g, BackboneParams(m_max=6, m_min=1, p=0.1))
    assert_same_answers(index, g, tmp_path, [(0, 24), (3, 17)])

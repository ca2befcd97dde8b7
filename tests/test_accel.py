"""repro.accel: CSR snapshots, bound matrices, and flat-kernel parity.

The flat kernel's contract is *bit identity* with the reference oracle
of :mod:`repro.qa.reference` — same paths, same order, same search
counters.  The property tests here drive both over randomized
:mod:`repro.qa.workload` networks and over hand-rolled multigraphs with
parallel edges, sparse node ids, and both directedness modes.
"""

from __future__ import annotations

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.bounds import exact_bound_matrix, seed_paths_from_bounds
from repro.accel.csr import CSRSnapshot
from repro.core import build_backbone_index
from repro.errors import NodeNotFoundError
from repro.graph.generators import road_network
from repro.graph.mcrn import MultiCostGraph
from repro.obs import Tracer, use_tracer
from repro.qa import reference
from repro.qa.bounds import ExactBounds
from repro.qa.workload import CaseSpec, build_case, qa_params
from repro.search.bbs import skyline_paths
from repro.search.mbbs import Seed, many_to_many_skyline
from repro.service import SkylineQueryEngine
from repro.store import inspect_store, load_index, save_index

from tests.conftest import assert_valid_walk


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


def answer_set(result):
    return [(p.nodes, p.cost) for p in result.paths]


# ----------------------------------------------------------------------
# CSR snapshot fidelity
# ----------------------------------------------------------------------


class TestCSRSnapshot:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_dense_remap_is_the_sorted_rank(self, seed):
        graph = random_multigraph(seed)
        snapshot = CSRSnapshot.from_graph(graph)
        ids = snapshot.node_ids.tolist()
        assert ids == sorted(graph.nodes())
        for dense, orig in enumerate(ids):
            assert snapshot.dense_of(orig) == dense
            assert snapshot.original_of(dense) == orig
        with pytest.raises(NodeNotFoundError):
            snapshot.dense_of(10_001)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_slots_mirror_graph_adjacency(self, seed):
        """Each node's slot range equals ``sorted_neighbors`` with
        parallel edges inlined in the graph's canonical cost order."""
        graph = random_multigraph(seed)
        snapshot = CSRSnapshot.from_graph(graph)
        indptr = snapshot.indptr.tolist()
        indices = snapshot.indices.tolist()
        cost_tuples = snapshot.cost_tuples()
        for dense, orig in enumerate(snapshot.node_ids.tolist()):
            slots = [
                (snapshot.original_of(indices[k]), cost_tuples[k])
                for k in range(indptr[dense], indptr[dense + 1])
            ]
            expected = [
                (nbr, tuple(cost))
                for nbr in graph.sorted_neighbors(orig)
                for cost in graph.edge_costs(orig, nbr)
            ]
            assert slots == expected

    def test_parallel_edges_are_consecutive_slots(self):
        graph = MultiCostGraph(2)
        for node in (5, 9):
            graph.add_node(node)
        graph.add_edge(5, 9, (3.0, 1.0))
        graph.add_edge(5, 9, (1.0, 3.0))
        snapshot = CSRSnapshot.from_graph(graph)
        dense = snapshot.dense_of(5)
        start, end = snapshot.indptr[dense], snapshot.indptr[dense + 1]
        assert end - start == 2
        costs = snapshot.cost_tuples()[start:end]
        assert costs == [tuple(c) for c in graph.edge_costs(5, 9)]

    def test_directed_reverse_csr_is_the_transpose(self):
        graph = MultiCostGraph(2, directed=True)
        for node in (1, 2, 3):
            graph.add_node(node)
        graph.add_edge(1, 2, (1.0, 2.0))
        graph.add_edge(3, 2, (4.0, 5.0))
        graph.add_edge(2, 1, (7.0, 8.0))
        snapshot = CSRSnapshot.from_graph(graph)

        def edges(indptr, indices, costs):
            out = set()
            for dense in range(snapshot.num_nodes):
                for k in range(indptr[dense], indptr[dense + 1]):
                    out.add(
                        (
                            snapshot.original_of(dense),
                            snapshot.original_of(int(indices[k])),
                            tuple(costs[k]),
                        )
                    )
            return out

        forward = edges(snapshot.indptr, snapshot.indices, snapshot.costs)
        reverse = edges(
            snapshot.rev_indptr, snapshot.rev_indices, snapshot.rev_costs
        )
        assert forward == {(u, v, c) for u, v, c in forward}
        assert reverse == {(v, u, c) for u, v, c in forward}

    def test_undirected_snapshot_shares_forward_arrays(self):
        snapshot = CSRSnapshot.from_graph(random_multigraph(1))
        if not snapshot.directed:
            assert snapshot.rev_indices is snapshot.indices


# ----------------------------------------------------------------------
# bound matrices match the python providers
# ----------------------------------------------------------------------


class TestBoundMatrices:
    def test_exact_matrix_matches_exact_bounds(self):
        case, snapshot = workload_case(2)
        target = case.queries[0][1]
        matrix = exact_bound_matrix(snapshot, [snapshot.dense_of(target)])
        provider = ExactBounds(case.graph, [target])
        for dense, orig in enumerate(snapshot.node_ids.tolist()):
            assert tuple(matrix[dense]) == provider.bound(orig)

    @given(seed=st.integers(0, 10_000), masked=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_seed_walk_matches_the_reference_walk(self, seed, masked):
        """The CSR seed walk and the reference's dict walk over
        ``ExactBounds`` pick the same first-minimum steps, inside a
        restriction too."""
        graph = random_multigraph(seed)
        snapshot = CSRSnapshot.from_graph(graph)
        rng = random.Random(seed + 7)
        nodes = sorted(graph.nodes())
        source, target = rng.sample(nodes, 2)
        within = None
        if masked:
            within = set(rng.sample(nodes, len(nodes) // 2)) | {
                source, target
            }
        src, dst = snapshot.dense_of(source), snapshot.dense_of(target)
        matrix = exact_bound_matrix(
            snapshot,
            [dst],
            node_mask=None if within is None else snapshot.node_mask(within),
        )
        walked = seed_paths_from_bounds(snapshot, matrix, src, dst)
        expected = reference._seed_walks(
            graph, ExactBounds(graph, [target], within=within), source, target
        )
        assert [(p.nodes, p.cost) for p in walked] == [
            (p.nodes, p.cost) for p in expected
        ]
        for path in walked:
            assert_valid_walk(graph, path)
            if within is not None:
                assert set(path.nodes) <= within


# ----------------------------------------------------------------------
# snapshot resolution
# ----------------------------------------------------------------------


class TestEngineResolution:
    def test_flat_builds_on_demand_python_ignores(self):
        """Without a snapshot the production search builds (and traces)
        one; given one it builds none; the reference loop never does."""
        case, snapshot = workload_case(0)
        source, target = case.queries[0]
        tracer = Tracer()
        with use_tracer(tracer):
            reference.skyline_paths(case.graph, source, target)
            assert count_spans(tracer, "accel.csr.build") == 0
            skyline_paths(case.graph, source, target, snapshot=snapshot)
            assert count_spans(tracer, "accel.csr.build") == 0
            skyline_paths(case.graph, source, target)
        assert count_spans(tracer, "accel.csr.build") == 1


# ----------------------------------------------------------------------
# flat vs reference bit identity
# ----------------------------------------------------------------------


class TestFlatParity:
    @given(seed=st.integers(0, 47))
    @settings(max_examples=12, deadline=None)
    def test_skyline_paths_identical_on_workload_graphs(self, seed):
        """Paths, their order, and every search counter must match."""
        case, snapshot = workload_case(seed)
        for source, target in case.queries:
            python = reference.skyline_paths(case.graph, source, target)
            flat = skyline_paths(
                case.graph, source, target, snapshot=snapshot
            )
            assert answer_set(python) == answer_set(flat)
            assert (
                python.stats.as_span_counters()
                == flat.stats.as_span_counters()
            )

    @given(seed=st.integers(0, 23))
    @settings(max_examples=8, deadline=None)
    def test_many_to_many_identical_on_workload_graphs(self, seed):
        case, snapshot = workload_case(seed)
        nodes = sorted(case.graph.nodes())
        dim = case.graph.dim
        seeds = [
            Seed(nodes[0], (0.0,) * dim, payload="a"),
            Seed(nodes[1], tuple(float(i) for i in range(1, dim + 1)), "b"),
        ]
        targets = nodes[-3:]
        python = reference.many_to_many_skyline(case.graph, seeds, targets)
        flat = many_to_many_skyline(
            case.graph, seeds, targets, snapshot=snapshot
        )
        assert self._hits(python) == self._hits(flat)
        assert (
            python.stats.as_span_counters() == flat.stats.as_span_counters()
        )

    @staticmethod
    def _hits(result):
        return {
            target: [
                (cost, payload, path.nodes, path.cost)
                for cost, (payload, path) in pareto
            ]
            for target, pareto in result.hits.items()
        }


# ----------------------------------------------------------------------
# service caching + store persistence of the snapshot
# ----------------------------------------------------------------------


def count_spans(tracer: Tracer, name: str) -> int:
    return sum(
        1
        for root in tracer.roots()
        for span, _ in root.walk()
        if span.name == name
    )


class TestSnapshotLifecycle:
    def test_service_builds_csr_once_per_generation(self):
        """The acceptance criterion: one ``accel.csr.build`` span per
        index generation, no matter how many queries are served."""
        graph = road_network(60, dim=2, seed=5)
        nodes = sorted(graph.nodes())
        tracer = Tracer()
        engine = SkylineQueryEngine(graph, tracer=tracer)
        for source, target in [
            (nodes[0], nodes[-1]),
            (nodes[1], nodes[-2]),
            (nodes[2], nodes[-3]),
        ]:
            engine.query(source, target, use_cache=False)
        assert count_spans(tracer, "accel.csr.build") == 1
        assert engine.metrics_snapshot()["csr_ready"] is True

        engine.bump_generation()
        assert engine.metrics_snapshot()["csr_ready"] is False
        engine.query(nodes[0], nodes[-1], use_cache=False)
        assert count_spans(tracer, "accel.csr.build") == 2

    def test_store_round_trip_carries_the_gl_snapshot(self, tmp_path):
        """The store carries G_L; the loaded index rebuilds the same
        snapshot from it on first use."""
        case, _ = workload_case(4)
        index = build_backbone_index(case.graph, qa_params(case.spec))
        built = index.csr_top()
        path = tmp_path / "case.rbi"
        info = save_index(index, path)
        # params/topgraph/provenance + one per level; G_L's CSR is derived
        assert info["sections"] == 3 + index.height
        assert info["sections"] == len(inspect_store(path)["sections"])
        loaded = load_index(path, case.graph)
        tracer = Tracer()
        restored = loaded.csr_top(tracer=tracer)
        assert count_spans(tracer, "accel.csr.build") == 1
        assert restored.same_topology(built)

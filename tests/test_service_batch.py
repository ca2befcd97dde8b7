"""Tests for the batch executor: ordering, dedup, grouping, equivalence."""

from __future__ import annotations

import pytest

from repro.core.builder import build_backbone_index
from repro.core.params import BackboneParams
from repro.errors import NodeNotFoundError, QueryError
from repro.eval.queries import Query
from repro.graph.generators import road_network
from repro.qa.invariants import identical_answer_errors
from repro.service import SkylineQueryEngine, execute_batch

PARAMS = BackboneParams(m_max=25, m_min=5, p=0.1)


def costs(paths):
    return sorted(p.cost for p in paths)


@pytest.fixture(scope="module")
def network():
    return road_network(240, dim=2, seed=23)


@pytest.fixture(scope="module")
def index(network):
    return build_backbone_index(network, PARAMS)


@pytest.fixture()
def engine(network, index):
    return SkylineQueryEngine(
        network, index=index, params=PARAMS, exact_node_threshold=0
    )


@pytest.fixture(scope="module")
def workload(network):
    nodes = sorted(network.nodes())
    # Mixed shape: two shared-source runs, scattered pairs, duplicates.
    pairs = [
        (nodes[0], nodes[-1]),
        (nodes[0], nodes[120]),
        (nodes[5], nodes[-3]),
        (nodes[0], nodes[60]),
        (nodes[0], nodes[-1]),  # duplicate
        (nodes[9], nodes[200]),
        (nodes[9], nodes[40]),
        (nodes[5], nodes[-3]),  # duplicate
    ]
    return pairs


def serial_baseline(network, index, workload, mode="auto"):
    engine = SkylineQueryEngine(
        network, index=index, params=PARAMS, exact_node_threshold=0
    )
    return [
        costs(engine.query(s, t, mode=mode, use_cache=False).paths)
        for s, t in workload
    ]


class TestOrdering:
    def test_responses_preserve_input_order(self, engine, workload):
        outcome = execute_batch(engine, workload)
        assert [(r.source, r.target) for r in outcome.responses] == workload

    def test_query_objects_accepted(self, engine, workload):
        queries = [Query(s, t) for s, t in workload]
        outcome = execute_batch(engine, queries)
        assert [(r.source, r.target) for r in outcome.responses] == workload

    def test_garbage_query_rejected(self, engine):
        with pytest.raises(QueryError):
            execute_batch(engine, ["not-a-query"])

    def test_bad_worker_count_rejected(self, engine, workload):
        with pytest.raises(QueryError):
            execute_batch(engine, workload, max_workers=0)


class TestDedup:
    def test_duplicates_computed_once(self, engine, workload):
        outcome = execute_batch(engine, workload)
        assert outcome.duplicates_folded == 2
        assert outcome.unique_queries == len(set(workload))
        # The engine only ever saw the unique queries.
        assert (
            engine.metrics.counter("engine.queries").value
            == outcome.unique_queries
        )

    def test_duplicate_positions_get_equal_skylines(self, engine, workload):
        outcome = execute_batch(engine, workload)
        by_pair: dict[tuple[int, int], list] = {}
        for pair, response in zip(workload, outcome.responses):
            by_pair.setdefault(pair, []).append(costs(response.paths))
        for answers in by_pair.values():
            assert all(answer == answers[0] for answer in answers)


class TestGrouping:
    def test_same_source_queries_grouped(self, engine, workload):
        outcome = execute_batch(engine, workload)
        # Sources 0 and 9 both have >1 approximate target.
        assert outcome.source_groups == 2
        assert outcome.grouped_queries == 5

    def test_grouping_skipped_for_exact_plans(self, network, index, workload):
        engine = SkylineQueryEngine(
            network, index=index, params=PARAMS,
            exact_node_threshold=network.num_nodes,  # auto -> exact
        )
        outcome = execute_batch(engine, workload)
        assert outcome.source_groups == 0
        assert all(r.mode == "exact" for r in outcome.responses)


class TestEquivalence:
    def test_batch_equals_serial(self, network, index, engine, workload):
        expected = serial_baseline(network, index, workload)
        outcome = execute_batch(engine, workload)
        assert [costs(r.paths) for r in outcome.responses] == expected

    def test_exact_mode_batch_equals_serial(
        self, network, index, engine, workload
    ):
        expected = serial_baseline(network, index, workload[:4], mode="exact")
        outcome = execute_batch(engine, workload[:4], mode="exact")
        assert [costs(r.paths) for r in outcome.responses] == expected


class TestExactServing:
    def test_exact_batch_is_per_query_serving(self):
        """An exact batch on a graph of 400+ nodes answers bit-identically
        to serving each pair alone: same paths, same order."""
        network = road_network(400, dim=2, seed=11)
        nodes = sorted(network.nodes())
        pairs = [(nodes[i], nodes[-(3 * i + 1)]) for i in range(8)]
        batch = execute_batch(
            SkylineQueryEngine(network), pairs, mode="exact", use_cache=False
        )
        single = SkylineQueryEngine(network)
        for (source, target), response in zip(pairs, batch.responses):
            alone = single.query(source, target, mode="exact", use_cache=False)
            assert response.mode == "exact"
            assert not identical_answer_errors(
                "per-query", alone.paths, "batch", response.paths
            )
            assert [p.nodes for p in response.paths] == [
                p.nodes for p in alone.paths
            ]


class TestFailuresAndAccounting:
    def test_unknown_node_propagates(self, engine, network):
        nodes = sorted(network.nodes())
        with pytest.raises(NodeNotFoundError):
            execute_batch(
                engine, [(nodes[0], nodes[1]), (nodes[0], 999999)]
            )

    def test_batch_metrics_recorded(self, engine, workload):
        execute_batch(engine, workload)
        snapshot = engine.metrics_snapshot()
        assert snapshot["counters"]["batch.batches"] == 1
        assert snapshot["counters"]["batch.queries"] == len(workload)
        assert snapshot["counters"]["batch.duplicates_folded"] == 2
        assert snapshot["histograms"]["batch.batch_seconds"]["count"] == 1

    def test_throughput_property(self, engine, workload):
        outcome = execute_batch(engine, workload)
        assert outcome.queries_per_second > 0

    @pytest.mark.slow
    def test_many_batches_stress(self, network, index):
        engine = SkylineQueryEngine(
            network, index=index, params=PARAMS, exact_node_threshold=0
        )
        nodes = sorted(network.nodes())
        pool = [(nodes[i], nodes[-(i + 1)]) for i in range(8)]
        expected = {
            pair: costs(engine.query(*pair, use_cache=False).paths)
            for pair in pool
        }
        for round_number in range(10):
            workload = [pool[(round_number + i) % len(pool)] for i in range(24)]
            outcome = execute_batch(engine, workload)
            for pair, response in zip(workload, outcome.responses):
                assert costs(response.paths) == expected[pair]
        assert engine.cache.stats.hits > 0

"""Tests for the batch executor: ordering, dedup, grouping, equivalence."""

from __future__ import annotations

import pytest

from repro.core.builder import build_backbone_index
from repro.core.params import BackboneParams
from repro.errors import NodeNotFoundError, QueryError
from repro.eval.queries import Query
from repro.graph.generators import road_network
from repro.service import SkylineQueryEngine, execute_batch
from repro.service import engine as engine_module

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
        outcome = execute_batch(engine, workload, max_workers=3)
        assert [(r.source, r.target) for r in outcome.responses] == workload

    def test_query_objects_accepted(self, engine, workload):
        queries = [Query(s, t) for s, t in workload]
        outcome = execute_batch(engine, queries, max_workers=2)
        assert [(r.source, r.target) for r in outcome.responses] == workload

    def test_garbage_query_rejected(self, engine):
        with pytest.raises(QueryError):
            execute_batch(engine, ["not-a-query"])

    def test_bad_worker_count_rejected(self, engine, workload):
        with pytest.raises(QueryError):
            execute_batch(engine, workload, max_workers=0)


class TestDedup:
    def test_duplicates_computed_once(self, engine, workload):
        outcome = execute_batch(engine, workload, max_workers=1)
        assert outcome.duplicates_folded == 2
        assert outcome.unique_queries == len(set(workload))
        # The engine only ever saw the unique queries.
        assert (
            engine.metrics.counter("engine.queries").value
            == outcome.unique_queries
        )

    def test_duplicate_positions_get_equal_skylines(self, engine, workload):
        outcome = execute_batch(engine, workload, max_workers=2)
        by_pair: dict[tuple[int, int], list] = {}
        for pair, response in zip(workload, outcome.responses):
            by_pair.setdefault(pair, []).append(costs(response.paths))
        for answers in by_pair.values():
            assert all(answer == answers[0] for answer in answers)


class TestGrouping:
    def test_same_source_queries_grouped(self, engine, workload):
        outcome = execute_batch(engine, workload, max_workers=2)
        # Sources 0 and 9 both have >1 approximate target.
        assert outcome.source_groups == 2
        assert outcome.grouped_queries == 5

    def test_grouping_skipped_for_exact_plans(self, network, index, workload):
        engine = SkylineQueryEngine(
            network, index=index, params=PARAMS,
            exact_node_threshold=network.num_nodes,  # auto -> exact
        )
        outcome = execute_batch(engine, workload, max_workers=2)
        assert outcome.source_groups == 0
        assert all(r.mode == "exact" for r in outcome.responses)


class TestEquivalence:
    def test_batch_equals_serial(self, network, index, engine, workload):
        expected = serial_baseline(network, index, workload)
        outcome = execute_batch(engine, workload, max_workers=4)
        assert [costs(r.paths) for r in outcome.responses] == expected

    def test_batch_equals_serial_without_grouping(
        self, network, index, engine, workload
    ):
        expected = serial_baseline(network, index, workload)
        outcome = execute_batch(
            engine, workload, max_workers=4, group_by_source=False
        )
        assert [costs(r.paths) for r in outcome.responses] == expected

    def test_single_worker_equals_parallel(self, network, index, workload):
        one = execute_batch(
            SkylineQueryEngine(
                network, index=index, params=PARAMS, exact_node_threshold=0
            ),
            workload,
            max_workers=1,
        )
        many = execute_batch(
            SkylineQueryEngine(
                network, index=index, params=PARAMS, exact_node_threshold=0
            ),
            workload,
            max_workers=4,
        )
        assert [costs(r.paths) for r in one.responses] == [
            costs(r.paths) for r in many.responses
        ]

    def test_exact_mode_batch_equals_serial(
        self, network, index, engine, workload
    ):
        expected = serial_baseline(network, index, workload[:4], mode="exact")
        outcome = execute_batch(
            engine, workload[:4], max_workers=2, mode="exact"
        )
        assert [costs(r.paths) for r in outcome.responses] == expected


class TestFusedExactServing:
    """Exact-plan singles fuse into one bucket traversal past the fuse
    crossover, answer-set-equal to per-query serving.  The 240-node
    test network sits below the measured crossover, so the fusing
    fixtures lower it."""

    @pytest.fixture()
    def batch_engine(self, network, index, monkeypatch):
        monkeypatch.setattr(engine_module, "FUSE_NODE_CROSSOVER", 0)
        return SkylineQueryEngine(
            network, index=index, params=PARAMS,
            exact_node_threshold=network.num_nodes,  # auto -> exact
        )

    def test_fuse_decision_follows_node_count(self):
        """An 8-pair exact batch fuses at 1,200 nodes, not at 150."""
        small = SkylineQueryEngine(road_network(150, dim=2, seed=3))
        large = SkylineQueryEngine(road_network(1200, dim=2, seed=3))
        assert not small.batch_tier(8)
        assert large.batch_tier(8)
        assert not large.batch_tier(1)

    def test_exact_singles_fused(self, batch_engine, workload):
        outcome = execute_batch(batch_engine, workload, max_workers=2)
        assert outcome.fused_queries == len(set(workload))
        assert all(r.mode == "exact" for r in outcome.responses)
        metrics = batch_engine.metrics_snapshot()["counters"]
        assert metrics["engine.fused_batches"] == 1
        assert metrics["batch.fused_queries"] == outcome.fused_queries

    def test_fused_equals_serial_answers(
        self, network, index, batch_engine, workload
    ):
        expected = serial_baseline(network, index, workload, mode="exact")
        outcome = execute_batch(batch_engine, workload, max_workers=2)
        assert [costs(r.paths) for r in outcome.responses] == expected

    def test_second_batch_served_from_cache(self, batch_engine, workload):
        execute_batch(batch_engine, workload)
        repeat = execute_batch(batch_engine, workload)
        assert all(r.cache_hit for r in repeat.responses)
        assert (
            batch_engine.metrics_snapshot()["counters"]["engine.fused_batches"]
            == 1
        )

    def test_lone_exact_query_skips_fusion(self, batch_engine, workload):
        outcome = execute_batch(batch_engine, workload[:1])
        assert outcome.fused_queries == 0
        assert outcome.responses[0].mode == "exact"

    def test_flat_tier_never_fuses(self, network, index, workload):
        """Below the crossover every exact query runs the flat kernel."""
        engine = SkylineQueryEngine(
            network, index=index, params=PARAMS,
            exact_node_threshold=network.num_nodes,
        )
        outcome = execute_batch(engine, workload, max_workers=2)
        assert outcome.fused_queries == 0
        assert "engine.fused_batches" not in (
            engine.metrics_snapshot()["counters"]
        )

    def test_direct_method_python_fallback(
        self, network, index, workload, monkeypatch
    ):
        """query_batch_fused below the crossover serves serially with
        the fused answers, so callers may route unconditionally."""
        serial_engine = SkylineQueryEngine(network, index=index, params=PARAMS)
        pairs = list(dict.fromkeys(workload))[:4]
        serial = serial_engine.query_batch_fused(pairs, use_cache=False)
        monkeypatch.setattr(engine_module, "FUSE_NODE_CROSSOVER", 0)
        batch_engine = SkylineQueryEngine(network, index=index, params=PARAMS)
        fused = batch_engine.query_batch_fused(pairs, use_cache=False)
        assert [costs(r.paths) for r in serial] == [
            costs(r.paths) for r in fused
        ]
        assert "engine.fused_batches" not in (
            serial_engine.metrics_snapshot()["counters"]
        )
        assert batch_engine.metrics_snapshot()["counters"][
            "engine.fused_batches"
        ] == 1


class TestFailuresAndAccounting:
    def test_unknown_node_propagates(self, engine, network):
        nodes = sorted(network.nodes())
        with pytest.raises(NodeNotFoundError):
            execute_batch(
                engine, [(nodes[0], nodes[1]), (nodes[0], 999999)],
                max_workers=2,
            )

    def test_batch_metrics_recorded(self, engine, workload):
        execute_batch(engine, workload, max_workers=2)
        snapshot = engine.metrics_snapshot()
        assert snapshot["counters"]["batch.batches"] == 1
        assert snapshot["counters"]["batch.queries"] == len(workload)
        assert snapshot["counters"]["batch.duplicates_folded"] == 2
        assert snapshot["histograms"]["batch.batch_seconds"]["count"] == 1

    def test_throughput_property(self, engine, workload):
        outcome = execute_batch(engine, workload, max_workers=2)
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
            outcome = execute_batch(engine, workload, max_workers=6)
            for pair, response in zip(workload, outcome.responses):
                assert costs(response.paths) == expected[pair]
        assert engine.cache.stats.hits > 0

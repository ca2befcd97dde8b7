"""Multi-process batch serving: identity, errors, swaps, metrics.

The contract under test: a :class:`~repro.mp.dispatcher.MPBatchServer`
must be answer-set-*identical* to a single-process engine on the same
index (workers share the published CSR snapshot zero-copy, so any
divergence means a torn or mislabelled buffer), must convert worker
failures into per-query errors rather than dying, and must swap to a
new generation at batch boundaries when the maintained network changes.

The multi-seed fuzz and swap-stress cases are ``slow``-marked; tier-1
keeps one representative of each path.
"""

from __future__ import annotations

import pytest

from repro.core.builder import build_backbone_index
from repro.core.maintenance import MaintainableIndex
from repro.core.params import BackboneParams
from repro.errors import QueryError
from repro.graph.generators import road_network
from repro.mp import MPBatchServer, MPQueryError, MPServingError
from repro.qa.invariants import identical_answer_errors
from repro.service import SkylineQueryEngine, execute_batch

PARAMS = BackboneParams(m_max=25, m_min=5, p=0.1)


def answer_sets(responses):
    """Positional list of sorted (cost, nodes) answer sets (None kept)."""
    out = []
    for response in responses:
        if response is None:
            out.append(None)
        else:
            out.append(
                sorted((p.cost, tuple(p.nodes)) for p in response.paths)
            )
    return out


@pytest.fixture(scope="module")
def network():
    return road_network(220, dim=2, seed=71)


@pytest.fixture(scope="module")
def index(network):
    return build_backbone_index(network, PARAMS)


@pytest.fixture(scope="module")
def workload(network):
    nodes = sorted(network.nodes())
    return [
        (nodes[0], nodes[-1]),
        (nodes[0], nodes[100]),
        (nodes[7], nodes[-5]),
        (nodes[0], nodes[50]),
        (nodes[0], nodes[-1]),  # duplicate — must fold
        (nodes[13], nodes[170]),
        (nodes[7], nodes[30]),
    ]


def single_process_answers(network, index, workload, *, mode="auto"):
    engine = SkylineQueryEngine(
        network, index=index, params=PARAMS, cache_size=0
    )
    outcome = execute_batch(engine, workload, mode=mode, use_cache=False)
    return answer_sets(outcome.responses)


class TestBatchIdentity:
    def test_two_workers_match_single_process(self, network, index, workload):
        expected = single_process_answers(network, index, workload)
        with MPBatchServer(
            network, index=index, params=PARAMS, workers=2
        ) as server:
            result = server.submit(workload)
        assert result.ok
        assert not result.errors
        assert len(result.responses) == len(workload)
        assert result.duplicates_folded == 1
        assert result.unique_queries == len(workload) - 1
        assert answer_sets(result.responses) == expected
        # Positional alignment: each response echoes its query.
        for (source, target), response in zip(workload, result.responses):
            assert (response.source, response.target) == (source, target)
            assert response.generation == 0
            assert response.stats is None  # stripped before IPC

    def test_exact_mode_matches_too(self, network, index, workload):
        expected = single_process_answers(
            network, index, workload, mode="approx"
        )
        with MPBatchServer(
            network, index=index, params=PARAMS, workers=2
        ) as server:
            result = server.submit(workload, mode="approx")
        assert answer_sets(result.responses) == expected

    def test_single_worker_cohort(self, network, index, workload):
        expected = single_process_answers(network, index, workload)
        with MPBatchServer(
            network, index=index, params=PARAMS, workers=1
        ) as server:
            result = server.submit(workload)
        assert answer_sets(result.responses) == expected
        assert result.workers == 1

    def test_empty_batch(self, network, index):
        with MPBatchServer(
            network, index=index, params=PARAMS, workers=1
        ) as server:
            result = server.submit([])
        assert result.ok and len(result.responses) == 0


class TestErrorPaths:
    def test_bad_query_becomes_positional_error(self, network, index, workload):
        nodes = sorted(network.nodes())
        missing = max(nodes) + 999
        mixed = [workload[0], (nodes[0], missing), workload[2]]
        with MPBatchServer(
            network, index=index, params=PARAMS, workers=2
        ) as server:
            result = server.submit(mixed)
        assert not result.ok
        assert len(result.errors) == 1
        error = result.errors[0]
        assert isinstance(error, MPQueryError)
        assert missing in error.targets
        # Good queries still answered, bad position is None.
        answers = answer_sets(result.responses)
        assert answers[0] is not None and answers[2] is not None
        assert result.responses[1] is None

    def test_fail_fast_raises(self, network, index, workload):
        nodes = sorted(network.nodes())
        mixed = [workload[0], (nodes[0], max(nodes) + 999)]
        with MPBatchServer(
            network, index=index, params=PARAMS, workers=1
        ) as server:
            with pytest.raises(MPQueryError):
                server.submit(mixed, fail_fast=True)
            # The server survives a failed batch.
            again = server.submit([workload[0]])
            assert again.ok

    def test_constructor_validation(self, network, index):
        with pytest.raises(QueryError):
            MPBatchServer(network, index=index, params=PARAMS, workers=0)
        with pytest.raises(QueryError):
            MPBatchServer(
                network, index=index, params=PARAMS, workers=1, max_inflight=0
            )

    def test_submit_after_stop_rejected(self, network, index, workload):
        server = MPBatchServer(network, index=index, params=PARAMS, workers=1)
        server.start()
        server.stop()
        with pytest.raises(MPServingError):
            server.submit([workload[0]])


class TestGenerationSwap:
    @staticmethod
    def bump_one_edge(maintainer):
        """Scale one edge's cost 1.5x (keeps the network connected)."""
        u, v, _cost = next(iter(maintainer.graph.edges()))
        old = maintainer.graph.edge_costs(u, v)[0]
        maintainer.update_edge_cost(u, v, old, tuple(c * 1.5 for c in old))

    def test_swap_at_batch_boundary(self, network):
        maintainer = MaintainableIndex(network, PARAMS)
        nodes = sorted(network.nodes())
        pairs = [(nodes[0], nodes[-1]), (nodes[7], nodes[120])]
        with MPBatchServer(
            maintainer.graph, maintainer=maintainer, params=PARAMS, workers=2
        ) as server:
            first = server.submit(pairs)
            assert first.generation == 0
            assert server.generation == 0

            # Structural update: the next batch must be served by a new
            # cohort against the new index, stamped with the bumped
            # generation.
            self.bump_one_edge(maintainer)
            assert maintainer.generation == 1

            second = server.submit(pairs)
            assert second.generation == 1
            assert server.generation == 1
            assert second.ok

            # Answers after the swap match a fresh single-process engine
            # on the maintained index.
            oracle = SkylineQueryEngine(
                maintainer=maintainer, cache_size=0
            )
            for (s, t), response in zip(pairs, second.responses):
                baseline = oracle.query(s, t, use_cache=False).paths
                assert not identical_answer_errors(
                    "single", baseline, "mp", response.paths
                )

    @pytest.mark.slow
    def test_repeated_swaps_stay_identical(self, network):
        maintainer = MaintainableIndex(network, PARAMS)
        nodes = sorted(network.nodes())
        pairs = [(nodes[0], nodes[-1]), (nodes[3], nodes[90])]
        oracle = SkylineQueryEngine(
            maintainer=maintainer, cache_size=0
        )
        with MPBatchServer(
            maintainer.graph, maintainer=maintainer, params=PARAMS, workers=2
        ) as server:
            for step in range(3):
                self.bump_one_edge(maintainer)
                result = server.submit(pairs)
                assert result.generation == maintainer.generation == step + 1
                for (s, t), response in zip(pairs, result.responses):
                    baseline = oracle.query(s, t, use_cache=False).paths
                    assert not identical_answer_errors(
                        "single", baseline, "mp", response.paths
                    )


class TestMetricsRollup:
    def test_worker_counters_merge_into_parent(self, network, index, workload):
        with MPBatchServer(
            network, index=index, params=PARAMS, workers=2
        ) as server:
            server.submit(workload)
            doc = server.flush_metrics()
        assert doc["mp"]["workers"] == 2
        assert doc["mp"]["generation"] == 0
        assert doc["mp"]["segment_bytes"] > 0
        assert doc["counters"]["mp.queries"] == len(workload)
        # Worker-side query counters rolled up into the parent registry.
        assert doc["counters"].get("engine.queries", 0) >= len(set(workload))


class TestQALoad:
    def test_one_seeded_case_is_clean(self):
        from repro.qa import MPLoadConfig, run_mp_case
        from repro.qa.workload import CaseSpec

        report = run_mp_case(
            CaseSpec.from_seed(3, n_nodes=60, n_queries=4, n_updates=2),
            MPLoadConfig(workers=2, update_pause=0.02),
        )
        assert report.ok, report.discrepancies

    @pytest.mark.slow
    def test_fuzz_handful_of_seeds(self):
        from repro.qa import MPLoadConfig, fuzz_mp

        report = fuzz_mp(
            range(4),
            MPLoadConfig(workers=2, update_pause=0.02),
            n_nodes=60,
            n_queries=4,
            n_updates=2,
        )
        assert report.ok, report.discrepancies


class TestCorridorMode:
    def test_corridor_batch_matches_single_process(
        self, network, index, workload
    ):
        expected = single_process_answers(
            network, index, workload, mode="corridor"
        )
        with MPBatchServer(
            network, index=index, params=PARAMS, workers=2,
            quality_target=0.5,
        ) as server:
            result = server.submit(workload, mode="corridor")
        assert result.ok
        assert answer_sets(result.responses) == expected
        for response in result.responses:
            assert response.mode == "corridor"
            # The quality report survives the IPC round trip even
            # though stats are stripped.
            assert response.quality is not None
            assert response.stats is None

    def test_corridor_knobs_reach_workers(self, network, index):
        from repro.mp.worker import build_worker_engine

        with MPBatchServer(
            network, index=index, params=PARAMS, workers=1,
            corridor_radius=4, quality_target=0.8,
        ) as server:
            engine = build_worker_engine(
                network, index, None, 0, server._config
            )
            assert engine.corridor_radius == 4
            assert engine.quality_target == 0.8

"""Tests for the serving engine: planner, caching, budgets, warm-up."""

from __future__ import annotations

import pytest

from repro.core.builder import build_backbone_index
from repro.core.params import BackboneParams
from repro.core.query import backbone_query_shared_source
from repro.errors import NodeNotFoundError, QueryError
from repro.graph.generators import road_network
from repro.search.bbs import skyline_paths
from repro.service import SkylineQueryEngine

PARAMS = BackboneParams(m_max=25, m_min=5, p=0.1)


def costs(paths):
    return sorted(p.cost for p in paths)


@pytest.fixture(scope="module")
def network():
    return road_network(240, dim=2, seed=9)


@pytest.fixture(scope="module")
def index(network):
    return build_backbone_index(network, PARAMS)


@pytest.fixture()
def engine(network, index):
    """A fresh engine per test so cache/metrics assertions are isolated."""
    return SkylineQueryEngine(
        network, index=index, params=PARAMS, exact_node_threshold=0
    )


def pair(network, offset=0):
    nodes = sorted(network.nodes())
    return nodes[offset], nodes[-(offset + 1)]


class TestPlanner:
    def test_forced_modes_pass_through(self, engine, network):
        s, t = pair(network)
        assert engine.plan(s, t, "exact") == "exact"
        assert engine.plan(s, t, "approx") == "approx"

    def test_unknown_mode_rejected(self, engine, network):
        s, t = pair(network)
        with pytest.raises(QueryError):
            engine.plan(s, t, "fuzzy")

    def test_auto_small_graph_is_exact(self, network, index):
        engine = SkylineQueryEngine(
            network, index=index, params=PARAMS,
            exact_node_threshold=network.num_nodes,
        )
        s, t = pair(network)
        assert engine.plan(s, t, "auto") == "exact"

    def test_auto_large_graph_is_approx(self, engine, network):
        s, t = pair(network)
        assert engine.plan(s, t, "auto") == "approx"

    def test_auto_same_cluster_is_exact(self, engine, index):
        level0 = index.levels[0]
        found = None
        for node in level0.nodes():
            label = level0.get(node)
            for other in level0.nodes():
                if other == node:
                    continue
                other_label = level0.get(other)
                if not set(label.entrances).isdisjoint(other_label.entrances):
                    found = (node, other)
                    break
            if found:
                break
        assert found is not None, "no same-cluster pair in test index"
        assert engine.plan(*found, "auto") == "exact"


class TestServing:
    def test_exact_matches_library_bbs(self, engine, network):
        s, t = pair(network)
        response = engine.query(s, t, mode="exact")
        assert response.mode == "exact"
        assert costs(response.paths) == costs(skyline_paths(network, s, t).paths)

    def test_approx_matches_library_query(self, engine, network, index):
        s, t = pair(network, 3)
        response = engine.query(s, t, mode="approx")
        assert response.mode == "approx"
        expected = backbone_query_shared_source(index, s, [t])[t]
        assert costs(response.paths) == costs(expected.paths)

    def test_repeated_query_hits_cache_with_equal_skyline(
        self, engine, network
    ):
        s, t = pair(network, 1)
        first = engine.query(s, t)
        assert not first.cache_hit
        second = engine.query(s, t)
        assert second.cache_hit
        assert costs(second.paths) == costs(first.paths)
        assert engine.cache.stats.hits == 1

    def test_cache_opt_out(self, engine, network):
        s, t = pair(network, 2)
        engine.query(s, t, use_cache=False)
        second = engine.query(s, t, use_cache=False)
        assert not second.cache_hit
        assert engine.cache.stats.hits == 0

    def test_missing_node_raises(self, engine):
        with pytest.raises(NodeNotFoundError):
            engine.query(-1, 0)

    def test_self_query(self, engine, network):
        node = sorted(network.nodes())[0]
        response = engine.query(node, node)
        assert len(response.paths) == 1
        assert response.paths[0].is_trivial()

    def test_query_group_aligns_with_targets(self, engine, network):
        nodes = sorted(network.nodes())
        source = nodes[0]
        targets = [nodes[-1], nodes[100], nodes[-1], source]
        responses = engine.query_group(source, targets)
        assert [r.target for r in responses] == targets
        assert all(r.source == source for r in responses)
        # The duplicated target must come back with the same skyline.
        assert costs(responses[0].paths) == costs(responses[2].paths)


class TestBudgets:
    def test_expired_budget_returns_truncated_not_raises(
        self, engine, network
    ):
        s, t = pair(network)
        response = engine.query(s, t, mode="approx", time_budget=0.0)
        assert response.truncated
        # Exact BBS may close instantly off its seeded shortest paths;
        # it must either report truncation or a legitimately complete
        # (and therefore exact) skyline — never raise.
        response = engine.query(s, t, mode="exact", time_budget=0.0)
        if not response.truncated:
            assert costs(response.paths) == costs(
                skyline_paths(network, s, t).paths
            )

    def test_default_budget_applies(self, network, index):
        engine = SkylineQueryEngine(
            network, index=index, params=PARAMS,
            exact_node_threshold=0, default_time_budget=0.0,
        )
        s, t = pair(network)
        assert engine.query(s, t).truncated
        assert engine.metrics.counter("engine.truncated").value == 1

    def test_generous_budget_not_truncated(self, engine, network):
        s, t = pair(network)
        assert not engine.query(s, t, time_budget=120.0).truncated

    def test_truncated_response_is_never_cached(self, engine, network):
        """Regression: a deadline-truncated partial skyline used to be
        stored like a complete answer, so every later unbudgeted query
        for the pair was served the partial result from cache."""
        s, t = pair(network)
        first = engine.query(s, t, mode="approx", time_budget=0.0)
        assert first.truncated
        assert len(engine.cache) == 0

        follow_up = engine.query(s, t, mode="approx")
        assert not follow_up.cache_hit
        assert not follow_up.truncated
        assert follow_up.paths
        # The complete answer is cached as usual.
        repeat = engine.query(s, t, mode="approx")
        assert repeat.cache_hit
        assert costs(repeat.paths) == costs(follow_up.paths)


class TestWarmState:
    def test_index_built_on_demand(self, network):
        engine = SkylineQueryEngine(
            network, params=PARAMS, exact_node_threshold=0
        )
        assert engine.index is None
        s, t = pair(network)
        engine.query(s, t, mode="approx")
        assert engine.index is not None
        assert engine.metrics.counter("engine.index_builds").value == 1

    def test_warm_primes_everything(self, network):
        engine = SkylineQueryEngine(
            network, params=PARAMS, exact_node_threshold=0
        )
        timings = engine.warm()
        assert set(timings) == {
            "index_seconds", "csr_seconds", "landmark_seconds"
        }
        # Exact queries bound over the CSR snapshot: warm() builds no
        # original-graph landmarks.
        assert timings["landmark_seconds"] == 0.0
        snapshot = engine.metrics_snapshot()
        assert snapshot["index_ready"] and snapshot["csr_ready"]
        assert "landmarks_ready" not in snapshot

    def test_warm_bounds_do_not_change_exact_answers(self, network, index):
        s, t = pair(network, 4)
        cold = SkylineQueryEngine(network, index=index, params=PARAMS)
        warm = SkylineQueryEngine(network, index=index, params=PARAMS)
        warm.warm()
        assert costs(cold.query(s, t, mode="exact").paths) == costs(
            warm.query(s, t, mode="exact").paths
        )

    def test_from_files(self, tmp_path, network):
        from repro.graph.io import write_dimacs_co, write_dimacs_gr

        gr = tmp_path / "net.gr"
        write_dimacs_gr(network, gr)
        write_dimacs_co(network, tmp_path / "net.co")
        engine = SkylineQueryEngine.from_files(
            gr, params=PARAMS, exact_node_threshold=0
        )
        s, t = pair(network)
        assert engine.query(s, t).paths


class TestMetrics:
    def test_snapshot_counts_queries(self, engine, network):
        s, t = pair(network)
        engine.query(s, t)
        engine.query(s, t)
        snapshot = engine.metrics_snapshot()
        assert snapshot["counters"]["engine.queries"] == 2
        assert snapshot["counters"]["engine.cache_hits"] == 1
        assert snapshot["histograms"]["engine.query_seconds"]["count"] == 2
        assert snapshot["cache"]["hits"] == 1
        assert snapshot["generation"] == 0

    def test_exporters_render(self, engine, network):
        s, t = pair(network)
        engine.query(s, t)
        assert "engine.queries" in engine.metrics.to_json()
        text = engine.metrics.to_text()
        assert "engine.queries 1" in text
        assert 'quantile="0.95"' in text


class TestCorridorServing:
    def test_corridor_answers_are_valid_and_scored(self, engine, network):
        from repro.qa.invariants import (
            approximation_errors,
            non_dominance_errors,
            path_errors,
        )

        s, t = pair(network)
        exact = engine.query(s, t, mode="exact")
        served = engine.query(s, t, mode="corridor")
        assert served.mode == "corridor"
        assert served.paths
        for path in served.paths:
            assert not path_errors(network, path, source=s, target=t)
        assert not non_dominance_errors(served.paths)
        assert not approximation_errors(
            served.paths, exact.paths, rac_bound=None
        )
        # Scored against the cached exact answer from the query above.
        assert served.quality is not None
        assert served.quality.reference == "exact_cached"
        assert served.quality.checked
        assert 0.0 <= served.quality.hypervolume_ratio <= 1.0

    def test_without_reference_report_is_structural(self, engine, network):
        s, t = pair(network)
        served = engine.query(s, t, mode="corridor")
        assert served.quality is not None
        assert served.quality.reference == "none"
        assert not served.quality.checked

    def test_corridor_responses_are_cached_per_mode(self, engine, network):
        s, t = pair(network)
        first = engine.query(s, t, mode="corridor")
        again = engine.query(s, t, mode="corridor")
        assert not first.cache_hit and again.cache_hit
        assert [p.cost for p in again.paths] == [
            p.cost for p in first.paths
        ]

    def test_corridor_structure_cache_reused(self, engine, network):
        s, t = pair(network)
        engine.query(s, t, mode="corridor", use_cache=False)
        engine.query(s, t, mode="corridor", use_cache=False)
        assert engine.metrics.counter("engine.corridor_builds").value == 1
        assert engine.metrics.counter("engine.corridor_cache_hits").value == 1

    def test_generation_bump_retires_corridors(self, engine, network):
        s, t = pair(network)
        engine.query(s, t, mode="corridor", use_cache=False)
        engine.bump_generation()
        engine.query(s, t, mode="corridor", use_cache=False)
        assert engine.metrics.counter("engine.corridor_builds").value == 2

    def test_missed_target_escalates_to_exact(self, network, index):
        from repro.paths.path import Path
        from repro.service.engine import (
            QueryResponse,
            engine_cache_key,
        )

        engine = SkylineQueryEngine(
            network, index=index, params=PARAMS,
            exact_node_threshold=0, quality_target=0.99,
        )
        s, t = pair(network)
        # Plant an unbeatable exact reference: the corridor answer's
        # retention against it is provably below any target, forcing
        # the escalation path (which then serves this same cached
        # "exact" answer).
        planted = QueryResponse(
            source=s, target=t, mode="exact",
            paths=[Path((s, t), (1e-9, 1e-9))],
        )
        engine.cache.put(engine_cache_key(s, t, "exact", 0), planted)
        served = engine.query(s, t, mode="corridor")
        assert served.escalated
        assert served.mode == "corridor"
        assert not served.quality.meets_target
        assert [p.cost for p in served.paths] == [(1e-9, 1e-9)]
        assert engine.metrics.counter("engine.escalations").value == 1

    def test_met_target_does_not_escalate(self, network, index):
        engine = SkylineQueryEngine(
            network, index=index, params=PARAMS,
            exact_node_threshold=0, quality_target=0.0,
        )
        s, t = pair(network)
        served = engine.query(s, t, mode="corridor")
        assert not served.escalated
        assert engine.metrics.counter("engine.escalations").value == 0

    def test_invalid_corridor_knobs_rejected(self, network, index):
        with pytest.raises(QueryError):
            SkylineQueryEngine(network, index=index, corridor_radius=-1)
        with pytest.raises(QueryError):
            SkylineQueryEngine(network, index=index, quality_target=1.5)

    def test_runtime_status_counts_modes_and_escalations(
        self, engine, network
    ):
        s, t = pair(network)
        engine.query(s, t, mode="exact")
        engine.query(s, t, mode="approx")
        engine.query(s, t, mode="corridor")
        status = engine.runtime_status()
        assert status["queries_by_mode"] == {
            "exact": 1, "approx": 1, "corridor": 1,
        }
        assert status["escalations"] == 0


class TestCorridorPlanner:
    def test_auto_prefers_corridor_when_approx_misses_budget(
        self, engine, network
    ):
        s, t = pair(network)
        assert engine.plan(s, t, "auto", time_budget=0.001) == "approx"
        for _ in range(3):
            engine.metrics.observe("engine.query_seconds.approx", 10.0)
        assert engine.plan(s, t, "auto", time_budget=0.001) == "corridor"
        # A budget the history comfortably fits keeps the default tier.
        assert engine.plan(s, t, "auto", time_budget=100.0) == "approx"

    def test_no_budget_never_plans_corridor(self, engine, network):
        s, t = pair(network)
        for _ in range(5):
            engine.metrics.observe("engine.query_seconds.approx", 10.0)
        assert engine.plan(s, t, "auto") == "approx"

    def test_planner_needs_minimum_history(self, engine, network):
        s, t = pair(network)
        for _ in range(2):
            engine.metrics.observe("engine.query_seconds.approx", 10.0)
        assert engine.plan(s, t, "auto", time_budget=0.001) == "approx"

    def test_auto_query_serves_corridor_under_tight_budget(
        self, engine, network
    ):
        s, t = pair(network)
        for _ in range(3):
            engine.metrics.observe("engine.query_seconds.approx", 10.0)
        served = engine.query(s, t, time_budget=1.0)
        assert served.mode == "corridor"
        assert served.paths


class TestExactBoundsServing:
    """Every exact tier bounds over the current generation's CSR
    snapshot: no original-graph landmarks are built, and after a
    maintenance update the answers follow the repaired graph."""

    def test_answers_follow_updates_without_landmarks(self):
        from repro.approx.corridor import build_corridor
        from repro.core.maintenance import MaintainableIndex
        from repro.obs import Tracer, use_tracer
        from repro.qa import reference

        maintainer = MaintainableIndex(
            road_network(200, dim=2, seed=31), PARAMS
        )
        engine = SkylineQueryEngine(
            maintainer=maintainer, params=PARAMS, exact_node_threshold=0
        )
        nodes = sorted(maintainer.graph.nodes())
        pairs = [(nodes[i], nodes[-(i + 1)]) for i in range(3)]
        tracer = Tracer()
        with use_tracer(tracer):
            engine.warm()
            before = engine.query(*pairs[0], mode="exact")

        # Make the first skyline path's first edge 5x dearer.
        u, v = before.paths[0].nodes[:2]
        old_cost = maintainer.graph.edge_costs(u, v)[0]
        maintainer.update_edge_cost(
            u, v, old_cost, tuple(5 * c for c in old_cost)
        )
        graph = maintainer.graph
        assert engine.generation == 1

        with use_tracer(tracer):
            for s, t in pairs:
                exact = engine.query(s, t, mode="exact")
                ref = reference.skyline_paths(graph, s, t)
                assert [(p.nodes, p.cost) for p in exact.paths] == [
                    (p.nodes, p.cost) for p in ref.paths
                ]
                corridor = build_corridor(
                    maintainer.index, s, t,
                    radius=engine.corridor_radius, generation=1,
                )
                ref_corridor = reference.skyline_paths(
                    graph, s, t,
                    restrict_to=corridor,
                    seed_with_shortest_paths=False,
                    seed_paths=corridor.seed_paths,
                )
                served = engine.query(s, t, mode="corridor")
                assert sorted((p.cost, p.nodes) for p in served.paths) == (
                    sorted((p.cost, p.nodes) for p in ref_corridor.paths)
                )

        names = {
            span.name for root in tracer.roots() for span, _ in root.walk()
        }
        assert "search.bbs" in names
        assert not any(name.startswith("landmark.") for name in names)

"""Integration tests: tracing wired through queries, build, and serving.

Checks the instrumentation contract end to end — a traced
``backbone_query`` yields nested spans for all three phases,
``QueryStats`` is populated from spans, budget cuts record which phase
was truncated, index construction emits its span tree, and the batch
executor keeps worker-thread traces isolated.
"""

from __future__ import annotations

import time

import pytest

from repro.core import BackboneParams, build_backbone_index
from repro.core.maintenance import MaintainableIndex
from repro.core.query import (
    QueryStats,
    _connect_through_top,
    backbone_query,
    backbone_query_shared_source,
)
from repro.obs import Tracer, chrome_trace, use_tracer
from repro.paths.frontier import PathSet
from repro.service.batch import execute_batch
from repro.service.engine import SkylineQueryEngine

REPAIR_PARAMS = BackboneParams(m_max=40, m_min=4, p=0.12)

QUERY_PHASES = (
    "query.phase.grow_s", "query.phase.grow_t", "query.phase.connect_top",
)


@pytest.fixture(scope="module")
def built_index(small_road_network):
    return build_backbone_index(small_road_network, BackboneParams(max_levels=3))


def far_pair(graph):
    nodes = sorted(graph.nodes())
    return nodes[0], nodes[-1]


def phase_spans(root):
    """The root's grow_s child, then the grow_t / connect_top children
    of every ``query.target`` span, in order."""
    spans = []
    for child in root.children:
        if child.name == "query.target":
            spans.extend(child.children)
        else:
            spans.append(child)
    return spans


class TestTracedQuery:
    def test_three_phases_nested_under_query_root(self, built_index):
        source, target = far_pair(built_index.original_graph)
        tracer = Tracer()
        result = backbone_query(built_index, source, target, tracer=tracer)
        roots = tracer.roots()
        assert [r.name for r in roots] == ["query.backbone"]
        root = roots[0]
        assert root.attrs["targets"] == 1
        assert [c.name for c in root.children] == [
            "query.phase.grow_s", "query.target",
        ]
        target_span = root.children[1]
        assert target_span.attrs["target"] == target
        assert target_span.attrs["paths"] == len(result.paths)
        assert [s.name for s in phase_spans(root)] == list(QUERY_PHASES)
        # phase spans nest inside the root's interval
        for child in phase_spans(root):
            assert root.start <= child.start
            assert child.end <= root.end

    def test_phase_seconds_populated_from_spans(self, built_index):
        source, target = far_pair(built_index.original_graph)
        tracer = Tracer()
        result = backbone_query(built_index, source, target, tracer=tracer)
        assert set(result.stats.phase_seconds) == {
            "grow_s", "grow_t", "connect_top",
        }
        for span in phase_spans(tracer.roots()[0]):
            phase = span.name.rsplit(".", 1)[-1]
            assert result.stats.phase_seconds[phase] == span.duration

    def test_untraced_query_has_no_phase_seconds(self, built_index):
        source, target = far_pair(built_index.original_graph)
        result = backbone_query(built_index, source, target)
        assert result.stats.phase_seconds == {}
        assert result.stats.truncated_phase is None

    def test_process_wide_tracer_observes_query(self, built_index):
        source, target = far_pair(built_index.original_graph)
        tracer = Tracer()
        with use_tracer(tracer):
            backbone_query(built_index, source, target)
        assert [r.name for r in tracer.roots()] == ["query.backbone"]

    def test_chrome_trace_of_query_has_all_phases(self, built_index):
        source, target = far_pair(built_index.original_graph)
        tracer = Tracer()
        backbone_query(built_index, source, target, tracer=tracer)
        doc = chrome_trace(tracer)
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"query.backbone", *QUERY_PHASES} <= names

    def test_shared_source_span_shape(self, built_index):
        graph = built_index.original_graph
        nodes = sorted(graph.nodes())
        source, targets = nodes[0], nodes[-3:]
        tracer = Tracer()
        answers = backbone_query_shared_source(
            built_index, source, targets, tracer=tracer
        )
        assert set(answers) == set(targets)
        root = tracer.roots()[0]
        assert root.name == "query.backbone"
        assert root.attrs["targets"] == len(targets)
        child_names = [c.name for c in root.children]
        assert child_names[0] == "query.phase.grow_s"
        assert child_names.count("query.target") == len(targets)
        for stats in (a.stats for a in answers.values()):
            assert "grow_s" in stats.phase_seconds


class TestTruncatedPhase:
    def test_zero_budget_truncates_in_grow_s(self, built_index):
        source, target = far_pair(built_index.original_graph)
        result = backbone_query(built_index, source, target, time_budget=0.0)
        assert result.truncated
        assert result.stats.truncated_phase == "grow_s"

    def test_expired_deadline_truncates_connect_top(self, built_index):
        top_nodes = list(built_index.top_graph.nodes())
        assert top_nodes, "test needs a non-empty top graph"
        node = top_nodes[0]
        dim = built_index.dim
        from repro.paths.path import Path

        trivial = PathSet([Path.trivial(node, dim)])
        stats = QueryStats()
        _connect_through_top(
            built_index,
            {node: trivial},
            {node: trivial},
            PathSet(),
            stats,
            deadline=time.perf_counter() - 1.0,  # already expired
        )
        assert stats.truncated
        assert stats.truncated_phase == "connect_top"

    def test_first_cut_phase_wins(self):
        stats = QueryStats()
        stats.mark_truncated("grow_t")
        stats.mark_truncated("connect_top")
        assert stats.truncated
        assert stats.truncated_phase == "grow_t"


class TestTracedBuild:
    def test_build_emits_level_spans(self, small_road_network):
        tracer = Tracer()
        index = build_backbone_index(
            small_road_network, BackboneParams(max_levels=2), tracer=tracer
        )
        roots = tracer.roots()
        assert [r.name for r in roots] == ["build.index"]
        names = {s.name for s, _ in roots[0].walk()}
        assert "build.level" in names
        assert "build.condense_round" in names
        # The index keeps no landmark tables, so a build spans none.
        assert not any(name.startswith("landmark.") for name in names)
        levels = [c for c in roots[0].children if c.name == "build.level"]
        assert len(levels) == len(index.levels) or len(levels) == len(
            index.levels
        ) + 1  # a final no-progress level probe may be traced too
        assert roots[0].attrs["levels"] == len(index.levels)


class TestTracedRepair:
    """A cost update repairs under one ``build.repair`` span."""

    @staticmethod
    def repaired(graph, factor, pick):
        maintainer = MaintainableIndex(graph, REPAIR_PARAMS)
        u, v = pick(maintainer)
        old = maintainer.graph.edge_costs(u, v)[0]
        tracer = Tracer()
        with use_tracer(tracer):
            maintainer.update_edge_cost(
                u, v, old, tuple(c * factor for c in old)
            )
        return maintainer, tracer.roots()

    def test_local_repair_span(self, small_road_network):
        maintainer, [root] = self.repaired(
            small_road_network, 1.01,
            lambda m: sorted(m.graph.edge_pairs())[0],
        )
        assert root.name == "build.repair"
        assert root.attrs["fallback"] == "none"
        assert root.attrs["pieces_rerun"] >= 1
        assert root.attrs["levels_touched"] >= 1
        assert 0 <= root.attrs["level"] <= maintainer.index.height
        # a local repair replays no level
        assert not any(s.name == "build.level" for s, _ in root.walk())
        stats = maintainer.maintenance_stats
        assert (stats.local_repairs, stats.levels_replayed) == (1, 0)
        assert stats.full_rebuilds == 0

    def test_fallback_span_names_the_reason(self, small_road_network):
        # Give a road a parallel twin, then make the road dominate it:
        # level 0's entry count changes, so the repair rebuilds.
        graph = small_road_network.copy()
        u, v = sorted(graph.edge_pairs())[0]
        a, b, c = graph.edge_costs(u, v)[0]
        graph.add_edge(u, v, (2 * a, b / 2, c))
        maintainer, [root, *rebuild] = self.repaired(
            graph, 0.4, lambda m: (u, v)
        )
        assert root.name == "build.repair"
        assert root.attrs["fallback"] == "entry_count"
        assert root.attrs["level"] == 0
        # the rebuild runs after the repair span closes, so the span
        # times the repair alone on both paths
        assert not any(s.name == "build.level" for s, _ in root.walk())
        assert rebuild and all(s.name == "build.level" for s in rebuild)
        stats = maintainer.maintenance_stats
        assert (stats.local_repairs, stats.full_rebuilds) == (0, 1)


class TestBatchThreadIsolation:
    def test_units_run_in_the_callers_thread(self, small_road_network):
        engine = SkylineQueryEngine(
            small_road_network, exact_node_threshold=0
        )
        engine.ensure_index()
        nodes = sorted(small_road_network.nodes())
        queries = [
            (nodes[0], nodes[-1]),
            (nodes[1], nodes[-2]),
            (nodes[2], nodes[-3]),
            (nodes[3], nodes[-4]),
        ]
        tracer = Tracer()
        result = execute_batch(engine, queries, max_workers=3, tracer=tracer)
        assert len(result) == len(queries)
        # one root: every unit nests under the batch span, on its thread
        (execute,) = tracer.roots()
        assert execute.name == "batch.execute"
        units = [s for s, _ in execute.walk() if s.name == "batch.unit"]
        assert len(units) == len(queries)
        assert all(
            span.thread_id == execute.thread_id for span, _ in execute.walk()
        )

    def test_engine_aggregates_phase_histograms(self, small_road_network):
        engine = SkylineQueryEngine(small_road_network)
        engine.ensure_index()
        nodes = sorted(small_road_network.nodes())
        tracer = Tracer()
        with use_tracer(tracer):
            engine.query(nodes[0], nodes[-1])
        snap = engine.metrics.snapshot()
        assert snap["histograms"]["serve.query_group"]["count"] == 1
        # the engine folded the whole span subtree into the registry
        assert "search.bbs" in snap["histograms"] or any(
            name.startswith("query.phase.") for name in snap["histograms"]
        )

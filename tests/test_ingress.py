"""Ingress validation: costs the dominance algebra cannot handle and
budgets every deadline comparison would misread are rejected at the
door, before anything mutates."""

from __future__ import annotations

import math

import pytest

from repro.cli import main
from repro.core.maintenance import MaintainableIndex
from repro.core.params import BackboneParams
from repro.errors import GraphError, QueryError
from repro.graph.generators import road_network
from repro.graph.mcrn import MultiCostGraph
from repro.mp.worker import WorkerConfig
from repro.service import SkylineQueryEngine, execute_batch

NON_FINITE = [math.nan, math.inf, -math.inf]
BAD_BUDGETS = [math.nan, -1.0, -math.inf]


@pytest.mark.parametrize("bad", NON_FINITE)
def test_add_edge_rejects_non_finite_costs(bad):
    graph = MultiCostGraph(2)
    graph.add_edge(0, 1, (1.0, 1.0))
    with pytest.raises(GraphError):
        graph.add_edge(1, 2, (bad, 0.5))
    assert not graph.has_node(2)
    assert graph.num_edge_entries == 1


@pytest.mark.parametrize("bad", NON_FINITE)
def test_rejected_cost_update_changes_nothing(bad):
    graph = road_network(60, dim=2, seed=4)
    maintainer = MaintainableIndex(graph, BackboneParams(m_max=10, m_min=2))
    u, v, old_cost = next(iter(maintainer.graph.edges()))
    index = maintainer.index
    generation = maintainer.generation
    edges_before = sorted(maintainer.graph.edges())
    with pytest.raises(GraphError):
        maintainer.update_edge_cost(u, v, old_cost, (bad, 1.0))
    assert sorted(maintainer.graph.edges()) == edges_before
    assert maintainer.index is index
    assert maintainer.generation == generation


@pytest.fixture(scope="module")
def engine():
    return SkylineQueryEngine(road_network(40, dim=2, seed=9))


@pytest.mark.parametrize("bad", BAD_BUDGETS)
def test_engine_query_rejects_bad_budget(engine, bad):
    source, target = sorted(engine.graph.nodes())[:2]
    with pytest.raises(QueryError):
        engine.query(source, target, time_budget=bad)
    with pytest.raises(QueryError):
        SkylineQueryEngine(engine.graph, default_time_budget=bad)


@pytest.mark.parametrize("bad", BAD_BUDGETS)
def test_execute_batch_rejects_bad_budget(engine, bad):
    source, target = sorted(engine.graph.nodes())[:2]
    with pytest.raises(QueryError):
        execute_batch(engine, [(source, target)], time_budget=bad)


@pytest.mark.parametrize("bad", BAD_BUDGETS)
def test_worker_config_rejects_bad_budget(bad):
    with pytest.raises(QueryError):
        WorkerConfig(default_time_budget=bad)


@pytest.mark.parametrize("bad", ["nan", "-1"])
def test_cli_rejects_bad_budget(tmp_path, capsys, bad):
    code = main(["bench", str(tmp_path / "net.gr"), f"--budget={bad}"])
    assert code == 1
    assert "time budget" in capsys.readouterr().err


def test_zero_budget_still_truncates(engine):
    source, target = sorted(engine.graph.nodes())[:2]
    response = engine.query(
        source, target, mode="exact", time_budget=0.0, use_cache=False
    )
    assert response.truncated

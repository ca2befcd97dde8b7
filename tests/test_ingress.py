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


# ----------------------------------------------------------------------
# CSR ingress: mp attach (from_buffers) and the raw-pack payloads a
# shared segment holds (from_raw_buffer) share one value check
# ----------------------------------------------------------------------


CSR_CASES = [
    "nan_cost",
    "inf_cost",
    "negative_cost",
    "index_negative",
    "index_past_end",
    "indptr_not_from_zero",
    "indptr_decreasing",
]


def _bad_csr(case: str, directed: bool):
    """``(meta, buffers)`` of a small snapshot with one corrupted value
    in a copy of its forward arrays."""
    import numpy as np

    from repro.accel.csr import CSRSnapshot

    graph = MultiCostGraph(2, directed=directed)
    for u, v in ((0, 1), (1, 2), (2, 3), (3, 0), (1, 3)):
        graph.add_edge(u, v, (1.0 + u, 2.0 + v))
    meta, buffers = CSRSnapshot.from_graph(graph).export_buffers()
    arrays = {name: np.array(array) for name, array in buffers.items()}
    costs, indices = arrays["costs"], arrays["indices"]
    indptr = arrays["indptr"]
    if case == "nan_cost":
        costs[0, 0] = math.nan
    elif case == "inf_cost":
        costs[1, 1] = math.inf
    elif case == "negative_cost":
        costs[0, 1] = -0.5
    elif case == "index_negative":
        indices[0] = -1
    elif case == "index_past_end":
        indices[1] = len(indptr) - 1
    elif case == "indptr_not_from_zero":
        indptr[0] = 1
    else:
        indptr[1] = indptr[2] + 1
    return meta, arrays


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("case", CSR_CASES)
def test_csr_from_buffers_rejects_bad_values(case, directed):
    from repro.accel.csr import CSRSnapshot
    from repro.errors import BuildError

    with pytest.raises(BuildError):
        CSRSnapshot.from_buffers(*_bad_csr(case, directed))


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("case", CSR_CASES)
def test_csr_from_payload_rejects_bad_values(case, directed):
    from repro.accel.blob import pack_bytes
    from repro.accel.csr import CSRSnapshot
    from repro.errors import BuildError

    meta, arrays = _bad_csr(case, directed)
    # The bytes a worker attaches to: a raw pack of the corrupted arrays.
    payload = pack_bytes(arrays, meta)
    with pytest.raises(BuildError):
        CSRSnapshot.from_raw_buffer(payload)


def test_csr_reverse_arrays_are_checked_too():
    import numpy as np

    from repro.accel.csr import CSRSnapshot
    from repro.errors import BuildError

    graph = MultiCostGraph(2, directed=True)
    graph.add_edge(0, 1, (1.0, 1.0))
    graph.add_edge(1, 2, (1.0, 1.0))
    meta, buffers = CSRSnapshot.from_graph(graph).export_buffers()
    arrays = {name: np.array(array) for name, array in buffers.items()}
    arrays["rev_costs"][0, 0] = math.nan
    with pytest.raises(BuildError, match="reverse CSR"):
        CSRSnapshot.from_buffers(meta, arrays)
    CSRSnapshot.from_buffers(meta, dict(buffers))  # the clean pack attaches

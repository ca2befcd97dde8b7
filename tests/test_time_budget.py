"""Regression tests for time-budget starvation in the search loops.

All four search loops used to gate the wall-clock check on
``stats.expansions % 512 == 0``.  Stale heap pops (evicted by a frontier
update) and pruned pops (dominated by the result skyline) never
increment ``expansions``, so a long run of them froze the gate at a
non-multiple of 512 and the budget check simply never fired again — the
search could overshoot ``time_budget`` without bound.  The fix gates the
check on a monotone loop-iteration counter instead, bounding overshoot
to 512 heap pops regardless of what kind of pops they are.

The workloads below drive exactly that pathology: a small burst of real
expansions followed by thousands of pops that are all stale or pruned.
A fake clock (time only advances when ``perf_counter`` is read) expires
the budget during the starved run; the old gating never reads the clock
there and finishes the whole run, the fixed gating reads it within one
512-pop interval and stops.
"""

from __future__ import annotations

import pytest

import repro.accel.bbs_kernel as bbs_kernel_module
import repro.accel.onetoall_kernel as onetoall_kernel_module
import repro.qa.reference as reference_module
from repro.accel.csr import CSRSnapshot
from repro.graph.mcrn import MultiCostGraph
from repro.search.bbs import SearchStats, skyline_paths
from repro.search.mbbs import Seed, many_to_many_skyline
from repro.search.onetoall import one_to_all_skyline

# Every loop runs twice: "python" is the reference oracle of
# repro.qa.reference, "flat" the production CSR kernel.
ENGINES = ["python", "flat"]


def search(engine: str, kind: str, graph):
    """The ``kind`` search ("bbs", "mbbs", "onetoall") of one engine,
    with the production kernel bound to a fresh snapshot."""
    if engine == "python":
        return {
            "bbs": reference_module.skyline_paths,
            "mbbs": reference_module.many_to_many_skyline,
            "onetoall": reference_module.one_to_all_skyline,
        }[kind]
    production = {
        "bbs": skyline_paths,
        "mbbs": many_to_many_skyline,
        "onetoall": one_to_all_skyline,
    }[kind]
    snapshot = CSRSnapshot.from_graph(graph)
    return lambda *args, **kwargs: production(
        *args, snapshot=snapshot, **kwargs
    )

S, X, Y = 0, 1, 2
FIRST_M = 3
TARGET = 4
STALE_POPS = 2048

# The fake clock ticks one second per perf_counter() read.  The fixed
# loops read the clock at iterations 0, 512, 1024, ... — so with the
# budget below the check trips on the third in-loop read, which only
# ever happens once the starved pop run is underway (the expansion burst
# is over within a handful of iterations).  The old gating performed at
# most two in-loop reads total and never timed out on these workloads.
BUDGET = 3.5


class FakeClock:
    """perf_counter() that advances one second per call."""

    def __init__(self) -> None:
        self.calls = 0
        self.calls_after_trip = 0

    def perf_counter(self) -> float:
        self.calls += 1
        if self.calls - 1 > BUDGET:
            self.calls_after_trip += 1
        return float(self.calls - 1)


def starvation_graph():
    """A graph whose unbounded search degenerates into a stale pop run.

    ``s -> X`` is cheap, ``s -> Y`` is the only route to the target side,
    and ``X -> m`` fans out into ``STALE_POPS`` mutually non-dominated
    parallel edges, flooding the heap with expensive labels at ``m``.
    ``Y -> m`` is cheap enough that a frontier eviction (m_BBS and
    one-to-all expanding through ``Y``) invalidates every one of those
    labels before they pop.  BBS's exact bounds would never push them,
    so BBS runs on :func:`bound_starvation_graph` instead.
    """
    graph = MultiCostGraph(2)
    graph.add_edge(S, X, (1.0, 1.0))
    graph.add_edge(S, Y, (10.0, 10.0))
    graph.add_edge(Y, FIRST_M, (1.0, 1.0))
    for i in range(STALE_POPS):
        # Anti-correlated costs: no parallel slot dominates another, so
        # every one of them is admitted to m's frontier and heap.
        graph.add_edge(X, FIRST_M, (100.0 + i, 100.0 + STALE_POPS - i))
    return graph


def bound_starvation_graph():
    """A pruned-pop run that survives exact bounds and seeding.

    ``s -> X`` and ``s -> Y`` tie on their exact projected cost
    (102, 103), and X, pushed first, expands first: it floods ``m``
    with ``STALE_POPS`` anti-correlated parallel labels whose bounds
    (the per-dimension minima over the parallel edges) keep them
    unpruned at push, bar the two that equal a seed.  Y then reaches
    the target at exactly (102, 103), which dominates every flooded
    label's projection, so all of them pop only to be pruned by the
    result skyline.
    """
    graph = MultiCostGraph(2)
    graph.add_edge(S, X, (1.0, 1.0))
    graph.add_edge(S, Y, (101.0, 102.0))
    graph.add_edge(Y, TARGET, (1.0, 1.0))
    graph.add_edge(FIRST_M, TARGET, (1.0, 1.0))
    for i in range(STALE_POPS):
        graph.add_edge(X, FIRST_M, (100.0 + i, 100.0 + STALE_POPS - i))
    return graph


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(reference_module, "time", fake)
    monkeypatch.setattr(bbs_kernel_module, "time", fake)
    monkeypatch.setattr(onetoall_kernel_module, "time", fake)
    return fake


def assert_timed_out_promptly(stats, clock) -> None:
    assert stats.timed_out is True
    # The burst of real expansions is tiny; everything after it was a
    # stale or pruned pop, which is exactly what must not starve the
    # check.
    assert stats.expansions <= 8
    # Bounded overshoot: the loop stopped at the first clock read past
    # the budget — the only later read is the final elapsed_seconds one.
    assert clock.calls_after_trip <= 2


@pytest.mark.parametrize("engine", ENGINES)
def test_bbs_budget_survives_pruned_pop_run(engine, clock):
    graph = bound_starvation_graph()
    result = search(engine, "bbs", graph)(
        graph, S, TARGET, time_budget=BUDGET
    )
    assert_timed_out_promptly(result.stats, clock)
    assert result.stats.pruned_by_result >= 1024
    # The answer found before expiry is still returned.
    assert [p.cost for p in result.paths] == [(102.0, 103.0)]


@pytest.mark.parametrize("engine", ENGINES)
def test_mbbs_budget_survives_stale_pop_run(engine, clock):
    graph = starvation_graph()
    result = search(engine, "mbbs", graph)(
        graph,
        [Seed(S, (0.0, 0.0))],
        [Y],
        time_budget=BUDGET,
    )
    assert_timed_out_promptly(result.stats, clock)
    assert Y in result.hits


@pytest.mark.parametrize("engine", ENGINES)
def test_onetoall_budget_survives_stale_pop_run(engine, clock):
    # One-to-all has no result skyline to prune against, but frontier
    # evictions produce the same pathology: the cheap S->Y->m path pops
    # first and evicts every expensive X->m label from m's frontier,
    # leaving a run of STALE_POPS stale pops that never increment
    # ``expansions`` — only a monotone loop-count gate reads the clock.
    graph = starvation_graph()
    stats = SearchStats()
    reached = search(engine, "onetoall", graph)(
        graph,
        S,
        time_budget=BUDGET,
        stats=stats,
    )
    assert_timed_out_promptly(stats, clock)
    # The partial skyline found before expiry is still returned.
    assert [p.cost for p in reached[Y]] == [(10.0, 10.0)]


@pytest.mark.parametrize("engine", ENGINES)
def test_onetoall_completes_within_budget_untouched(engine):
    graph = starvation_graph()
    stats = SearchStats()
    reached = search(engine, "onetoall", graph)(
        graph,
        S,
        time_budget=60.0,
        stats=stats,
    )
    assert stats.timed_out is False
    assert [p.cost for p in reached[FIRST_M]] == [(11.0, 11.0)]


@pytest.mark.parametrize("engine", ENGINES)
def test_bbs_completes_within_budget_untouched(engine):
    # Sanity: with a generous real budget the same workload completes
    # and is not reported as timed out.
    graph = bound_starvation_graph()
    result = search(engine, "bbs", graph)(
        graph, S, TARGET, time_budget=60.0
    )
    assert result.stats.timed_out is False
    assert result.stats.pruned_by_result >= STALE_POPS - 2
    assert [p.cost for p in result.paths] == [(102.0, 103.0)]

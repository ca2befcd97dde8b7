"""Serving-layer throughput: queries/sec and cache-hit rate.

Not a paper figure — this measures the PR's serving subsystem on a
generated mid-size network.  A skewed workload (every unique query
repeated several times, as user traffic repeats popular routes)
exercises the three amortization layers:

* cold serial engine queries (cache off) — the library-call baseline,
* warm engine queries (cache on) — repeats served from the LRU cache,
* the batch executor — dedup + shared grow-S.

Results go to ``benchmarks/results/service_throughput.txt``.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import (
    SCALED_M_MIN,
    SCALED_P,
    report,
    scaled_m,
)
from repro.core import BackboneParams, build_backbone_index
from repro.eval import format_table, random_queries
from repro.service import SkylineQueryEngine, execute_batch

REPEATS = 4  # each unique query appears this many times in the workload
UNIQUE_QUERIES = 12


@pytest.fixture(scope="module")
def served_network(ny_large, workload_seed):
    """Engine-ready network + skewed workload, shared by all cases."""
    params = BackboneParams(
        m_max=scaled_m(400), m_min=SCALED_M_MIN, p=SCALED_P
    )
    index = build_backbone_index(ny_large, params)
    unique = random_queries(
        ny_large, UNIQUE_QUERIES, seed=workload_seed, min_hops=8
    )
    workload = [q.as_tuple() for q in unique] * REPEATS
    return ny_large, index, params, workload


def _fresh_engine(graph, index, params) -> SkylineQueryEngine:
    engine = SkylineQueryEngine(
        graph, index=index, params=params, exact_node_threshold=0
    )
    engine.warm()
    return engine


def test_service_throughput(served_network):
    graph, index, params, workload = served_network

    # Case 1: serial, cache disabled — what repeated library calls cost.
    engine = _fresh_engine(graph, index, params)
    started = time.perf_counter()
    for source, target in workload:
        engine.query(source, target, use_cache=False)
    serial_cold = time.perf_counter() - started

    # Case 2: serial, cache enabled — repeats hit the LRU.
    engine = _fresh_engine(graph, index, params)
    started = time.perf_counter()
    for source, target in workload:
        engine.query(source, target)
    serial_warm = time.perf_counter() - started
    warm_hit_rate = engine.cache.stats.hit_rate

    # Case 3: the batch executor — dedup and source grouping.
    engine = _fresh_engine(graph, index, params)
    outcome = execute_batch(engine, workload)
    batch_seconds = outcome.elapsed_seconds

    n = len(workload)
    rows = [
        ["serial cache-off", f"{n / serial_cold:8.1f}", f"{serial_cold:7.3f}",
         "0%", "-"],
        ["serial cache-on", f"{n / serial_warm:8.1f}", f"{serial_warm:7.3f}",
         f"{warm_hit_rate:.0%}", "-"],
        ["batch executor", f"{n / batch_seconds:8.1f}", f"{batch_seconds:7.3f}",
         f"{engine.cache.stats.hit_rate:.0%}",
         f"{outcome.duplicates_folded} folded / "
         f"{outcome.source_groups} groups"],
    ]
    text = format_table(
        ["strategy", "queries/s", "seconds", "cache hits", "batch notes"],
        rows,
        title=(
            f"service throughput — {n} queries "
            f"({len(set(workload))} unique x{REPEATS}) on "
            f"{graph.num_nodes}-node network"
        ),
    )
    report("service_throughput", text)

    # The cached run must beat the cold run on a 4x-repeat workload.
    assert serial_warm < serial_cold
    assert warm_hit_rate > 0.5


def test_batch_matches_serial(served_network):
    """The amortizations must not change any answer."""
    graph, index, params, workload = served_network
    engine = _fresh_engine(graph, index, params)
    serial = [
        engine.query(s, t, use_cache=False).paths for s, t in workload
    ]
    engine = _fresh_engine(graph, index, params)
    outcome = execute_batch(engine, workload)
    for expected, response in zip(serial, outcome.responses):
        assert sorted(p.cost for p in expected) == sorted(
            p.cost for p in response.paths
        )

"""Ablation — lower-bound providers for BBS pruning.

The paper's BBS inherits landmark lower bounds from [29]; [45] replaced
them with exact reverse-Dijkstra bounds.  This ablation quantifies the
trade-off on the scaled C9_NY stand-in: expansions and wall time for
BBS under exact bounds — the dict reverse Dijkstra of the reference
provider, and the served search, which computes the same values over
the CSR snapshot — landmark bounds (the paper's choice, amortized
across queries), and no bounds at all.

Production takes no bound provider, so the provider rows run the
reference loop of :mod:`repro.qa.reference` (``bounds=``); only the
"served" row runs production.  The reference seeds every row from
exact tables whatever provider prunes, so the provider rows' times
compare with each other, and the served row's time with the exact
provider row's (same work, dict loop vs CSR kernel).
"""

from __future__ import annotations

import time

import pytest

from repro.accel.csr import CSRSnapshot
from repro.datasets import load_subgraph
from repro.eval import fmt_seconds, format_table, random_queries
from repro.qa import reference
from repro.qa.bounds import (
    ExactBounds,
    LandmarkIndex,
    LandmarkLowerBounds,
    ZeroBounds,
)
from repro.search.bbs import skyline_paths

from benchmarks.conftest import report


@pytest.fixture(scope="module")
def bounds_data():
    graph = load_subgraph("C9_NY", 700)
    queries = random_queries(graph, 5, seed=99, min_hops=12)
    landmark_index = LandmarkIndex(graph, 8)
    snapshot = CSRSnapshot.from_graph(graph)

    def provider(factory):
        return lambda q: reference.skyline_paths(
            graph, q.source, q.target, bounds=factory(q), time_budget=120.0
        )

    arms = {
        "exact (reverse Dijkstra)": provider(
            lambda q: ExactBounds(graph, [q.target])
        ),
        "exact (CSR snapshot, served)": lambda q: skyline_paths(
            graph, q.source, q.target, time_budget=120.0, snapshot=snapshot
        ),
        "landmark (8 landmarks)": provider(
            lambda q: LandmarkLowerBounds(landmark_index, [q.target])
        ),
        "none (zero bounds)": provider(lambda q: ZeroBounds(graph.dim)),
    }
    data = {}
    for name, run in arms.items():
        expansions, seconds, sizes = 0, 0.0, 0
        for q in queries:
            started = time.perf_counter()
            result = run(q)
            seconds += time.perf_counter() - started
            expansions += result.stats.expansions
            sizes += len(result.paths)
        data[name] = {
            "seconds": seconds / len(queries),
            "expansions": expansions / len(queries),
            "size": sizes / len(queries),
        }

    rows = [
        [
            name,
            fmt_seconds(row["seconds"]),
            f"{row['expansions']:,.0f}",
            f"{row['size']:.1f}",
        ]
        for name, row in data.items()
    ]
    report(
        "ablation_bounds",
        format_table(
            ["bound provider", "mean query time", "mean expansions", "mean |P|"],
            rows,
            title="Ablation: BBS lower-bound providers (C9_NY 700-node stand-in)",
        ),
    )
    return data


def test_exact_bounds_prune_most(bounds_data):
    exact = bounds_data["exact (reverse Dijkstra)"]["expansions"]
    zero = bounds_data["none (zero bounds)"]["expansions"]
    assert exact <= zero


def test_served_bounds_prune_like_exact(bounds_data):
    # The snapshot matrix holds the provider's values bit for bit and
    # both searches seed by the same walk, so they must do exactly the
    # same work.
    exact = bounds_data["exact (reverse Dijkstra)"]["expansions"]
    served = bounds_data["exact (CSR snapshot, served)"]["expansions"]
    assert served == exact


def test_landmark_bounds_between(bounds_data):
    exact = bounds_data["exact (reverse Dijkstra)"]["expansions"]
    landmark = bounds_data["landmark (8 landmarks)"]["expansions"]
    zero = bounds_data["none (zero bounds)"]["expansions"]
    assert exact <= landmark * 1.05
    assert landmark <= zero * 1.05


def test_all_providers_agree_on_results(bounds_data):
    sizes = [row["size"] for row in bounds_data.values()]
    assert max(sizes) - min(sizes) < 1e-9  # identical exact skylines


def test_bounds_benchmark(benchmark, bounds_data):
    graph = load_subgraph("C9_NY", 700)
    [q] = random_queries(graph, 1, seed=98, min_hops=12)
    bounds = ExactBounds(graph, [q.target])
    result = benchmark.pedantic(
        lambda: reference.skyline_paths(
            graph, q.source, q.target, bounds=bounds
        ),
        rounds=3,
        iterations=1,
    )
    assert result.paths

"""Experiment harness: run query suites and aggregate their metrics.

The benchmarks (one per table/figure of the paper) share this runner:
it executes a workload against the exact BBS method and/or a backbone
index, collects per-query records, and aggregates the quantities the
paper reports — RAC per dimension, goodness, result-set sizes, query
times, speed-ups.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from statistics import mean

from repro.accel.csr import CSRSnapshot
from repro.core.index import BackboneIndex
from repro.errors import QueryError
from repro.eval.metrics import goodness, rac
from repro.eval.queries import Query
from repro.graph.mcrn import MultiCostGraph
from repro.paths.path import Path
from repro.search.bbs import skyline_paths


@dataclass
class QueryRecord:
    """Everything measured for one query."""

    query: Query
    exact_paths: list[Path] | None = None
    approx_paths: list[Path] | None = None
    exact_seconds: float = 0.0
    approx_seconds: float = 0.0
    exact_timed_out: bool = False

    @property
    def comparable(self) -> bool:
        """True when both sides produced results to compare."""
        return bool(self.exact_paths) and bool(self.approx_paths)


@dataclass
class SuiteSummary:
    """Aggregates over a query suite (the numbers the paper tabulates)."""

    records: list[QueryRecord] = field(default_factory=list)

    @property
    def compared(self) -> list[QueryRecord]:
        return [r for r in self.records if r.comparable]

    def mean_rac(self) -> tuple[float, ...]:
        """Per-dimension RAC averaged over comparable queries."""
        rows = [rac(r.approx_paths, r.exact_paths) for r in self.compared]
        if not rows:
            raise QueryError("no comparable queries to aggregate")
        dim = len(rows[0])
        return tuple(mean(row[i] for row in rows) for i in range(dim))

    def mean_goodness(self) -> float:
        """Goodness averaged over comparable queries."""
        rows = [goodness(r.approx_paths, r.exact_paths) for r in self.compared]
        if not rows:
            raise QueryError("no comparable queries to aggregate")
        return mean(rows)

    def mean_hypervolume_ratio(self) -> float:
        """Hypervolume coverage ratio averaged over comparable queries.

        A stricter, direction-sensitive quality score than goodness:
        how much of the exact frontier's dominated cost space the
        approximate answers still cover (1.0 = full coverage).
        """
        from repro.eval.hypervolume import hypervolume_ratio

        rows = [
            hypervolume_ratio(r.approx_paths, r.exact_paths)
            for r in self.compared
        ]
        if not rows:
            raise QueryError("no comparable queries to aggregate")
        return mean(rows)

    def mean_exact_seconds(self) -> float:
        rows = [r.exact_seconds for r in self.records if r.exact_paths is not None]
        return mean(rows) if rows else 0.0

    def mean_approx_seconds(self) -> float:
        rows = [r.approx_seconds for r in self.records if r.approx_paths is not None]
        return mean(rows) if rows else 0.0

    def mean_exact_size(self) -> float:
        rows = [len(r.exact_paths) for r in self.records if r.exact_paths]
        return mean(rows) if rows else 0.0

    def mean_approx_size(self) -> float:
        rows = [len(r.approx_paths) for r in self.records if r.approx_paths]
        return mean(rows) if rows else 0.0

    def speedup(self) -> float:
        """Mean exact time over mean approximate time (Table 3's ratio)."""
        approx = self.mean_approx_seconds()
        if approx == 0.0:
            return float("inf")
        return self.mean_exact_seconds() / approx


def run_suite(
    graph: MultiCostGraph,
    queries: list[Query],
    *,
    index: BackboneIndex | None = None,
    run_exact: bool = True,
    exact_time_budget: float | None = None,
) -> SuiteSummary:
    """Execute a workload, optionally against both methods.

    Queries whose exact search times out are kept in the records (the
    timing is real) but excluded from quality aggregation — matching
    the paper's practice of only comparing queries BBS can finish.
    """
    summary = SuiteSummary()
    snapshot = CSRSnapshot.from_graph(graph) if run_exact else None
    for query in queries:
        record = QueryRecord(query=query)
        if run_exact:
            started = time.perf_counter()
            result = skyline_paths(
                graph,
                query.source,
                query.target,
                time_budget=exact_time_budget,
                snapshot=snapshot,
            )
            record.exact_seconds = time.perf_counter() - started
            record.exact_timed_out = result.stats.timed_out
            record.exact_paths = None if result.stats.timed_out else result.paths
        if index is not None:
            started = time.perf_counter()
            record.approx_paths = index.query(query.source, query.target)
            record.approx_seconds = time.perf_counter() - started
        summary.records.append(record)
    return summary


def time_call(fn, *args, **kwargs) -> tuple[object, float]:
    """Run ``fn`` and return (result, elapsed_seconds)."""
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started

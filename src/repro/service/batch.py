"""Batch execution of many skyline queries against one engine.

The executor squeezes three kinds of redundancy out of a workload
before any search runs:

1. **Deduplication** — identical ``(source, target)`` pairs in the
   batch are computed once and fanned back out to every position that
   asked for them.
2. **Source grouping** — queries sharing a source whose plan resolves
   to the backbone approximation are served by one
   :meth:`~repro.service.engine.SkylineQueryEngine.query_group` call,
   which grows the source's S phase once for the whole group
   (ParetoPrep's shared-preprocessing idea applied at serving time).
3. **Caching** — each unique query still goes through the engine's
   result cache, so repeats across batches are free too.

Every other unique query — exact, corridor, or a lone approximate
target — runs as one :meth:`~repro.service.engine.SkylineQueryEngine.query`
call.  Work units run one after another in the calling thread: every
search kernel holds the GIL, so threads would only contend (the
multi-process server of :mod:`repro.mp` is the parallel path).
Results come back positionally aligned with the input and identical to
serial execution of the same list (grouping reuses only
target-independent state).
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.errors import QueryError
from repro.obs.tracer import Tracer, resolve_tracer
from repro.service.engine import (
    QueryResponse,
    SkylineQueryEngine,
    check_time_budget,
)

QueryPair = tuple[int, int]


@dataclass
class BatchResult:
    """Ordered responses plus batch-level accounting."""

    responses: list[QueryResponse] = field(default_factory=list)
    unique_queries: int = 0
    duplicates_folded: int = 0
    source_groups: int = 0
    grouped_queries: int = 0
    elapsed_seconds: float = 0.0

    def __len__(self) -> int:
        return len(self.responses)

    def __iter__(self):
        return iter(self.responses)

    @property
    def queries_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return len(self.responses) / self.elapsed_seconds


def _normalize(query: object) -> QueryPair:
    """Accept (source, target) tuples/lists and Query-like objects."""
    if isinstance(query, (tuple, list)) and len(query) == 2:
        return int(query[0]), int(query[1])
    source = getattr(query, "source", None)
    target = getattr(query, "target", None)
    if source is None or target is None:
        raise QueryError(
            f"cannot interpret {query!r} as a (source, target) query"
        )
    return int(source), int(target)


def execute_batch(
    engine: SkylineQueryEngine,
    queries: Iterable[object],
    *,
    max_workers: int = 1,
    mode: str = "auto",
    time_budget: float | None = None,
    use_cache: bool = True,
    tracer: Tracer | None = None,
) -> BatchResult:
    """Run a batch of queries and return responses in input order.

    Parameters
    ----------
    engine:
        The engine to serve from.  Its cache and metrics observe every
        unique query in the batch.
    queries:
        ``(source, target)`` pairs or objects with source/target
        attributes (e.g. :class:`repro.eval.queries.Query`).
    max_workers:
        Accepted for callers that size a pool, and must be at least 1;
        units always run in the calling thread.  Parallel serving is
        :class:`repro.mp.MPBatchServer`.
    tracer:
        Observability hook; defaults to the process-wide tracer.  The
        planning runs inside one ``batch.execute`` span, and each work
        unit opens a ``batch.unit`` span beneath it.
    """
    if max_workers < 1:
        raise QueryError("max_workers must be at least 1")
    check_time_budget(time_budget)
    tracer = resolve_tracer(tracer)
    started = time.perf_counter()
    pairs = [_normalize(query) for query in queries]

    # Deduplicate while remembering every original position.
    positions: dict[QueryPair, list[int]] = {}
    for position, pair in enumerate(pairs):
        positions.setdefault(pair, []).append(position)
    unique = list(positions)

    # Approximate plans share a grow-S per source; everything else is a
    # single.
    singles: list[QueryPair] = []
    by_source: dict[int, list[int]] = {}
    for source, target in unique:
        plan = engine.plan(source, target, mode, time_budget=time_budget)
        if plan == "approx":
            by_source.setdefault(source, []).append(target)
        else:
            singles.append((source, target))
    grouped: dict[int, list[int]] = {}
    for source, targets in by_source.items():
        if len(targets) > 1:
            grouped[source] = targets
        else:
            singles.append((source, targets[0]))

    answers: dict[QueryPair, QueryResponse] = {}
    with tracer.span(
        "batch.execute",
        queries=len(pairs),
        unique=len(unique),
        groups=len(grouped),
    ):
        for source, target in singles:
            with tracer.span(
                "batch.unit", kind="single", source=source, target=target
            ):
                answers[(source, target)] = engine.query(
                    source,
                    target,
                    mode=mode,
                    time_budget=time_budget,
                    use_cache=use_cache,
                )
        for source, targets in grouped.items():
            with tracer.span(
                "batch.unit", kind="group", source=source,
                targets=len(targets),
            ):
                responses = engine.query_group(
                    source,
                    targets,
                    mode=mode,
                    time_budget=time_budget,
                    use_cache=use_cache,
                )
            for target, response in zip(targets, responses):
                answers[(source, target)] = response

    result = BatchResult(
        responses=[answers[pair] for pair in pairs],
        unique_queries=len(unique),
        duplicates_folded=len(pairs) - len(unique),
        source_groups=len(grouped),
        grouped_queries=sum(len(t) for t in grouped.values()),
        elapsed_seconds=time.perf_counter() - started,
    )
    engine.metrics.increment("batch.batches")
    engine.metrics.increment("batch.queries", len(pairs))
    engine.metrics.increment("batch.duplicates_folded", result.duplicates_folded)
    engine.metrics.increment("batch.source_groups", result.source_groups)
    engine.metrics.observe("batch.batch_seconds", result.elapsed_seconds)
    return result

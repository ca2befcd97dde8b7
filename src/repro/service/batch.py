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

When :meth:`~repro.service.engine.SkylineQueryEngine.batch_tier` says
so (two or more exact plans on a graph past the measured fuse
crossover), exact-plan queries additionally **fuse**: the whole set
runs as one
:meth:`~repro.service.engine.SkylineQueryEngine.query_batch_fused`
call whose bucket traversal is shared across every query.

Remaining independent work units fan out over a ``ThreadPoolExecutor``.
Results always come back positionally aligned with the input.  Unfused
answers are identical to serial execution of the same list (grouping
reuses only target-independent state); fused exact answers are
answer-set-equal to serial serving but may pick different equal-cost
path alternates and report different search counters — the fused
kernel's documented contract (``docs/acceleration.md``).
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
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
    fused_queries: int = 0
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
    max_workers: int = 4,
    mode: str = "auto",
    time_budget: float | None = None,
    use_cache: bool = True,
    group_by_source: bool = True,
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
        Thread-pool width for independent work units.
    group_by_source:
        Merge same-source approximate queries into one shared grow-S
        engine call.  Disable to force per-query execution (results are
        identical either way).
    tracer:
        Observability hook; defaults to the process-wide tracer.  The
        planning/fan-out runs inside one ``batch.execute`` span; each
        work unit opens a ``batch.unit`` span *in its worker thread*,
        so per-thread traces stay independent.
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

    # Partition unique queries into shared-source groups, fused exact
    # batches, and singles.  Approximate plans share a grow-S per
    # source; exact plans fuse into one bucket traversal
    # (:meth:`SkylineQueryEngine.query_batch_fused`) when the engine's
    # batch_tier says so; everything else runs as independent units.
    grouped: dict[int, list[int]] = {}
    singles: list[QueryPair] = []
    fused: list[QueryPair] = []
    by_source: dict[int, list[int]] = {}
    for source, target in unique:
        plan = engine.plan(source, target, mode, time_budget=time_budget)
        if plan == "approx" and group_by_source:
            by_source.setdefault(source, []).append(target)
        elif plan == "exact":
            fused.append((source, target))
        else:
            singles.append((source, target))
    for source, targets in by_source.items():
        if len(targets) > 1:
            grouped[source] = targets
        else:
            singles.append((source, targets[0]))
    if not engine.batch_tier(len(fused)):
        singles.extend(fused)
        fused = []

    answers: dict[QueryPair, QueryResponse] = {}

    def run_single(pair: QueryPair) -> None:
        source, target = pair
        with tracer.span(
            "batch.unit", kind="single", source=source, target=target
        ):
            answers[pair] = engine.query(
                source,
                target,
                mode=mode,
                time_budget=time_budget,
                use_cache=use_cache,
            )

    def run_group(source: int, targets: list[int]) -> None:
        with tracer.span(
            "batch.unit", kind="group", source=source, targets=len(targets)
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

    def run_fused(fused_pairs: list[QueryPair]) -> None:
        with tracer.span(
            "batch.unit", kind="fused", queries=len(fused_pairs)
        ):
            responses = engine.query_batch_fused(
                fused_pairs,
                time_budget=time_budget,
                use_cache=use_cache,
            )
        for pair, response in zip(fused_pairs, responses):
            answers[pair] = response

    tasks = [lambda pair=pair: run_single(pair) for pair in singles]
    tasks += [
        lambda s=source, ts=targets: run_group(s, ts)
        for source, targets in grouped.items()
    ]
    if fused:
        tasks.append(lambda ps=fused: run_fused(ps))
    with tracer.span(
        "batch.execute",
        queries=len(pairs),
        unique=len(unique),
        groups=len(grouped),
        workers=max_workers,
    ):
        if max_workers == 1 or len(tasks) <= 1:
            for task in tasks:
                task()
        else:
            with ThreadPoolExecutor(max_workers=max_workers) as pool:
                futures = [pool.submit(task) for task in tasks]
                for future in futures:
                    future.result()  # re-raise worker failures here

    result = BatchResult(
        responses=[answers[pair] for pair in pairs],
        unique_queries=len(unique),
        duplicates_folded=len(pairs) - len(unique),
        source_groups=len(grouped),
        grouped_queries=sum(len(t) for t in grouped.values()),
        fused_queries=len(fused),
        elapsed_seconds=time.perf_counter() - started,
    )
    engine.metrics.increment("batch.batches")
    engine.metrics.increment("batch.queries", len(pairs))
    engine.metrics.increment("batch.duplicates_folded", result.duplicates_folded)
    engine.metrics.increment("batch.source_groups", result.source_groups)
    engine.metrics.increment("batch.fused_queries", result.fused_queries)
    engine.metrics.observe("batch.batch_seconds", result.elapsed_seconds)
    return result

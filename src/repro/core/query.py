"""Query processing over the backbone index — Algorithm 3.

A skyline path query (v_s, v_t) is answered approximately in three
phases:

1. **Grow S** — skyline paths from v_s climb the index level by level:
   at level i, every reached node's label extends the partial paths to
   that node's highway entrances.  S does not depend on v_t, so queries
   sharing a source grow it once; partial paths that end at v_t are
   results.
2. **Grow D** — the same from v_t, with the extra *meet* rule: reaching
   a node already in S joins the two half-paths into a candidate
   (the paper's first type of backbone paths).
3. **m_BBS on G_L** — partial paths that survive into the most
   abstracted graph are connected by one many-to-many skyline search
   (the second type).  The paper prunes this search with lower
   bounds precomputed over G_L; here it runs without a bound.  This
   m_BBS has no result-dominance test (it keeps expanding through
   reached targets), so a finite lower bound only reorders its heap
   and never prunes a label, and the paper's precomputed bounds are
   always finite.  The index therefore stores no bound tables.

All candidate paths pass through one shared result skyline, so the
returned set is mutually non-dominated.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.index import BackboneIndex
from repro.errors import NodeNotFoundError
from repro.obs.tracer import Tracer, resolve_tracer
from repro.paths.frontier import PathSet
from repro.paths.path import Path
from repro.search.bbs import SearchStats
from repro.search.mbbs import Seed, many_to_many_skyline
from repro.search.onetoall import one_to_all_skyline


@dataclass
class QueryStats:
    """Diagnostics for one backbone query.

    ``truncated_phase`` names the first phase a time budget cut short
    (``"grow_s"``, ``"grow_t"``, or ``"connect_top"``); None while the
    query ran to completion.  ``phase_seconds`` maps phase names to
    wall-clock durations, populated *from spans* when an enabled
    :class:`~repro.obs.Tracer` observes the query (empty otherwise, so
    untraced hot-path queries pay nothing for it).
    """

    elapsed_seconds: float = 0.0
    source_keys: int = 0
    target_keys: int = 0
    first_type_candidates: int = 0
    second_type_candidates: int = 0
    truncated: bool = False
    truncated_phase: str | None = None
    mbbs_stats: SearchStats | None = None
    phase_seconds: dict[str, float] = field(default_factory=dict)

    def mark_truncated(self, phase: str) -> None:
        """Record a budget cut, keeping the *first* cut phase."""
        self.truncated = True
        if self.truncated_phase is None:
            self.truncated_phase = phase


@dataclass
class QueryResult:
    """Approximate skyline paths plus diagnostics.

    ``truncated`` is True when a wall-clock budget expired before the
    search finished: the paths are the best partial skyline found so
    far rather than the full approximate answer.
    """

    paths: list[Path] = field(default_factory=list)
    stats: QueryStats = field(default_factory=QueryStats)
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)


def _grow(
    index: BackboneIndex,
    start: int,
    *,
    results: PathSet,
    other: dict[int, PathSet] | None,
    goal: int | None,
    stats: QueryStats,
    deadline: float | None = None,
) -> tuple[dict[int, PathSet], bool]:
    """Climb the index from ``start``; implements both loops of Alg. 3.

    ``other`` is the already-grown map of the opposite endpoint (None
    while growing S); meets against it produce first-type candidates.
    Paths reaching ``goal`` are reversed into ``results`` instead of
    growing on; growing S passes ``goal=None``, so the grown map serves
    every target (see :func:`backbone_query_shared_source`).  Paths in
    the returned map run ``start -> key``.  Returns the reached map
    plus a flag set when ``deadline`` expired mid-grow.
    """
    reached: dict[int, PathSet] = {
        start: PathSet([Path.trivial(start, index.dim)])
    }
    for level in index.levels:
        for node in list(reached.keys()):
            if deadline is not None and time.perf_counter() > deadline:
                return reached, True
            label = level.get(node)
            if label is None:
                continue
            prefixes = reached[node].paths()
            for entrance, hops in label.entrances.items():
                combined = [
                    prefix.concat(hop) for prefix in prefixes for hop in hops
                ]
                if entrance == goal:
                    for path in combined:
                        if results.add(path.reverse()):
                            stats.first_type_candidates += 1
                    continue
                if other is not None and entrance in other:
                    for half in other[entrance]:
                        for path in combined:
                            if results.add(half.concat(path.reverse())):
                                stats.first_type_candidates += 1
                bucket = reached.get(entrance)
                if bucket is None:
                    bucket = reached[entrance] = PathSet()
                bucket.add_all(combined)
    return reached, False


def _connect_through_top(
    index: BackboneIndex,
    source_map: dict[int, PathSet],
    target_map: dict[int, PathSet],
    results: PathSet,
    stats: QueryStats,
    deadline: float | None,
    tracer: Tracer | None = None,
) -> None:
    """Phase 3: second-type paths through the most abstracted graph."""
    top = index.top_graph
    source_possible = [node for node in source_map if top.has_node(node)]
    target_possible = [node for node in target_map if top.has_node(node)]
    if not source_possible or not target_possible:
        return
    remaining: float | None = None
    if deadline is not None:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            stats.mark_truncated("connect_top")
            return
    seeds = [
        Seed(node, prefix.cost, payload=prefix)
        for node in source_possible
        for prefix in source_map[node]
    ]
    # No bound: see the module docstring (phase 3).
    outcome = many_to_many_skyline(
        top,
        seeds,
        target_possible,
        time_budget=remaining,
        tracer=tracer,
        snapshot=index.csr_top(tracer=tracer),
    )
    stats.mbbs_stats = outcome.stats
    if outcome.stats.timed_out:
        stats.mark_truncated("connect_top")
    for landing, hits in outcome.hits.items():
        suffixes = target_map[landing].paths()
        for _cost, (prefix, middle) in hits:
            through = prefix.concat(middle)
            for suffix in suffixes:
                if results.add(through.concat(suffix.reverse())):
                    stats.second_type_candidates += 1


def backbone_query(
    index: BackboneIndex,
    source: int,
    target: int,
    *,
    time_budget: float | None = None,
    tracer: Tracer | None = None,
) -> QueryResult:
    """Approximate skyline paths between two nodes (Algorithm 3).

    The one-target call of :func:`backbone_query_shared_source`, so a
    single query runs exactly the code the serving engine runs for a
    group of queries sharing a source.  ``time_budget`` caps
    wall-clock seconds across all three phases; on expiry the best
    partial skyline found so far is returned with ``truncated=True``
    instead of raising (``stats.truncated_phase`` names the phase that
    was cut).
    """
    return backbone_query_shared_source(
        index, source, [target], time_budget=time_budget, tracer=tracer
    )[target]


def backbone_query_shared_source(
    index: BackboneIndex,
    source: int,
    targets: Sequence[int],
    *,
    time_budget: float | None = None,
    tracer: Tracer | None = None,
) -> dict[int, QueryResult]:
    """Answer queries from one source to many targets, growing S once.

    ParetoPrep-style amortization (arXiv 1410.0205): phase 1 (grow S)
    does not depend on the target, so every target shares it.  Phase 1
    runs with no direct-hit harvesting (``goal=None``); per target, the
    source map's paths that already end at the target are harvested as
    first-type candidates before phases 2 and 3 run.  Paths that pass
    through a target and continue carry a component-wise larger cost
    than the direct path harvested there, so they never enter the
    skyline.

    ``time_budget`` covers the whole call; an already-expired budget
    grows nothing and returns empty results with ``truncated=True``
    (a target equal to the source always gets its trivial path).  An
    enabled ``tracer`` records one ``query.backbone`` span holding one
    ``query.phase.grow_s`` child and, per distinct non-trivial target,
    a ``query.target`` span with ``query.phase.grow_t`` and
    ``query.phase.connect_top`` children.

    The top-graph m_BBS phase runs over the index's cached CSR
    snapshot (:meth:`BackboneIndex.csr_top`, built on first use); the
    grow phases walk per-level label structures, not a graph.
    """
    graph = index.original_graph
    for node in (source, *targets):
        if not graph.has_node(node):
            raise NodeNotFoundError(node)
    started = time.perf_counter()
    deadline = started + time_budget if time_budget is not None else None
    expired = time_budget is not None and time_budget <= 0
    tracer = resolve_tracer(tracer)

    answers: dict[int, QueryResult] = {}
    with tracer.span(
        "query.backbone", source=source, targets=len(targets)
    ) as root:
        source_map: dict[int, PathSet] = {}
        source_cut = False
        grow_seconds: float | None = None
        if not expired and any(target != source for target in targets):
            # Phase 1: grow S once (paths run source -> key); goal=None
            # never harvests into the sink.
            with tracer.span("query.phase.grow_s") as span:
                source_map, source_cut = _grow(
                    index, source, results=PathSet(), other=None, goal=None,
                    stats=QueryStats(), deadline=deadline,
                )
                if span.enabled:
                    span.set(keys=len(source_map), truncated=source_cut)
            if span.enabled:
                grow_seconds = span.duration
        shared_seconds = time.perf_counter() - started

        for target in targets:
            if target in answers:
                continue
            target_started = time.perf_counter()
            stats = QueryStats()
            if target == source:
                result = QueryResult(
                    paths=[Path.trivial(source, index.dim)], stats=stats
                )
            elif expired:
                stats.mark_truncated("grow_s")
                result = QueryResult(stats=stats, truncated=True)
            else:
                if source_cut:
                    stats.mark_truncated("grow_s")
                if grow_seconds is not None:
                    stats.phase_seconds["grow_s"] = grow_seconds
                result = _answer_target(
                    index, source, target, source_map, stats, deadline, tracer
                )
            stats.elapsed_seconds = shared_seconds + (
                time.perf_counter() - target_started
            )
            answers[target] = result
        if root.enabled:
            root.set(
                unique_targets=len(answers),
                truncated=any(a.truncated for a in answers.values()),
            )
    return answers


def _answer_target(
    index: BackboneIndex,
    source: int,
    target: int,
    source_map: dict[int, PathSet],
    stats: QueryStats,
    deadline: float | None,
    tracer: Tracer,
) -> QueryResult:
    """Phases 2 and 3 of one target against the shared source map."""
    results = PathSet()
    with tracer.span("query.target", target=target) as tspan:
        direct = source_map.get(target)
        if direct is not None:
            for path in direct.paths():
                if results.add(path):
                    stats.first_type_candidates += 1
        # Phase 2: grow D from the target, meeting S along the way.
        with tracer.span("query.phase.grow_t") as span:
            target_map, cut = _grow(
                index, target, results=results, other=source_map,
                goal=source, stats=stats, deadline=deadline,
            )
            if cut:
                stats.mark_truncated("grow_t")
            if span.enabled:
                span.set(keys=len(target_map), truncated=cut)
        if span.enabled:
            stats.phase_seconds["grow_t"] = span.duration
        stats.source_keys = len(source_map)
        stats.target_keys = len(target_map)
        # Phase 3: connect surviving partial paths through G_L.
        with tracer.span("query.phase.connect_top") as span:
            _connect_through_top(
                index, source_map, target_map, results, stats, deadline,
                tracer=tracer,
            )
            if span.enabled and stats.mbbs_stats is not None:
                span.counters.update(stats.mbbs_stats.as_span_counters())
        if span.enabled:
            stats.phase_seconds["connect_top"] = span.duration
        if tspan.enabled:
            tspan.set(
                paths=len(results),
                truncated=stats.truncated,
                truncated_phase=stats.truncated_phase,
                first_type=stats.first_type_candidates,
                second_type=stats.second_type_candidates,
            )
    return QueryResult(
        paths=results.paths(), stats=stats, truncated=stats.truncated
    )


def backbone_one_to_all(
    index: BackboneIndex, source: int
) -> dict[int, list[Path]]:
    """Approximate one-to-all skyline paths (Section 5 extension).

    The source's partial paths climb to G_L, a one-to-all skyline runs
    there, and the results flow back *down* the index: at each level,
    a labelled node inherits paths from its entrances by reversed-label
    concatenation.  Returns a map node -> approximate skyline paths
    (the source maps to its trivial path).

    The G_L sweeps run over the index's cached top snapshot, like the
    m_BBS phase of :func:`backbone_query`.
    """
    graph = index.original_graph
    if not graph.has_node(source):
        raise NodeNotFoundError(source)

    stats = QueryStats()
    results = PathSet()  # unused sink for the grow helper
    reached, _ = _grow(
        index, source, results=results, other=None, goal=source, stats=stats
    )

    answers: dict[int, PathSet] = {}
    for node, bucket in reached.items():
        answers[node] = PathSet(bucket.paths())

    # Sweep the most abstracted graph from every surviving key.
    top = index.top_graph
    snapshot = index.csr_top()
    for node in list(answers.keys()):
        if not top.has_node(node):
            continue
        prefixes = answers[node].paths()
        sweep = one_to_all_skyline(top, node, snapshot=snapshot)
        for landing, paths in sweep.items():
            if landing == node:
                continue
            bucket = answers.setdefault(landing, PathSet())
            for prefix in prefixes:
                for middle in paths:
                    bucket.add(prefix.concat(middle))

    # Flow back down: a labelled node is reachable through any of its
    # entrances by reversing the label paths.
    for level in reversed(index.levels):
        for node in level.nodes():
            label = level.get(node)
            assert label is not None
            bucket = answers.setdefault(node, PathSet())
            for entrance, hops in label.entrances.items():
                upstream = answers.get(entrance)
                if upstream is None or entrance == node:
                    continue
                for prefix in upstream.paths():
                    for hop in hops:
                        bucket.add(prefix.concat(hop.reverse()))

    return {
        node: bucket.paths() for node, bucket in answers.items() if bucket
    }

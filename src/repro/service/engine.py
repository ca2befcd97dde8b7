"""The long-lived skyline query engine — the serving layer's core.

A :class:`SkylineQueryEngine` owns one loaded network plus the warm
state that makes index-based querying pay off in a server setting: the
backbone index (loaded, supplied, or built on demand), a CSR snapshot
of the served graph that every exact query searches and bounds over,
an LRU result cache, and a metrics registry.  A small planner picks
the execution strategy per query:

* ``mode="exact"`` / ``mode="approx"`` / ``mode="corridor"`` —
  caller-forced strategy.
* ``mode="auto"`` — exact BBS when the graph is small enough that
  exactness is cheap, or when source and target share a level-0
  backbone cluster (the search stays local); corridor-restricted
  search when a time budget is set and the per-mode latency history
  says the backbone tier cannot meet it; the backbone approximation
  otherwise.

The corridor tier (:mod:`repro.approx`) runs exact BBS restricted to a
k-hop neighborhood of the backbone answer, scores the result online
against the exact contract, and — when a ``quality_target`` is set and
missed — escalates to a full exact run within the remaining budget.

Every query honours a wall-clock budget with graceful degradation: on
expiry the engine returns the best partial skyline found so far with
``truncated=True`` rather than raising.

When built on top of a :class:`~repro.core.maintenance.MaintainableIndex`
the engine subscribes to its update stream: each structural update
bumps the engine's generation, swaps in the repaired index, and retires
every cached result computed against the old network.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path as FilePath
from typing import NamedTuple

from repro.approx.corridor import Corridor, CorridorKey, build_corridor
from repro.approx.quality import (
    QualityReport,
    score_paths,
    structural_report,
)
from repro.core.builder import build_backbone_index
from repro.core.index import BackboneIndex
from repro.core.maintenance import MaintainableIndex
from repro.core.params import BackboneParams
from repro.core.query import (
    QueryResult,
    QueryStats,
    backbone_query_shared_source,
)
from repro.errors import NodeNotFoundError, QueryError
from repro.graph.mcrn import MultiCostGraph
from repro.obs.events import EventLog, resolve_event_log
from repro.obs.export import aggregate_spans
from repro.obs.tracer import Tracer, resolve_tracer
from repro.paths.path import Path
from repro.search.bbs import skyline_paths
from repro.service.cache import ResultCache
from repro.service.metrics import MetricsRegistry

MODES = ("auto", "exact", "approx", "corridor")


class EngineCacheKey(NamedTuple):
    """The engine's result-cache key.

    Built exclusively through :func:`engine_cache_key` — put, get, and
    generation invalidation all speak this one shape, so adding a
    component (planner budget, cost model, ...) is a single-site change
    and removing the ``generation`` field fails loudly at construction
    time instead of silently surviving maintenance invalidation
    (:func:`repro.service.cache.key_generation` matches keys by that
    named field).
    """

    source: int
    target: int
    mode: str
    generation: int


def engine_cache_key(
    source: int, target: int, mode: str, generation: int
) -> EngineCacheKey:
    """The single place engine cache keys are constructed."""
    return EngineCacheKey(source, target, mode, generation)


def check_time_budget(budget: float | None) -> float | None:
    """Validate a wall-clock budget in seconds; returns it unchanged.

    The one budget check of every serving entry point (engine, batch
    executor, CLI, multi-process workers).  None means unbounded and 0
    means "already expired" (an immediately truncated answer); NaN —
    which every deadline comparison would treat as "never expires" —
    and negative values raise :class:`~repro.errors.QueryError`.
    """
    if budget is None:
        return None
    if budget != budget or budget < 0:
        raise QueryError(
            f"time budget must be a non-negative number of seconds, "
            f"got {budget!r}"
        )
    return budget


# Below this node count exact BBS with good bounds answers interactively,
# so "auto" does not pay the approximation error.
DEFAULT_EXACT_NODE_THRESHOLD = 400

# The auto planner only trusts the per-mode latency history once this
# many observations back it; before that "auto" never picks corridor.
PLANNER_MIN_SAMPLES = 3

# Corridors are derived structures, not results: their cache is small,
# fixed, and independent of the (disableable) result cache so repeated
# queries between the same endpoints reuse the corridor even when the
# caller opts out of result caching.
CORRIDOR_CACHE_SIZE = 128


@dataclass
class QueryResponse:
    """One served query: the skyline plus serving diagnostics."""

    source: int
    target: int
    mode: str
    paths: list[Path] = field(default_factory=list)
    truncated: bool = False
    cache_hit: bool = False
    elapsed_seconds: float = 0.0
    generation: int = 0
    stats: object | None = None
    # Provenance stamps for multi-process serving: which worker process
    # computed the answer and under which dispatcher trace (both None
    # for in-process serving / tracing off).
    worker_pid: int | None = None
    trace_id: str | None = None
    # Corridor-tier fields: the online QualityReport the answer was
    # scored with (None for exact/approx responses) and whether a
    # missed quality target escalated this answer to the exact tier.
    quality: QualityReport | None = None
    escalated: bool = False

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)


class SkylineQueryEngine:
    """A warm, cached, planned front end over the backbone library.

    Parameters
    ----------
    graph:
        The network to serve.  Omit when ``maintainer`` is given.
    index:
        An already built/loaded :class:`BackboneIndex`.  When None the
        engine builds one on demand (or in :meth:`warm`).
    params:
        Construction parameters for on-demand builds.
    maintainer:
        A :class:`MaintainableIndex` to serve from.  The engine follows
        its update stream: generation bumps, index swaps, and cache
        invalidation happen automatically.
    cache_size:
        LRU result-cache capacity (0 disables caching).
    snapshotter:
        A :class:`~repro.store.snapshot.Snapshotter`; when given, every
        maintenance generation bump persists the repaired index to its
        snapshot directory (atomic, retention-pruned), so a restarted
        process warm-starts from the newest generation it served.
    default_time_budget:
        Per-query wall-clock budget in seconds applied when a call does
        not pass its own; None means unbounded.
    exact_node_threshold:
        ``auto`` plans exact BBS on graphs at or below this node count.
    corridor_radius:
        k-hop expansion around the backbone answer when serving
        ``mode="corridor"`` (see :mod:`repro.approx.corridor`).
    quality_target:
        Per-query SLO for the corridor tier: minimum hypervolume
        retention against the exact reference.  A corridor answer that
        provably misses it (or is structurally unsound when no
        reference exists) escalates to exact within the remaining time
        budget.  None disables escalation (answers are still scored).

    Every exact and corridor search is bounded by exact reverse
    Dijkstra over the current generation's CSR snapshot
    (:func:`repro.accel.bounds.exact_bound_matrix`; inside the corridor
    for the corridor tier).
    """

    def __init__(
        self,
        graph: MultiCostGraph | None = None,
        *,
        index: BackboneIndex | None = None,
        params: BackboneParams | None = None,
        maintainer: MaintainableIndex | None = None,
        cache_size: int = 1024,
        default_time_budget: float | None = None,
        exact_node_threshold: int = DEFAULT_EXACT_NODE_THRESHOLD,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        events: EventLog | None = None,
        snapshotter=None,
        corridor_radius: int = 2,
        quality_target: float | None = None,
    ) -> None:
        check_time_budget(default_time_budget)
        if corridor_radius < 0:
            raise QueryError("corridor_radius cannot be negative")
        if quality_target is not None and not 0.0 <= quality_target <= 1.0:
            raise QueryError("quality_target must be within [0, 1]")
        if maintainer is not None:
            graph = maintainer.graph
            index = maintainer.index
        if graph is None:
            raise QueryError("engine needs a graph or a maintainer")
        self._graph = graph
        self._index = index
        self._params = params if params is not None else BackboneParams()
        self._maintainer = maintainer
        self._generation = maintainer.generation if maintainer else 0
        self.cache = ResultCache(cache_size)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # None defers to the process-wide tracer at each call, so
        # installing one with repro.obs.use_tracer() traces the engine
        # without reconstructing it.  Same for the event log.
        self.tracer = tracer
        self.events = events
        self._live = None
        self.default_time_budget = default_time_budget
        self.exact_node_threshold = exact_node_threshold
        self.corridor_radius = corridor_radius
        self.quality_target = quality_target
        self._corridors = ResultCache(CORRIDOR_CACHE_SIZE)
        self._csr_original = None  # CSRSnapshot of the served graph
        self._build_lock = threading.Lock()
        self._snapshotter = snapshotter
        if maintainer is not None:
            maintainer.subscribe(self._on_maintenance)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_files(
        cls,
        gr_path: FilePath | str,
        index_path: FilePath | str | None = None,
        **kwargs,
    ) -> "SkylineQueryEngine":
        """Build an engine from a DIMACS graph and optional saved index."""
        from repro.graph.io import read_dimacs_co, read_dimacs_gr

        graph = read_dimacs_gr(gr_path)
        co_path = FilePath(gr_path).with_suffix(".co")
        if co_path.exists():
            read_dimacs_co(graph, co_path)
        index = None
        if index_path is not None:
            index = BackboneIndex.load(index_path, graph)
        return cls(graph, index=index, **kwargs)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    @property
    def graph(self) -> MultiCostGraph:
        return self._graph

    @property
    def generation(self) -> int:
        """The index generation; bumped by maintenance updates."""
        return self._generation

    @property
    def index(self) -> BackboneIndex | None:
        """The backbone index, or None while not yet built."""
        return self._index

    # ------------------------------------------------------------------
    # warm-up
    # ------------------------------------------------------------------

    def ensure_index(self) -> BackboneIndex:
        """The backbone index, building it now if necessary."""
        index = self._index
        if index is not None:
            return index
        with self._build_lock:
            if self._index is None:
                started = time.perf_counter()
                self._index = build_backbone_index(
                    self._graph, self._params, tracer=self.tracer
                )
                elapsed = time.perf_counter() - started
                self.metrics.increment("engine.index_builds")
                self.metrics.observe("engine.index_build_seconds", elapsed)
            return self._index

    def _original_snapshot(self):
        """The CSR snapshot of the served graph, built at most once per
        generation.

        Built lazily under the build lock and reused by every exact
        query until a generation bump retires it — so the one
        ``accel.csr.build`` span per generation is the amortized cost
        of flat serving.
        """
        snapshot = self._csr_original
        if snapshot is None:
            with self._build_lock:
                if self._csr_original is None:
                    from repro.accel.csr import CSRSnapshot

                    self._csr_original = CSRSnapshot.from_graph(
                        self._graph, tracer=self.tracer
                    )
                    self.metrics.increment("engine.csr_builds")
                snapshot = self._csr_original
        return snapshot

    def warm(self) -> dict:
        """Prime everything a cold start would otherwise pay per query.

        Builds the backbone index if absent and the CSR snapshot of the
        original graph that exact queries search and bound over.
        Returns the wall-clock seconds spent on each step;
        ``landmark_seconds`` is always 0.0 (exact queries need no
        original-graph landmarks) and stays for readers of the dict.
        """
        timings: dict[str, float] = {}
        started = time.perf_counter()
        self.ensure_index()
        timings["index_seconds"] = time.perf_counter() - started
        started = time.perf_counter()
        self._original_snapshot()
        timings["csr_seconds"] = time.perf_counter() - started
        timings["landmark_seconds"] = 0.0
        self.metrics.increment("engine.warmups")
        return timings

    def warm_from_store(
        self, path: FilePath | str, *, lazy: bool = True
    ) -> dict:
        """Warm-start: install a persisted index instead of building one.

        ``path`` is either a single index store file or a snapshot
        directory, in which case the newest valid snapshot is recovered
        (corrupt files skipped).  With ``lazy=True`` (default) the store
        only materializes the top graph and provenance up front; label
        levels fault in on first use.  Returns load timings plus what was loaded.  Raises
        :class:`~repro.errors.BuildError` when the path holds no
        loadable index.
        """
        started = time.perf_counter()
        generation = None
        source = FilePath(path)
        if source.is_dir():
            from repro.store.snapshot import Snapshotter

            recovered = Snapshotter(source, tracer=self.tracer).recover(
                self._graph, lazy=lazy
            )
            if recovered is None:
                raise QueryError(
                    f"{source}: no valid index snapshot to warm from"
                )
            index, generation = recovered
        else:
            index = BackboneIndex.load(source, self._graph, lazy=lazy)
        with self._build_lock:
            self._index = index
        elapsed = time.perf_counter() - started
        self.metrics.increment("engine.store_loads")
        self.metrics.observe("engine.store_load_seconds", elapsed)
        timings: dict = {"store_load_seconds": elapsed, "source": str(source)}
        if generation is not None:
            timings["snapshot_generation"] = generation
        return timings

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------

    def plan(
        self,
        source: int,
        target: int,
        mode: str = "auto",
        *,
        time_budget: float | None = None,
    ) -> str:
        """Resolve the execution strategy for one query.

        Forced modes pass through.  ``auto`` picks exact BBS for small
        graphs and same-cluster pairs (where the exact search is cheap
        anyway).  Otherwise, with an effective time budget (the call's
        or the engine default) and enough latency history, it compares
        the budget against the observed p95 of the backbone tier
        (``engine.query_seconds.approx``): when even the approximation
        is unlikely to fit, the corridor tier — whose cached corridors
        amortize the backbone sketch across repeats — is the planner's
        degradation step before hard truncation.  The backbone
        approximation remains the default.
        """
        if mode not in MODES:
            raise QueryError(f"unknown query mode {mode!r} (use {MODES})")
        if mode != "auto":
            return mode
        if self._graph.num_nodes <= self.exact_node_threshold:
            return "exact"
        if self._same_cluster(source, target):
            return "exact"
        budget = (
            time_budget if time_budget is not None else self.default_time_budget
        )
        if budget is not None:
            history = self.metrics.histogram("engine.query_seconds.approx")
            if (
                history.count >= PLANNER_MIN_SAMPLES
                and history.percentile(0.95) > budget
            ):
                return "corridor"
        return "approx"

    def _same_cluster(self, source: int, target: int) -> bool:
        """True when both endpoints share a level-0 backbone cluster.

        Cluster membership is read off the level-0 labels: nodes of one
        cluster are labelled with the same entrance (border) set, so a
        shared entrance means the pair is served by one local unit.
        Without a built index the check conservatively answers False.
        """
        index = self._index
        if index is None or not index.levels:
            return False
        level0 = index.levels[0]
        label_s = level0.get(source)
        label_t = level0.get(target)
        if label_s is None or label_t is None:
            return False
        return not set(label_s.entrances).isdisjoint(label_t.entrances)

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------

    def query(
        self,
        source: int,
        target: int,
        *,
        mode: str = "auto",
        time_budget: float | None = None,
        use_cache: bool = True,
    ) -> QueryResponse:
        """Serve one skyline path query."""
        responses = self.query_group(
            source,
            [target],
            mode=mode,
            time_budget=time_budget,
            use_cache=use_cache,
        )
        return responses[0]

    def query_group(
        self,
        source: int,
        targets: list[int],
        *,
        mode: str = "auto",
        time_budget: float | None = None,
        use_cache: bool = True,
    ) -> list[QueryResponse]:
        """Serve many queries sharing one source.

        Targets planned for the backbone approximation share a single
        grow-S phase (:func:`backbone_query_shared_source`); the rest
        run individually.  Results are positionally aligned with
        ``targets``.
        """
        if not self._graph.has_node(source):
            raise NodeNotFoundError(source)
        for target in targets:
            if not self._graph.has_node(target):
                raise NodeNotFoundError(target)
        budget = (
            check_time_budget(time_budget)
            if time_budget is not None
            else self.default_time_budget
        )

        tracer = resolve_tracer(self.tracer)
        with tracer.span(
            "serve.query_group", source=source, targets=len(targets)
        ) as serve_span:
            answers: dict[int, QueryResponse] = {}
            approx_targets: list[int] = []
            for target in targets:
                if target in answers or target in approx_targets:
                    continue
                resolved = self.plan(source, target, mode, time_budget=budget)
                if resolved == "approx":
                    cached = self._cache_lookup(
                        source, target, "approx", use_cache
                    )
                    if cached is not None:
                        serve_span.count("cache_hits")
                        answers[target] = cached
                    else:
                        approx_targets.append(target)
                elif resolved == "corridor":
                    answers[target] = self._serve_corridor(
                        source, target, budget, use_cache, tracer
                    )
                else:
                    answers[target] = self._serve_exact(
                        source, target, budget, use_cache, tracer
                    )

            if approx_targets:
                index = self.ensure_index()
                generation = self._generation
                started = time.perf_counter()
                results = backbone_query_shared_source(
                    index, source, approx_targets, time_budget=budget,
                    tracer=tracer,
                )
                for target in approx_targets:
                    answers[target] = self._record(
                        self._wrap_approx(
                            source, target, results[target], generation
                        ),
                        use_cache,
                    )
                self.metrics.observe(
                    "engine.group_seconds", time.perf_counter() - started
                )

        if serve_span.enabled:
            # Fold the finished span tree (serving overhead plus every
            # query.phase.* child) into the latency histograms, so the
            # registry exposes e.g. a query.phase.grow_s percentile
            # series without a separate trace consumer.
            aggregate_spans([serve_span], self.metrics)

        return [answers[target] for target in targets]

    def _serve_exact(
        self,
        source: int,
        target: int,
        budget: float | None,
        use_cache: bool,
        tracer: Tracer | None = None,
    ) -> QueryResponse:
        cached = self._cache_lookup(source, target, "exact", use_cache)
        if cached is not None:
            return cached
        generation = self._generation
        started = time.perf_counter()
        outcome = skyline_paths(
            self._graph, source, target,
            time_budget=budget,
            tracer=tracer,
            snapshot=self._original_snapshot(),
        )
        response = QueryResponse(
            source=source,
            target=target,
            mode="exact",
            paths=outcome.paths,
            truncated=outcome.stats.timed_out,
            elapsed_seconds=time.perf_counter() - started,
            generation=generation,
            stats=outcome.stats,
        )
        return self._record(response, use_cache)

    def _serve_corridor(
        self,
        source: int,
        target: int,
        budget: float | None,
        use_cache: bool,
        tracer: Tracer | None = None,
    ) -> QueryResponse:
        """The corridor tier: restricted exact BBS, scored, escalating.

        The corridor (backbone sketch + k-hop expansion) is built once
        per (source, target, radius, generation) and reused across
        calls; the restricted search then spends whatever the budget
        has left.  The answer is scored against the cached exact
        reference when one exists; with a ``quality_target`` set, a
        provably-missed target re-runs the exact tier in the remaining
        budget and serves its answer instead (``escalated=True``).
        """
        cached = self._cache_lookup(source, target, "corridor", use_cache)
        if cached is not None:
            return cached
        generation = self._generation
        started = time.perf_counter()
        deadline = started + budget if budget is not None else None
        corridor = self._corridor_for(source, target, budget, tracer)
        remaining = (
            deadline - time.perf_counter() if deadline is not None else None
        )
        outcome = skyline_paths(
            self._graph,
            source,
            target,
            time_budget=remaining,
            tracer=tracer,
            snapshot=self._original_snapshot(),
            restrict_to=corridor,
            # The corridor's unpacked backbone paths replace the
            # per-dimension shortest-path seeding: they stay inside the
            # corridor, cost nothing to compute here, and guarantee the
            # answer dominates-or-equals the backbone tier's.
            seed_with_shortest_paths=False,
            seed_paths=corridor.seed_paths,
        )
        truncated = outcome.stats.timed_out or corridor.backbone_truncated
        quality = self._score_corridor(
            source, target, outcome.paths, generation, truncated, use_cache
        )
        response = QueryResponse(
            source=source,
            target=target,
            mode="corridor",
            paths=outcome.paths,
            truncated=truncated,
            elapsed_seconds=time.perf_counter() - started,
            generation=generation,
            stats=outcome.stats,
            quality=quality,
        )
        if self.quality_target is not None and not quality.meets_target:
            remaining = (
                deadline - time.perf_counter() if deadline is not None else None
            )
            if remaining is None or remaining > 0:
                self.metrics.increment("engine.escalations")
                exact = self._serve_exact(
                    source, target, remaining, use_cache, tracer
                )
                # The escalated answer is served (and cached) under the
                # corridor mode key, carrying the failed report as the
                # audit trail for why the exact tier ran.
                response = replace(
                    exact,
                    mode="corridor",
                    quality=quality,
                    escalated=True,
                    cache_hit=False,
                    elapsed_seconds=time.perf_counter() - started,
                )
        return self._record(response, use_cache)

    def _corridor_for(
        self,
        source: int,
        target: int,
        budget: float | None,
        tracer: Tracer | None,
    ) -> Corridor:
        """The (source, target) corridor, built at most once per
        generation and radius.

        A corridor whose backbone sketch was budget-truncated is *not*
        cached: it may under-cover the skyline arbitrarily badly, and a
        later call with a larger budget deserves a full sketch.
        """
        key = CorridorKey(
            source, target, self.corridor_radius, self._generation
        )
        corridor = self._corridors.get(key)
        if corridor is not None:
            self.metrics.increment("engine.corridor_cache_hits")
            return corridor
        index = self.ensure_index()
        corridor = build_corridor(
            index,
            source,
            target,
            radius=self.corridor_radius,
            generation=self._generation,
            time_budget=budget,
            tracer=tracer,
        )
        self.metrics.increment("engine.corridor_builds")
        self.metrics.observe(
            "engine.corridor_build_seconds", corridor.build_seconds
        )
        if not corridor.backbone_truncated:
            self._corridors.put(key, corridor)
        return corridor

    def _score_corridor(
        self,
        source: int,
        target: int,
        paths: list[Path],
        generation: int,
        truncated: bool,
        use_cache: bool,
    ) -> QualityReport:
        """Score a corridor answer against the exact-tier contract.

        The reference is the cached exact answer for the same pair and
        generation, when the cache holds one; otherwise only structural
        soundness is checkable (see
        :func:`repro.approx.quality.structural_report`).
        """
        reference = None
        if use_cache:
            reference = self.cache.get(
                engine_cache_key(source, target, "exact", generation)
            )
        if reference is not None:
            return score_paths(
                paths, reference.paths, target=self.quality_target
            )
        return structural_report(
            paths, target=self.quality_target, truncated=truncated
        )

    def _wrap_approx(
        self,
        source: int,
        target: int,
        result: QueryResult,
        generation: int,
    ) -> QueryResponse:
        return QueryResponse(
            source=source,
            target=target,
            mode="approx",
            paths=result.paths,
            truncated=result.truncated,
            elapsed_seconds=result.stats.elapsed_seconds,
            generation=generation,
            stats=result.stats,
        )

    def _cache_lookup(
        self, source: int, target: int, mode: str, use_cache: bool
    ) -> QueryResponse | None:
        if not use_cache:
            return None
        started = time.perf_counter()
        cached = self.cache.get(
            engine_cache_key(source, target, mode, self._generation)
        )
        if cached is None:
            return None
        hit = replace(
            cached,
            cache_hit=True,
            elapsed_seconds=time.perf_counter() - started,
        )
        self._count_query(hit)
        return hit

    def _record(self, response: QueryResponse, use_cache: bool) -> QueryResponse:
        # A truncated response is the partial skyline a deadline allowed,
        # not the answer; caching it would serve an incomplete result to
        # later callers with a larger (or no) budget.
        if use_cache and not response.truncated:
            key = engine_cache_key(
                response.source,
                response.target,
                response.mode,
                response.generation,
            )
            self.cache.put(key, response)
        self._count_query(response)
        return response

    def _count_query(self, response: QueryResponse) -> None:
        self.metrics.increment("engine.queries")
        self.metrics.increment(f"engine.queries.{response.mode}")
        if response.cache_hit:
            self.metrics.increment("engine.cache_hits")
        if response.truncated:
            self.metrics.increment("engine.truncated")
        self.metrics.observe("engine.query_seconds", response.elapsed_seconds)
        self.metrics.observe(
            f"engine.query_seconds.{response.mode}", response.elapsed_seconds
        )
        live = self._live
        if live is not None:
            live.observe("engine.query_seconds", response.elapsed_seconds)
            live.observe(
                "engine.cache_hit", 1.0 if response.cache_hit else 0.0
            )

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------

    def bump_generation(self) -> int:
        """Manually retire every cached result (e.g. after editing the
        graph outside a maintainer)."""
        self._generation += 1
        self._csr_original = None
        removed = self.cache.invalidate_generations_below(self._generation)
        self._corridors.invalidate_generations_below(self._generation)
        self.metrics.increment("engine.generation_bumps")
        resolve_event_log(self.events).emit(
            "engine.cache_invalidation",
            generation=self._generation,
            removed=removed,
            reason="manual bump",
        )
        return self._generation

    def _on_maintenance(self, generation: int) -> None:
        """Maintainer callback: follow the repaired index and retire
        results computed against the old network."""
        assert self._maintainer is not None
        self._index = self._maintainer.index
        self._graph = self._maintainer.graph
        self._generation = generation
        self._csr_original = None  # topology/costs may have changed
        removed = self.cache.invalidate_generations_below(generation)
        self._corridors.invalidate_generations_below(generation)
        self.metrics.increment("engine.generation_bumps")
        resolve_event_log(self.events).emit(
            "engine.cache_invalidation",
            generation=generation,
            removed=removed,
            reason="maintenance",
        )
        if self._snapshotter is not None:
            started = time.perf_counter()
            try:
                self._snapshotter.snapshot(self._index, generation)
            except OSError:
                # Persistence is best-effort; serving must not die
                # because the snapshot disk is full or read-only.
                self.metrics.increment("engine.snapshot_failures")
            else:
                self.metrics.increment("engine.snapshots")
                self.metrics.observe(
                    "engine.snapshot_seconds", time.perf_counter() - started
                )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        """Engine + cache metrics and serving state as one dict."""
        doc = self.metrics.snapshot()
        doc["cache"] = self.cache.snapshot()
        doc["generation"] = self._generation
        doc["index_ready"] = self._index is not None
        doc["csr_ready"] = self._csr_original is not None
        doc["graph_nodes"] = self._graph.num_nodes
        return doc

    def runtime_status(self) -> dict:
        """Live serving state for :class:`repro.obs.live.LiveStatus`.

        Plain attribute reads (no locks beyond the cache snapshot's),
        so a status thread can call it at any moment without blocking a
        query in flight.
        """
        return {
            "generation": self._generation,
            "index_ready": self._index is not None,
            "csr_ready": self._csr_original is not None,
            "graph_nodes": self._graph.num_nodes,
            "queries_total": self.metrics.counter("engine.queries").value,
            "queries_by_mode": {
                mode: self.metrics.counter(f"engine.queries.{mode}").value
                for mode in ("exact", "approx", "corridor")
            },
            "escalations": self.metrics.counter("engine.escalations").value,
            "cache": self.cache.snapshot(),
        }

    def attach_live(self, live) -> "SkylineQueryEngine":
        """Publish this engine into a :class:`LiveStatus` document.

        Registers :meth:`runtime_status` as the ``"engine"`` source and
        starts feeding per-query rolling windows
        (``engine.query_seconds``, ``engine.cache_hit`` — the window
        mean of the latter is the live hit rate).
        """
        self._live = live
        live.register("engine", self.runtime_status)
        return self

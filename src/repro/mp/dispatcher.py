"""The multi-process batch dispatcher.

:class:`MPBatchServer` owns a warmed parent engine and a *cohort* of
forked worker processes that all serve from the same published
:class:`~repro.mp.shm.SharedCSR` snapshot.  A batch submitted to the
server is deduplicated, source-grouped (one shared grow-S per source,
exactly like :func:`repro.service.batch.execute_batch`), sharded over
the cohort least-loaded-first, and reassembled positionally.

Three protocols keep it honest:

**Admission control.**  At most ``max_inflight`` tasks are outstanding
across the cohort; when the window is full the dispatcher stops
sending and drains results instead, so a slow cohort backpressures the
submitter rather than growing unbounded queues.

**Generation swap.**  When the server wraps a
:class:`~repro.core.maintenance.MaintainableIndex`, structural updates
mark a pending generation.  At the next batch boundary the dispatcher
re-warms the parent engine, publishes a fresh shared segment, forks a
new cohort against it, and retires the old one — workers therefore
never observe a half-updated snapshot (no torn reads), and every
response is stamped with the generation it was computed against.  Old
segments are unlinked only once their cohort has fully drained.

**Metrics rollup.**  Every worker keeps a private
:class:`~repro.service.metrics.MetricsRegistry`; on flush, stop, and
cohort retirement the dispatcher merges their
:meth:`~repro.service.metrics.MetricsRegistry.dump_state` documents
into the parent registry, so one scrape shows cohort-wide counters and
traffic-weighted latency percentiles.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace

from repro.errors import QueryError
from repro.mp.shm import MPServingError, SharedCSR
from repro.mp.worker import (
    MSG_ERROR,
    MSG_FLUSH,
    MSG_METRICS,
    MSG_RESULT,
    MSG_STOP,
    MSG_TASK,
    WorkerConfig,
    worker_main,
)
from repro.obs.context import TraceContext, dump_process_spans, merge_dump_into
from repro.obs.events import EventLog, resolve_event_log
from repro.obs.tracer import Tracer, resolve_tracer
from repro.service.batch import _normalize
from repro.service.engine import (
    QueryResponse,
    SkylineQueryEngine,
    check_time_budget,
)
from repro.service.metrics import MetricsRegistry

QueryPair = tuple[int, int]

# How long one result-queue poll waits before re-checking worker
# liveness.  Short enough that a worker crash surfaces promptly, long
# enough not to spin.
_POLL_SECONDS = 0.25

# A retiring worker gets this long to ship final metrics and exit
# before the dispatcher gives up on it.
_RETIRE_SECONDS = 10.0


class MPQueryError(MPServingError):
    """One dispatched task failed inside a worker."""

    def __init__(
        self, message: str, *, worker_id: int, source: int, targets: list[int]
    ) -> None:
        super().__init__(
            f"worker {worker_id} failed source={source} "
            f"targets={targets}: {message}"
        )
        self.worker_id = worker_id
        self.source = source
        self.targets = targets
        self.detail = message


@dataclass
class MPBatchResult:
    """Ordered responses plus dispatch accounting.

    ``responses`` aligns positionally with the submitted queries;
    positions whose task failed hold ``None`` and the failure appears
    in ``errors`` (empty on a clean batch).
    """

    responses: list[QueryResponse | None] = field(default_factory=list)
    errors: list[MPQueryError] = field(default_factory=list)
    unique_queries: int = 0
    duplicates_folded: int = 0
    source_groups: int = 0
    tasks: int = 0
    workers: int = 0
    generation: int = 0
    elapsed_seconds: float = 0.0

    def __len__(self) -> int:
        return len(self.responses)

    def __iter__(self):
        return iter(self.responses)

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def queries_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return len(self.responses) / self.elapsed_seconds


def _prefault(snapshot) -> None:
    """Materialize a snapshot's python-list mirrors in the parent.

    The flat kernels read these mirrors, so building them *before* the
    fork puts them in pages every worker inherits copy-on-write —
    otherwise each worker would rebuild its own copy on first query and
    the zero-copy story would only cover the numpy arrays.
    """
    snapshot.adjacency_lists()
    snapshot.weight_lists()
    snapshot.cost_tuples()
    if snapshot.directed:
        snapshot.adjacency_lists(reverse=True)
        snapshot.weight_lists(reverse=True)


class _Cohort:
    """One generation's worker processes plus their shared segment."""

    def __init__(
        self,
        generation: int,
        shared: SharedCSR,
        context,
        result_queue,
        engine: SkylineQueryEngine,
        config: WorkerConfig,
        workers: int,
    ) -> None:
        self.generation = generation
        self.shared = shared
        self.task_queues = []
        self.processes = []
        self.alive = set(range(workers))
        for worker_id in range(workers):
            task_queue = context.Queue()
            process = context.Process(
                target=worker_main,
                args=(
                    worker_id,
                    generation,
                    task_queue,
                    result_queue,
                    engine.graph,
                    engine.index,
                    shared,
                    config,
                ),
                daemon=True,
                name=f"repro-mp-g{generation}-w{worker_id}",
            )
            process.start()
            self.task_queues.append(task_queue)
            self.processes.append(process)

    def check_liveness(self) -> set[int]:
        """Drop (and return) workers that died since the last check."""
        died = {
            worker_id
            for worker_id in self.alive
            if not self.processes[worker_id].is_alive()
        }
        self.alive -= died
        return died


class MPBatchServer:
    """A pool of worker processes serving batches over one shared CSR.

    Parameters
    ----------
    graph / index / maintainer / params:
        The serving context, exactly as :class:`SkylineQueryEngine`
        takes it.  With a ``maintainer`` the server also follows its
        update stream and swaps worker cohorts at batch boundaries.
    workers:
        Cohort size.  One worker degenerates to single-process serving
        through the same code path (useful as a baseline).
    max_inflight:
        Admission window: the most tasks outstanding across the cohort
        at once.  Defaults to ``4 * workers``.
    cache_size / exact_node_threshold / default_time_budget:
        Forwarded to every worker engine (and the parent engine).
    corridor_radius / quality_target:
        Corridor-tier knobs (see :class:`SkylineQueryEngine`),
        forwarded to every worker engine so ``mode="corridor"`` and
        planner escalation behave identically in- and out-of-process.
    metrics:
        The parent registry worker metrics roll up into; created on
        demand.
    """

    def __init__(
        self,
        graph=None,
        *,
        index=None,
        maintainer=None,
        params=None,
        workers: int = 2,
        max_inflight: int | None = None,
        cache_size: int = 1024,
        exact_node_threshold: int = 400,
        default_time_budget: float | None = None,
        corridor_radius: int = 2,
        quality_target: float | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        events: EventLog | None = None,
    ) -> None:
        if workers < 1:
            raise QueryError("workers must be at least 1")
        if max_inflight is not None and max_inflight < 1:
            raise QueryError("max_inflight must be at least 1")
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError as error:  # pragma: no cover - non-POSIX
            raise MPServingError(
                "multi-process serving needs the fork start method "
                "(POSIX only)"
            ) from error
        self._workers = workers
        self._max_inflight = max_inflight or 4 * workers
        self._config = WorkerConfig(
            cache_size=cache_size,
            exact_node_threshold=exact_node_threshold,
            default_time_budget=default_time_budget,
            corridor_radius=corridor_radius,
            quality_target=quality_target,
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._engine = SkylineQueryEngine(
            graph,
            index=index,
            maintainer=maintainer,
            params=params,
            cache_size=0,  # the parent engine only plans; workers serve
            exact_node_threshold=exact_node_threshold,
            default_time_budget=default_time_budget,
            corridor_radius=corridor_radius,
            quality_target=quality_target,
        )
        self._maintainer = maintainer
        self._pending_generation = self._engine.generation
        if maintainer is not None:
            maintainer.subscribe(self._note_generation)
        self._result_queue = self._context.Queue()
        self._cohort: _Cohort | None = None
        self._dispatch_lock = threading.Lock()
        self._stopped = False
        # Observability: tracer/events default to the process-wide
        # singletons (disabled no-ops unless the caller installed
        # enabled ones); worker span dumps fold in keyed by
        # (pid, epoch_wall); _inflight is a lock-free gauge for
        # runtime_status.
        self._tracer = tracer
        self._events = events
        self._trace_dumps: dict = {}
        self._inflight = 0
        self._admission_stalls = 0
        self._live = None
        # The last cohort's worker table survives retirement (alive
        # stamped False) so a post-run status document still says which
        # pids served.
        self._last_worker_processes: list[dict] = []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def engine(self) -> SkylineQueryEngine:
        """The parent engine (planning, verification baselines)."""
        return self._engine

    @property
    def generation(self) -> int:
        """The generation the current cohort serves."""
        cohort = self._cohort
        return cohort.generation if cohort else self._engine.generation

    @property
    def workers(self) -> int:
        return self._workers

    def start(self) -> "MPBatchServer":
        """Warm the parent, publish the snapshot, fork the cohort."""
        with self._dispatch_lock:
            if self._cohort is None and not self._stopped:
                self._spawn_cohort()
        return self

    def __enter__(self) -> "MPBatchServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def stop(self) -> None:
        """Retire the cohort and release the shared segment."""
        with self._dispatch_lock:
            self._stopped = True
            if self._cohort is not None:
                self._retire_cohort(self._cohort)
                self._cohort = None

    def _note_generation(self, generation: int) -> None:
        # Maintainer callback: just record it.  The actual swap happens
        # at the next batch boundary under the dispatch lock, so a
        # structural update never races an in-flight batch.
        self._pending_generation = generation

    def _spawn_cohort(self) -> None:
        started = time.perf_counter()
        self._engine.warm()
        snapshot = self._engine._original_snapshot()
        shared = SharedCSR.publish(snapshot)
        # Pre-fault the shared snapshot's list mirrors and the index's
        # G_L snapshot in the parent so every forked worker inherits
        # them copy-on-write instead of rebuilding per process.
        _prefault(shared.snapshot())
        _prefault(self._engine.ensure_index().csr_top())
        # Whether workers trace is decided here, per cohort: forked
        # workers cannot be handed a live tracer object, only the flag.
        config = replace(
            self._config, trace=resolve_tracer(self._tracer).enabled
        )
        self._cohort = _Cohort(
            self._engine.generation,
            shared,
            self._context,
            self._result_queue,
            self._engine,
            config,
            self._workers,
        )
        elapsed = time.perf_counter() - started
        self.metrics.increment("mp.cohorts")
        self.metrics.observe("mp.cohort_spawn_seconds", elapsed)
        events = resolve_event_log(self._events)
        events.emit(
            "mp.cohort.spawn",
            generation=self._cohort.generation,
            workers=self._workers,
            segment_bytes=shared.nbytes,
            elapsed_seconds=elapsed,
        )
        for worker_id, process in enumerate(self._cohort.processes):
            events.emit(
                "mp.worker.spawn",
                worker=worker_id,
                pid=process.pid,
                generation=self._cohort.generation,
            )

    def _retire_cohort(self, cohort: _Cohort) -> None:
        """Drain, stop, and merge one cohort; unlink its segment."""
        events = resolve_event_log(self._events)
        for worker_id in cohort.alive:
            cohort.task_queues[worker_id].put((MSG_STOP,))
        awaiting = set(cohort.alive)
        deadline = time.monotonic() + _RETIRE_SECONDS
        while awaiting and time.monotonic() < deadline:
            try:
                message = self._result_queue.get(timeout=_POLL_SECONDS)
            except queue_module.Empty:
                awaiting -= cohort.check_liveness()
                continue
            if message[0] == MSG_METRICS:
                self.metrics.merge_state(message[3])
                awaiting.discard(message[1])
            # Stray result/error messages from an interrupted batch are
            # dropped here (their batch has already been reported) —
            # but any span dump they carry is still worth folding in.
            self._merge_message_spans(message)
        for worker_id, process in enumerate(cohort.processes):
            process.join(timeout=_POLL_SECONDS)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=_POLL_SECONDS)
                events.emit(
                    "mp.worker.death",
                    worker=worker_id,
                    pid=process.pid,
                    generation=cohort.generation,
                    reason="terminated at retirement",
                )
            else:
                events.emit(
                    "mp.worker.exit",
                    worker=worker_id,
                    pid=process.pid,
                    exitcode=process.exitcode,
                    generation=cohort.generation,
                )
        # The cohort has drained: this process drops its mapping and the
        # segment name is unlinked, so the kernel frees the pages as the
        # last worker mapping disappears.
        cohort.shared.close()
        cohort.shared.unlink()
        self._last_worker_processes = [
            {
                "worker": worker_id,
                "pid": process.pid,
                "alive": process.is_alive(),
                "generation": cohort.generation,
            }
            for worker_id, process in enumerate(cohort.processes)
        ]
        self.metrics.increment("mp.cohorts_retired")
        events.emit(
            "mp.cohort.retire",
            generation=cohort.generation,
            workers=len(cohort.processes),
            metrics_unmerged=len(awaiting),
        )

    def _merge_message_spans(self, message) -> None:
        """Fold the span dump riding on a worker reply, if any."""
        if len(message) > 4 and isinstance(message[4], dict):
            merge_dump_into(self._trace_dumps, message[4])

    def _maybe_swap(self) -> None:
        cohort = self._cohort
        if cohort is None:
            if self._stopped:
                raise MPServingError("server is stopped")
            self._spawn_cohort()
            return
        if self._pending_generation > cohort.generation:
            # Batch boundary: publish the post-maintenance snapshot and
            # recycle the cohort onto it.
            events = resolve_event_log(self._events)
            from_generation = cohort.generation
            events.emit(
                "mp.generation_swap.begin",
                from_generation=from_generation,
                to_generation=self._pending_generation,
            )
            started = time.perf_counter()
            self._retire_cohort(cohort)
            self._cohort = None
            self._spawn_cohort()
            self.metrics.increment("mp.generation_swaps")
            events.emit(
                "mp.generation_swap.end",
                from_generation=from_generation,
                generation=self._cohort.generation,
                elapsed_seconds=time.perf_counter() - started,
            )

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def submit(
        self,
        queries,
        *,
        mode: str = "auto",
        time_budget: float | None = None,
        fail_fast: bool = False,
    ) -> MPBatchResult:
        """Serve a batch across the cohort; responses in input order.

        With ``fail_fast=True`` the first worker error aborts the batch
        (pending tasks are withheld, in-flight ones drained) and raises
        :class:`MPQueryError`; otherwise failures land in
        ``result.errors`` and their positions hold ``None``.
        """
        check_time_budget(time_budget)
        started = time.perf_counter()
        with self._dispatch_lock:
            self._maybe_swap()
            cohort = self._cohort
            assert cohort is not None
            if not cohort.alive:
                raise MPServingError("no live workers in the cohort")

            pairs = [_normalize(query) for query in queries]
            positions: dict[QueryPair, list[int]] = {}
            for position, pair in enumerate(pairs):
                positions.setdefault(pair, []).append(position)

            # Shared-source grouping, like execute_batch: approx plans
            # merge into one grow-S per source, the rest go alone.
            by_source: dict[int, list[int]] = {}
            singles: list[QueryPair] = []
            for source, target in positions:
                plan = self._engine.plan(
                    source, target, mode, time_budget=time_budget
                )
                if plan == "approx":
                    by_source.setdefault(source, []).append(target)
                else:
                    singles.append((source, target))
            tasks: list[tuple[int, list[int]]] = [
                (source, [target]) for source, target in singles
            ]
            groups = 0
            for source, targets in by_source.items():
                tasks.append((source, targets))
                if len(targets) > 1:
                    groups += 1

            tracer = resolve_tracer(self._tracer)
            with tracer.span(
                "mp.batch",
                queries=len(pairs),
                unique=len(positions),
                tasks=len(tasks),
                generation=cohort.generation,
                workers=len(cohort.alive),
            ) as batch_span:
                answers, errors = self._dispatch(
                    cohort, tasks, mode, time_budget, fail_fast,
                    batch_span=batch_span,
                )

            result = MPBatchResult(
                responses=[answers.get(pair) for pair in pairs],
                errors=errors,
                unique_queries=len(positions),
                duplicates_folded=len(pairs) - len(positions),
                source_groups=groups,
                tasks=len(tasks),
                workers=len(cohort.alive),
                generation=cohort.generation,
                elapsed_seconds=time.perf_counter() - started,
            )
            self.metrics.increment("mp.batches")
            self.metrics.increment("mp.queries", len(pairs))
            self.metrics.increment("mp.tasks", len(tasks))
            self.metrics.increment("mp.errors", len(errors))
            self.metrics.observe("mp.batch_seconds", result.elapsed_seconds)
            live = self._live
            if live is not None:
                live.observe("mp.batch_seconds", result.elapsed_seconds)
                live.observe("mp.batch_queries", float(len(pairs)))
            if fail_fast and errors:
                raise errors[0]
            return result

    def _dispatch(
        self,
        cohort: _Cohort,
        tasks: list[tuple[int, list[int]]],
        mode: str,
        time_budget: float | None,
        fail_fast: bool,
        batch_span=None,
    ):
        """Send tasks under the admission window and collect replies."""
        tracer = resolve_tracer(self._tracer)
        events = resolve_event_log(self._events)
        pending = deque(enumerate(tasks))
        outstanding: dict[int, tuple[int, int, list[int]]] = {}
        dispatch_spans: dict[int, object] = {}
        loads = {worker_id: 0 for worker_id in cohort.alive}
        answers: dict[QueryPair, QueryResponse] = {}
        errors: list[MPQueryError] = []
        aborted = False
        stalls = 0

        def finish_span(task_id, **attrs):
            span = dispatch_spans.pop(task_id, None)
            if span is not None:
                span.set(**attrs)
                span.finish()

        def record_error(worker_id, task_id, detail):
            nonlocal aborted
            _w, source, targets = outstanding.pop(task_id)
            finish_span(task_id, status="error", detail=detail)
            errors.append(
                MPQueryError(
                    detail, worker_id=worker_id, source=source,
                    targets=list(targets),
                )
            )
            if fail_fast:
                aborted = True

        while pending or outstanding:
            # Admission: fill the window, least-loaded worker first.
            while (
                pending
                and not aborted
                and len(outstanding) < self._max_inflight
                and loads
            ):
                task_id, (source, targets) = pending.popleft()
                worker_id = min(loads, key=lambda w: (loads[w], w))
                loads[worker_id] += len(targets)
                outstanding[task_id] = (worker_id, source, targets)
                ctx = None
                if tracer.enabled:
                    # A dispatch span lives from queue-send to reply;
                    # its extent interleaves with other dispatches on
                    # this thread, hence begin/finish, not ``with``.
                    span = tracer.span(
                        "mp.dispatch",
                        task=task_id,
                        worker=worker_id,
                        source=source,
                        n_targets=len(targets),
                    ).begin(parent=batch_span)
                    dispatch_spans[task_id] = span
                    ctx = TraceContext.for_span(tracer, span)
                cohort.task_queues[worker_id].put((
                    MSG_TASK, task_id, source, targets, mode, time_budget,
                    ctx,
                ))
            self._inflight = len(outstanding)
            if (
                pending
                and not aborted
                and loads
                and len(outstanding) >= self._max_inflight
            ):
                stalls += 1  # window full with work still waiting
            if aborted and not outstanding:
                break
            if not outstanding:
                if aborted or not loads:
                    break
                continue
            try:
                message = self._result_queue.get(timeout=_POLL_SECONDS)
            except queue_module.Empty:
                for dead in cohort.check_liveness():
                    loads.pop(dead, None)
                    exitcode = cohort.processes[dead].exitcode
                    events.emit(
                        "mp.worker.death",
                        worker=dead,
                        pid=cohort.processes[dead].pid,
                        exitcode=exitcode,
                        generation=cohort.generation,
                        reason="died mid-batch",
                    )
                    for task_id in [
                        t for t, (w, _s, _ts) in outstanding.items()
                        if w == dead
                    ]:
                        record_error(
                            dead, task_id, f"worker died (exitcode {exitcode})"
                        )
                if not loads and outstanding:  # pragma: no cover
                    raise MPServingError("every worker died mid-batch")
                continue
            self._merge_message_spans(message)
            kind = message[0]
            if kind == MSG_RESULT:
                _kind, worker_id, task_id, responses = message[:4]
                entry = outstanding.pop(task_id, None)
                if entry is None:
                    continue  # stale reply from an aborted batch
                finish_span(task_id, status="ok")
                _w, source, targets = entry
                loads[worker_id] = max(0, loads[worker_id] - len(targets))
                for target, response in zip(targets, responses):
                    answers[(source, target)] = response
            elif kind == MSG_ERROR:
                _kind, worker_id, task_id, detail = message[:4]
                if task_id in outstanding:
                    _w, _source, targets = outstanding[task_id]
                    loads[worker_id] = max(
                        0, loads[worker_id] - len(targets)
                    )
                    record_error(worker_id, task_id, detail)
            elif kind == MSG_METRICS:  # stray flush reply; merge anyway
                self.metrics.merge_state(message[3])
        self._inflight = 0
        for task_id in list(dispatch_spans):
            # Sent but never answered (aborted batch / dead worker).
            finish_span(task_id, status="abandoned")
        if stalls:
            self._admission_stalls += stalls
            self.metrics.increment("mp.admission_stalls", stalls)
            events.emit(
                "mp.admission.backpressure",
                stalls=stalls,
                max_inflight=self._max_inflight,
                tasks=len(tasks),
            )
        return answers, errors

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------

    def flush_metrics(self) -> dict:
        """Pull every live worker's registry into the parent and
        return the merged snapshot."""
        with self._dispatch_lock:
            cohort = self._cohort
            if cohort is not None and cohort.alive:
                token = f"flush-{self.metrics.counter('mp.flushes').value}"
                for worker_id in cohort.alive:
                    cohort.task_queues[worker_id].put((MSG_FLUSH, token))
                awaiting = set(cohort.alive)
                deadline = time.monotonic() + _RETIRE_SECONDS
                while awaiting and time.monotonic() < deadline:
                    try:
                        message = self._result_queue.get(
                            timeout=_POLL_SECONDS
                        )
                    except queue_module.Empty:
                        awaiting -= cohort.check_liveness()
                        continue
                    self._merge_message_spans(message)
                    if message[0] == MSG_METRICS and message[2] == token:
                        self.metrics.merge_state(message[3])
                        awaiting.discard(message[1])
                self.metrics.increment("mp.flushes")
        return self.metrics_snapshot()

    def metrics_snapshot(self) -> dict:
        """The parent registry plus dispatcher state, as one dict.

        Worker-side instruments appear after :meth:`flush_metrics`,
        cohort retirement, or :meth:`stop` has merged them.
        """
        doc = self.metrics.snapshot()
        cohort = self._cohort
        doc["mp"] = {
            "workers": self._workers,
            "live_workers": len(cohort.alive) if cohort else 0,
            "generation": self.generation,
            "max_inflight": self._max_inflight,
            "segment_bytes": cohort.shared.nbytes if cohort else 0,
        }
        return doc

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def trace_dumps(self) -> list[dict]:
        """Every span dump collected so far, dispatcher's own first.

        One entry per process: the dispatcher's local tracer (batch and
        dispatch spans), then each worker's dump folded across all the
        task replies it shipped.  Feed the list to
        :func:`repro.obs.export.merge_process_traces` (or
        ``write_merged_trace``) for the single multi-pid Chrome trace.
        """
        tracer = resolve_tracer(self._tracer)
        dumps: list[dict] = []
        if tracer.enabled:
            dumps.append(dump_process_spans(tracer, label="dispatcher"))
        dumps.extend(self._trace_dumps.values())
        return dumps

    def runtime_status(self) -> dict:
        """Live operational state, readable without the dispatch lock.

        Values are racy by design (plain attribute reads) so a status
        thread or HTTP scrape can never block or deadlock serving; the
        shape is stable for :class:`repro.obs.live.LiveStatus`
        providers and ``repro status``.
        """
        cohort = self._cohort
        current = cohort.generation if cohort else self._engine.generation
        if cohort is not None:
            worker_processes = [
                {
                    "worker": worker_id,
                    "pid": process.pid,
                    "alive": process.is_alive(),
                    "generation": cohort.generation,
                }
                for worker_id, process in enumerate(cohort.processes)
            ]
        else:
            worker_processes = list(self._last_worker_processes)
        return {
            "workers": self._workers,
            "live_workers": len(cohort.alive) if cohort else 0,
            "generation": current,
            "pending_generation": self._pending_generation,
            "generation_lag": max(0, self._pending_generation - current),
            "inflight": self._inflight,
            "max_inflight": self._max_inflight,
            "admission_stalls": self._admission_stalls,
            "stopped": self._stopped,
            "segment_bytes": cohort.shared.nbytes if cohort else 0,
            "worker_processes": worker_processes,
        }

    def attach_live(self, live) -> "MPBatchServer":
        """Publish this server into a :class:`LiveStatus` document.

        Registers :meth:`runtime_status` as the ``"mp"`` source and
        starts feeding per-batch rolling windows (``mp.batch_seconds``,
        ``mp.batch_queries``).
        """
        self._live = live
        live.register("mp", self.runtime_status)
        return self

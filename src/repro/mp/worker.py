"""The worker process side of multi-process serving.

A worker is forked by :class:`repro.mp.dispatcher.MPBatchServer` with
its whole serving context inherited copy-on-write: the graph, the
backbone index, and the published :class:`~repro.mp.shm.SharedCSR`
handle.  On startup it wraps that
context in a local flat-engine :class:`SkylineQueryEngine` and installs
the *shared* CSR snapshot — read-only views into the publisher's
segment — so the flat kernels in every worker walk the same physical
arrays.

The loop then serves three message kinds off its task queue:

``("task", task_id, source, targets, mode, budget, ctx)``
    Serve one shared-source query group; ``ctx`` is the dispatcher's
    :class:`~repro.obs.context.TraceContext` (or None when tracing is
    off).  Reply ``("result", worker_id, task_id, responses, spans)``
    with stats stripped (keeps the pickle small) and, when tracing,
    the task's span dump; or ``("error", worker_id, task_id, message,
    spans)`` if the group raised.
``("flush", token)``
    Reply ``("metrics", worker_id, token, registry_state, spans)`` —
    the full :meth:`~repro.service.metrics.MetricsRegistry.dump_state`
    document the dispatcher merges into the parent registry.
``("stop",)``
    Ship a final metrics document (token ``"stop"``) and exit.

When the dispatcher forks the cohort with tracing enabled
(:attr:`WorkerConfig.trace`), each worker installs its own enabled
:class:`~repro.obs.tracer.Tracer` process-wide — the ``fork()`` hook in
:mod:`repro.obs.tracer` has already wiped any state inherited from the
parent — and wraps every task in an ``mp.worker.task`` span carrying
the dispatcher's trace id and parent span id, plus an
``mp.worker.queue_wait`` span anchored at the dispatch send instant.
Span dumps are drained into each reply, so the dispatcher can merge
every process's timeline into one Chrome trace.

Workers never raise out of the loop: any per-task exception becomes an
error reply, so the dispatcher always learns the task's fate and its
admission slot is always released.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace

from repro.mp.shm import SharedCSR
from repro.obs.context import TraceContext, dump_process_spans
from repro.obs.export import PARENT_SPAN_ATTR
from repro.obs.tracer import Tracer, set_tracer

# Message tags (tuples keep the queue payloads pickle-cheap).
MSG_TASK = "task"
MSG_FLUSH = "flush"
MSG_STOP = "stop"
MSG_RESULT = "result"
MSG_ERROR = "error"
MSG_METRICS = "metrics"


@dataclass(frozen=True)
class WorkerConfig:
    """Engine knobs forwarded from the dispatcher to every worker."""

    cache_size: int = 1024
    exact_node_threshold: int = 400
    default_time_budget: float | None = None
    corridor_radius: int = 2
    quality_target: float | None = None
    # When True each worker runs a local enabled tracer and ships span
    # dumps back with every reply (set per cohort at spawn time).
    trace: bool = False

    def __post_init__(self) -> None:
        from repro.service.engine import check_time_budget

        check_time_budget(self.default_time_budget)


def build_worker_engine(graph, index, shared, generation, config):
    """A serving stack around the shared snapshot.

    Separated from :func:`worker_main` so tests can build the exact
    engine a worker would use in-process and compare answers.
    """
    from repro.service.engine import SkylineQueryEngine

    engine = SkylineQueryEngine(
        graph,
        index=index,
        cache_size=config.cache_size,
        exact_node_threshold=config.exact_node_threshold,
        default_time_budget=config.default_time_budget,
        corridor_radius=config.corridor_radius,
        quality_target=config.quality_target,
    )
    # Install the shared snapshot instead of letting the engine rebuild
    # it: the CSR arrays are views into the published segment (the
    # zero-copy attach), and exact bounds are computed over them.
    engine._csr_original = shared.snapshot() if shared is not None else None
    engine._generation = generation
    return engine


def _span_dump(tracer: Tracer | None, worker_id: int) -> dict | None:
    """Drain this worker's finished spans for shipping (None when off)."""
    if tracer is None or not tracer.enabled:
        return None
    return dump_process_spans(
        tracer, label=f"worker-{worker_id}", drain=True
    )


def worker_main(
    worker_id: int,
    generation: int,
    task_queue,
    result_queue,
    graph,
    index,
    shared: SharedCSR | None,
    config: WorkerConfig,
) -> None:
    """Entry point of one worker process (runs until ``stop``)."""
    tracer: Tracer | None = None
    if config.trace:
        # A fresh worker-local tracer, installed process-wide so the
        # engine's own spans (serve.query_group, query phases) collect
        # into it without threading a handle through every call.
        tracer = Tracer(enabled=True)
        set_tracer(tracer)
    engine = build_worker_engine(
        graph, index, shared, generation, config
    )
    engine.metrics.increment("mp.worker.starts")
    try:
        while True:
            message = task_queue.get()
            kind = message[0]
            if kind == MSG_TASK:
                _task_id, source, targets, mode, budget = message[1:6]
                ctx: TraceContext | None = (
                    message[6] if len(message) > 6 else None
                )
                arrived_wall = time.time()
                if tracer is not None and ctx is not None:
                    _record_queue_wait(tracer, ctx, arrived_wall, worker_id)
                task_span = (
                    tracer.span(
                        "mp.worker.task",
                        worker=worker_id,
                        task=_task_id,
                        source=source,
                        n_targets=len(targets),
                        mode=mode,
                        generation=generation,
                        **_link_attrs(ctx),
                    )
                    if tracer is not None
                    else nullcontext()
                )
                try:
                    with task_span:
                        responses = engine.query_group(
                            source, list(targets), mode=mode,
                            time_budget=budget,
                        )
                except Exception as error:  # ship, never crash the loop
                    engine.metrics.increment("mp.worker.task_errors")
                    result_queue.put((
                        MSG_ERROR,
                        worker_id,
                        _task_id,
                        f"{type(error).__name__}: {error}",
                        _span_dump(tracer, worker_id),
                    ))
                else:
                    engine.metrics.increment("mp.worker.tasks")
                    trace_id = ctx.trace_id if ctx is not None else None
                    result_queue.put((
                        MSG_RESULT,
                        worker_id,
                        _task_id,
                        [
                            replace(
                                r,
                                stats=None,
                                worker_pid=os.getpid(),
                                trace_id=trace_id,
                            )
                            for r in responses
                        ],
                        _span_dump(tracer, worker_id),
                    ))
            elif kind == MSG_FLUSH:
                result_queue.put((
                    MSG_METRICS,
                    worker_id,
                    message[1],
                    engine.metrics.dump_state(),
                    _span_dump(tracer, worker_id),
                ))
            elif kind == MSG_STOP:
                result_queue.put((
                    MSG_METRICS,
                    worker_id,
                    MSG_STOP,
                    engine.metrics.dump_state(),
                    _span_dump(tracer, worker_id),
                ))
                return
            # Unknown kinds are ignored; a newer dispatcher talking to
            # an older worker degrades to a no-op instead of a crash.
    finally:
        if shared is not None:
            shared.close()


def _link_attrs(ctx: TraceContext | None) -> dict:
    """Span attributes that tie worker spans back to the dispatcher."""
    if ctx is None:
        return {}
    attrs = {"trace_id": ctx.trace_id}
    if ctx.parent_span_id is not None:
        attrs[PARENT_SPAN_ATTR] = ctx.parent_span_id
    return attrs


def _record_queue_wait(
    tracer: Tracer, ctx: TraceContext, arrived_wall: float, worker_id: int
) -> None:
    """One span covering send-to-pickup time on the task queue.

    Anchored on the *wall clock* (the only clock the dispatcher and the
    worker share), spanning the dispatcher's send instant to this
    worker's pickup; merged traces render it in the gap between the
    dispatch span opening and the task span starting.
    """
    if ctx.sent_at_wall is None or arrived_wall < ctx.sent_at_wall:
        return  # no send stamp, or clock skew made the wait negative
    span = tracer.span(
        "mp.worker.queue_wait",
        worker=worker_id,
        wait_seconds=arrived_wall - ctx.sent_at_wall,
        **_link_attrs(ctx),
    )
    span.begin(at=tracer.at_wall(ctx.sent_at_wall))
    span.finish(at=tracer.at_wall(arrived_wall))

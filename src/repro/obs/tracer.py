"""Lightweight tracing: nested spans with attributes and counters.

A :class:`Tracer` hands out :class:`Span` context managers.  Spans nest
through a *thread-local* stack, so threads that share a tracer each
build their own independent span trees; finished root spans from
every thread collect into one shared, lock-guarded list that the
exporters (:mod:`repro.obs.export`) read.

The process-wide default tracer is **disabled**: ``span()`` on a
disabled tracer returns a shared no-op span after a single attribute
check, so instrumented hot paths pay essentially nothing when tracing
is off.  Instrumented functions therefore accept ``tracer=None`` and
resolve it with :func:`resolve_tracer`; callers opt in either by
passing an enabled :class:`Tracer` explicitly or by installing one
process-wide with :func:`set_tracer` / :func:`use_tracer`.

Span timestamps come from ``time.perf_counter`` and are stored relative
to the tracer's epoch (its construction instant), which is what the
Chrome ``trace_event`` exporter needs.  The tracer also records the
wall-clock time of that instant (``epoch_wall``), so span dumps from
*different processes* — each with its own perf_counter origin — can be
aligned onto one timeline by
:func:`repro.obs.export.merge_process_traces`.

Processes that ``fork()`` (the :mod:`repro.mp` worker cohorts) would
otherwise inherit the parent's thread-local span stacks and collected
roots, corrupting nesting and double-reporting spans; every tracer
therefore registers itself in a weak set and an ``os.register_at_fork``
hook resets them all in the child (fresh stacks, empty roots, new
epoch).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
import uuid
import weakref
from contextlib import contextmanager
from typing import Iterator

# Process-unique span ids: "<pid hex>.<seq hex>".  The pid component
# keeps ids unique across the processes whose dumps merge into one
# trace; the counter restarts per process but the pid disambiguates.
_span_counter = itertools.count(1)


def _new_span_id() -> str:
    return f"{os.getpid():x}.{next(_span_counter):x}"


class _NullSpan:
    """The shared do-nothing span returned by disabled tracers.

    Supports the full :class:`Span` surface (context manager, ``set``,
    ``count``) as no-ops, and is stateless so one instance serves every
    call site concurrently.
    """

    __slots__ = ()

    enabled = False

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass

    def count(self, name: str, amount: int = 1) -> None:
        pass

    def begin(self, parent=None, *, at: float | None = None) -> "_NullSpan":
        return self

    def finish(self, *, at: float | None = None) -> None:
        pass

    @property
    def span_id(self) -> None:
        return None

    @property
    def duration(self) -> float:
        return 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<NullSpan>"


NULL_SPAN = _NullSpan()


class Span:
    """One timed, named region of work with attributes and counters.

    Use as a context manager; entering records the start time and
    pushes the span onto the owning tracer's thread-local stack, so
    spans opened inside the ``with`` body become children.
    """

    __slots__ = (
        "name",
        "attrs",
        "counters",
        "children",
        "start",
        "end",
        "thread_id",
        "thread_name",
        "parent",
        "span_id",
        "_tracer",
    )

    enabled = True

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self.name = name
        self.attrs = attrs
        self.counters: dict[str, float] = {}
        self.children: list[Span] = []
        self.start = 0.0
        self.end: float | None = None
        self.thread_id = 0
        self.thread_name = ""
        self.parent: Span | None = None
        self.span_id = _new_span_id()
        self._tracer = tracer

    def __enter__(self) -> "Span":
        thread = threading.current_thread()
        self.thread_id = thread.ident or 0
        self.thread_name = thread.name
        self._tracer._push(self)
        self.start = time.perf_counter() - self._tracer.epoch
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = time.perf_counter() - self._tracer.epoch
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._pop(self)
        return False

    # ------------------------------------------------------------------
    # manual lifecycle (spans that outlive one stack frame)
    # ------------------------------------------------------------------

    def begin(self, parent: "Span | None" = None, *, at: float | None = None) -> "Span":
        """Start the span without touching the thread-local stack.

        For spans whose extent does not match a ``with`` block — e.g.
        a dispatch span opened when a task is queued to a worker and
        finished when its reply arrives, while other dispatch spans
        open and close in between.  ``parent`` attaches the span to an
        already open span's subtree; ``at`` overrides the start time
        (tracer-relative seconds, see :meth:`Tracer.at_wall`).  Spans
        begun this way never become implicit parents of ``with`` spans.
        """
        thread = threading.current_thread()
        self.thread_id = thread.ident or 0
        self.thread_name = thread.name
        if parent is not None and parent.enabled:
            self.parent = parent
            parent.children.append(self)
        self.start = (
            at if at is not None
            else time.perf_counter() - self._tracer.epoch
        )
        return self

    def finish(self, *, at: float | None = None) -> None:
        """Close a span started with :meth:`begin`.

        Parentless spans are published as roots; children are already
        reachable through their parent.
        """
        self.end = (
            at if at is not None
            else time.perf_counter() - self._tracer.epoch
        )
        if self.parent is None:
            with self._tracer._lock:
                self._tracer._roots.append(self)

    @property
    def duration(self) -> float:
        """Seconds between enter and exit (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def set(self, **attrs) -> None:
        """Attach or overwrite span attributes."""
        self.attrs.update(attrs)

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the span-local counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def walk(self) -> Iterator[tuple["Span", int]]:
        """Yield ``(span, depth)`` pairs, this span first (depth 0)."""
        stack: list[tuple[Span, int]] = [(self, 0)]
        while stack:
            span, depth = stack.pop()
            yield span, depth
            for child in reversed(span.children):
                stack.append((child, depth + 1))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Span {self.name!r} {self.duration * 1e3:.3f}ms "
            f"children={len(self.children)}>"
        )


class Tracer:
    """Collects span trees per thread; disabled by default everywhere.

    Parameters
    ----------
    enabled:
        When False, :meth:`span` returns the shared :data:`NULL_SPAN`
        after one attribute check — the no-overhead off switch.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.epoch = time.perf_counter()
        # The wall-clock instant of the epoch, letting dumps from
        # different processes (each with its own perf_counter origin)
        # align on one timeline.
        self.epoch_wall = time.time()
        self.trace_id = uuid.uuid4().hex[:16]
        self._local = threading.local()
        self._roots: list[Span] = []
        self._lock = threading.Lock()
        _live_tracers.add(self)

    def at_wall(self, wall_timestamp: float) -> float:
        """A wall-clock instant as tracer-relative seconds.

        Lets a span be anchored at a moment another process observed
        (e.g. the dispatcher's queue-send time) via ``begin(at=...)``.
        """
        return wall_timestamp - self.epoch_wall

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def span(self, name: str, **attrs) -> Span | _NullSpan:
        """A new span named ``name``; nest it with ``with``."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, attrs)

    def current(self) -> Span | None:
        """The innermost open span on this thread, or None."""
        stack = getattr(self._local, "stack", None)
        if not stack:
            return None
        return stack[-1]

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        stack = self._stack()
        if stack:
            span.parent = stack[-1]
            stack[-1].children.append(span)
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        # Tolerate mismatched exits (e.g. a generator finalized late):
        # unwind to the span being closed rather than corrupting state.
        while stack:
            top = stack.pop()
            if top is span:
                break
        if span.parent is None:
            # A parentless span is a root; nested spans stay reachable
            # through their parent's ``children`` instead.
            with self._lock:
                self._roots.append(span)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def roots(self) -> list[Span]:
        """Finished root spans from every thread, in finish order."""
        with self._lock:
            return list(self._roots)

    def drain(self) -> list[Span]:
        """Atomically take (and clear) the finished root spans.

        The worker-process serving loop drains after every task so each
        reply ships exactly the spans that task produced.
        """
        with self._lock:
            roots = list(self._roots)
            self._roots.clear()
        return roots

    def reset(self) -> None:
        """Drop every collected root span (open spans are unaffected)."""
        with self._lock:
            self._roots.clear()

    def reset_after_fork(self) -> None:
        """Discard state inherited across ``fork()``.

        A forked child inherits the parent's thread-local span stacks
        (with spans that belong to parent threads that do not exist in
        the child), its collected roots (already reported there), and
        an epoch measured in the parent.  Everything restarts: fresh
        stacks, empty roots, a new epoch/epoch_wall pair, a new
        trace_id, and a fresh lock (the inherited one may have been
        held by a non-forking thread at fork time).
        """
        self._local = threading.local()
        self._lock = threading.Lock()
        self._roots = []
        self.epoch = time.perf_counter()
        self.epoch_wall = time.time()
        self.trace_id = uuid.uuid4().hex[:16]

    def aggregate_into(self, registry, *, prefix: str = "") -> None:
        """Fold collected spans into a metrics registry.

        Convenience wrapper over
        :func:`repro.obs.export.aggregate_spans`.
        """
        from repro.obs.export import aggregate_spans

        aggregate_spans(self.roots(), registry, prefix=prefix)


# ----------------------------------------------------------------------
# fork safety
# ----------------------------------------------------------------------

# Every live tracer, weakly held, so the at-fork hook can reset them
# all in the child without keeping dead tracers alive.
_live_tracers: "weakref.WeakSet[Tracer]" = weakref.WeakSet()


def _reset_tracers_in_child() -> None:
    for tracer in list(_live_tracers):
        tracer.reset_after_fork()


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX
    os.register_at_fork(after_in_child=_reset_tracers_in_child)


# ----------------------------------------------------------------------
# process-wide default
# ----------------------------------------------------------------------

_default_tracer = Tracer(enabled=False)
_default_lock = threading.Lock()


def get_tracer() -> Tracer:
    """The process-wide tracer (a disabled no-op unless replaced)."""
    return _default_tracer


def set_tracer(tracer: Tracer | None) -> Tracer:
    """Install ``tracer`` process-wide; None restores the disabled
    default.  Returns the tracer now in effect."""
    global _default_tracer
    with _default_lock:
        _default_tracer = tracer if tracer is not None else Tracer(enabled=False)
        return _default_tracer


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Temporarily install ``tracer`` process-wide."""
    previous = get_tracer()
    set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


def resolve_tracer(tracer: Tracer | None) -> Tracer:
    """The tracer an instrumented function should use.

    ``None`` resolves to the process-wide default, so instrumentation
    costs one global read plus one attribute check when tracing is off.
    """
    return tracer if tracer is not None else _default_tracer

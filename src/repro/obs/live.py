"""Live runtime telemetry: a status file, rolling windows, HTTP endpoints.

The metrics registry accumulates since process start; operations wants
*now*: what were p50/p95/p99 over the last minute, which workers are
alive, how stale is each worker's snapshot generation, how deep is the
in-flight window.  This module provides that, stdlib-only:

* :class:`RollingWindow` — observations with timestamps, pruned to a
  sliding time window, summarized as count/mean/p50/p95/p99.
* :class:`LiveStatus` — named rolling windows plus registered *status
  providers* (callables returning plain dicts, e.g.
  ``SkylineQueryEngine.runtime_status`` and
  ``MPBatchServer.runtime_status``).  A background thread periodically
  renders everything into one JSON document and **atomically** writes
  it to a status file (tmp + ``os.replace``), so a reader never sees a
  torn document.  ``repro status <file>`` pretty-prints it.
* :class:`StatusServer` — an optional ``http.server`` thread serving
  ``/health``, ``/status`` (the live JSON document), ``/metrics``
  (Prometheus text via ``MetricsRegistry.to_text``), and ``/events``
  (the event log's recent ring).  ``repro status http://host:port``
  reads it remotely.

Everything here is advisory-read-only: provider exceptions are
captured into the document instead of propagating, and status-file
write failures are counted, not raised — telemetry must never take
serving down.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable

PERCENTILES = (0.50, 0.95, 0.99)


def nearest_rank(values: list[float], q: float) -> float:
    """The nearest-rank q-quantile (0 < q <= 1) of sorted ``values``;
    0.0 when there are none."""
    if not values:
        return 0.0
    rank = math.ceil(q * len(values)) - 1
    return values[max(0, min(len(values) - 1, rank))]


def percentile_fields(values: list[float]) -> dict[str, float]:
    """``p50``/``p95``/``p99`` of sorted ``values`` by nearest rank."""
    return {f"p{int(q * 100)}": nearest_rank(values, q) for q in PERCENTILES}


class RollingWindow:
    """Timestamped observations pruned to a sliding time window.

    Percentiles describe only observations newer than
    ``window_seconds``; ``max_samples`` bounds memory under burst load
    (oldest samples drop first, which under a full buffer shortens the
    effective window rather than biasing the distribution).
    """

    __slots__ = ("window_seconds", "_samples", "_lock")

    def __init__(
        self, window_seconds: float = 60.0, *, max_samples: int = 4096
    ) -> None:
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        self.window_seconds = window_seconds
        self._samples: deque[tuple[float, float]] = deque(maxlen=max_samples)
        self._lock = threading.Lock()

    def observe(self, value: float, *, now: float | None = None) -> None:
        now = time.monotonic() if now is None else now
        with self._lock:
            self._samples.append((now, float(value)))
            self._prune(now)

    def _prune(self, now: float) -> None:
        horizon = now - self.window_seconds
        samples = self._samples
        while samples and samples[0][0] < horizon:
            samples.popleft()

    def values(self, *, now: float | None = None) -> list[float]:
        now = time.monotonic() if now is None else now
        with self._lock:
            self._prune(now)
            return [value for _stamp, value in self._samples]

    def summary(self, *, now: float | None = None) -> dict:
        """count/mean/min/max plus p50/p95/p99 over the live window."""
        values = sorted(self.values(now=now))
        doc: dict = {
            "window_seconds": self.window_seconds,
            "count": len(values),
            "mean": sum(values) / len(values) if values else 0.0,
            "min": values[0] if values else 0.0,
            "max": values[-1] if values else 0.0,
        }
        doc.update(percentile_fields(values))
        return doc


StatusProvider = Callable[[], dict]


class LiveStatus:
    """One process's live operational picture, continuously published.

    Parameters
    ----------
    interval_seconds:
        How often the background thread re-renders and republishes.
    status_file:
        Where the JSON document lands (atomic replace per write);
        None means no file — e.g. HTTP-only serving.
    window_seconds:
        Sliding window for every :meth:`observe` series.
    registry / events:
        Attached so :class:`StatusServer` can expose ``/metrics`` and
        ``/events``, and so the document carries headline counters.
    """

    def __init__(
        self,
        *,
        interval_seconds: float = 1.0,
        status_file: Path | str | None = None,
        window_seconds: float = 60.0,
        registry=None,
        events=None,
    ) -> None:
        if interval_seconds <= 0:
            raise ValueError("interval_seconds must be positive")
        self.interval_seconds = interval_seconds
        self.status_file = (
            Path(status_file) if status_file is not None else None
        )
        self.window_seconds = window_seconds
        self.registry = registry
        self.events = events
        self._providers: dict[str, StatusProvider] = {}
        self._windows: dict[str, RollingWindow] = {}
        self._lock = threading.Lock()
        self._started_monotonic = time.monotonic()
        self._writes = 0
        self._write_failures = 0
        self._thread: threading.Thread | None = None
        self._stop_event = threading.Event()

    # ------------------------------------------------------------------
    # publishing into the status
    # ------------------------------------------------------------------

    def register(self, name: str, provider: StatusProvider) -> None:
        """Add (or replace) a named status source.

        The provider is called at render time and must return a plain
        JSON-able dict; exceptions are captured into the document as
        ``{"error": ...}`` so one broken source cannot hide the rest.
        """
        with self._lock:
            self._providers[name] = provider

    def unregister(self, name: str) -> None:
        with self._lock:
            self._providers.pop(name, None)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the named rolling window."""
        window = self._windows.get(name)
        if window is None:
            with self._lock:
                window = self._windows.get(name)
                if window is None:
                    window = self._windows[name] = RollingWindow(
                        self.window_seconds
                    )
        window.observe(value)

    # ------------------------------------------------------------------
    # rendering and writing
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """The full live document as one plain dict."""
        with self._lock:
            providers = dict(self._providers)
            windows = dict(self._windows)
        sources: dict[str, dict] = {}
        for name, provider in providers.items():
            try:
                sources[name] = provider()
            except Exception as error:
                sources[name] = {
                    "error": f"{type(error).__name__}: {error}"
                }
        doc: dict = {
            "format": "repro-live-status",
            "version": 1,
            "pid": os.getpid(),
            "written_at_unix": time.time(),
            "uptime_seconds": time.monotonic() - self._started_monotonic,
            "interval_seconds": self.interval_seconds,
            "windows": {
                name: window.summary() for name, window in windows.items()
            },
            "sources": sources,
            "status_writes": self._writes,
            "status_write_failures": self._write_failures,
        }
        if self.events is not None:
            doc["events"] = self.events.snapshot(tail=20)
        return doc

    def write_status(self, path: Path | str | None = None) -> Path | None:
        """Atomically publish the current document; returns the path.

        Readers polling the file never observe a partial document: the
        JSON is written to a sibling temp file and ``os.replace``d in.
        Returns None (and counts a failure) when the write fails or no
        path is configured.
        """
        target = Path(path) if path is not None else self.status_file
        if target is None:
            return None
        try:
            payload = json.dumps(self.snapshot(), indent=1, sort_keys=True)
            tmp = target.with_name(target.name + ".tmp")
            tmp.write_text(payload + "\n", encoding="utf-8")
            os.replace(tmp, target)
        except OSError:
            self._write_failures += 1
            return None
        self._writes += 1
        return target

    # ------------------------------------------------------------------
    # the background publisher
    # ------------------------------------------------------------------

    def start(self) -> "LiveStatus":
        """Start the periodic publisher thread (idempotent)."""
        if self._thread is None or not self._thread.is_alive():
            self._stop_event.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-live-status", daemon=True
            )
            self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop_event.wait(self.interval_seconds):
            self.write_status()

    def stop(self, *, final_write: bool = True) -> None:
        """Stop the publisher; by default flush one last document."""
        self._stop_event.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=self.interval_seconds + 5.0)
            self._thread = None
        if final_write:
            self.write_status()

    def __enter__(self) -> "LiveStatus":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # HTTP
    # ------------------------------------------------------------------

    def serve_http(
        self, port: int = 0, *, host: str = "127.0.0.1"
    ) -> "StatusServer":
        """Expose this status over HTTP; returns the running server.

        ``port=0`` binds an ephemeral port (read it back from
        ``server.port`` — the test-friendly default).
        """
        return StatusServer(self, host=host, port=port)


class _StatusHandler(BaseHTTPRequestHandler):
    """Routes /health, /status, /metrics, /events off a LiveStatus."""

    # Set by StatusServer on the server object; reached via self.server.
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # servers must not spam stderr per request

    def _send(self, code: int, body: str, content_type: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        live: LiveStatus = self.server.live  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if path in ("/", "/health"):
                self._send(
                    200,
                    json.dumps(
                        {
                            "status": "ok",
                            "pid": os.getpid(),
                            "uptime_seconds": time.monotonic()
                            - live._started_monotonic,
                        }
                    ),
                    "application/json",
                )
            elif path == "/status":
                self._send(
                    200,
                    json.dumps(live.snapshot(), indent=1, sort_keys=True),
                    "application/json",
                )
            elif path == "/metrics":
                if live.registry is None:
                    self._send(404, "no metrics registry attached\n",
                               "text/plain")
                else:
                    self._send(
                        200, live.registry.to_text() + "\n",
                        "text/plain; version=0.0.4",
                    )
            elif path == "/events":
                if live.events is None:
                    self._send(404, "no event log attached\n", "text/plain")
                else:
                    self._send(
                        200,
                        json.dumps(
                            live.events.snapshot(), indent=1, sort_keys=True
                        ),
                        "application/json",
                    )
            else:
                self._send(404, f"unknown path {path}\n", "text/plain")
        except (BrokenPipeError, ConnectionResetError):
            pass  # the scraper hung up mid-response


class StatusServer:
    """A daemon-threaded HTTP front end over one :class:`LiveStatus`."""

    def __init__(
        self, live: LiveStatus, *, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.live = live
        self._server = ThreadingHTTPServer((host, port), _StatusHandler)
        self._server.daemon_threads = True
        self._server.live = live  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-status-http",
            daemon=True,
        )
        self._thread.start()

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "StatusServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

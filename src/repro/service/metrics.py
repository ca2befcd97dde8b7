"""A minimal metrics registry for the serving layer.

Two instrument kinds cover what the engine, cache, and batch executor
need to report:

* :class:`Counter` — a monotonically increasing integer (queries
  served, cache hits, truncations).
* :class:`Histogram` — latency observations with percentile summaries
  (p50/p95/p99) computed from a bounded sample reservoir.

A :class:`MetricsRegistry` owns named instruments, creates them on
first use, and exports snapshots as a plain dict, JSON, or a
Prometheus-flavoured plaintext format.  All operations are
thread-safe: the registry guards instrument creation and every
instrument guards its own mutation, so concurrent batch workers can
record freely.
"""

from __future__ import annotations

import json
import math
import random
import threading
import time
import zlib
from typing import Iterable

from repro.obs.live import PERCENTILES, nearest_rank, percentile_fields

# Cap the per-histogram sample buffer.  Beyond the cap, uniform
# reservoir sampling (Vitter's Algorithm R) keeps every observation
# equally likely to be retained, so percentile estimates stay unbiased
# for long-running services without unbounded memory.
_DEFAULT_MAX_SAMPLES = 8192


class Counter:
    """A thread-safe monotonically increasing counter."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def increment(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Histogram:
    """Latency/size observations with streaming percentile summaries.

    ``count``/``sum``/``min``/``max`` are exact over every observation;
    percentiles come from a bounded *uniform reservoir* (Algorithm R):
    once the buffer is full, the n-th observation replaces a random
    retained sample with probability ``max_samples / n``, so every
    observation is equally likely to survive.  (The previous
    every-other-sample decimation systematically over-weighted early
    observations after repeated halvings.)  The reservoir RNG is seeded
    deterministically from the histogram name (or an explicit ``seed``),
    so tests and replays are reproducible.
    """

    __slots__ = ("name", "_samples", "_count", "_sum", "_min", "_max",
                 "_max_samples", "_rng", "_lock")

    def __init__(
        self,
        name: str,
        *,
        max_samples: int = _DEFAULT_MAX_SAMPLES,
        seed: int | None = None,
    ) -> None:
        self.name = name
        self._samples: list[float] = []
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._max_samples = max(max_samples, 8)
        if seed is None:
            seed = zlib.crc32(name.encode("utf-8"))
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if len(self._samples) < self._max_samples:
                self._samples.append(value)
            else:
                # Algorithm R: keep each of the _count observations
                # with equal probability max_samples / _count.
                slot = self._rng.randrange(self._count)
                if slot < self._max_samples:
                    self._samples[slot] = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    # ------------------------------------------------------------------
    # merging (per-worker histograms roll up into one parent histogram)
    # ------------------------------------------------------------------

    def state(self) -> dict:
        """Full-fidelity state as plain data (picklable, JSON-able).

        Unlike :meth:`summary` this keeps the raw reservoir, so a
        histogram reconstructed with :meth:`from_state` — e.g. shipped
        from a worker process — merges without losing tail resolution.
        """
        with self._lock:
            return {
                "name": self.name,
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._count else None,
                "max": self._max if self._count else None,
                "samples": list(self._samples),
                "max_samples": self._max_samples,
            }

    @classmethod
    def from_state(cls, state: dict) -> "Histogram":
        """Rebuild a histogram from :meth:`state` output."""
        histogram = cls(state["name"], max_samples=state["max_samples"])
        histogram._count = int(state["count"])
        histogram._sum = float(state["sum"])
        histogram._min = (
            float(state["min"]) if state["min"] is not None else math.inf
        )
        histogram._max = (
            float(state["max"]) if state["max"] is not None else -math.inf
        )
        histogram._samples = [float(v) for v in state["samples"]]
        return histogram

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram into this one.

        ``count``/``sum``/``min``/``max`` merge exactly.  The reservoirs
        combine by *weighted* subsampling: each retained sample stands
        for ``count / len(samples)`` observations of its source, and
        when the union exceeds the cap, samples are kept with
        probability proportional to that weight
        (Efraimidis-Spirakis keys drawn from this histogram's seeded
        RNG).  A 10k-observation worker therefore outweighs a
        100-observation one ~100:1 in the merged reservoir, so rolled-up
        p95/p99 track the traffic-weighted distribution instead of
        over-representing idle workers.
        """
        if other is self:
            raise ValueError("cannot merge a histogram into itself")
        # Lock in id order so concurrent a.merge(b) / b.merge(a) cannot
        # deadlock.
        first, second = (
            (self, other) if id(self) <= id(other) else (other, self)
        )
        with first._lock, second._lock:
            if other._count == 0:
                return
            weighted: list[tuple[float, list[float]]] = []
            for source in (self, other):
                if source._samples:
                    weight = source._count / len(source._samples)
                    weighted.append((weight, source._samples))
            merged: list[float] = []
            total = sum(len(samples) for _weight, samples in weighted)
            if total <= self._max_samples:
                for _weight, samples in weighted:
                    merged.extend(samples)
            else:
                keyed: list[tuple[float, float]] = []
                for weight, samples in weighted:
                    for value in samples:
                        u = self._rng.random()
                        keyed.append((u ** (1.0 / weight), value))
                keyed.sort(key=lambda pair: pair[0], reverse=True)
                merged = [value for _key, value in keyed[: self._max_samples]]
            self._samples = merged
            self._count += other._count
            self._sum += other._sum
            self._min = min(self._min, other._min)
            self._max = max(self._max, other._max)

    def percentile(self, q: float) -> float:
        """The q-quantile (0 < q <= 1) of the recorded samples."""
        with self._lock:
            samples = sorted(self._samples)
        return nearest_rank(samples, q)

    def summary(self) -> dict:
        """count/sum/mean/min/max plus the standard percentiles."""
        with self._lock:
            samples = sorted(self._samples)
            count, total = self._count, self._sum
            lo = self._min if count else 0.0
            hi = self._max if count else 0.0
        doc = {
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
            "min": lo,
            "max": hi,
        }
        doc.update(percentile_fields(samples))
        return doc


class MetricsRegistry:
    """Named counters and histograms with snapshot exporters.

    Parameters
    ----------
    created_at:
        Caller-supplied wall-clock creation stamp (e.g. ``time.time()``
        or an ISO string), echoed verbatim in snapshots so scrapers can
        distinguish registry restarts.  Uptime is tracked separately on
        the monotonic clock and reported as ``uptime_seconds``.
    """

    def __init__(self, *, created_at: float | str | None = None) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()
        self.created_at = created_at
        self._started_monotonic = time.monotonic()

    @property
    def uptime_seconds(self) -> float:
        """Monotonic seconds since the registry was constructed."""
        return time.monotonic() - self._started_monotonic

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first use."""
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name)
            return instrument

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name``, created on first use."""
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(name)
            return instrument

    def increment(self, name: str, amount: int = 1) -> None:
        """Shorthand for ``counter(name).increment(amount)``."""
        self.counter(name).increment(amount)

    def observe(self, name: str, value: float) -> None:
        """Shorthand for ``histogram(name).observe(value)``."""
        self.histogram(name).observe(value)

    # ------------------------------------------------------------------
    # merging (multi-process rollup)
    # ------------------------------------------------------------------

    def dump_state(self) -> dict:
        """Every instrument at full fidelity, as plain picklable data.

        This is the wire format worker processes ship to the parent:
        counters as integers, histograms as :meth:`Histogram.state`
        (reservoir included).  Feed it to :meth:`merge_state`.
        """
        counters, histograms = self._instruments()
        return {
            "counters": {c.name: c.value for c in counters},
            "histograms": {h.name: h.state() for h in histograms},
        }

    def merge_state(self, state: dict) -> None:
        """Fold a :meth:`dump_state` document into this registry.

        Counters add; histograms merge via :meth:`Histogram.merge`, so
        per-worker percentile reservoirs roll up traffic-weighted.
        """
        for name, value in state.get("counters", {}).items():
            self.counter(name).increment(int(value))
        for name, doc in state.get("histograms", {}).items():
            self.histogram(name).merge(Histogram.from_state(doc))

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's instruments into this one."""
        self.merge_state(other.dump_state())

    # ------------------------------------------------------------------
    # exporting
    # ------------------------------------------------------------------

    def _instruments(self) -> tuple[Iterable[Counter], Iterable[Histogram]]:
        with self._lock:
            return list(self._counters.values()), list(
                self._histograms.values()
            )

    def snapshot(self) -> dict:
        """All instruments as one plain dictionary."""
        counters, histograms = self._instruments()
        return {
            "counters": {c.name: c.value for c in counters},
            "histograms": {h.name: h.summary() for h in histograms},
            "uptime_seconds": self.uptime_seconds,
            "created_at": self.created_at,
        }

    def to_json(self, *, indent: int | None = None) -> str:
        """The snapshot serialized as JSON."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def to_text(self) -> str:
        """A Prometheus-flavoured plaintext rendering of the snapshot.

        Every instrument is preceded by its ``# TYPE`` line — counters
        as ``counter``, histograms as ``summary`` (count/sum plus
        quantile-labelled samples), so scrapers can type both.
        """
        lines: list[str] = []
        counters, histograms = self._instruments()
        for counter in sorted(counters, key=lambda c: c.name):
            lines.append(f"# TYPE {counter.name} counter")
            lines.append(f"{counter.name} {counter.value}")
        for histogram in sorted(histograms, key=lambda h: h.name):
            doc = histogram.summary()
            lines.append(f"# TYPE {histogram.name} summary")
            lines.append(f"{histogram.name}_count {doc['count']}")
            lines.append(f"{histogram.name}_sum {doc['sum']:.6f}")
            for q in PERCENTILES:
                key = f"p{int(q * 100)}"
                lines.append(
                    f'{histogram.name}{{quantile="{q:g}"}} {doc[key]:.6f}'
                )
        lines.append("# TYPE uptime_seconds gauge")
        lines.append(f"uptime_seconds {self.uptime_seconds:.6f}")
        return "\n".join(lines)

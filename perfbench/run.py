"""Serving benchmark: one closed-loop client over the public serving API.

Run from the repository root::

    python3 perfbench/run.py --workload approx-unique --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` sets the workload up several times (``setup_s`` is the
median) and after each cold set-up serves passes over one fixed
script of requests, sized so that all passes serve about
``--seconds``.  Each request's latency is its best wall time over the
passes, and the end-to-end metrics are taken from those.  ``--trace 1`` serves a fixed
prefix of the script untraced, then the script under a
``repro.obs.Tracer`` and reports the per-layer metrics, printing the
self-time ledger above them.  Every answer is checked; the last line
of standard output is the JSON result.  The program is imported from
``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

SOURCES = Path(__file__).resolve().parent.parent / "src"
if not (SOURCES / "repro").is_dir():
    sys.exit(f"error: no program sources at {SOURCES}")
sys.path.insert(0, str(SOURCES))

from repro.obs import Tracer, use_tracer  # noqa: E402

import ledger  # noqa: E402
from workloads import WORKLOADS, Step  # noqa: E402


@dataclass
class Answer:
    """What the ledger needs of one response, without its paths (the
    benchmark's memory must not grow with the number of requests)."""

    mode: str
    cache_hit: bool
    elapsed_seconds: float
    stats: object
    paths: int


@dataclass
class Record:
    """One client call as the client saw it."""

    step: Step
    wall: float
    answers: list[Answer]
    # (position in step.pairs or None for the whole call, message)
    problems: list[tuple[int | None, str]]


class GCClock:
    """Wall time spent in CPython's collector while installed and
    ``running`` (the benchmark's own checks are not counted)."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.running = False
        self._started: float | None = None

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start" and self.running:
            self._started = time.perf_counter()
        elif self._started is not None:
            self.seconds += time.perf_counter() - self._started
            self._started = None


def probe(state) -> dict:
    """Public counters whose deltas the per-layer metrics report."""
    maintainer = state.maintainer
    stats = maintainer.maintenance_stats if maintainer is not None else None
    return {
        "cache": state.engine.cache.snapshot(),
        "csr_builds": state.engine.metrics.counter("engine.csr_builds").value,
        "updates": stats.updates if stats else 0,
        "levels_replayed": stats.levels_replayed if stats else 0,
        "full_rebuilds": stats.full_rebuilds if stats else 0,
    }


def digest(responses) -> str:
    """A fingerprint of one call's answers: mode, truncation and every
    path's cost and nodes."""
    answers = [
        (r.mode, r.truncated, sorted((p.cost, tuple(p.nodes)) for p in r.paths))
        for r in responses
    ]
    return hashlib.sha256(repr(answers).encode()).hexdigest()


def serve(workload, state, script, *, span, expected=None, probe_at=None):
    """Closed loop over ``script``: each call starts after the previous
    one returned.

    Answers are checked between calls, off the clock.  Without
    ``expected`` every answer gets the workload's full checks; with it
    (the first pass's digests) each call must repeat the first pass's
    answers, and only the cheap checks run.  Returns the
    records, the digests, the collector's time inside calls, and
    counter probes at the start and after ``probe_at`` calls.
    """
    gc.collect()
    gc.freeze()
    clock = GCClock()
    gc.callbacks.append(clock)
    records: list[Record] = []
    digests: list[str] = []
    probes = [probe(state)]
    try:
        for number, step in enumerate(script):
            clock.running = True
            started = time.perf_counter()
            try:
                with span(step.op):
                    responses = workload.call(state, step)
            except Exception as exc:  # a raising call is a failed request
                wall = time.perf_counter() - started
                clock.running = False
                responses = []
                problems = [(None, f"raised {type(exc).__name__}: {exc}")]
            else:
                wall = time.perf_counter() - started
                clock.running = False
                problems = workload.check(
                    state, step, responses, full=expected is None
                )
            digests.append(digest(responses))
            if expected is not None and digests[-1] != expected[number]:
                problems.append((None, "answers differ from the first pass"))
            answers = [
                Answer(r.mode, r.cache_hit, r.elapsed_seconds, r.stats,
                       len(r.paths))
                for r in responses
            ]
            records.append(Record(step, wall, answers, problems))
            if len(records) == probe_at:
                probes.append(probe(state))
    finally:
        gc.callbacks.remove(clock)
        gc.unfreeze()
    return records, digests, clock.seconds, probes


def tally(records) -> tuple[int, int]:
    """(operations attempted, operations failed), listing each failure.

    A query is one operation per pair; an update is one operation.
    """
    attempted = failed = 0
    for number, record in enumerate(records):
        operations = max(record.step.requests, 1)
        attempted += operations
        positions = {position for position, _ in record.problems}
        failed += operations if None in positions else len(positions)
        for position, message in record.problems:
            where = "" if position is None else f" {record.step.pairs[position]}"
            print(f"FAILED call {number} {record.step.op}{where}: {message}",
                  file=sys.stderr)
    return attempted, failed


def untraced(label):
    """The span factory of untraced runs: records nothing."""
    return contextlib.nullcontext()


def end_to_end(workload, seconds):
    """Repeated cold set-ups, each followed by passes over the script.

    The box's speed drifts over seconds, so a mean over one stretch of
    serving is not steady, while its best speed is.  A call's latency
    is therefore its best wall time over all passes, which are spread
    across the whole run.  Every pass must answer exactly as the first
    did.
    """
    script = workload.script(seconds)
    setup_walls = []
    walls = []
    records = []
    expected = None
    for number in range(workload.setups):
        state = None
        gc.collect()
        started = time.perf_counter()
        state = workload.setup(untraced)
        setup_walls.append(time.perf_counter() - started)
        if number == 0:
            index_bytes = state.engine.index.size_bytes()
        for pass_number in range(workload.passes):
            if pass_number:
                workload.reset(state)
            chunk, digests, _, _ = serve(
                workload, state, script, span=untraced, expected=expected
            )
            expected = expected or digests
            walls.append([r.wall for r in chunk])
            records += chunk
    best = [min(column) for column in zip(*walls)]

    latencies = [
        wall for wall, step in zip(best, script) for _ in range(step.requests)
    ]
    requests = len(latencies)
    print(
        f"{workload.name}: {requests} requests in {len(script)} calls x "
        f"{len(walls)} passes; pass walls {min(map(sum, walls)):.2f}-"
        f"{max(map(sum, walls)):.2f}s, best {sum(best):.2f}s; "
        f"set-ups {[round(s, 3) for s in setup_walls]}",
        file=sys.stderr,
    )
    metrics = {
        "setup_s": (statistics.median(setup_walls), "s"),
        "qps": (requests / sum(best), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "index_bytes": (index_bytes, "B"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }
    kinds = {}
    for wall, step in zip(best, script):
        kind = step.op if step.op != "query" else step.mode
        kinds[kind] = kinds.get(kind, 0.0) + wall
    print({k: round(v, 3) for k, v in kinds.items()}, file=sys.stderr)
    return metrics, tally(records)


def traced(workload, seconds):
    """The script's prefix untraced, then set-up and script under a
    tracer."""
    script = workload.script(seconds, traced=True)
    prefix_steps = workload.count_steps
    state = workload.setup(untraced)
    baseline, _, _, _ = serve(
        workload, state, script[:prefix_steps], span=untraced
    )
    baseline_wall = sum(r.wall for r in baseline)
    state = None
    tracer = Tracer()

    def span(label):
        return tracer.span(f"client.{label}")

    with use_tracer(tracer):
        started = time.perf_counter()
        state = workload.setup(span)
        setup_wall = time.perf_counter() - started
        setup_roots = len(tracer.roots())
        records, _, gc_seconds, probes = serve(
            workload, state, script, span=span, probe_at=prefix_steps
        )
    served = sum(r.wall for r in records)
    traced_prefix = sum(r.wall for r in records[:prefix_steps])
    table = ledger.self_time_table(tracer.roots(), setup_wall + served)
    print(ledger.format_table(workload.name, table, setup_wall + served))
    metrics = ledger.layer_metrics(
        state=state,
        records=records,
        prefix=records[:prefix_steps],
        probes=probes,
        loop_roots=tracer.roots()[setup_roots:],
        table=table,
        gc_seconds=gc_seconds,
        trace_overhead=traced_prefix / baseline_wall,
    )
    return metrics, tally(baseline + records)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Scratch files (the approx-unique index store) stay inside the
    # working directory and are removed on exit.
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=Path.cwd()))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        measure = traced if args.trace else end_to_end
        metrics, (attempted, failed) = measure(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

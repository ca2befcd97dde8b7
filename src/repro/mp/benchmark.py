"""Batch-throughput measurement for multi-process serving.

Used by ``repro bench --mp-workers`` and
``benchmarks/bench_mp_throughput.py`` so the CLI and the committed
benchmark series measure exactly the same thing: wall-clock batch
throughput through :class:`~repro.mp.dispatcher.MPBatchServer` at a
given cohort size, plus an answer signature for cross-variant equality
checks.

Throughput numbers are only meaningful relative to the machine they
ran on — in particular, a single-core container serializes the cohort
and reports the fork/IPC overhead rather than any parallel speedup.
``cpu_count`` is therefore part of every measurement document.
"""

from __future__ import annotations

import os
import time

from repro.service.batch import execute_batch
from repro.service.engine import SkylineQueryEngine


def answer_signature(responses) -> list:
    """A comparable digest of a batch's answers.

    Per query: the (source, target) pair plus the multiset of
    (cost vector, node sequence) answer keys — the same identity the
    qa harness enforces, so equal signatures mean bit-identical
    answer sets.
    """
    digest = []
    for response in responses:
        if response is None:
            digest.append(None)
            continue
        digest.append((
            response.source,
            response.target,
            sorted(
                (tuple(path.cost), tuple(path.nodes))
                for path in response.paths
            ),
        ))
    return digest


def measure_single_process(
    graph,
    pairs,
    *,
    index=None,
    params=None,
    rounds: int = 3,
    mode: str = "auto",
    time_budget: float | None = None,
) -> dict:
    """Baseline: the same batch through one in-process engine."""
    engine = SkylineQueryEngine(
        graph, index=index, params=params, cache_size=0
    )
    engine.warm()
    seconds = []
    signature = None
    for _ in range(rounds):
        started = time.perf_counter()
        outcome = execute_batch(
            engine, pairs, mode=mode,
            time_budget=time_budget, use_cache=False,
        )
        seconds.append(time.perf_counter() - started)
        signature = answer_signature(outcome.responses)
    best = min(seconds)
    return {
        "variant": "single",
        "workers": 1,
        "queries": len(pairs),
        "rounds": rounds,
        "best_seconds": best,
        "mean_seconds": sum(seconds) / len(seconds),
        "qps": len(pairs) / best if best > 0 else 0.0,
        "signature": signature,
        "cpu_count": os.cpu_count(),
    }


def measure_mp(
    graph,
    pairs,
    *,
    index=None,
    params=None,
    workers: int = 2,
    rounds: int = 3,
    mode: str = "auto",
    time_budget: float | None = None,
) -> dict:
    """The same batch through an mp cohort of the given size.

    The first (untimed) submit absorbs cohort warm-up; the timed
    rounds then measure steady-state dispatch throughput.  Worker
    errors raise — a benchmark over a failing cohort measures nothing.
    """
    from repro.mp.dispatcher import MPBatchServer

    # cache_size=0 matches the uncached single-process baseline: every
    # round measures real searches, not worker LRU hits.
    with MPBatchServer(
        graph, index=index, params=params, workers=workers, cache_size=0
    ) as server:
        warmup = server.submit(pairs, mode=mode, time_budget=time_budget,
                               fail_fast=True)
        seconds = []
        signature = answer_signature(warmup.responses)
        for _ in range(rounds):
            started = time.perf_counter()
            outcome = server.submit(
                pairs, mode=mode, time_budget=time_budget, fail_fast=True
            )
            seconds.append(time.perf_counter() - started)
            signature = answer_signature(outcome.responses)
        segment_bytes = server.metrics_snapshot()["mp"]["segment_bytes"]
    best = min(seconds)
    return {
        "variant": "mp",
        "workers": workers,
        "queries": len(pairs),
        "rounds": rounds,
        "best_seconds": best,
        "mean_seconds": sum(seconds) / len(seconds),
        "qps": len(pairs) / best if best > 0 else 0.0,
        "signature": signature,
        "segment_bytes": segment_bytes,
        "cpu_count": os.cpu_count(),
    }

"""Multi-process batch serving throughput at cohort sizes 1 / 2 / 4.

Not a paper figure — this measures the ``repro.mp`` subsystem: one
batch workload served through :class:`~repro.mp.dispatcher.MPBatchServer`
at workers ∈ {1, 2, 4}, against the single-process flat engine as the
baseline.  Every variant must return answer-set-identical results; the
speedup column is only meaningful relative to ``cpu_count`` (on a
single-core runner the cohort serializes and the measurement reports
fork + IPC overhead, honestly below 1.0x).

A second series serves exact queries the way perfbench's exact-batch
workload draws them (pairs 10–40 BFS hops apart on C9_NY~1200): a
2-worker cohort against one process, in alternating rounds, both in
8-pair batches and as one batch.  One process fuses each batch into
one traversal; the cohort answers its pairs one by one, in parallel.

Also measured: the published segment size and the attach cost — a
worker's attach is O(header), so the segment can grow without touching
per-worker startup.

Results go to ``benchmarks/results/mp_throughput.txt`` (the exact
series to ``mp_exact_throughput.txt``) and the ``BENCH_mp.json``
telemetry series at the repo root.
"""

from __future__ import annotations

import importlib.util
import os
import random
import statistics
import sys
import time

import pytest

from benchmarks.conftest import (
    REPO_ROOT,
    SCALED_M_MIN,
    SCALED_P,
    record_telemetry,
    report,
    scaled_m,
)
from repro.core import BackboneParams, build_backbone_index
from repro.eval import format_table, random_queries
from repro.mp.benchmark import (
    answer_signature,
    measure_mp,
    measure_single_process,
)
from repro.obs import Tracer, use_tracer
from repro.service import SkylineQueryEngine, execute_batch

WORKER_COUNTS = (1, 2, 4)
BATCH_QUERIES = 48
ROUNDS = 3

# The exact series: perfbench exact-batch's hop band and batch size.
EXACT_PAIRS = 96
EXACT_HOP_BAND = (10, 40)
EXACT_BATCH = 8
EXACT_WORKERS = 2
EXACT_ROUNDS = 5


@pytest.fixture(scope="module")
def mp_network(ny_large, workload_seed):
    """Index + batch workload shared by every cohort size."""
    params = BackboneParams(
        m_max=scaled_m(400), m_min=SCALED_M_MIN, p=SCALED_P
    )
    index = build_backbone_index(ny_large, params)
    unique = random_queries(
        ny_large, BATCH_QUERIES, seed=workload_seed, min_hops=8
    )
    pairs = [q.as_tuple() for q in unique]
    return ny_large, index, pairs


def test_mp_throughput_scaling(mp_network):
    graph, index, pairs = mp_network
    baseline = measure_single_process(
        graph, pairs, index=index, rounds=ROUNDS
    )
    series = [baseline]
    for workers in WORKER_COUNTS:
        doc = measure_mp(
            graph, pairs, index=index, workers=workers, rounds=ROUNDS
        )
        assert doc["signature"] == baseline["signature"], (
            f"mp workers={workers} answers differ from single-process"
        )
        series.append(doc)

    rows = [
        [
            doc["variant"],
            doc["workers"],
            f"{doc['qps']:.1f}",
            f"{doc['best_seconds'] * 1e3:.1f}ms",
            f"{doc['qps'] / baseline['qps']:.2f}x",
        ]
        for doc in series
    ]
    text = format_table(
        ["variant", "workers", "q/s", "best batch", "vs single"],
        rows,
        title=(
            f"mp batch throughput: {len(pairs)} queries x {ROUNDS} rounds "
            f"on {graph.num_nodes}-node graph ({os.cpu_count()} cpu)"
        ),
    )
    report("mp_throughput", text)
    record_telemetry(
        "mp",
        throughput=[
            {k: v for k, v in doc.items() if k != "signature"}
            for doc in series
        ],
        answers_identical=True,
    )


def banded_pairs(graph, count, rng, low, high):
    """Pairs drawn exactly as perfbench's exact-batch workload draws
    them (``perfbench/workloads.py::banded_pairs``)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", REPO_ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve their module through sys.modules.
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return workloads.banded_pairs(graph, count, rng, low, high)


def test_mp_exact_batch_throughput(mp_network, workload_seed):
    """2 workers vs one process on exact-batch-scale pairs; untraced,
    alternating which variant goes first each round."""
    from repro.mp.dispatcher import MPBatchServer

    graph, index, _pairs = mp_network
    pairs = banded_pairs(
        graph, EXACT_PAIRS, random.Random(workload_seed), *EXACT_HOP_BAND
    )
    batchings = {
        f"{EXACT_BATCH}-pair batches": [
            pairs[i : i + EXACT_BATCH]
            for i in range(0, len(pairs), EXACT_BATCH)
        ],
        "one batch": [pairs],
    }
    with use_tracer(Tracer(enabled=False)):
        engine = SkylineQueryEngine(graph, index=index, cache_size=0)
        engine.warm()
        with MPBatchServer(
            graph, index=index, workers=EXACT_WORKERS, cache_size=0
        ) as server:

            def single(batch):
                return execute_batch(
                    engine, batch, mode="exact", use_cache=False
                ).responses

            def mp(batch):
                return server.submit(
                    batch, mode="exact", fail_fast=True
                ).responses

            variants = {"single": single, "mp": mp}
            expected = answer_signature(single(pairs))
            mp(pairs)  # cohort warm-up
            qps = {
                (name, batching): []
                for name in variants
                for batching in batchings
            }
            for round_index in range(EXACT_ROUNDS):
                order = list(variants)
                if round_index % 2:
                    order.reverse()
                for batching, batches in batchings.items():
                    for name in order:
                        responses = []
                        started = time.perf_counter()
                        for batch in batches:
                            responses += variants[name](batch)
                        seconds = time.perf_counter() - started
                        assert answer_signature(responses) == expected, (
                            f"{name} ({batching}) answers differ"
                        )
                        qps[(name, batching)].append(len(pairs) / seconds)

    medians = {key: statistics.median(values) for key, values in qps.items()}
    rows = [
        [
            batching,
            name,
            f"{medians[key]:.1f}",
            " ".join(f"{v:.1f}" for v in qps[key]),
            f"{medians[key] / medians[('single', batching)]:.2f}x",
        ]
        for batching in batchings
        for name in variants
        for key in [(name, batching)]
    ]
    text = format_table(
        ["batching", "variant", "median q/s", "per round", "vs single"],
        rows,
        title=(
            f"exact serving: {len(pairs)} pairs {EXACT_HOP_BAND[0]}-"
            f"{EXACT_HOP_BAND[1]} hops apart, {EXACT_ROUNDS} alternating "
            f"rounds, mp={EXACT_WORKERS} workers, on "
            f"{graph.num_nodes}-node graph ({os.cpu_count()} cpu)"
        ),
    )
    report("mp_exact_throughput", text)
    record_telemetry(
        "mp",
        exact_batch={
            "pairs": len(pairs),
            "hop_band": list(EXACT_HOP_BAND),
            "rounds": EXACT_ROUNDS,
            "workers": EXACT_WORKERS,
            "cpu_count": os.cpu_count(),
            "answers_identical": True,
            "series": [
                {
                    "batching": batching,
                    "variant": name,
                    "median_qps": medians[(name, batching)],
                    "qps_per_round": qps[(name, batching)],
                }
                for batching in batchings
                for name in variants
            ],
        },
    )


def test_mp_attach_is_header_cost(mp_network):
    """Attaching the published segment costs O(header), not O(arrays)."""
    from repro.accel.csr import CSRSnapshot
    from repro.mp.shm import SharedCSR

    graph, _index, _pairs = mp_network
    snapshot = CSRSnapshot.from_graph(graph)
    shared = SharedCSR.publish(snapshot)
    try:
        started = time.perf_counter()
        attached = SharedCSR.attach(shared.name)
        view = attached.snapshot()
        attach_seconds = time.perf_counter() - started
        assert view.same_topology(snapshot)
        attached.close()
        record_telemetry(
            "mp",
            attach={
                "segment_bytes": shared.nbytes,
                "attach_seconds": attach_seconds,
            },
        )
        # Attach + view construction must be far cheaper than the
        # publish-side copy; 50ms is orders of magnitude of headroom.
        assert attach_seconds < 0.05
    finally:
        shared.close()
        shared.unlink()

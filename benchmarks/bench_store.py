"""Persistence benchmark: the repro.store binary index format.

Not a paper figure — this measures the storage subsystem on the scaled
NY network.  Three questions:

* size and save — how large is the checksummed store, and how long
  does its single-pass write take?
* load — eager and lazy reads of the store,
* warm start — ``SkylineQueryEngine.warm_from_store`` end to end.

Results go to ``benchmarks/results/store.txt``.  Every loaded index
must answer as the built one does.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import (
    SCALED_M_MIN,
    SCALED_P,
    record_telemetry,
    report,
    scaled_m,
)
from repro.core import BackboneParams, build_backbone_index
from repro.core.index import BackboneIndex
from repro.eval import format_table
from repro.service import SkylineQueryEngine

MODULE = "bench_store"
LOAD_ROUNDS = 5


def _timeit(fn, rounds: int = LOAD_ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


@pytest.fixture(scope="module")
def built(ny_small):
    params = BackboneParams(
        m_max=scaled_m(400), m_min=SCALED_M_MIN, p=SCALED_P
    )
    return ny_small, build_backbone_index(ny_small, params)


def test_store_persistence(built, tmp_path_factory):
    graph, index = built
    workdir = tmp_path_factory.mktemp("store_bench")
    binary_path = workdir / "index.rbi"

    binary_save = _timeit(lambda: index.save(binary_path))
    binary_size = binary_path.stat().st_size
    binary_load = _timeit(lambda: BackboneIndex.load(binary_path, graph))
    lazy_load = _timeit(
        lambda: BackboneIndex.load(binary_path, graph, lazy=True)
    )

    def warm_start():
        SkylineQueryEngine(graph).warm_from_store(binary_path)

    warm = _timeit(warm_start)

    rows = [
        ["binary", f"{binary_size:>9,}", f"{binary_save * 1e3:8.2f}",
         f"{binary_load * 1e3:8.2f}"],
        ["binary lazy", "-", "-", f"{lazy_load * 1e3:8.2f}"],
        ["warm_from_store", "-", "-", f"{warm * 1e3:8.2f}"],
    ]
    table = format_table(
        ["route", "bytes", "save ms", "load ms"], rows
    )
    report("store", table)
    record_telemetry(
        MODULE,
        binary_size_bytes=binary_size,
        binary_save_seconds=round(binary_save, 6),
        binary_load_seconds=round(binary_load, 6),
        lazy_load_seconds=round(lazy_load, 6),
        warm_from_store_seconds=round(warm, 6),
    )

    # The fast paths must not change answers.
    nodes = sorted(graph.nodes())
    s, t = nodes[3], nodes[-4]
    want = {tuple(p.cost) for p in index.query(s, t)}
    reloaded = BackboneIndex.load(binary_path, graph, lazy=True)
    assert {tuple(p.cost) for p in reloaded.query(s, t)} == want

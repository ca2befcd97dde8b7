"""The per-layer ledger of a traced run.

The benchmark wraps every public call it makes in a ``client.<op>``
root span; the program's own spans (``build.*``, ``store.*``,
``accel.csr.build``, ``landmark.*``, ``serve.*``, ``batch.*``,
``query.*``, ``search.*``) nest below.  A span's self time is its
duration minus the time its children cover, and each span name maps
to one layer.  Wall time that no root span covers is reported as
``unattributed``.
"""

from __future__ import annotations

import statistics

# First matching prefix wins.  A client span's self time is the public
# call's own code outside every program span, so it is charged to the
# layer that call enters.
LAYERS = (
    ("client.update", "core.maintenance"),
    ("client.maintainer", "core.maintenance"),
    ("client.build", "core.builder"),
    ("client.save", "store"),
    ("client.load", "store"),
    ("client.batch", "service.batch"),
    ("client.", "service.engine"),
    ("serve.fused_batch", "accel.batch_kernel"),
    ("serve.", "service.engine"),
    ("batch.", "service.batch"),
    ("query.phase.grow_s", "core.query:grow_s"),
    ("query.phase.grow_t", "core.query:grow_t"),
    ("query.phase.connect_top", "core.query:connect_top"),
    ("query.", "core.query"),
    ("search.", "search"),
    ("build.", "core.builder"),
    ("store.", "store"),
    ("accel.csr", "accel.csr"),
    ("landmark.", "search.landmark"),
)


def layer_of(name: str) -> str:
    for prefix, layer in LAYERS:
        if name.startswith(prefix):
            return layer
    return f"other:{name}"


def self_time(span) -> float:
    covered = sum(child.duration for child in span.children)
    return max(span.duration - covered, 0.0)


def client_spans(roots):
    """Root spans the benchmark opened (worker-thread roots excluded:
    their time already lies inside a client span)."""
    return [root for root in roots if root.name.startswith("client.")]


def self_time_table(roots, wall: float) -> dict[str, float]:
    """Seconds of self time per layer, plus ``unattributed``."""
    table: dict[str, float] = {}
    covered = 0.0
    for root in client_spans(roots):
        covered += root.duration
        for span, _ in root.walk():
            layer = layer_of(span.name)
            table[layer] = table.get(layer, 0.0) + self_time(span)
    table["unattributed"] = max(wall - covered, 0.0)
    return table


def format_table(workload: str, table: dict[str, float], wall: float) -> str:
    lines = [f"# {workload}: traced self time by layer ({wall:.3f}s wall)"]
    for layer, seconds in sorted(table.items(), key=lambda kv: -kv[1]):
        lines.append(
            f"#   {layer:<28} {seconds * 1e3:12.1f} ms {seconds / wall:7.1%}"
        )
    return "\n".join(lines)


def spans_named(roots, name: str):
    for root in client_spans(roots):
        for span, _ in root.walk():
            if span.name == name:
                yield span


def overhead_spans(loop_roots, records):
    """``serve.query_group`` spans of calls that computed no exact
    answer: an exact read sets up its bounds inside that span, with no
    child span of its own, so its self time is not engine overhead."""
    clients = client_spans(loop_roots)
    if len(clients) != len(records):
        raise ValueError(
            f"{len(clients)} client spans for {len(records)} calls"
        )
    for root, record in zip(clients, records):
        if any(a.mode == "exact" and not a.cache_hit for a in record.answers):
            continue
        for span, _ in root.walk():
            if span.name == "serve.query_group":
                yield span


def _mean(values, default=0.0):
    values = list(values)
    return statistics.fmean(values) if values else default


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _prune_ratio(stats_list):
    """(pruned by bound + frontier + result) / pushes: wasted work."""
    pruned = sum(
        s.pruned_by_bound + s.pruned_by_frontier + s.pruned_by_result
        for s in stats_list
    )
    return _ratio(pruned, sum(s.pushes for s in stats_list))


def _answers(records, op=None):
    for record in records:
        if op is None or record.step.op == op:
            yield from record.answers


def layer_metrics(
    *, state, records, prefix, probes, loop_roots, table, gc_seconds,
    trace_overhead,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced run.

    Counts (label paths, expansions, paths, shares, replays) come from
    the fixed step prefix so they repeat exactly for a seed; times come
    from the whole traced loop (``loop_roots`` are its client spans,
    set-up excluded).  Layers a workload leaves idle read 0.
    """
    timings = state.timings
    start, mark = probes[0], probes[-1]
    reads = list(_answers(prefix))
    computed = [r for r in reads if not r.cache_hit]
    approx = [r for r in computed if r.mode == "approx"]
    loop_fused = [
        r for r in _answers(records, "batch")
        if r.mode == "exact" and not r.cache_hit
    ]
    fused = [r for r in _answers(prefix, "batch") if not r.cache_hit]
    loop_exact = [
        r for r in _answers(records, "query")
        if r.mode == "exact" and not r.cache_hit
    ]
    exact = [
        r for r in _answers(prefix, "query")
        if r.mode == "exact" and not r.cache_hit
    ]
    update_walls = [r.wall for r in records if r.step.op == "update"]
    updates = mark["updates"] - start["updates"]
    requests = sum(r.step.requests for r in records)

    fused_spans = list(spans_named(loop_roots, "serve.fused_batch"))
    fused_seconds = sum(s.duration for s in fused_spans)
    fused_queries = sum(s.attrs.get("queries", 0) for s in fused_spans)
    fused_expansions = sum(r.stats.expansions for r in loop_fused)
    group_spans = list(overhead_spans(loop_roots, records))
    batch_spans = list(spans_named(loop_roots, "client.batch"))
    loop_approx = [
        r for r in _answers(records)
        if r.mode == "approx" and not r.cache_hit
    ]
    wall = sum(table.values())

    def phase_ms(phase):
        return _mean(r.stats.phase_seconds.get(phase, 0.0) for r in loop_approx) * 1e3

    return {
        "builder.build_s": (timings["build_s"], "s"),
        "builder.label_paths": (timings["label_paths"], "count"),
        "store.save_s": (timings.get("save_s", 0.0), "s"),
        "store.load_s": (timings.get("load_s", 0.0), "s"),
        "csr.build_s": (timings["csr_seconds"], "s"),
        "landmark.build_s": (timings["landmark_seconds"], "s"),
        "setup.warmup_s": (timings["warmup_s"], "s"),
        "alg3.grow_s_ms": (phase_ms("grow_s"), "ms"),
        "alg3.grow_t_ms": (phase_ms("grow_t"), "ms"),
        "alg3.connect_top_ms": (phase_ms("connect_top"), "ms"),
        "alg3.connect_top_expansions": (
            _mean(r.stats.mbbs_stats.expansions for r in approx
                  if r.stats.mbbs_stats is not None),
            "count",
        ),
        "alg3.paths_per_query": (_mean(r.paths for r in approx), "count"),
        "engine.overhead_ms": (
            _mean(self_time(s) for s in group_spans) * 1e3, "ms"
        ),
        "plan.exact_share": (
            _ratio(sum(r.mode == "exact" for r in reads), len(reads)), "1"
        ),
        "cache.hit_rate": (
            _ratio(sum(r.cache_hit for r in reads), len(reads)), "1"
        ),
        "cache.invalidated": (
            mark["cache"]["invalidations"] - start["cache"]["invalidations"],
            "count",
        ),
        "exact.latency_p50_ms": (
            statistics.median(r.elapsed_seconds for r in loop_exact) * 1e3
            if loop_exact else 0.0,
            "ms",
        ),
        "exact.expansions_per_query": (
            _mean(r.stats.expansions for r in exact), "count"
        ),
        "exact.prune_ratio": (_prune_ratio([r.stats for r in exact]), "1"),
        "fused.kernel_ms_per_query": (
            _ratio(fused_seconds, fused_queries) * 1e3, "ms"
        ),
        "fused.expansions_per_query": (
            _mean(r.stats.expansions for r in fused), "count"
        ),
        "fused.expansions_per_s": (
            _ratio(fused_expansions, fused_seconds), "1/s"
        ),
        "fused.prune_ratio": (_prune_ratio([r.stats for r in fused]), "1"),
        "batch.plan_ms": (_mean(self_time(s) for s in batch_spans) * 1e3, "ms"),
        "maint.update_ms": (
            statistics.median(update_walls) * 1e3 if update_walls else 0.0,
            "ms",
        ),
        "maint.levels_replayed_per_update": (
            _ratio(mark["levels_replayed"] - start["levels_replayed"], updates),
            "count",
        ),
        "maint.full_rebuild_share": (
            _ratio(mark["full_rebuilds"] - start["full_rebuilds"], updates), "1"
        ),
        "maint.csr_rebuilds": (
            mark["csr_builds"] - start["csr_builds"], "count"
        ),
        "runtime.gc_ms": (_ratio(gc_seconds, requests) * 1e3, "ms"),
        "obs.trace_overhead": (trace_overhead, "1"),
        "unattributed_share": (_ratio(table["unattributed"], wall), "1"),
    }

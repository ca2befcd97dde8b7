"""Command-line interface for the backbone-index library.

The subcommands cover the full workflow a downstream user needs::

    repro generate --nodes 2000 --out net          # net.gr + net.co
    repro build net.gr --out net.rbi
    repro query net.gr net.rbi --source 3 --target 907 --exact
    repro trace net.gr --source 3 --target 907 --out trace.json
    repro serve-batch net.gr --store net.rbi --queries q.txt
    repro status /tmp/status.json                  # or http://host:port
    repro warm net.gr --out net.rbi
    repro index inspect net.rbi                    # also: save/load/snapshot
    repro stats net.gr --index net.rbi
    repro datasets
    repro bench net.gr --engine both               # flat vs python A/B
    repro qa fuzz --seeds 20                       # also: replay/shrink

Run ``python -m repro <command> --help`` for per-command options.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path as FilePath

from repro.core.builder import build_backbone_index
from repro.core.index import BackboneIndex
from repro.core.params import AggressiveMode, BackboneParams, ClusteringStrategy
from repro.errors import ReproError
from repro.eval.reporting import fmt_bytes, fmt_seconds, format_table
from repro.graph.costs import CostDistribution
from repro.graph.generators import road_network
from repro.graph.io import (
    read_dimacs_co,
    read_dimacs_gr,
    write_dimacs_co,
    write_dimacs_gr,
)
from repro.graph.mcrn import MultiCostGraph
from repro.graph.stats import graph_stats
from repro.search.bbs import skyline_paths
from repro.service.engine import check_time_budget


def _load_graph(gr_path: str) -> MultiCostGraph:
    graph = read_dimacs_gr(gr_path)
    co_path = FilePath(gr_path).with_suffix(".co")
    if co_path.exists():
        read_dimacs_co(graph, co_path)
    return graph


def _params_from(args: argparse.Namespace) -> BackboneParams:
    return BackboneParams(
        m_max=args.m_max,
        m_min=args.m_min,
        p=args.p,
        p_ind=args.p_ind,
        aggressive=AggressiveMode(args.variant),
        clustering=ClusteringStrategy(args.clustering),
    )


def _add_param_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m-max", type=int, default=200, dest="m_max",
                        help="maximum dense-cluster size (default 200)")
    parser.add_argument("--m-min", type=int, default=30, dest="m_min",
                        help="minimum cluster size before merging (default 30)")
    parser.add_argument("--p", type=float, default=0.01,
                        help="per-level edge-removal quota (default 0.01)")
    parser.add_argument("--p-ind", type=float, default=0.3, dest="p_ind",
                        help="condensing-threshold percentage (default 0.3)")
    parser.add_argument("--variant", choices=[m.value for m in AggressiveMode],
                        default="normal",
                        help="aggressive-summarization policy (default normal)")
    parser.add_argument("--clustering",
                        choices=[c.value for c in ClusteringStrategy],
                        default="dense",
                        help="local-unit discovery (default dense)")


def cmd_generate(args: argparse.Namespace) -> int:
    graph = road_network(
        args.nodes,
        dim=args.dim,
        style=args.style,
        distribution=CostDistribution(args.distribution),
        seed=args.seed,
    )
    gr_path = f"{args.out}.gr"
    co_path = f"{args.out}.co"
    write_dimacs_gr(graph, gr_path, comment=f"synthetic {args.style} network")
    write_dimacs_co(graph, co_path, comment=f"synthetic {args.style} network")
    print(
        f"generated {graph.num_nodes} nodes / {graph.num_edges} edges "
        f"({args.dim} costs) -> {gr_path}, {co_path}"
    )
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    started = time.perf_counter()
    index = build_backbone_index(graph, _params_from(args))
    elapsed = time.perf_counter() - started
    index.save(args.out)
    print(
        f"built backbone index in {fmt_seconds(elapsed)}: "
        f"L={index.height}, |G_L.V|={index.top_graph.num_nodes}, "
        f"{index.label_path_count()} label paths, "
        f"{fmt_bytes(FilePath(args.out).stat().st_size)} -> {args.out}"
    )
    if args.verify:
        from repro.core.verify import verify_index

        report = verify_index(index)
        if report.ok:
            print(
                f"verification ok: {report.labels_checked} labels, "
                f"{report.paths_checked} paths, "
                f"{report.shortcuts_checked} shortcuts"
            )
        else:
            print(f"verification FAILED: {len(report.problems)} problems",
                  file=sys.stderr)
            for line in report.problems[:10]:
                print(f"  {line}", file=sys.stderr)
            return 2
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    index = BackboneIndex.load(args.index, graph)
    started = time.perf_counter()
    result = index.query_detailed(args.source, args.target)
    elapsed = time.perf_counter() - started
    print(
        f"{len(result.paths)} approximate skyline paths "
        f"in {fmt_seconds(elapsed)}:"
    )
    for path in sorted(result.paths, key=lambda p: sum(p.cost))[: args.limit]:
        costs = ", ".join(f"{c:g}" for c in path.cost)
        print(f"  ({costs})  [{path.length} hops]")
    if args.exact:
        started = time.perf_counter()
        exact = skyline_paths(
            graph, args.source, args.target, time_budget=args.exact_budget
        )
        elapsed = time.perf_counter() - started
        suffix = " (timed out)" if exact.stats.timed_out else ""
        print(
            f"exact BBS: {len(exact.paths)} skyline paths "
            f"in {fmt_seconds(elapsed)}{suffix}"
        )
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.core.query import backbone_query
    from repro.obs import (
        Tracer,
        flat_spans,
        summarize_roots,
        use_tracer,
        write_chrome_trace,
    )

    graph = _load_graph(args.graph)
    tracer = Tracer()
    with use_tracer(tracer):
        if args.index:
            index = BackboneIndex.load(args.index, graph)
        else:
            index = build_backbone_index(graph, _params_from(args))
        result = backbone_query(
            index, args.source, args.target, time_budget=args.budget
        )
    out = FilePath(args.out)
    if args.format == "flat":
        out.write_text(json.dumps(flat_spans(tracer), indent=1))
    else:
        write_chrome_trace(tracer, out)
    suffix = (
        f" (truncated in {result.stats.truncated_phase})"
        if result.truncated
        else ""
    )
    print(
        f"{len(result.paths)} approximate skyline paths{suffix}; "
        f"trace -> {out}",
        file=sys.stderr,
    )
    for phase in ("grow_s", "grow_t", "connect_top"):
        seconds = result.stats.phase_seconds.get(phase)
        if seconds is not None:
            print(f"  {phase:12s} {fmt_seconds(seconds)}", file=sys.stderr)
    if args.summary:
        rollup = summarize_roots(tracer)
        for name in sorted(rollup):
            doc = rollup[name]
            print(
                f"  {name}: x{doc['count']} "
                f"{fmt_seconds(doc['total_seconds'])}",
                file=sys.stderr,
            )
    return 0


def _read_query_lines(source) -> list[tuple[int, int]]:
    """Parse ``source target`` pairs, one per line.

    Accepts whitespace- or comma-separated integers; blank lines and
    ``#`` comments are skipped.
    """
    from repro.errors import QueryError

    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(source, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.replace(",", " ").split()
        if len(fields) != 2:
            raise QueryError(
                f"query line {lineno}: expected 'source target', got {raw!r}"
            )
        try:
            pairs.append((int(fields[0]), int(fields[1])))
        except ValueError as error:
            raise QueryError(f"query line {lineno}: {error}") from None
    return pairs


def _print_response_lines(responses) -> None:
    """One JSON line per served query (None = task failed upstream)."""
    for response in responses:
        if response is None:
            continue
        doc = {
            "source": response.source,
            "target": response.target,
            "mode": response.mode,
            "paths": len(response.paths),
            "costs": [list(p.cost) for p in response.paths],
            "truncated": response.truncated,
            "cache_hit": response.cache_hit,
            "latency_ms": round(response.elapsed_seconds * 1e3, 3),
            "generation": response.generation,
        }
        if response.worker_pid is not None:
            doc["worker_pid"] = response.worker_pid
        if response.trace_id is not None:
            doc["trace_id"] = response.trace_id
        if response.escalated:
            doc["escalated"] = True
        if response.quality is not None:
            doc["quality"] = response.quality.as_dict()
        print(json.dumps(doc))


def _response_origin(response) -> str:
    """Provenance suffix for verify reports (who computed the answer)."""
    if response is None or response.worker_pid is None:
        return ""
    origin = (
        f" [worker_pid={response.worker_pid} "
        f"generation={response.generation}"
    )
    if response.trace_id is not None:
        origin += f" trace_id={response.trace_id}"
    return origin + "]"


def _obs_from_args(args: argparse.Namespace, registry, events):
    """The optional LiveStatus (+ HTTP server) the serve flags ask for."""
    if args.status_file is None and args.status_port is None:
        return None, None
    from repro.obs import LiveStatus

    live = LiveStatus(
        interval_seconds=args.status_interval,
        status_file=args.status_file,
        registry=registry,
        events=events,
    ).start()
    http_server = None
    if args.status_port is not None:
        http_server = live.serve_http(args.status_port)
        print(
            f"status endpoints at {http_server.url} "
            f"(/health /status /metrics /events)",
            file=sys.stderr,
        )
    return live, http_server


def _obs_teardown(live, http_server, events) -> None:
    """Final status write, HTTP shutdown, event-sink close."""
    if http_server is not None:
        http_server.close()
    if live is not None:
        live.stop()  # flushes one last status document
        if live.status_file is not None:
            print(f"status file at {live.status_file}", file=sys.stderr)
    if events is not None:
        events.close()


def _serve_batch_mp(args: argparse.Namespace, graph, index, pairs,
                    tracer, events) -> int:
    """serve-batch with ``--engine mp``: a forked worker cohort."""
    from repro.mp import MPBatchServer, MPQueryError

    server = MPBatchServer(
        graph,
        index=index,
        params=_params_from(args),
        workers=args.workers,
        cache_size=args.cache_size,
        default_time_budget=args.budget,
        corridor_radius=args.corridor_radius,
        quality_target=args.quality_target,
        tracer=tracer,
        events=events,
    )
    live, http_server = _obs_from_args(args, server.metrics, events)
    if live is not None:
        server.attach_live(live)
        server.engine.attach_live(live)

    def run() -> int:
        if args.store:
            timings = server.engine.warm_from_store(args.store)
            print(
                f"warm-started from {timings['source']} in "
                f"{fmt_seconds(timings['store_load_seconds'])}",
                file=sys.stderr,
            )
        server.start()
        try:
            outcome = server.submit(
                pairs,
                mode=args.mode,
                time_budget=args.budget,
                fail_fast=args.fail_fast,
            )
        except MPQueryError as error:
            print(f"error: {error}", file=sys.stderr)
            return 3
        _print_response_lines(outcome.responses)
        for error in outcome.errors:
            print(f"error: {error}", file=sys.stderr)
        print(
            f"served {len(outcome.responses)} queries "
            f"({outcome.unique_queries} unique, {outcome.tasks} tasks, "
            f"{outcome.workers} workers, generation "
            f"{outcome.generation}) in "
            f"{fmt_seconds(outcome.elapsed_seconds)} — "
            f"{outcome.queries_per_second:.1f} q/s",
            file=sys.stderr,
        )
        if args.verify:
            from repro.qa.invariants import identical_answer_errors

            # Per-query serving, as the workers do it.
            baseline = [
                server.engine.query(
                    source, target, mode=args.mode,
                    time_budget=args.budget, use_cache=False,
                )
                for source, target in pairs
            ]
            mismatches = 0
            for pair, single, multi in zip(pairs, baseline, outcome.responses):
                if multi is None:
                    mismatches += 1
                    continue
                for detail in identical_answer_errors(
                    "single-process", single.paths, "mp", multi.paths
                ):
                    mismatches += 1
                    print(
                        f"verify {pair}: {detail}"
                        f"{_response_origin(multi)}",
                        file=sys.stderr,
                    )
            if mismatches:
                print(
                    f"verification FAILED: {mismatches} queries disagree "
                    f"with single-process serving",
                    file=sys.stderr,
                )
                return 4
            print(
                f"verification ok: {len(pairs)} answers bit-identical to "
                f"single-process serving",
                file=sys.stderr,
            )
        if args.metrics:
            server.flush_metrics()
            print(server.metrics.to_text(), file=sys.stderr)
        return 3 if outcome.errors else 0

    try:
        code = run()
    finally:
        # Stop before exporting the trace: retirement drains the final
        # worker replies, whose span dumps complete the merged picture.
        server.stop()
    if tracer is not None and args.trace:
        from repro.obs import write_merged_trace

        dumps = server.trace_dumps()
        path = write_merged_trace(dumps, args.trace)
        print(
            f"merged trace written to {path} "
            f"({len(dumps)} processes)",
            file=sys.stderr,
        )
    _obs_teardown(live, http_server, events)
    return code


def cmd_serve_batch(args: argparse.Namespace) -> int:
    from repro.core.index import BackboneIndex as _Index
    from repro.errors import QueryError
    from repro.service import SkylineQueryEngine, execute_batch

    if args.workers < 1:
        raise QueryError("--workers must be at least 1")

    tracer = None
    if args.trace:
        from repro.obs import Tracer

        tracer = Tracer()
    events = None
    if args.events:
        from repro.obs import EventLog

        events = EventLog(sink=args.events)
    graph = _load_graph(args.graph)
    index = None
    if args.index:
        index = _Index.load(args.index, graph)
    if args.queries == "-":
        pairs = _read_query_lines(sys.stdin)
    else:
        with open(args.queries) as handle:
            pairs = _read_query_lines(handle)
    if not pairs:
        print("error: no queries to serve", file=sys.stderr)
        return 1
    if args.serve_engine == "mp":
        return _serve_batch_mp(args, graph, index, pairs, tracer, events)
    engine = SkylineQueryEngine(
        graph,
        index=index,
        params=_params_from(args),
        cache_size=args.cache_size,
        default_time_budget=args.budget,
        corridor_radius=args.corridor_radius,
        quality_target=args.quality_target,
        tracer=tracer,
        events=events,
    )
    live, http_server = _obs_from_args(args, engine.metrics, events)
    if live is not None:
        engine.attach_live(live)
    if args.store:
        timings = engine.warm_from_store(args.store)
        generation = timings.get("snapshot_generation")
        suffix = f" (snapshot g{generation})" if generation is not None else ""
        print(
            f"warm-started from {timings['source']}{suffix} in "
            f"{fmt_seconds(timings['store_load_seconds'])}",
            file=sys.stderr,
        )
    if args.warm:
        timings = engine.warm()
        print(
            f"warmed engine in "
            f"{fmt_seconds(sum(timings.values()))}",
            file=sys.stderr,
        )

    outcome = execute_batch(
        engine,
        pairs,
        mode=args.mode,
        time_budget=args.budget,
        tracer=tracer,
    )
    _print_response_lines(outcome.responses)
    cache = engine.cache.snapshot()
    print(
        f"served {len(outcome.responses)} queries "
        f"({outcome.unique_queries} unique, "
        f"{outcome.source_groups} source groups) in "
        f"{fmt_seconds(outcome.elapsed_seconds)} — "
        f"{outcome.queries_per_second:.1f} q/s, "
        f"cache hit rate {cache['hit_rate']:.0%}",
        file=sys.stderr,
    )
    if tracer is not None:
        from repro.obs import write_chrome_trace

        path = write_chrome_trace(tracer, args.trace)
        print(f"trace written to {path}", file=sys.stderr)
    if args.metrics:
        print(engine.metrics.to_text(), file=sys.stderr)
    _obs_teardown(live, http_server, events)
    return 0


def _load_status_doc(source: str, timeout: float) -> dict:
    """A live-status document from a file path or a status-server URL."""
    if source.startswith(("http://", "https://")):
        import urllib.request

        url = source.rstrip("/")
        if not url.endswith("/status"):
            url += "/status"
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return json.load(response)
    return json.loads(FilePath(source).read_text(encoding="utf-8"))


def cmd_status(args: argparse.Namespace) -> int:
    """Pretty-print a live-status document (file or running server)."""
    try:
        doc = _load_status_doc(args.source, args.http_timeout)
    except OSError as error:
        print(f"error: {args.source}: {error}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as error:
        print(f"error: {args.source}: not JSON ({error})", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    if doc.get("format") != "repro-live-status":
        print(
            f"error: {args.source}: not a repro live-status document",
            file=sys.stderr,
        )
        return 1
    age = time.time() - doc.get("written_at_unix", 0.0)
    print(
        f"pid {doc.get('pid')}  "
        f"uptime {fmt_seconds(doc.get('uptime_seconds', 0.0))}  "
        f"written {age:.1f}s ago  "
        f"writes {doc.get('status_writes', 0)} "
        f"(+{doc.get('status_write_failures', 0)} failed)"
    )
    windows = doc.get("windows", {})
    if windows:
        rows = [
            [
                name,
                window.get("count", 0),
                f"{window.get('mean', 0.0):.6g}",
                f"{window.get('p50', 0.0):.6g}",
                f"{window.get('p95', 0.0):.6g}",
                f"{window.get('p99', 0.0):.6g}",
            ]
            for name, window in sorted(windows.items())
        ]
        seconds = next(iter(windows.values())).get("window_seconds", 0)
        print(
            format_table(
                ["series", "n", "mean", "p50", "p95", "p99"],
                rows,
                title=f"rolling windows (last {seconds:g}s)",
            )
        )
    sources = doc.get("sources", {})
    mp = sources.get("mp")
    if mp is not None:
        print(
            f"mp: generation {mp.get('generation')} "
            f"(lag {mp.get('generation_lag', 0)}), "
            f"inflight {mp.get('inflight', 0)}/{mp.get('max_inflight', 0)}, "
            f"workers {mp.get('live_workers', 0)}/{mp.get('workers', 0)} "
            f"live, {mp.get('admission_stalls', 0)} admission stalls"
        )
        processes = mp.get("worker_processes", [])
        if processes:
            rows = [
                [
                    worker.get("worker"),
                    worker.get("pid"),
                    "up" if worker.get("alive") else "DOWN",
                    worker.get("generation"),
                ]
                for worker in processes
            ]
            print(
                format_table(
                    ["worker", "pid", "state", "generation"],
                    rows,
                    title="worker processes",
                )
            )
    engine_doc = sources.get("engine")
    if engine_doc is not None:
        cache = engine_doc.get("cache", {})
        print(
            f"engine: generation {engine_doc.get('generation')}, "
            f"{engine_doc.get('queries_total', 0)} queries served, "
            f"cache hit rate {cache.get('hit_rate', 0.0):.0%} "
            f"({cache.get('size', 0)}/{cache.get('capacity', 0)} entries)"
        )
    for name, body in sorted(sources.items()):
        if name in ("mp", "engine"):
            continue
        print(f"{name}: {json.dumps(body, sort_keys=True)}")
    events = doc.get("events")
    if events is not None:
        print(
            f"events: {events.get('total_emitted', 0)} emitted, "
            f"last {len(events.get('events', []))}:"
        )
        for event in events.get("events", []):
            attrs = " ".join(
                f"{key}={value}"
                for key, value in sorted(event.get("attrs", {}).items())
            )
            print(f"  #{event.get('seq'):<5} {event.get('kind'):<28} {attrs}")
    return 0


def cmd_warm(args: argparse.Namespace) -> int:
    from repro.service import SkylineQueryEngine

    graph = _load_graph(args.graph)
    engine = SkylineQueryEngine(graph, params=_params_from(args))
    timings = engine.warm()
    index = engine.index
    assert index is not None
    index.save(args.out)
    print(
        f"warmed: index built in {fmt_seconds(timings['index_seconds'])} "
        f"(L={index.height}, {index.label_path_count()} label paths, "
        f"{fmt_bytes(FilePath(args.out).stat().st_size)}) -> {args.out}"
    )
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    stats = graph_stats(graph, FilePath(args.graph).stem)
    rows = [stats.as_row()]
    print(
        format_table(
            ["name", "nodes", "edges", "avg deg", "max deg", "size"],
            rows,
            title="graph",
        )
    )
    if args.index:
        index = BackboneIndex.load(args.index, graph)
        info = index.stats()
        print(
            format_table(
                ["levels", "label paths", "G_L nodes", "G_L edges", "size"],
                [
                    [
                        info["height"],
                        info["label_paths"],
                        info["top_graph_nodes"],
                        info["top_graph_edges"],
                        fmt_bytes(info["size_bytes"]),
                    ]
                ],
                title="index",
            )
        )
    return 0


def cmd_index_save(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    started = time.perf_counter()
    index = BackboneIndex.load(args.index, graph)
    load_seconds = time.perf_counter() - started
    started = time.perf_counter()
    index.save(args.out, compress=not args.no_compress)
    save_seconds = time.perf_counter() - started
    size = FilePath(args.out).stat().st_size
    print(
        f"loaded {args.index} in {fmt_seconds(load_seconds)}, "
        f"saved ({fmt_bytes(size)}) in "
        f"{fmt_seconds(save_seconds)} -> {args.out}"
    )
    return 0


def cmd_index_load(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    started = time.perf_counter()
    index = BackboneIndex.load(args.index, graph, lazy=args.lazy)
    elapsed = time.perf_counter() - started
    lazy_note = " (lazy: label levels deferred)" if args.lazy else ""
    print(
        f"loaded index in {fmt_seconds(elapsed)}{lazy_note}: "
        f"L={index.height}, |G_L.V|={index.top_graph.num_nodes}"
    )
    return 0


def cmd_index_inspect(args: argparse.Namespace) -> int:
    from repro.store import inspect_store

    print(json.dumps(inspect_store(args.index), indent=2))
    return 0


def cmd_index_snapshot(args: argparse.Namespace) -> int:
    from repro.store import Snapshotter

    graph = _load_graph(args.graph)
    snapshotter = Snapshotter(args.dir, retain=args.retain)
    if args.index:
        index = BackboneIndex.load(args.index, graph)
    else:
        index = build_backbone_index(graph, _params_from(args))
    generation = args.generation
    if generation is None:
        existing = snapshotter.snapshots()
        generation = existing[0][0] + 1 if existing else 0
    path = snapshotter.snapshot(index, generation)
    kept = snapshotter.snapshots()
    print(
        f"snapshot g{generation} ({fmt_bytes(path.stat().st_size)}) -> "
        f"{path}; {len(kept)} snapshot(s) retained "
        f"(newest g{kept[0][0]}, retain {args.retain})"
    )
    return 0


def cmd_datasets(args: argparse.Namespace) -> int:
    from repro.datasets import dataset_info, list_datasets

    rows = []
    for name in list_datasets():
        spec = dataset_info(name)
        rows.append(
            [
                name,
                spec.description,
                f"{spec.scaled_nodes:,}",
                f"{spec.paper_nodes:,}",
                f"{spec.edge_ratio:.2f}",
            ]
        )
    print(
        format_table(
            ["name", "description", "stand-in nodes", "paper nodes", "|E|/|V|"],
            rows,
            title="catalog stand-ins for the paper's nine networks",
        )
    )
    return 0


def _qa_config(args: argparse.Namespace):
    from repro.qa import QAConfig

    return QAConfig(
        rac_bound=args.rac_bound,
        check_store=not args.no_store,
        check_engine=not args.no_engine,
        check_updates=not args.no_updates,
        check_metamorphic=not args.no_metamorphic,
        check_corridor=getattr(args, "corridor", False),
    )


def _print_case_report(report, *, verbose: bool) -> None:
    status = "ok" if report.ok else f"{len(report.discrepancies)} DISCREPANCIES"
    print(
        f"seed {report.spec.seed:>4}  {report.spec.style:<8} "
        f"d={report.spec.dim}  queries={report.queries_checked} "
        f"variants={report.variants_checked} "
        f"updates={report.updates_applied}  {status}"
    )
    if verbose or not report.ok:
        for discrepancy in report.discrepancies:
            print(f"  {discrepancy}")


def cmd_bench(args: argparse.Namespace) -> int:
    """A/B production BBS against the reference on a random workload."""
    import statistics

    from repro.eval import random_queries

    graph = _load_graph(args.graph)
    queries = random_queries(
        graph, args.queries, seed=args.seed, min_hops=args.min_hops
    )
    from repro.accel.csr import CSRSnapshot
    from repro.qa import reference

    started = time.perf_counter()
    snapshot = CSRSnapshot.from_graph(graph)
    print(f"CSR snapshot built in {fmt_seconds(time.perf_counter() - started)}")

    # The reference loop and the production kernel are held
    # bit-identical: answers must match in order and multiplicity.
    tiers = {
        "reference": lambda s, t: reference.skyline_paths(
            graph, s, t, time_budget=args.budget
        ),
        "production": lambda s, t: skyline_paths(
            graph, s, t, time_budget=args.budget, snapshot=snapshot
        ),
    }
    timings: dict[str, list[float]] = {name: [] for name in tiers}
    answers: dict[str, list] = {}
    for _ in range(args.rounds):
        for name, search in tiers.items():
            collected = []
            for query in queries:
                started = time.perf_counter()
                result = search(query.source, query.target)
                timings[name].append(time.perf_counter() - started)
                collected.append([(p.nodes, p.cost) for p in result.paths])
            answers[name] = collected
    if answers["reference"] != answers["production"]:
        print(
            "error: production answers differ from the reference",
            file=sys.stderr,
        )
        return 2

    baseline = statistics.mean(timings["reference"])
    rows = []
    for name, seconds in timings.items():
        mean = statistics.mean(seconds)
        rows.append(
            [
                name,
                fmt_seconds(mean),
                fmt_seconds(max(seconds)),
                f"{baseline / mean:.2f}x",
            ]
        )
    print(
        format_table(
            ["search", "mean query", "max query", "speed-up"],
            rows,
            title=(
                f"{len(queries)} queries x {args.rounds} rounds on "
                f"{graph.num_nodes}-node graph"
            ),
        )
    )
    print("answers: bit-identical to the reference")

    if args.mp_workers:
        from repro.mp.benchmark import measure_mp, measure_single_process

        try:
            cohort_sizes = [
                int(field) for field in args.mp_workers.split(",") if field
            ]
        except ValueError:
            print(f"error: --mp-workers expects integers, got "
                  f"{args.mp_workers!r}", file=sys.stderr)
            return 1
        pairs = [(q.source, q.target) for q in queries]
        while len(pairs) < args.mp_batch:
            pairs.extend(pairs)
        pairs = pairs[: args.mp_batch]
        baseline = measure_single_process(
            graph, pairs, rounds=args.rounds, time_budget=args.budget
        )
        rows = [[
            "single", 1, f"{baseline['qps']:.1f}",
            fmt_seconds(baseline["best_seconds"]), "1.00x",
        ]]
        mismatched = False
        for size in cohort_sizes:
            doc = measure_mp(
                graph, pairs, workers=size, rounds=args.rounds,
                time_budget=args.budget,
            )
            if doc["signature"] != baseline["signature"]:
                mismatched = True
            rows.append([
                "mp", size, f"{doc['qps']:.1f}",
                fmt_seconds(doc["best_seconds"]),
                f"{doc['qps'] / baseline['qps']:.2f}x"
                if baseline["qps"] else "n/a",
            ])
        print(
            format_table(
                ["variant", "workers", "q/s", "best batch", "vs single"],
                rows,
                title=(
                    f"mp batch throughput: {len(pairs)} queries x "
                    f"{args.rounds} rounds ({os.cpu_count()} cpu)"
                ),
            )
        )
        if mismatched:
            print("error: mp answers differ from single-process",
                  file=sys.stderr)
            return 2
        print("answers: answer-set-identical across worker counts")
    return 0


def _numeric_leaves(doc, prefix: str = ""):
    """Flatten a telemetry document into (dotted-metric, value) pairs.

    Numbers and booleans are leaves; dicts recurse; a list of dicts
    keys each element by its ``name`` field when present (the shape of
    pytest-benchmark timing rows), by position otherwise.  Strings and
    metadata fields stay out of the metric table.
    """
    skip = {"module", "workload_seed", "exit_status"}
    if isinstance(doc, dict):
        for key in sorted(doc):
            if not prefix and key in skip:
                continue
            dotted = f"{prefix}.{key}" if prefix else key
            yield from _numeric_leaves(doc[key], dotted)
    elif isinstance(doc, list):
        for position, item in enumerate(doc):
            label = (
                item.get("name", str(position))
                if isinstance(item, dict)
                else str(position)
            )
            yield from _numeric_leaves(item, f"{prefix}.{label}")
    elif isinstance(doc, bool):
        yield prefix, int(doc)
    elif isinstance(doc, (int, float)):
        yield prefix, doc


def cmd_bench_report(args: argparse.Namespace) -> int:
    """Merge committed BENCH_*.json dumps into one trajectory table."""
    import datetime

    root = FilePath(args.dir)
    files = sorted(root.glob("BENCH_*.json"))
    if not files:
        print(f"error: no BENCH_*.json files under {root}", file=sys.stderr)
        return 1
    rows = []
    for path in files:
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            print(f"warning: {path.name}: {error}", file=sys.stderr)
            continue
        module = doc.get("module", path.stem.removeprefix("BENCH_"))
        run_date = datetime.datetime.fromtimestamp(
            path.stat().st_mtime
        ).strftime("%Y-%m-%d %H:%M")
        for metric, value in _numeric_leaves(doc):
            if not args.spans and metric.startswith("span_aggregates"):
                continue
            if args.filter and args.filter not in f"{module}.{metric}":
                continue
            rows.append([module, metric, value, run_date])
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "module": module,
                        "metric": metric,
                        "value": value,
                        "run_date": run_date,
                    }
                    for module, metric, value, run_date in rows
                ],
                indent=2,
            )
        )
        return 0
    if not rows:
        print("no metrics matched", file=sys.stderr)
        return 1
    rendered = [
        [
            module,
            metric,
            f"{value:.6g}" if isinstance(value, float) else str(value),
            run_date,
        ]
        for module, metric, value, run_date in rows
    ]
    print(
        format_table(
            ["module", "metric", "value", "run date"],
            rendered,
            title=f"benchmark trajectory ({len(files)} telemetry dumps)",
        )
    )
    return 0


def cmd_qa_mpload(args: argparse.Namespace) -> int:
    from repro.qa import MPLoadConfig, fuzz_mp

    started = time.perf_counter()
    report = fuzz_mp(
        range(args.start, args.start + args.seeds),
        MPLoadConfig(workers=args.workers),
        n_nodes=args.nodes,
        n_queries=args.queries,
        n_updates=args.updates,
        on_case=lambda case: _print_case_report(case, verbose=args.verbose),
    )
    elapsed = time.perf_counter() - started
    total = len(report.discrepancies)
    print(
        f"{len(report.cases)} cases, "
        f"{sum(c.queries_checked for c in report.cases)} responses checked, "
        f"{total} discrepancies in {fmt_seconds(elapsed)}"
    )
    return 1 if total else 0


def cmd_qa_fuzz(args: argparse.Namespace) -> int:
    from repro.qa import fuzz

    started = time.perf_counter()
    report = fuzz(
        range(args.start, args.start + args.seeds),
        _qa_config(args),
        n_nodes=args.nodes,
        n_queries=args.queries,
        n_updates=args.updates,
        on_case=lambda case: _print_case_report(case, verbose=args.verbose),
    )
    elapsed = time.perf_counter() - started
    total = len(report.discrepancies)
    print(
        f"{len(report.cases)} cases, "
        f"{sum(c.queries_checked for c in report.cases)} queries, "
        f"{total} discrepancies in {fmt_seconds(elapsed)}"
    )
    return 1 if total else 0


def cmd_qa_quality(args: argparse.Namespace) -> int:
    from repro.qa import run_quality_tripwire

    started = time.perf_counter()
    report = run_quality_tripwire(
        range(args.start, args.start + args.seeds),
        radius=args.radius,
        n_nodes=args.nodes,
        n_queries=args.queries,
        on_case=lambda case: _print_case_report(case, verbose=args.verbose),
    )
    elapsed = time.perf_counter() - started
    total = len(report.discrepancies)
    print(
        f"{len(report.cases)} cases, "
        f"{sum(c.queries_checked for c in report.cases)} queries, "
        f"{total} discrepancies in {fmt_seconds(elapsed)}"
    )
    return 1 if total else 0


def cmd_qa_replay(args: argparse.Namespace) -> int:
    from repro.qa import CaseSpec, run_case

    spec = CaseSpec.from_seed(
        args.seed,
        n_nodes=args.nodes,
        n_queries=args.queries,
        n_updates=args.updates,
    )
    report = run_case(spec, _qa_config(args))
    _print_case_report(report, verbose=True)
    return 1 if report.discrepancies else 0


def cmd_qa_shrink(args: argparse.Namespace) -> int:
    from repro.qa import CaseSpec, emit_fixture, shrink_case
    from repro.qa.workload import build_case

    spec = CaseSpec.from_seed(
        args.seed,
        n_nodes=args.nodes,
        n_queries=args.queries,
        n_updates=args.updates,
    )
    case = build_case(spec)
    queries = (
        [(args.source, args.target)]
        if args.source is not None and args.target is not None
        else case.queries
    )
    for source, target in queries:
        shrunk = shrink_case(case.graph, source, target)
        if shrunk is None:
            print(f"({source}, {target}): no static discrepancy to shrink")
            continue
        print(
            f"({source}, {target}): reduced to {len(shrunk.edges)} edges / "
            f"{len(shrunk.nodes)} nodes in {shrunk.trials} trials"
        )
        print(f"  reproduces: {shrunk.problems[0]}")
        fixture = emit_fixture(shrunk, seed=args.seed)
        if args.out:
            FilePath(args.out).write_text(fixture)
            print(f"  fixture written to {args.out}")
        else:
            print(fixture)
        return 0
    print("nothing shrinkable: no query reproduces statically")
    return 1


def _add_qa_case_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", type=int, default=70,
                        help="nodes per random network (default 70)")
    parser.add_argument("--queries", type=int, default=5,
                        help="queries per case (default 5)")
    parser.add_argument("--updates", type=int, default=3,
                        help="structural updates per case (default 3)")
    parser.add_argument("--rac-bound", type=float, default=16.0,
                        dest="rac_bound",
                        help="per-query RAC quality tripwire (default 16)")
    parser.add_argument("--no-store", action="store_true",
                        help="skip the binary-store round-trip variants")
    parser.add_argument("--no-engine", action="store_true",
                        help="skip the cached service-engine variants")
    parser.add_argument("--no-updates", action="store_true",
                        help="skip the maintenance-update variants")
    parser.add_argument("--no-metamorphic", action="store_true",
                        help="skip swap/permutation/scaling relations")
    parser.add_argument("--corridor", action="store_true",
                        help="also run the corridor-tier engine variant")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Backbone index for skyline path queries (EDBT 2022)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="generate a synthetic road network as DIMACS files"
    )
    generate.add_argument("--nodes", type=int, default=2000)
    generate.add_argument("--dim", type=int, default=3)
    generate.add_argument("--style", choices=["delaunay", "grid"],
                          default="delaunay")
    generate.add_argument(
        "--distribution",
        choices=[d.value for d in CostDistribution],
        default="uniform",
    )
    generate.add_argument("--seed", type=int, default=None)
    generate.add_argument("--out", required=True,
                          help="output path prefix (writes .gr and .co)")
    generate.set_defaults(handler=cmd_generate)

    build = commands.add_parser("build", help="build a backbone index")
    build.add_argument("graph", help="DIMACS .gr file")
    build.add_argument("--out", required=True, help="index output file")
    build.add_argument("--verify", action="store_true",
                       help="run structural self-validation after building")
    _add_param_options(build)
    build.set_defaults(handler=cmd_build)

    query = commands.add_parser("query", help="answer a skyline path query")
    query.add_argument("graph", help="DIMACS .gr file")
    query.add_argument("index", help="index file from 'repro build'")
    query.add_argument("--source", type=int, required=True)
    query.add_argument("--target", type=int, required=True)
    query.add_argument("--limit", type=int, default=10,
                       help="max paths to print (default 10)")
    query.add_argument("--exact", action="store_true",
                       help="also run the exact BBS baseline")
    query.add_argument("--exact-budget", type=float, default=900.0,
                       dest="exact_budget",
                       help="BBS time budget in seconds (default 900)")
    query.set_defaults(handler=cmd_query)

    trace = commands.add_parser(
        "trace",
        help="answer one query with tracing on and export the spans",
        description=(
            "Run one backbone query (building the index first when no "
            "--index is given, also traced) with the tracer enabled, "
            "then write the span tree as Chrome trace_event JSON — load "
            "it in chrome://tracing or https://ui.perfetto.dev.  The "
            "three query phases (grow_s / grow_t / connect_top) appear "
            "as nested spans with search-internals counters attached."
        ),
    )
    trace.add_argument("graph", help="DIMACS .gr file")
    trace.add_argument("--index",
                       help="saved index (built on demand when omitted)")
    trace.add_argument("--source", type=int, required=True)
    trace.add_argument("--target", type=int, required=True)
    trace.add_argument("--out", required=True,
                       help="trace output path (JSON)")
    trace.add_argument("--format", choices=["chrome", "flat"],
                       default="chrome",
                       help="chrome trace_event JSON (default) or a flat "
                            "span list")
    trace.add_argument("--budget", type=float, default=None,
                       help="query time budget in seconds")
    trace.add_argument("--summary", action="store_true",
                       help="print per-span-name rollups to stderr")
    _add_param_options(trace)
    trace.set_defaults(handler=cmd_trace)

    serve = commands.add_parser(
        "serve-batch",
        help="serve a batch of skyline queries as JSON lines",
        description=(
            "Read 'source target' pairs from a file or stdin, serve them "
            "through the query engine (planner + cache + shared grow-S "
            "batching), and emit one JSON line per query with latency and "
            "cache status.  A summary goes to stderr."
        ),
    )
    serve.add_argument("graph", help="DIMACS .gr file")
    serve.add_argument("--index",
                       help="saved index from 'repro build'/'repro warm' "
                            "(built on demand when omitted)")
    serve.add_argument("--store",
                       help="warm-start source: an index store file or a "
                            "snapshot directory, in which case the newest "
                            "valid snapshot is recovered")
    serve.add_argument("--queries", default="-",
                       help="query file, or '-' for stdin (default)")
    serve.add_argument("--workers", type=int, default=4,
                       help="worker process count with --engine mp "
                            "(default 4); in-process serving runs in one "
                            "thread")
    serve.add_argument("--engine", choices=["thread", "mp"],
                       default="thread", dest="serve_engine",
                       help="batch executor: in-process in the calling "
                            "thread (default) or a forked worker-process "
                            "cohort sharing one zero-copy CSR snapshot")
    serve.add_argument("--fail-fast", action="store_true", dest="fail_fast",
                       help="with --engine mp: abort the batch on the "
                            "first worker error (exit code 3)")
    serve.add_argument("--verify", action="store_true",
                       help="with --engine mp: re-serve the batch "
                            "single-process and require bit-identical "
                            "answers (exit code 4 on mismatch)")
    serve.add_argument("--mode",
                       choices=["auto", "exact", "approx", "corridor"],
                       default="auto",
                       help="planner mode (default auto)")
    serve.add_argument("--budget", type=float, default=None,
                       help="per-query time budget in seconds "
                            "(partial results are flagged truncated)")
    serve.add_argument("--corridor-radius", type=int, default=2,
                       dest="corridor_radius",
                       help="k-hop corridor width around the backbone "
                            "answer for mode=corridor (default 2)")
    serve.add_argument("--quality-target", type=float, default=None,
                       dest="quality_target",
                       help="minimum hypervolume retention for corridor "
                            "answers; a provably-missed target escalates "
                            "to exact within the remaining budget")
    serve.add_argument("--cache-size", type=int, default=1024,
                       dest="cache_size",
                       help="LRU result-cache capacity (default 1024)")
    serve.add_argument("--warm", action="store_true",
                       help="prime the index and CSR snapshot before serving")
    serve.add_argument("--metrics", action="store_true",
                       help="print the plaintext metrics export to stderr")
    serve.add_argument("--trace", metavar="FILE",
                       help="enable tracing and write a Chrome trace_event "
                            "JSON of the whole batch to FILE; with "
                            "--engine mp the file merges dispatcher and "
                            "every worker process onto one timeline")
    serve.add_argument("--status-file", metavar="FILE", dest="status_file",
                       default=None,
                       help="continuously write an atomic live-status JSON "
                            "document to FILE (read it with 'repro status')")
    serve.add_argument("--status-port", type=int, metavar="PORT",
                       dest="status_port", default=None,
                       help="serve /health /status /metrics /events over "
                            "HTTP on 127.0.0.1:PORT (0 picks a free port)")
    serve.add_argument("--status-interval", type=float, default=1.0,
                       dest="status_interval",
                       help="seconds between status-file writes (default 1)")
    serve.add_argument("--events", metavar="FILE", default=None,
                       help="record operational events (cohort swaps, "
                            "worker lifecycle, cache invalidation) as JSON "
                            "lines appended to FILE")
    _add_param_options(serve)
    serve.set_defaults(handler=cmd_serve_batch)

    status = commands.add_parser(
        "status",
        help="pretty-print a live-status document (file or URL)",
        description=(
            "Read the JSON document a serving process publishes via "
            "--status-file (a path) or --status-port (an http:// URL) "
            "and render it: rolling-window latency percentiles, worker "
            "liveness and generation lag, cache hit rate, and the "
            "recent operational events."
        ),
    )
    status.add_argument("source",
                        help="status file path, or http://host:port of a "
                             "process started with --status-port")
    status.add_argument("--json", action="store_true",
                        help="dump the raw JSON document instead of the "
                             "rendered summary")
    status.add_argument("--http-timeout", type=float, default=5.0,
                        dest="http_timeout",
                        help="HTTP fetch timeout in seconds (default 5)")
    status.set_defaults(handler=cmd_status)

    warm = commands.add_parser(
        "warm",
        help="build and save an index, priming the engine's warm state",
    )
    warm.add_argument("graph", help="DIMACS .gr file")
    warm.add_argument("--out", required=True, help="index output file")
    _add_param_options(warm)
    warm.set_defaults(handler=cmd_warm)

    index_cmd = commands.add_parser(
        "index",
        help="persist, inspect, and snapshot index stores",
        description=(
            "Maintenance commands for persisted index stores: re-save a "
            "store (upgrading an older format version), time a warm-start "
            "load, dump a store file's header and section table, and "
            "write retention-pruned generation snapshots."
        ),
    )
    index_sub = index_cmd.add_subparsers(dest="index_command", required=True)

    index_save = index_sub.add_parser(
        "save", help="re-save an index store in the current format"
    )
    index_save.add_argument("graph", help="DIMACS .gr file")
    index_save.add_argument("index", help="existing index store")
    index_save.add_argument("--out", required=True, help="output index file")
    index_save.add_argument("--no-compress", action="store_true",
                            dest="no_compress",
                            help="disable zlib section compression")
    index_save.set_defaults(handler=cmd_index_save)

    index_load = index_sub.add_parser(
        "load", help="load an index and report warm-start timing"
    )
    index_load.add_argument("graph", help="DIMACS .gr file")
    index_load.add_argument("index", help="index store")
    index_load.add_argument("--lazy", action="store_true",
                            help="defer label levels to first access")
    index_load.set_defaults(handler=cmd_index_load)

    index_inspect = index_sub.add_parser(
        "inspect", help="dump an index file's header and sections as JSON"
    )
    index_inspect.add_argument("index", help="index store")
    index_inspect.set_defaults(handler=cmd_index_inspect)

    index_snapshot = index_sub.add_parser(
        "snapshot", help="write a generation snapshot of an index"
    )
    index_snapshot.add_argument("graph", help="DIMACS .gr file")
    index_snapshot.add_argument("--index",
                                help="index file to snapshot (built on "
                                     "demand when omitted)")
    index_snapshot.add_argument("--dir", required=True,
                                help="snapshot directory")
    index_snapshot.add_argument("--generation", type=int, default=None,
                                help="generation number (default: newest "
                                     "on disk + 1)")
    index_snapshot.add_argument("--retain", type=int, default=3,
                                help="snapshots to keep (default 3)")
    _add_param_options(index_snapshot)
    index_snapshot.set_defaults(handler=cmd_index_snapshot)

    stats = commands.add_parser("stats", help="print graph / index statistics")
    stats.add_argument("graph", help="DIMACS .gr file")
    stats.add_argument("--index", help="optional index file")
    stats.set_defaults(handler=cmd_stats)

    datasets = commands.add_parser(
        "datasets", help="list the catalog's synthetic stand-ins"
    )
    datasets.set_defaults(handler=cmd_datasets)

    bench_cmd = commands.add_parser(
        "bench",
        help="time the search engines, or report committed telemetry",
        description=(
            "'bench run GRAPH' times the search engines on a random "
            "workload ('bench GRAPH' still works); 'bench report' "
            "merges the committed BENCH_*.json telemetry dumps into "
            "one trajectory table."
        ),
    )
    bench_sub = bench_cmd.add_subparsers(dest="bench_command", required=True)

    bench_report = bench_sub.add_parser(
        "report",
        help="merge BENCH_*.json telemetry dumps into one table",
        description=(
            "Flatten every BENCH_<module>.json at the repo root (or "
            "--dir) into one (module, metric, value, run date) table — "
            "the committed performance trajectory across sessions.  "
            "Values are the numeric leaves of each dump, dotted by "
            "their JSON path; run dates come from file modification "
            "times."
        ),
    )
    bench_report.add_argument("--dir", default=".",
                              help="directory holding BENCH_*.json "
                                   "(default: current directory)")
    bench_report.add_argument("--filter", default=None,
                              help="only metrics whose 'module.metric' "
                                   "path contains this substring")
    bench_report.add_argument("--spans", action="store_true",
                              help="include the span_aggregates rollups "
                                   "(bulky; hidden by default)")
    bench_report.add_argument("--json", action="store_true",
                              help="emit the rows as JSON instead of a "
                                   "table")
    bench_report.set_defaults(handler=cmd_bench_report)

    bench = bench_sub.add_parser(
        "run",
        help="time production BBS against the reference oracle on a "
        "random workload (exit 2 if their answers differ)",
    )
    bench.add_argument("graph", help="DIMACS .gr file")
    bench.add_argument("--queries", type=int, default=6,
                       help="workload size (default 6)")
    bench.add_argument("--rounds", type=int, default=3,
                       help="timing rounds over the workload (default 3)")
    bench.add_argument("--seed", type=int, default=88,
                       help="workload RNG seed (default 88)")
    bench.add_argument("--min-hops", type=int, default=10, dest="min_hops",
                       help="minimum query length in hops (default 10)")
    bench.add_argument("--budget", type=float, default=None,
                       help="per-query time budget in seconds")
    bench.add_argument("--mp-workers", default=None, dest="mp_workers",
                       metavar="N[,N...]",
                       help="also benchmark multi-process batch serving "
                            "at these cohort sizes (e.g. 1,2,4)")
    bench.add_argument("--mp-batch", type=int, default=64, dest="mp_batch",
                       help="batch size per mp throughput round "
                            "(default 64)")
    bench.set_defaults(handler=cmd_bench)

    qa = commands.add_parser(
        "qa",
        help="differential correctness harness (fuzz / replay / shrink)",
    )
    qa_sub = qa.add_subparsers(dest="qa_command", required=True)

    qa_fuzz = qa_sub.add_parser(
        "fuzz",
        help="cross-check exact BBS, index, store, engine, and "
        "maintenance on seeded random cases",
    )
    qa_fuzz.add_argument("--seeds", type=int, default=20,
                         help="number of seeded cases (default 20)")
    qa_fuzz.add_argument("--start", type=int, default=0,
                         help="first seed (default 0)")
    qa_fuzz.add_argument("--verbose", action="store_true",
                         help="print every discrepancy as cases finish")
    _add_qa_case_options(qa_fuzz)
    qa_fuzz.set_defaults(handler=cmd_qa_fuzz)

    qa_mpload = qa_sub.add_parser(
        "mpload",
        help="fuzz multi-process serving under concurrent maintenance "
        "(every response bit-matched against its stamped generation)",
    )
    qa_mpload.add_argument("--seeds", type=int, default=10,
                           help="number of seeded cases (default 10)")
    qa_mpload.add_argument("--start", type=int, default=0,
                           help="first seed (default 0)")
    qa_mpload.add_argument("--workers", type=int, default=2,
                           help="worker processes per cohort (default 2)")
    qa_mpload.add_argument("--verbose", action="store_true",
                           help="print every discrepancy as cases finish")
    _add_qa_case_options(qa_mpload)
    qa_mpload.set_defaults(handler=cmd_qa_mpload)

    qa_quality = qa_sub.add_parser(
        "quality",
        help="corridor quality tripwire: answers valid, non-dominated, "
        "dominance-consistent with exact, never reported better than "
        "exact",
    )
    qa_quality.add_argument("--seeds", type=int, default=20,
                            help="number of seeded cases (default 20)")
    qa_quality.add_argument("--start", type=int, default=0,
                            help="first seed (default 0)")
    qa_quality.add_argument("--radius", type=int, default=2,
                            help="corridor k-hop radius (default 2)")
    qa_quality.add_argument("--nodes", type=int, default=70,
                            help="nodes per random network (default 70)")
    qa_quality.add_argument("--queries", type=int, default=5,
                            help="queries per case (default 5)")
    qa_quality.add_argument("--verbose", action="store_true",
                            help="print every discrepancy as cases finish")
    qa_quality.set_defaults(handler=cmd_qa_quality)

    qa_replay = qa_sub.add_parser(
        "replay", help="re-run one seeded case with full detail"
    )
    qa_replay.add_argument("--seed", type=int, required=True,
                           help="case seed to replay")
    _add_qa_case_options(qa_replay)
    qa_replay.set_defaults(handler=cmd_qa_replay)

    qa_shrink = qa_sub.add_parser(
        "shrink",
        help="delta-debug a failing case into a regression fixture",
    )
    qa_shrink.add_argument("--seed", type=int, required=True,
                           help="case seed to shrink")
    qa_shrink.add_argument("--source", type=int, default=None,
                           help="pin the failing query's source node")
    qa_shrink.add_argument("--target", type=int, default=None,
                           help="pin the failing query's target node")
    qa_shrink.add_argument("--out", default=None,
                           help="write the pytest fixture to this file")
    _add_qa_case_options(qa_shrink)
    qa_shrink.set_defaults(handler=cmd_qa_shrink)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # Backward compatibility: 'repro bench GRAPH ...' predates the
    # bench subcommands and still reads naturally, so a first argument
    # that is not a subcommand selects 'bench run'.
    if len(argv) > 1 and argv[0] == "bench":
        if argv[1] not in ("run", "report", "-h", "--help"):
            argv.insert(1, "run")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name in ("budget", "exact_budget"):
            check_time_budget(getattr(args, name, None))
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout was closed early (e.g. piped into `head`); exit quietly
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

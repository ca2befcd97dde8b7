"""Figure 10 — query time: BBS vs the three backbone variants.

Regenerates the paper's Figure 10: averaged query time per graph,
variant, and m_max column, next to the BBS baseline.

Paper shape: backbone_each and backbone_normal answer queries orders of
magnitude faster than BBS and stay stable across m_max;
backbone_none's large G_L makes its queries the slowest of the three
variants (in the paper it can even exceed BBS).
"""

from __future__ import annotations

import pytest

from repro.eval import fmt_seconds, format_table

from benchmarks.conftest import record_telemetry, report


@pytest.fixture(scope="module")
def fig10_report(quality_grid):
    summaries = quality_grid["summaries"]
    rows = []
    data: dict[tuple[str, str, int], tuple[float, float]] = {}
    for (graph_name, variant, paper_m), summary in sorted(summaries.items()):
        approx = summary.mean_approx_seconds()
        exact = summary.mean_exact_seconds()
        data[(graph_name, variant, paper_m)] = (approx, exact)
        rows.append(
            [
                graph_name,
                variant,
                paper_m,
                fmt_seconds(approx),
                fmt_seconds(exact),
                f"{exact / approx:.0f}x" if approx else "-",
            ]
        )
    report(
        "fig10_query_time",
        format_table(
            [
                "graph",
                "variant",
                "m_max (paper)",
                "backbone time",
                "BBS time",
                "speed-up",
            ],
            rows,
            title="Figure 10: query time, backbone variants vs BBS",
        ),
    )
    return data


def test_fig10_aggressive_variants_beat_bbs(fig10_report):
    """Shape claim: each/normal variants are faster than BBS."""
    for (graph, variant, m), (approx, exact) in fig10_report.items():
        if variant == "backbone_none" or not approx or not exact:
            continue
        assert approx < exact, (graph, variant, m, approx, exact)


def test_fig10_none_variant_is_slowest_backbone(fig10_report):
    """Shape claim: backbone_none queries cost at least as much as the
    aggressive variants on average (its G_L is the largest)."""
    import statistics

    by_variant: dict[str, list[float]] = {}
    for (graph, variant, m), (approx, _exact) in fig10_report.items():
        by_variant.setdefault(variant, []).append(approx)
    none_mean = statistics.mean(by_variant["backbone_none"])
    other_mean = statistics.mean(
        by_variant["backbone_each"] + by_variant["backbone_normal"]
    )
    assert none_mean >= 0.5 * other_mean


def test_fig10_flat_vs_python(ny_small, workload_seed):
    """Kernel A/B: production BBS (flat CSR kernel) vs the reference loop.

    Independent of the quality grid (selectable with ``-k
    flat_vs_python``) so CI's perf-smoke job can run it alone.  Both
    answer the same workload; answers must be bit-identical and the
    production mean strictly lower — the flat kernel earns its keep or
    the build fails.  The telemetry keeps its historical keys:
    ``python`` is the reference loop (:mod:`repro.qa.reference`),
    ``flat`` the production kernel.
    """
    import statistics
    import time

    from repro.accel.csr import CSRSnapshot
    from repro.eval import fmt_seconds, format_table, random_queries
    from repro.qa import reference
    from repro.search import skyline_paths

    queries = random_queries(ny_small, 6, seed=workload_seed, min_hops=10)
    snapshot = CSRSnapshot.from_graph(ny_small)
    searches = {
        "python": lambda s, t: reference.skyline_paths(ny_small, s, t),
        "flat": lambda s, t: skyline_paths(ny_small, s, t, snapshot=snapshot),
    }

    def run(name):
        times, answers = [], []
        for query in queries:
            started = time.perf_counter()
            result = searches[name](query.source, query.target)
            times.append(time.perf_counter() - started)
            answers.append([(p.nodes, p.cost) for p in result.paths])
        return times, answers

    run("python")
    run("flat")  # warm-up: memoized views, module imports
    python_times: list[float] = []
    flat_times: list[float] = []
    for _ in range(3):
        tp, ap = run("python")
        tf, af = run("flat")
        assert ap == af, "production kernel diverged from the reference"
        python_times.extend(tp)
        flat_times.extend(tf)

    python_mean = statistics.mean(python_times)
    flat_mean = statistics.mean(flat_times)
    rows = [
        ["reference", fmt_seconds(python_mean), fmt_seconds(max(python_times)),
         "1.0x"],
        [
            "production",
            fmt_seconds(flat_mean),
            fmt_seconds(max(flat_times)),
            f"{python_mean / flat_mean:.2f}x",
        ],
    ]
    report(
        "fig10_flat_vs_python",
        format_table(
            ["search", "mean query", "max query", "speed-up"],
            rows,
            title="Figure 10 extension: flat CSR kernel vs reference BBS",
        ),
    )
    record_telemetry(
        "bench_fig10_query_time",
        flat_vs_python={
            "queries": len(queries),
            "rounds": 3,
            "python_mean_seconds": python_mean,
            "flat_mean_seconds": flat_mean,
            "speedup": python_mean / flat_mean,
            "identical_answers": True,
        },
    )
    assert flat_mean < python_mean, (
        f"flat kernel must beat the reference: "
        f"{flat_mean:.4f}s >= {python_mean:.4f}s"
    )


def test_fig10_batch_vs_python(ny_large, workload_seed):
    """Kernel A/B: the fused serving-batch kernel vs per-query serving.

    Independent of the quality grid (selectable with ``-k
    batch_vs_python``) so CI's perf-smoke job can run it alone.  Three
    searches answer the same C9_NY~1200 workload: the reference loop
    (``python``), the per-query production kernel (``flat``), and one
    :func:`~repro.accel.batch_kernel.fused_skyline_batch` call serving
    the whole workload as a serving batch.  Rounds interleave them so
    machine drift hits all equally.  Fused answers must be
    answer-set-equal to the reference (the fused kernel's contract —
    the workload's continuous costs make that plain equality of sorted
    (cost, nodes) lists), and the fused mean must beat the reference —
    the parity floor; the measured series in ``BENCH_batch.json`` is
    the reference.
    """
    import statistics
    import time

    from repro.accel.batch_kernel import fused_skyline_batch
    from repro.accel.csr import CSRSnapshot
    from repro.eval import fmt_seconds, format_table, random_queries
    from repro.qa import reference
    from repro.search import skyline_paths

    queries = random_queries(ny_large, 6, seed=workload_seed, min_hops=10)
    base_pairs = [(q.source, q.target) for q in queries]
    snapshot = CSRSnapshot.from_graph(ny_large)
    searches = {
        "python": lambda s, t: reference.skyline_paths(ny_large, s, t),
        "flat": lambda s, t: skyline_paths(ny_large, s, t, snapshot=snapshot),
    }

    def answers(results):
        return [sorted((p.cost, p.nodes) for p in r.paths) for r in results]

    def measure(pairs, rounds):
        def run_per_query(name):
            started = time.perf_counter()
            results = [searches[name](source, target) for source, target in pairs]
            return time.perf_counter() - started, results

        def run_fused():
            started = time.perf_counter()
            results = fused_skyline_batch(ny_large, snapshot, pairs)
            return time.perf_counter() - started, results

        # Warm-up (memoized CSR views, imports) doubles as the
        # equality check: every search must return the same answers.
        _, python_results = run_per_query("python")
        _, flat_results = run_per_query("flat")
        _, fused_results = run_fused()
        assert answers(flat_results) == answers(python_results)
        assert answers(fused_results) == answers(python_results)

        times: dict[str, list[float]] = {"python": [], "flat": [], "fused": []}
        for _ in range(rounds):
            for name in ("python", "flat"):
                elapsed, _ = run_per_query(name)
                times[name].append(elapsed)
            elapsed, _ = run_fused()
            times["fused"].append(elapsed)
        means = {
            name: statistics.mean(series) for name, series in times.items()
        }
        fused_expansions = sum(r.stats.expansions for r in fused_results)
        telemetry = {
            "graph": "C9_NY~1200",
            "queries": len(pairs),
            "rounds": rounds,
            "fused_expansions": fused_expansions,
            "fused_expansions_per_second": fused_expansions / means["fused"],
            "python_mean_seconds": means["python"],
            "flat_mean_seconds": means["flat"],
            "fused_mean_seconds": means["fused"],
            "fused_best_seconds": min(times["fused"]),
            "flat_speedup": means["python"] / means["flat"],
            "fused_speedup": means["python"] / means["fused"],
            "fused_best_speedup": min(times["python"]) / min(times["fused"]),
            "answer_set_equal": True,
        }
        return means, times, telemetry

    # Q=6: the fig10 workload itself.  Q=24: the same pairs served as
    # one (repeating) serving batch — the shape execute_batch fuses —
    # where the shared traversal amortizes further.
    means6, times6, tel6 = measure(base_pairs, rounds=5)
    means24, times24, tel24 = measure(base_pairs * 4, rounds=3)

    rows = []
    for scale, means, times in (
        ("Q=6", means6, times6),
        ("Q=24", means24, times24),
    ):
        for name, label in (
            ("python", "reference"), ("flat", "flat"), ("fused", "fused"),
        ):
            rows.append(
                [
                    scale,
                    label,
                    fmt_seconds(means[name]),
                    fmt_seconds(min(times[name])),
                    f"{means['python'] / means[name]:.2f}x",
                ]
            )
    report(
        "fig10_batch_vs_python",
        format_table(
            ["workload", "search", "mean", "best", "speed-up"],
            rows,
            title=(
                "Figure 10 extension: fused serving-batch kernel vs "
                "per-query searches"
            ),
        ),
    )
    record_telemetry(
        "batch",
        fused_vs_python=tel6,
        fused_vs_python_q24=tel24,
    )
    assert means6["fused"] < means6["python"], (
        f"fused batch kernel must beat the reference: "
        f"{means6['fused']:.4f}s >= {means6['python']:.4f}s"
    )
    assert means24["fused"] < means24["python"]


def test_fig10_fuse_crossover(workload_seed, monkeypatch):
    """Where fusing pays: fused vs per-query flat ``execute_batch``.

    Selectable with ``-k fuse_crossover``.  On C9_NY stand-ins of 150,
    250, 400 and 1,200 nodes, 64 exact pairs with path hops in [10, 40] (the
    serving benchmark's exact-batch band) are served in batches of 8
    through a warm engine (exact bounds over its CSR snapshot, as
    served), once with every batch
    fused and once with every query on the flat kernel (the module's
    ``FUSE_NODE_CROSSOVER`` forced each way), in alternating rounds.
    The per-size times land in ``BENCH_batch.json`` under
    ``fuse_crossover``; they are what the crossover constant of
    :mod:`repro.service.engine` quotes.  Answers must agree as sets.
    """
    import statistics
    import time

    from benchmarks.conftest import SCALED_M_MIN, SCALED_P, scaled_m
    from repro.core import BackboneParams
    from repro.datasets import load_subgraph
    from repro.eval import fmt_seconds, format_table
    from repro.eval.queries import hop_stratified_queries
    from repro.service import SkylineQueryEngine, execute_batch
    from repro.service import engine as engine_module

    params = BackboneParams(
        m_max=scaled_m(400), m_min=SCALED_M_MIN, p=SCALED_P
    )
    rounds = 4
    series = {}
    rows = []
    for size in (150, 250, 400, 1200):
        graph = load_subgraph("C9_NY", size)
        pairs = [
            (q.source, q.target)
            for q in hop_stratified_queries(
                graph, [(64, 10, 40)], seed=workload_seed
            )
        ]
        engine = SkylineQueryEngine(graph, params=params, cache_size=0)
        engine.warm()

        def serve(crossover):
            monkeypatch.setattr(engine_module, "FUSE_NODE_CROSSOVER", crossover)
            started = time.perf_counter()
            answers = []
            for i in range(0, len(pairs), 8):
                outcome = execute_batch(
                    engine, pairs[i:i + 8], mode="exact", max_workers=1
                )
                answers += [
                    sorted((p.cost, p.nodes) for p in r.paths)
                    for r in outcome.responses
                ]
            return time.perf_counter() - started, answers

        _, flat_answers = serve(size + 1)  # warm-up and equality check
        _, fused_answers = serve(0)
        assert fused_answers == flat_answers
        times = {"flat": [], "fused": []}
        for _ in range(rounds):
            times["flat"].append(serve(size + 1)[0])
            times["fused"].append(serve(0)[0])
        flat_mean = statistics.mean(times["flat"])
        fused_mean = statistics.mean(times["fused"])
        series[f"n{size}"] = {
            "nodes": graph.num_nodes,
            "pairs": len(pairs),
            "path_hops": [10, 40],
            "batch_size": 8,
            "rounds": rounds,
            "flat_mean_seconds": flat_mean,
            "fused_mean_seconds": fused_mean,
            "flat_seconds": times["flat"],
            "fused_seconds": times["fused"],
            "fused_speedup": flat_mean / fused_mean,
            "fused_wins": sum(
                f < p for f, p in zip(times["fused"], times["flat"])
            ),
        }
        rows.append([
            graph.num_nodes,
            fmt_seconds(flat_mean),
            fmt_seconds(fused_mean),
            f"{flat_mean / fused_mean:.2f}x",
            f"{series[f'n{size}']['fused_wins']}/{rounds}",
        ])
    report(
        "fig10_fuse_crossover",
        format_table(
            ["nodes", "per-query flat", "fused", "fused speed-up",
             "fused wins"],
            rows,
            title="execute_batch of 8 exact pairs: fused vs per-query flat",
        ),
    )
    record_telemetry("batch", fuse_crossover=series)


def test_fig10_bbs_benchmark(benchmark, fig10_report, ny_small):
    """Times the exact BBS baseline on one mid-length query."""
    from repro.eval import random_queries
    from repro.search import skyline_paths

    [query] = random_queries(ny_small, 1, seed=8, min_hops=10)
    result = benchmark.pedantic(
        lambda: skyline_paths(ny_small, query.source, query.target),
        rounds=3,
        iterations=1,
    )
    assert result.paths

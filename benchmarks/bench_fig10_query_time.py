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

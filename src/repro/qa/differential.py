"""The differential runner: every answer path, cross-checked.

For each seeded case the runner answers every workload query through
every serving variant and checks them against each other and against
the exact BBS oracle:

===============  ====================================================
variant          what it exercises
===============  ====================================================
``exact``        reference BBS with exact reverse-Dijkstra bounds
                 (the oracle)
``backbone``     :func:`repro.core.query.backbone_query` on a fresh
                 index
``store_eager``  the same index after a binary-store round trip
``store_lazy``   ditto, with label levels faulted in on first access
``engine``       the cached service engine (uncached run, cache-fill
                 run, and cache-hit run)
``maintained``   the index after the case's update script replayed
                 through :class:`~repro.core.maintenance
                 .MaintainableIndex`, re-checked against a fresh exact
                 oracle on the updated network
===============  ====================================================

On top of these, :data:`CONTRACTS` declares what each production path
owes the reference oracle of :mod:`repro.qa.reference`, and the runner
checks every row on every case.

Hard invariants (any violation is a discrepancy): path validity and
correct pricing in the graph served, mutual non-dominance, dominance
consistency with the exact skyline, RAC within the configured bound,
and bit-identical answers wherever two variants must agree (cache vs.
uncached, store round trips vs. fresh).  Metamorphic relations from
:mod:`repro.qa.metamorphic` run per case as well.

The runner is instrumented with :mod:`repro.obs` — each case runs in a
``qa.case`` span counting queries, variants, and discrepancies — and
reports findings as data so the CLI, CI smoke job, and the shrinker
can all consume them.
"""

from __future__ import annotations

import tempfile
from collections.abc import Iterable, Sequence
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path as FilePath

from repro.core.builder import build_backbone_index
from repro.core.index import BackboneIndex
from repro.core.maintenance import MaintainableIndex
from repro.core.query import backbone_query
from repro.obs.tracer import Tracer, resolve_tracer
from repro.paths.path import Path
from repro.qa import metamorphic, reference
from repro.qa.invariants import (
    approximation_errors,
    identical_answer_errors,
    index_identity_errors,
    non_dominance_errors,
    path_errors,
)
from repro.qa.workload import (
    CaseSpec,
    QACase,
    apply_updates,
    build_case,
    qa_params,
)
from repro.search.bbs import SearchStats, skyline_paths
from repro.search.mbbs import Seed, many_to_many_skyline
from repro.search.onetoall import one_to_all_skyline
from repro.service.engine import SkylineQueryEngine

# What each production path owes the reference oracle: "identical" is
# the same paths in the same order with the same search counters.
# Production m_BBS takes no bound, so its row compares against the
# reference run with bounds=None.  The "maintained" row is checked
# per case, not per query: after each of the case's cost bumps, the
# maintained index must be the fresh production build of the updated
# network (repro.qa.invariants.index_identity_errors).
CONTRACTS = {
    "bbs": "identical",  # repro.search.bbs.skyline_paths
    "mbbs": "identical",  # repro.search.mbbs.many_to_many_skyline
    "onetoall": "identical",  # repro.search.onetoall.one_to_all_skyline
    "build": "identical",  # repro.core.builder.build_backbone_index
    "maintained": "identical",  # repro.core.maintenance.update_edge_cost
}
# Rows checked once per case; every other row is checked per query.
_CASE_CONTRACTS = {"maintained"}
_QUERY_CONTRACTS = sum(1 for name in CONTRACTS if name not in _CASE_CONTRACTS)


@dataclass(frozen=True)
class QAConfig:
    """What the differential runner checks and how strictly."""

    # Quality tripwire, not a guarantee: per-query RAC on these small
    # aggressive-parameter networks peaks around 12 empirically (a lone
    # cheap exact path the summarized labels miss); 16 flags genuine
    # quality regressions without tripping on known approximation loss.
    rac_bound: float = 16.0
    check_store: bool = True
    check_engine: bool = True
    check_updates: bool = True
    check_metamorphic: bool = True
    # The CONTRACTS table: reference oracle vs production.
    check_contracts: bool = True
    # Corridor-tier differential (off by default: the dedicated
    # quality tripwire in repro.qa.quality is the deep check; this
    # variant just keeps the serving path honest inside the battery).
    check_corridor: bool = False
    metamorphic_queries: int = 2
    cache_size: int = 64


@dataclass(frozen=True)
class Discrepancy:
    """One confirmed cross-check violation."""

    seed: int
    check: str
    variant: str
    query: tuple[int, int] | None
    detail: str

    def __str__(self) -> str:
        where = f" query={self.query}" if self.query else ""
        return (
            f"seed {self.seed} [{self.check}/{self.variant}]{where}: "
            f"{self.detail}"
        )


@dataclass
class CaseReport:
    """Everything one case produced."""

    spec: CaseSpec
    discrepancies: list[Discrepancy] = field(default_factory=list)
    queries_checked: int = 0
    variants_checked: int = 0
    updates_applied: int = 0

    @property
    def ok(self) -> bool:
        return not self.discrepancies


@dataclass
class FuzzReport:
    """Aggregate over a fuzz run."""

    cases: list[CaseReport] = field(default_factory=list)

    @property
    def discrepancies(self) -> list[Discrepancy]:
        return [d for case in self.cases for d in case.discrepancies]

    @property
    def ok(self) -> bool:
        return all(case.ok for case in self.cases)


def _check_answer_set(
    report: CaseReport,
    *,
    variant: str,
    graph,
    query: tuple[int, int],
    paths: Sequence[Path],
    exact: Sequence[Path] | None,
    rac_bound: float | None,
    expand=None,
) -> None:
    """Run the per-variant hard invariants on one answer set.

    ``expand`` is the owning index's ``expand_path`` for variants whose
    answers may traverse aggressive-summarization shortcuts; the
    abstract cost must then be achievable along the *expanded* walk.
    """
    seed = report.spec.seed
    source, target = query
    problems: list[tuple[str, str]] = []
    for path in paths:
        walk = path
        if expand is not None and not path.is_trivial():
            try:
                walk = Path(expand(path).nodes, path.cost)
            except Exception as error:
                problems.append(
                    ("validity", f"expansion of {path} failed: {error}")
                )
                continue
        for problem in path_errors(graph, walk, source=source, target=target):
            problems.append(("validity", problem))
    for problem in non_dominance_errors(paths):
        problems.append(("non_dominance", problem))
    if exact is not None:
        for problem in approximation_errors(paths, exact, rac_bound=rac_bound):
            problems.append(("dominance_consistency", problem))
    for check, detail in problems:
        report.discrepancies.append(
            Discrepancy(seed, check, variant, query, detail)
        )
    report.variants_checked += 1


def _counter_errors(reference_stats, production_stats) -> list[str]:
    """Search-counter mismatches (timing excluded) between two runs."""
    ours = reference_stats.as_span_counters()
    ours["timed_out"] = reference_stats.timed_out
    theirs = production_stats.as_span_counters()
    theirs["timed_out"] = production_stats.timed_out
    return [
        f"counter {name}: reference {ours[name]} vs production "
        f"{theirs[name]}"
        for name in ours
        if ours[name] != theirs[name]
    ]


def _hit_rows(result) -> list:
    """m_BBS hits flattened in iteration order (order-sensitive)."""
    return [
        (node, [(cost, payload, path.nodes, path.cost)
                for cost, (payload, path) in pareto])
        for node, pareto in result.hits.items()
    ]


class _ContractChecks:
    """One case's :data:`CONTRACTS` rows.

    Holds what the rows share across queries: one CSR snapshot for the
    production kernels and one reference build.
    """

    def __init__(self, graph, params, queries, production_index) -> None:
        from repro.accel.csr import CSRSnapshot

        self.graph = graph
        self.queries = queries
        self.production_index = production_index
        self.snapshot = CSRSnapshot.from_graph(graph)
        self.reference_index = reference.build_backbone_index(graph, params)

    def build_stat_errors(self) -> list[str]:
        """Per-level construction statistics must match exactly."""
        ours = self.reference_index.build_stats.levels
        theirs = self.production_index.build_stats.levels
        if len(ours) != len(theirs):
            return [f"level count: reference {len(ours)} vs {len(theirs)}"]
        return [
            f"level {a.level}: reference {a} vs production {b}"
            for a, b in zip(ours, theirs)
            if a != b
        ]

    def maintained_errors(self, params, updates) -> list[str]:
        """Replay the case's cost bumps on a fresh maintainer; after
        each, the maintained index must equal a fresh build."""
        maintainer = MaintainableIndex(self.graph, params)
        problems: list[str] = []
        for step, op in enumerate(updates):
            if op[0] != "bump":
                continue
            apply_updates(maintainer, [op])
            fresh = build_backbone_index(maintainer.graph, params)
            problems += [
                f"after bump {step} {op[1:]}: {detail}"
                for detail in index_identity_errors(fresh, maintainer.index)
            ]
        return problems

    def query_errors(self, position: int, oracle, backbone_answer):
        """Yield ``(contract, detail)`` for one case query.

        ``oracle`` is the reference BBS result, ``backbone_answer`` the
        production index's answer to the same query.
        """
        graph, snapshot = self.graph, self.snapshot
        source, target = self.queries[position]

        bbs = skyline_paths(graph, source, target, snapshot=snapshot)
        for detail in identical_answer_errors(
            "reference", oracle.paths, "production", bbs.paths
        ) + _counter_errors(oracle.stats, bbs.stats):
            yield "bbs", detail

        # m_BBS with two seeds (one carrying a non-zero cost) and the
        # target plus its neighbors as destinations.
        seeds = [Seed(source, (0.0,) * graph.dim, payload="source")]
        for neighbor in graph.sorted_neighbors(source)[:1]:
            seeds.append(
                Seed(neighbor, graph.edge_costs(source, neighbor)[0],
                     payload="neighbor")
            )
        targets = [target] + [
            node for node in graph.sorted_neighbors(target)[:2]
            if node != target
        ]
        ours = reference.many_to_many_skyline(graph, seeds, targets)
        theirs = many_to_many_skyline(
            graph, seeds, targets, snapshot=snapshot
        )
        if _hit_rows(ours) != _hit_rows(theirs):
            yield "mbbs", "hits differ from the reference"
        for detail in _counter_errors(ours.stats, theirs.stats):
            yield "mbbs", detail

        ours_stats, theirs_stats = SearchStats(), SearchStats()
        ours = reference.one_to_all_skyline(graph, source, stats=ours_stats)
        theirs = one_to_all_skyline(
            graph, source, snapshot=snapshot, stats=theirs_stats
        )
        if list(ours) != list(theirs):
            yield "onetoall", (
                f"reached nodes differ: reference {len(ours)} vs "
                f"production {len(theirs)} (or their order)"
            )
        else:
            for node, paths in ours.items():
                for detail in identical_answer_errors(
                    "reference", paths, "production", theirs[node]
                ):
                    yield "onetoall", f"node {node}: {detail}"
        for detail in _counter_errors(ours_stats, theirs_stats):
            yield "onetoall", detail

        from_reference = backbone_query(
            self.reference_index, source, target
        ).paths
        for detail in identical_answer_errors(
            "reference_build", from_reference, "production_build",
            backbone_answer,
        ):
            yield "build", detail


def run_case(
    spec: CaseSpec,
    config: QAConfig | None = None,
    *,
    tracer: Tracer | None = None,
) -> CaseReport:
    """Run the full differential battery on one seeded case."""
    config = config if config is not None else QAConfig()
    tracer = resolve_tracer(tracer)
    report = CaseReport(spec=spec)
    with tracer.span(
        "qa.case", seed=spec.seed, style=spec.style, dim=spec.dim
    ) as span, ExitStack() as stack:
        case = build_case(spec)
        params = qa_params(spec)
        maintainer = MaintainableIndex(case.graph, params)
        graph = maintainer.graph
        index = maintainer.index

        loaded: dict[str, BackboneIndex] = {}
        if config.check_store:
            # The store file must outlive the query loop so the lazy
            # variant faults label levels in *during* querying.
            tmp = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-qa-")
            )
            store_path = FilePath(tmp) / "case.rbi"
            index.save(store_path)
            loaded["store_eager"] = BackboneIndex.load(
                store_path, graph, lazy=False
            )
            loaded["store_lazy"] = BackboneIndex.load(
                store_path, graph, lazy=True
            )

        engine = (
            SkylineQueryEngine(
                maintainer=maintainer, cache_size=config.cache_size
            )
            if config.check_engine
            else None
        )

        contracts = (
            _ContractChecks(graph, params, case.queries, index)
            if config.check_contracts
            else None
        )
        if contracts is not None:
            for name, details in (
                ("build", contracts.build_stat_errors()),
                ("maintained", contracts.maintained_errors(params, case.updates)),
            ):
                report.discrepancies += [
                    Discrepancy(
                        spec.seed, "contract_identical", name, None, detail
                    )
                    for detail in details
                ]
            report.variants_checked += len(_CASE_CONTRACTS)

        for position, query in enumerate(case.queries):
            source, target = query
            oracle = reference.skyline_paths(graph, source, target)
            exact = oracle.paths
            span.count("queries")
            report.queries_checked += 1
            _check_answer_set(
                report, variant="exact", graph=graph, query=query,
                paths=exact, exact=None, rac_bound=None,
            )

            fresh = backbone_query(index, source, target).paths
            _check_answer_set(
                report, variant="backbone", graph=graph, query=query,
                paths=fresh, exact=exact, rac_bound=config.rac_bound,
                expand=index.expand_path,
            )

            if contracts is not None:
                for name, detail in contracts.query_errors(
                    position, oracle, fresh
                ):
                    report.discrepancies.append(
                        Discrepancy(
                            spec.seed, f"contract_{CONTRACTS[name]}", name,
                            query, detail,
                        )
                    )
                report.variants_checked += _QUERY_CONTRACTS

            for name, store_index in loaded.items():
                round_tripped = backbone_query(
                    store_index, source, target
                ).paths
                _check_answer_set(
                    report, variant=name, graph=graph, query=query,
                    paths=round_tripped, exact=exact,
                    rac_bound=config.rac_bound, expand=store_index.expand_path,
                )
                for detail in identical_answer_errors(
                    "backbone", fresh, name, round_tripped
                ):
                    report.discrepancies.append(
                        Discrepancy(
                            spec.seed, "store_identity", name, query, detail
                        )
                    )

            if engine is not None:
                uncached = engine.query(
                    source, target, mode="approx", use_cache=False
                )
                first = engine.query(source, target, mode="approx")
                cached = engine.query(source, target, mode="approx")
                _check_answer_set(
                    report, variant="engine", graph=graph, query=query,
                    paths=first.paths, exact=exact,
                    rac_bound=config.rac_bound, expand=index.expand_path,
                )
                for label, other in (
                    ("engine_uncached", uncached.paths),
                    ("engine_cached", cached.paths),
                ):
                    for detail in identical_answer_errors(
                        "engine", first.paths, label, other
                    ):
                        report.discrepancies.append(
                            Discrepancy(
                                spec.seed, "cache_identity", label, query,
                                detail,
                            )
                        )
                if not cached.cache_hit:
                    report.discrepancies.append(
                        Discrepancy(
                            spec.seed, "cache_identity", "engine_cached",
                            query, "repeat query was not served from cache",
                        )
                    )
                if config.check_corridor:
                    # Corridor answers are real original-graph paths
                    # (no expansion) and must stay dominance-consistent
                    # with the exact oracle like any approximation.
                    corridor = engine.query(source, target, mode="corridor")
                    _check_answer_set(
                        report, variant="engine_corridor", graph=graph,
                        query=query, paths=corridor.paths, exact=exact,
                        rac_bound=config.rac_bound,
                    )

        if config.check_updates and case.updates:
            report.updates_applied = apply_updates(maintainer, case.updates)
            if report.updates_applied:
                span.count("updates", report.updates_applied)
                updated = maintainer.graph
                for query in case.queries:
                    source, target = query
                    if not (
                        updated.has_node(source) and updated.has_node(target)
                    ):
                        continue
                    exact = reference.skyline_paths(
                        updated, source, target
                    ).paths
                    maintained = backbone_query(
                        maintainer.index, source, target
                    ).paths
                    _check_answer_set(
                        report, variant="maintained", graph=updated,
                        query=query, paths=maintained, exact=exact,
                        rac_bound=config.rac_bound,
                        expand=maintainer.index.expand_path,
                    )
                    if engine is not None:
                        served = engine.query(source, target, mode="approx")
                        _check_answer_set(
                            report, variant="engine_maintained",
                            graph=updated, query=query, paths=served.paths,
                            exact=exact, rac_bound=config.rac_bound,
                            expand=maintainer.index.expand_path,
                        )
                        if served.generation != maintainer.generation:
                            report.discrepancies.append(
                                Discrepancy(
                                    spec.seed, "invalidation",
                                    "engine_maintained", query,
                                    f"served generation {served.generation} "
                                    f"behind index generation "
                                    f"{maintainer.generation}",
                                )
                            )

        if config.check_metamorphic:
            base = case.graph
            for query in case.queries:
                for detail in metamorphic.swap_errors(base, *query):
                    report.discrepancies.append(
                        Discrepancy(
                            spec.seed, "metamorphic", "swap", query, detail
                        )
                    )
            subset = case.queries[: config.metamorphic_queries]
            for check, problems in (
                ("permutation",
                 metamorphic.permutation_errors(base, params, subset)),
                ("scaling",
                 metamorphic.scaling_errors(base, params, subset)),
            ):
                for detail in problems:
                    report.discrepancies.append(
                        Discrepancy(
                            spec.seed, "metamorphic", check, None, detail
                        )
                    )

        if span.enabled:
            span.set(
                discrepancies=len(report.discrepancies),
                queries=report.queries_checked,
                updates=report.updates_applied,
            )
        span.count("discrepancies", len(report.discrepancies))
    return report


def fuzz(
    seeds: Iterable[int],
    config: QAConfig | None = None,
    *,
    n_nodes: int = 70,
    n_queries: int = 5,
    n_updates: int = 3,
    tracer: Tracer | None = None,
    on_case=None,
) -> FuzzReport:
    """Run the differential battery over a seed range.

    ``on_case`` is an optional callback invoked with each finished
    :class:`CaseReport` (the CLI uses it for progress output).
    """
    config = config if config is not None else QAConfig()
    tracer = resolve_tracer(tracer)
    fuzz_report = FuzzReport()
    with tracer.span("qa.fuzz") as span:
        for seed in seeds:
            spec = CaseSpec.from_seed(
                seed,
                n_nodes=n_nodes,
                n_queries=n_queries,
                n_updates=n_updates,
            )
            case_report = run_case(spec, config, tracer=tracer)
            fuzz_report.cases.append(case_report)
            if on_case is not None:
                on_case(case_report)
        if span.enabled:
            span.set(
                cases=len(fuzz_report.cases),
                discrepancies=len(fuzz_report.discrepancies),
            )
    return fuzz_report

"""Concurrent-maintenance-under-load checking for multi-process serving.

The differential battery (:mod:`repro.qa.differential`) proves each
serving variant agrees with exact BBS on a *quiet* network.  This
module attacks the one failure mode unique to :mod:`repro.mp`: a
worker reading the shared CSR snapshot while maintenance swaps
generations underneath it — a torn read would surface as a response
whose answer matches *no* generation of the network.

The harness runs one :class:`~repro.mp.dispatcher.MPBatchServer` over a
seeded case while a background thread replays the case's structural
update script against the server's maintainer.  A second, identical
*twin* maintainer is kept one step ahead: before each op lands on the
live network, the same op is applied to the twin and the expected
answer of every workload query is computed there through an identical
single-process engine.  Every mp response is then checked
**bit-identically** against the expected answers of the generation it
is stamped with:

* a torn read produces an answer set matching no generation → caught;
* a stale cohort serving past its retirement still matches its own
  stamped generation → correct by construction, and the stamp proves
  the dispatcher never mixed generations within a batch;
* a worker error or missing response is its own discrepancy.

Reports reuse the differential shapes (:class:`CaseReport`,
:class:`FuzzReport`), so the CLI and CI render mp fuzz results exactly
like differential ones.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.core.maintenance import MaintainableIndex
from repro.obs.tracer import Tracer, resolve_tracer
from repro.qa.differential import CaseReport, Discrepancy, FuzzReport
from repro.qa.invariants import identical_answer_errors
from repro.qa.workload import CaseSpec, apply_updates, build_case, qa_params
from repro.service.engine import SkylineQueryEngine


@dataclass(frozen=True)
class MPLoadConfig:
    """Shape of one concurrent-maintenance load case."""

    workers: int = 2
    batches_per_generation: int = 2
    # Seconds the updater sleeps between ops so batches land on every
    # generation, not just the last one.
    update_pause: float = 0.05
    mode: str = "auto"


def _answer_signature(engine: SkylineQueryEngine, queries, mode: str):
    """Expected answers of every query at the engine's generation."""
    return {
        query: engine.query(query[0], query[1], mode=mode).paths
        for query in queries
    }


def run_mp_case(
    spec: CaseSpec,
    config: MPLoadConfig | None = None,
    *,
    tracer: Tracer | None = None,
) -> CaseReport:
    """Serve one seeded case through mp workers under live maintenance."""
    from repro.mp.dispatcher import MPBatchServer

    config = config if config is not None else MPLoadConfig()
    tracer = resolve_tracer(tracer)
    report = CaseReport(spec=spec)
    with tracer.span(
        "qa.mp_case", seed=spec.seed, workers=config.workers
    ) as span:
        case = build_case(spec)
        twin_case = build_case(spec)  # deterministic: identical network
        params = qa_params(spec)
        live = MaintainableIndex(case.graph, params)
        twin = MaintainableIndex(twin_case.graph, params)
        # cache_size=0: expected answers must come from a fresh search
        # at each generation, never a stale cached one.
        oracle = SkylineQueryEngine(maintainer=twin, cache_size=0)

        # Keep only queries whose endpoints survive the whole script
        # (build_case shields endpoints from delete_node, but a replay
        # keeps this harness honest if that invariant ever changes).
        survivors = set(twin_case.graph.nodes())
        for op in case.updates:
            if op[0] == "delete_node":
                survivors.discard(op[1])
        queries = [
            q for q in case.queries
            if q[0] in survivors and q[1] in survivors and q[0] != q[1]
        ]
        if not queries:
            return report

        # expected[generation][query] — written by the updater thread
        # strictly before the live maintainer reaches that generation,
        # so any generation a response can be stamped with is covered.
        expected = {0: _answer_signature(oracle, queries, config.mode)}

        def updater():
            for op in case.updates:
                time.sleep(config.update_pause)
                applied = apply_updates(twin, [op])
                if not applied:
                    continue
                expected[twin.generation] = _answer_signature(
                    oracle, queries, config.mode
                )
                apply_updates(live, [op])
                report.updates_applied += 1

        with MPBatchServer(maintainer=live, workers=config.workers) as server:
            thread = threading.Thread(target=updater, daemon=True)
            thread.start()
            done = False
            while not done:
                done = not thread.is_alive()
                for _ in range(config.batches_per_generation):
                    result = server.submit(queries, mode=config.mode)
                    report.queries_checked += len(queries)
                    span.count("queries", len(queries))
                    for error in result.errors:
                        report.discrepancies.append(
                            Discrepancy(
                                spec.seed, "mp_error", "worker",
                                (error.source, error.targets[0]),
                                error.detail,
                            )
                        )
                    for query, response in zip(queries, result.responses):
                        if response is None:
                            continue  # already reported via errors
                        generation = response.generation
                        baseline = expected.get(generation)
                        if baseline is None:
                            report.discrepancies.append(
                                Discrepancy(
                                    spec.seed, "mp_generation", "dispatcher",
                                    query,
                                    f"response stamped with unpublished "
                                    f"generation {generation}",
                                )
                            )
                            continue
                        for detail in identical_answer_errors(
                            f"expected@g{generation}", baseline[query],
                            "mp", response.paths,
                        ):
                            report.discrepancies.append(
                                Discrepancy(
                                    spec.seed, "mp_identity",
                                    f"gen{generation}", query, detail,
                                )
                            )
                        report.variants_checked += 1
            thread.join()
            # One final batch after the last swap settles, so the
            # terminal generation is always exercised.
            final = server.submit(queries, mode=config.mode)
            report.queries_checked += len(queries)
            for query, response in zip(queries, final.responses):
                if response is None or response.generation != live.generation:
                    report.discrepancies.append(
                        Discrepancy(
                            spec.seed, "mp_generation", "dispatcher", query,
                            f"final batch served generation "
                            f"{None if response is None else response.generation}"
                            f" behind maintainer {live.generation}",
                        )
                    )
                    continue
                for detail in identical_answer_errors(
                    f"expected@g{response.generation}",
                    expected[response.generation][query],
                    "mp", response.paths,
                ):
                    report.discrepancies.append(
                        Discrepancy(
                            spec.seed, "mp_identity",
                            f"gen{response.generation}", query, detail,
                        )
                    )
                report.variants_checked += 1

        if span.enabled:
            span.set(
                discrepancies=len(report.discrepancies),
                queries=report.queries_checked,
                updates=report.updates_applied,
            )
        span.count("discrepancies", len(report.discrepancies))
    return report


def fuzz_mp(
    seeds,
    config: MPLoadConfig | None = None,
    *,
    n_nodes: int = 70,
    n_queries: int = 5,
    n_updates: int = 3,
    tracer: Tracer | None = None,
    on_case=None,
) -> FuzzReport:
    """Run the mp load battery over a seed range."""
    config = config if config is not None else MPLoadConfig()
    tracer = resolve_tracer(tracer)
    fuzz_report = FuzzReport()
    with tracer.span("qa.mp_fuzz") as span:
        for seed in seeds:
            spec = CaseSpec.from_seed(
                seed,
                n_nodes=n_nodes,
                n_queries=n_queries,
                n_updates=n_updates,
            )
            case_report = run_mp_case(spec, config, tracer=tracer)
            fuzz_report.cases.append(case_report)
            if on_case is not None:
                on_case(case_report)
        if span.enabled:
            span.set(
                cases=len(fuzz_report.cases),
                discrepancies=len(fuzz_report.discrepancies),
            )
    return fuzz_report

"""m_BBS — many-to-many skyline search over the abstracted graph.

The backbone query algorithm ends with partial paths from the source
reaching several nodes of the most abstracted graph G_L
(``S_possible``) and partial paths from the target reaching several
others (``D_possible``).  The paper's m_BBS (Section 5) modifies BBS to
accept *multiple* seeded sources and estimate lower bounds "to all the
possible destinations (not one destination)", so a single run replaces
one BBS run per (source, target) pair.

Each seed carries the cost of the partial path that reached it and a
payload identifying that partial path; result labels inherit the
payload, letting the caller stitch the full approximate path back
together.  The search runs on the flat CSR kernel; its dict-based
reference loop lives in :mod:`repro.qa.reference`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.graph.mcrn import MultiCostGraph
from repro.obs.tracer import Tracer, resolve_tracer
from repro.paths.dominance import CostVector
from repro.paths.frontier import ParetoSet
from repro.search.bbs import SearchStats


@dataclass(frozen=True)
class Seed:
    """One starting point for the many-to-many search."""

    node: int
    cost: CostVector
    payload: object = None


@dataclass
class ManyToManyResult:
    """Skyline labels per reached target node.

    ``hits[t]`` is a Pareto set keyed by total cost (seed cost plus
    cost through the searched graph); payloads are ``(seed_payload,
    path_in_graph)`` pairs.
    """

    hits: dict[int, ParetoSet] = field(default_factory=dict)
    stats: SearchStats = field(default_factory=SearchStats)


def many_to_many_skyline(
    graph: MultiCostGraph,
    seeds: Iterable[Seed],
    targets: Sequence[int],
    *,
    time_budget: float | None = None,
    tracer: Tracer | None = None,
    snapshot=None,
) -> ManyToManyResult:
    """Run one best-first skyline search from many seeds to many targets.

    The search runs without a lower bound.  It has no result-dominance
    test: it keeps expanding through reached targets and never compares
    a label with the hits found so far, so the paper's finite bound
    estimates only reorder its heap and never prune a label.  The
    paper's bound, node restriction and expansion cap stay in the
    reference loop (:func:`repro.qa.reference.many_to_many_skyline`),
    whose unbounded run this search matches bit for bit.  ``tracer``
    wraps the search in one ``search.mbbs`` span carrying the
    :class:`~repro.search.bbs.SearchStats` counters.  The search runs
    the flat CSR kernel (:func:`repro.accel.bbs_kernel.flat_many_to_many`)
    over ``snapshot``, built on demand when None, exactly as in
    :func:`repro.search.bbs.skyline_paths`.
    """
    from repro.accel.bbs_kernel import flat_many_to_many

    seed_list = list(seeds)
    tracer = resolve_tracer(tracer)
    if snapshot is None:
        from repro.accel.csr import CSRSnapshot

        snapshot = CSRSnapshot.from_graph(graph, tracer=tracer)
    with tracer.span(
        "search.mbbs", seeds=len(seed_list), targets=len(targets)
    ) as span:
        result = flat_many_to_many(
            graph, snapshot, seed_list, targets, time_budget=time_budget
        )
        if span.enabled:
            span.counters.update(result.stats.as_span_counters())
            span.set(
                reached_targets=len(result.hits),
                timed_out=result.stats.timed_out,
            )
    return result

"""BBS — the exact Baseline Best-first Search for skyline path queries.

This is the paper's exact comparator (Section 6.1): the route-skyline
method of Kriegel et al. [29], sped up by seeding the result set with
the shortest path on each single dimension [45].  The search grows
partial paths best-first (ordered by the scalarized optimistic cost),
maintains a Pareto frontier of labels per node, and prunes a partial
path when its optimistic completion — accumulated cost plus a
per-dimension lower bound to the target — is already strictly dominated
by a found result.

Exactness: with admissible (never over-estimating) lower bounds every
pruned label can only extend into dominated paths, so the surviving
result set is exactly the skyline.  Equal-cost path multiplicity is
bounded per node (see :mod:`repro.search.labels`).

The search runs on the flat CSR kernel of :mod:`repro.accel.bbs_kernel`;
the plain dict-based loop it is held bit-identical to lives in
:mod:`repro.qa.reference`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import NodeNotFoundError, QueryError
from repro.graph.mcrn import MultiCostGraph
from repro.obs.tracer import Tracer, resolve_tracer
from repro.paths.frontier import PathSet
from repro.paths.path import Path


@dataclass
class SearchStats:
    """Counters describing one skyline search run."""

    expansions: int = 0
    pushes: int = 0
    pruned_by_frontier: int = 0
    pruned_by_bound: int = 0
    pruned_by_result: int = 0
    pruned_by_corridor: int = 0
    dominance_checks: int = 0
    max_heap_size: int = 0
    frontier_nodes: int = 0
    elapsed_seconds: float = 0.0
    timed_out: bool = False

    def as_span_counters(self) -> dict[str, float]:
        """The integer counters, keyed for span/metrics attachment."""
        return {
            "expansions": self.expansions,
            "pushes": self.pushes,
            "pruned_by_frontier": self.pruned_by_frontier,
            "pruned_by_bound": self.pruned_by_bound,
            "pruned_by_result": self.pruned_by_result,
            "pruned_by_corridor": self.pruned_by_corridor,
            "dominance_checks": self.dominance_checks,
            "max_heap_size": self.max_heap_size,
            "frontier_nodes": self.frontier_nodes,
        }


@dataclass
class SkylineResult:
    """The outcome of a skyline path search."""

    paths: list[Path] = field(default_factory=list)
    stats: SearchStats = field(default_factory=SearchStats)

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)


def restriction_mask(restrict_to, snapshot) -> list[bool]:
    """A dense boolean node mask over ``snapshot`` for a restriction.

    Objects exposing ``mask_for`` (e.g.
    :class:`repro.approx.corridor.Corridor`) supply their own memoized
    mask; any other node collection is materialized here.  Restriction
    members absent from the snapshot are ignored — they cannot be
    reached anyway.
    """
    mask_for = getattr(restrict_to, "mask_for", None)
    if mask_for is not None:
        return mask_for(snapshot)
    return snapshot.node_mask(restrict_to)


def skyline_paths(
    graph: MultiCostGraph,
    source: int,
    target: int,
    *,
    seed_with_shortest_paths: bool = True,
    time_budget: float | None = None,
    tracer: Tracer | None = None,
    snapshot=None,
    restrict_to=None,
    seed_paths=None,
) -> SkylineResult:
    """Exact skyline paths from ``source`` to ``target`` (Definition 3.2).

    The search prunes with exact reverse-Dijkstra bounds to the
    target over the snapshot (the strongest admissible choice) and
    reads its seeds off the same bound matrix.

    Parameters
    ----------
    seed_with_shortest_paths:
        Initialize the result set with each dimension's shortest path —
        the cold-start fix of [45] adopted by the paper's BBS.
    restrict_to:
        Optional node-set restriction: expansion never pushes a
        neighbor outside it (anything supporting ``in``, e.g. a set of
        node ids or a :class:`repro.approx.corridor.Corridor`).  The
        restriction must contain ``target`` (and normally ``source``)
        to produce any result; within the restricted subgraph the
        search stays exact.  Bounds and seeds are both computed inside
        the restriction (plus ``source``), so every returned path lies
        in it.
    seed_paths:
        Extra paths pre-loaded into the result skyline (e.g. a
        corridor's unpacked backbone answer).  Each must be a real
        source-to-target path with an achievable cost; dominated seeds
        are absorbed by the Pareto frontier.
    time_budget:
        Optional wall-clock limit in seconds.  On expiry the search
        stops and returns the results found so far with
        ``stats.timed_out`` set (mirroring the paper's 15-minute cap).
    tracer:
        Observability hook; defaults to the process-wide tracer.  When
        enabled the whole search runs inside one ``search.bbs`` span
        carrying the :class:`SearchStats` counters.
    snapshot:
        Pre-built :class:`~repro.accel.csr.CSRSnapshot` of ``graph``.
        The search runs the flat CSR kernel
        (:func:`repro.accel.bbs_kernel.flat_skyline_paths`) and builds
        a snapshot when none is given; callers that search one graph
        repeatedly should build it once and pass it.
    """
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    if not graph.has_node(target):
        raise NodeNotFoundError(target)
    if source == target:
        return SkylineResult(paths=[Path.trivial(source, graph.dim)])

    tracer = resolve_tracer(tracer)
    from repro.accel.bbs_kernel import flat_skyline_paths

    if snapshot is None:
        from repro.accel.csr import CSRSnapshot

        snapshot = CSRSnapshot.from_graph(graph, tracer=tracer)
    with tracer.span(
        "search.bbs",
        source=source,
        target=target,
        restricted=restrict_to is not None,
    ) as span:
        result = flat_skyline_paths(
            snapshot,
            source,
            target,
            seed_with_shortest_paths=seed_with_shortest_paths,
            time_budget=time_budget,
            node_mask=(
                restriction_mask(restrict_to, snapshot)
                if restrict_to is not None
                else None
            ),
            seed_paths=seed_paths,
        )
        if span.enabled:
            span.counters.update(result.stats.as_span_counters())
            span.set(
                paths=len(result.paths), timed_out=result.stats.timed_out
            )
    return result


def brute_force_skyline(
    graph: MultiCostGraph,
    source: int,
    target: int,
    *,
    max_length: int | None = None,
) -> list[Path]:
    """Skyline by exhaustive simple-path enumeration (testing oracle).

    Exponential; only usable on tiny graphs.  ``max_length`` optionally
    caps the number of edges per enumerated path.
    """
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    if not graph.has_node(target):
        raise NodeNotFoundError(target)
    if source == target:
        return [Path.trivial(source, graph.dim)]
    if graph.num_nodes > 64:
        raise QueryError(
            "brute_force_skyline is a testing oracle for tiny graphs "
            f"(got {graph.num_nodes} nodes)"
        )
    results = PathSet()
    limit = max_length if max_length is not None else graph.num_nodes

    def extend(nodes: list[int], cost: tuple[float, ...], visited: set[int]) -> None:
        head = nodes[-1]
        if head == target:
            results.add(Path(nodes, cost))
            return
        if len(nodes) - 1 >= limit:
            return
        for neighbor in graph.neighbors(head):
            if neighbor in visited:
                continue
            for edge_cost in graph.edge_costs(head, neighbor):
                visited.add(neighbor)
                nodes.append(neighbor)
                extend(nodes, tuple(c + w for c, w in zip(cost, edge_cost)), visited)
                nodes.pop()
                visited.remove(neighbor)

    extend([source], (0.0,) * graph.dim, {source})
    return results.paths()

"""Flat BBS / m_BBS hot loops over CSR snapshots.

These are the production BBS and m_BBS kernels behind
:mod:`repro.search.bbs` and :mod:`repro.search.mbbs`: the label-setting
searches of the reference oracle (:mod:`repro.qa.reference`) with the
dict machinery swapped for flat, slot-indexed state:

* neighbor iteration walks CSR slot ranges — one list index per slot
  replaces the adjacency-dict and parallel-edge-dict lookups;
* BBS lower bounds come from a dense ``(n, dim)`` matrix built once
  per search (:mod:`repro.accel.bounds`, array Dijkstra) and flattened
  to per-node tuples, so the two bound probes per label (push and pop)
  are list indexing instead of per-dimension dict probes; the same
  matrix yields the per-dimension shortest-path seeds;
* the BBS result-set dominance prune runs as an inlined early-exit
  loop with a 2-D fast path, and labels are only allocated for
  candidates that survive every prune;
* m_BBS has neither: it runs without a bound (see
  :func:`repro.search.mbbs.many_to_many_skyline`).

NumPy is deliberately kept *out* of the per-expansion path: road
networks average 2–3 outgoing slots per node, and dispatching array
operations on batches that small costs more than the python loop it
replaces (measured on the benchmark workloads).  The arrays earn their
keep building the bound matrices, where the batch is the whole node
set.

Bit-identity with the reference is a hard requirement (enforced by
``repro.qa`` and the property tests): candidate costs are produced by
the same IEEE additions in the same association order, heap keys use the
builtin left-to-right ``sum``, and push order matches because both
expand neighbors in ascending id order with parallel slots in
the graph's canonical cost order.  Identical push order means identical
tie-breaker sequences, so even equal-cost label races resolve the same
way.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections.abc import Sequence

from repro.accel.bounds import exact_bound_matrix, seed_paths_from_bounds
from repro.accel.csr import CSRSnapshot
from repro.errors import NodeNotFoundError
from repro.graph.mcrn import MultiCostGraph
from repro.paths.dominance import dominates_or_equal
from repro.paths.frontier import ParetoSet, PathSet
from repro.paths.path import Path
from repro.search.labels import Label, NodeFrontier

_INF = float("inf")


def _bound_rows(bound_mat) -> list[tuple[float, ...]]:
    """Flatten a dense bound matrix into per-node python tuples."""
    return [tuple(row) for row in bound_mat.tolist()]


def _to_original_path(label: Label, node_ids: list[int]) -> Path:
    """Materialize a dense-id label chain as an original-id path."""
    nodes = []
    walker: Label | None = label
    while walker is not None:
        nodes.append(node_ids[walker.node])
        walker = walker.parent
    nodes.reverse()
    return Path(nodes, label.cost)


def flat_skyline_paths(
    snapshot: CSRSnapshot,
    source: int,
    target: int,
    *,
    seed_with_shortest_paths: bool = True,
    time_budget: float | None = None,
    node_mask: Sequence[bool] | None = None,
    seed_paths=None,
):
    """Exact BBS over the snapshot; mirrors the reference's BBS loop.

    The caller (:func:`repro.search.bbs.skyline_paths`) has already
    validated the endpoints and handled the trivial ``source == target``
    case.  ``node_mask`` is a dense boolean restriction over the
    snapshot's node space (corridor search); masked-out neighbors are
    skipped before any cost arithmetic — the same point the reference
    loop applies its membership check — so restricted runs stay
    bit-identical.  One exact reverse-Dijkstra matrix, taken inside the
    mask (the whole graph when unrestricted), supplies both the pruning
    bounds and the per-dimension shortest-path seeds, so the seeds stay
    inside the restriction too.
    """
    from repro.search.bbs import SearchStats, SkylineResult

    start_time = time.perf_counter()
    stats = SearchStats()
    if time_budget is not None and time_budget <= 0:
        stats.timed_out = True
        stats.elapsed_seconds = time.perf_counter() - start_time
        return SkylineResult(stats=stats)

    dim = snapshot.dim
    src = snapshot.dense_of(source)
    dst = snapshot.dense_of(target)
    # The restricted search enters only masked nodes (plus its source),
    # so reverse Dijkstra inside that set bounds it.
    bound_mask = node_mask
    if bound_mask is not None and not bound_mask[src]:
        bound_mask = list(bound_mask)
        bound_mask[src] = True
    bound_mat = exact_bound_matrix(snapshot, [dst], node_mask=bound_mask)
    bound_rows = _bound_rows(bound_mat)

    results = PathSet()
    # A target outside the restriction is unreachable for the search,
    # so it gets no seeds either.
    if seed_with_shortest_paths and (node_mask is None or node_mask[dst]):
        results.add_all(seed_paths_from_bounds(snapshot, bound_mat, src, dst))
    if seed_paths is not None:
        results.add_all(seed_paths)
    res_costs = results.costs()
    two_d = dim == 2
    three_d = dim == 3

    def res_dominates(projected: tuple[float, ...]) -> bool:
        # Same predicate as PathSet.dominates_candidate, inlined with
        # early-exit loops for the common road-network dimensionalities.
        if two_d:
            p0, p1 = projected
            for kept in res_costs:
                if kept[0] <= p0 and kept[1] <= p1:
                    return True
            return False
        if three_d:
            p0, p1, p2 = projected
            for kept in res_costs:
                if kept[0] <= p0 and kept[1] <= p1 and kept[2] <= p2:
                    return True
            return False
        return any(dominates_or_equal(kept, projected) for kept in res_costs)

    indptr, indices_list = snapshot.adjacency_lists()
    cost_tuples = snapshot.cost_tuples()
    node_ids = snapshot.node_ids.tolist()

    frontiers: dict[int, NodeFrontier] = {}
    tie_breaker = itertools.count()
    heap: list[tuple[float, int, Label]] = []

    # Source push (scalar mirror of the python push()).
    source_label = Label(src, (0.0,) * dim)
    source_projected = tuple(
        c + b for c, b in zip(source_label.cost, bound_rows[src])
    )
    if _INF in source_projected:
        stats.pruned_by_bound += 1
    else:
        stats.dominance_checks += 1
        if res_dominates(source_projected):
            stats.pruned_by_result += 1
        else:
            frontier = frontiers[src] = NodeFrontier()
            frontier.try_add(source_label.cost)
            stats.pushes += 1
            heapq.heappush(
                heap, (sum(source_projected), next(tie_breaker), source_label)
            )
            stats.max_heap_size = 1

    # Monotone loop counter for the budget gate: gating on
    # ``stats.expansions`` starves the check across long runs of stale
    # or pruned pops (they never increment expansions).  Mirrors the
    # reference loop; overshoot is bounded to 512 heap pops.
    loop_count = 0
    while heap:
        if loop_count & 511 == 0:
            if time_budget is not None and (
                time.perf_counter() - start_time > time_budget
            ):
                stats.timed_out = True
                break
        loop_count += 1

        _, _, label = heapq.heappop(heap)
        node = label.node
        if not frontiers[node].is_current(label.cost):
            continue  # evicted since push: stale heap entry
        lcost = label.cost
        brow = bound_rows[node]
        if two_d:
            projected = (lcost[0] + brow[0], lcost[1] + brow[1])
        elif three_d:
            projected = (
                lcost[0] + brow[0], lcost[1] + brow[1], lcost[2] + brow[2]
            )
        else:
            projected = tuple(c + b for c, b in zip(lcost, brow))
        stats.dominance_checks += 1
        if res_dominates(projected):
            stats.pruned_by_result += 1
            continue
        stats.expansions += 1

        if node == dst:
            if results.add(_to_original_path(label, node_ids)):
                res_costs = results.costs()
            continue

        for slot in range(indptr[node], indptr[node + 1]):
            neighbor = indices_list[slot]
            if node_mask is not None and not node_mask[neighbor]:
                stats.pruned_by_corridor += 1
                continue
            w = cost_tuples[slot]
            brow = bound_rows[neighbor]
            # Same association order as the reference: extend first,
            # then add the bound — (c + w) + b, bit for bit.
            if two_d:
                extended = (lcost[0] + w[0], lcost[1] + w[1])
                projected = (extended[0] + brow[0], extended[1] + brow[1])
            elif three_d:
                extended = (lcost[0] + w[0], lcost[1] + w[1], lcost[2] + w[2])
                projected = (
                    extended[0] + brow[0],
                    extended[1] + brow[1],
                    extended[2] + brow[2],
                )
            else:
                extended = tuple(c + e for c, e in zip(lcost, w))
                projected = tuple(c + b for c, b in zip(extended, brow))
            if _INF in projected:
                stats.pruned_by_bound += 1
                continue
            stats.dominance_checks += 1
            if res_dominates(projected):
                stats.pruned_by_result += 1
                continue
            frontier = frontiers.get(neighbor)
            if frontier is None:
                frontier = frontiers[neighbor] = NodeFrontier()
            if not frontier.try_add(extended):
                stats.pruned_by_frontier += 1
                continue
            stats.pushes += 1
            heapq.heappush(
                heap,
                (
                    sum(projected),
                    next(tie_breaker),
                    Label(neighbor, extended, parent=label),
                ),
            )
            if len(heap) > stats.max_heap_size:
                stats.max_heap_size = len(heap)

    stats.elapsed_seconds = time.perf_counter() - start_time
    stats.frontier_nodes = len(frontiers)
    return SkylineResult(paths=results.paths(), stats=stats)


def flat_many_to_many(
    graph: MultiCostGraph,
    snapshot: CSRSnapshot,
    seeds: Sequence,
    targets: Sequence[int],
    *,
    time_budget: float | None = None,
):
    """m_BBS over the snapshot; mirrors the reference's unbounded run.

    No bound, node restriction or expansion cap: the reference loop
    with ``bounds=None`` adds a zero bound, which changes no cost and
    no heap key, so labels are pushed at ``sum(cost)`` and the two
    runs stay bit-identical.
    """
    from repro.search.bbs import SearchStats
    from repro.search.mbbs import ManyToManyResult, Seed

    target_set = set(targets)
    for node in target_set:
        if not graph.has_node(node):
            raise NodeNotFoundError(node)

    start_time = time.perf_counter()
    stats = SearchStats()
    result = ManyToManyResult(stats=stats)
    if time_budget is not None and time_budget <= 0:
        stats.timed_out = True
        stats.elapsed_seconds = time.perf_counter() - start_time
        return result

    indptr, indices_list = snapshot.adjacency_lists()
    cost_tuples = snapshot.cost_tuples()
    node_ids = snapshot.node_ids.tolist()
    dense_targets = {snapshot.dense_of(node) for node in target_set}
    dim = snapshot.dim
    two_d = dim == 2
    three_d = dim == 3

    frontiers: dict[int, NodeFrontier] = {}
    tie_breaker = itertools.count()
    heap: list[tuple[float, int, Label]] = []

    for seed in seeds:
        if not graph.has_node(seed.node):
            raise NodeNotFoundError(seed.node)
        label = Label(
            snapshot.dense_of(seed.node), tuple(seed.cost), seed=seed
        )
        frontier = frontiers.get(label.node)
        if frontier is None:
            frontier = frontiers[label.node] = NodeFrontier()
        if not frontier.try_add(label.cost):
            stats.pruned_by_frontier += 1
            continue
        stats.pushes += 1
        heapq.heappush(heap, (sum(label.cost), next(tie_breaker), label))
        if len(heap) > stats.max_heap_size:
            stats.max_heap_size = len(heap)

    # Monotone loop counter for the budget gate (see flat_skyline_paths).
    loop_count = 0
    while heap:
        if time_budget is not None and loop_count & 511 == 0:
            if time.perf_counter() - start_time > time_budget:
                stats.timed_out = True
                break
        loop_count += 1

        _, _, label = heapq.heappop(heap)
        node = label.node
        if not frontiers[node].is_current(label.cost):
            continue
        stats.expansions += 1

        if node in dense_targets:
            seed: Seed = label.seed  # type: ignore[assignment]
            original = node_ids[node]
            hits = result.hits.get(original)
            if hits is None:
                hits = result.hits[original] = ParetoSet(keep_equal_costs=True)
            hits.add(
                label.cost,
                (seed.payload, _label_to_local_path(label, seed, node_ids)),
            )
            # Targets are ordinary nodes; keep expanding through them.

        lcost = label.cost
        for slot in range(indptr[node], indptr[node + 1]):
            neighbor = indices_list[slot]
            w = cost_tuples[slot]
            if two_d:
                extended = (lcost[0] + w[0], lcost[1] + w[1])
            elif three_d:
                extended = (lcost[0] + w[0], lcost[1] + w[1], lcost[2] + w[2])
            else:
                extended = tuple(c + e for c, e in zip(lcost, w))
            frontier = frontiers.get(neighbor)
            if frontier is None:
                frontier = frontiers[neighbor] = NodeFrontier()
            if not frontier.try_add(extended):
                stats.pruned_by_frontier += 1
                continue
            stats.pushes += 1
            heapq.heappush(
                heap,
                (
                    sum(extended),
                    next(tie_breaker),
                    Label(neighbor, extended, parent=label),
                ),
            )
            if len(heap) > stats.max_heap_size:
                stats.max_heap_size = len(heap)

    stats.elapsed_seconds = time.perf_counter() - start_time
    stats.frontier_nodes = len(frontiers)
    return result


def _label_to_local_path(label: Label, seed, node_ids: list[int]) -> Path:
    """The path through the searched graph only (seed cost stripped)."""
    nodes = []
    walker: Label | None = label
    while walker is not None:
        nodes.append(node_ids[walker.node])
        walker = walker.parent
    nodes.reverse()
    local_cost = tuple(c - s for c, s in zip(label.cost, seed.cost))
    # Guard against float drift producing tiny negative components.
    return Path(nodes, tuple(max(c, 0.0) for c in local_cost))

"""Flat one-to-all skyline search over CSR snapshots.

One label-correcting search from a single source to every reachable
node, run over the snapshot's python list mirrors.  Statement for
statement it is the reference search of
:func:`repro.qa.reference.one_to_all_skyline` — CSR slot order equals
``sorted_neighbors`` × canonical parallel-cost order, so pushes,
tie-breaker draws, and therefore every answer, witness, and counter are
bit-identical; only the constant factors change.

:func:`flat_label_rows` is the construction-side specialization: all
of one condensed cluster's label rows in one call, with the per-call
scaffolding stripped and the dominance tests specialized by dimension.
A binding ``max_frontier`` cap is an order-dependent
under-approximation, identical across both formulations because their
orders are.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections.abc import Iterable

from repro.accel.bbs_kernel import _to_original_path
from repro.accel.csr import CSRSnapshot
from repro.errors import NodeNotFoundError
from repro.paths.dominance import dominates, dominates_or_equal
from repro.paths.path import Path
from repro.search.labels import Label, NodeFrontier


def flat_one_to_all(
    snapshot: CSRSnapshot,
    source: int,
    *,
    targets: Iterable[int] | None = None,
    max_frontier: int | None = None,
    time_budget: float | None = None,
    stats=None,
) -> dict[int, list[Path]]:
    """One-to-all skyline paths over a snapshot (see module docstring).

    ``source``/``targets`` are original node ids; the result maps
    original node ids to skyline paths exactly like
    :func:`repro.search.onetoall.one_to_all_skyline`.  ``stats``, when
    given, is a :class:`repro.search.bbs.SearchStats` filled in place.
    """
    from repro.search.bbs import SearchStats

    if stats is None:
        stats = SearchStats()
    start_time = time.perf_counter()
    src = snapshot.dense_of(source)
    wanted = set(targets) if targets is not None else None
    if time_budget is not None and time_budget <= 0:
        stats.timed_out = True
        stats.elapsed_seconds = time.perf_counter() - start_time
        return {}
    indptr, indices = snapshot.adjacency_lists()
    cost_rows = snapshot.cost_tuples()
    node_ids = snapshot.node_ids.tolist()

    frontiers: list[NodeFrontier | None] = [None] * snapshot.num_nodes
    best_labels: dict[int, list[Label]] = {}
    tie_breaker = itertools.count()
    heap: list[tuple[float, int, Label]] = []

    def push(label: Label) -> None:
        frontier = frontiers[label.node]
        if frontier is None:
            frontier = frontiers[label.node] = NodeFrontier()
        if max_frontier is not None and len(frontier) >= max_frontier:
            return
        if not frontier.try_add(label.cost):
            stats.pruned_by_frontier += 1
            return
        stats.pushes += 1
        heapq.heappush(heap, (sum(label.cost), next(tie_breaker), label))

    push(Label(src, (0.0,) * snapshot.dim))

    loop_count = 0
    while heap:
        if (
            time_budget is not None
            and loop_count & 511 == 0
            and time.perf_counter() - start_time > time_budget
        ):
            stats.timed_out = True
            break
        loop_count += 1
        _, _, label = heapq.heappop(heap)
        frontier = frontiers[label.node]
        if not frontier.is_current(label.cost):
            continue
        stats.expansions += 1
        kept = best_labels.setdefault(label.node, [])
        kept[:] = [old for old in kept if frontier.is_current(old.cost)]
        kept.append(label)
        cost = label.cost
        for k in range(indptr[label.node], indptr[label.node + 1]):
            extended = tuple(c + w for c, w in zip(cost, cost_rows[k]))
            push(Label(indices[k], extended, parent=label))
        if len(heap) > stats.max_heap_size:
            stats.max_heap_size = len(heap)

    stats.frontier_nodes = sum(1 for f in frontiers if f is not None)
    stats.elapsed_seconds = time.perf_counter() - start_time
    # Surviving labels, in first-pop node order.
    result: dict[int, list[Path]] = {}
    for node, labels in best_labels.items():
        original = node_ids[node]
        if wanted is not None and original not in wanted:
            continue
        paths = [
            _to_original_path(label, node_ids)
            for label in labels
            if frontiers[node].is_current(label.cost)
        ]
        if paths:
            result[original] = paths
    return result


def flat_label_rows(
    snapshot: CSRSnapshot,
    cluster_nodes: set[int],
    entrances: Iterable[int],
    max_frontier: int | None = None,
) -> list[tuple[int, int, Path]]:
    """All cluster-label rows for one condensed cluster, fused.

    Runs the search once per entrance (in sorted order) over one
    shared snapshot and emits ``(node, entrance, path)`` rows with the
    path already reversed into label orientation (node -> entrance).
    Row content and order are bit-identical to calling
    :func:`flat_one_to_all` per entrance and reversing each returned
    path — this is the same search with the
    per-call scaffolding (stats, budget checks, forward-path
    materialization) stripped out and the dominance tests specialized
    by dimension.  Entrances missing from the snapshot are skipped,
    mirroring the scalar pipeline's ``has_node`` guard.
    """
    indptr, indices = snapshot.adjacency_lists()
    cost_rows = snapshot.cost_tuples()
    node_ids = snapshot.node_ids.tolist()
    n = snapshot.num_nodes
    dim = snapshot.dim
    heappush, heappop = heapq.heappush, heapq.heappop
    rows: list[tuple[int, int, Path]] = []

    for entrance in sorted(entrances):
        try:
            src = snapshot.dense_of(entrance)
        except NodeNotFoundError:
            continue
        # Per-node frontier = plain list of current cost tuples; the
        # admission/eviction discipline is NodeFrontier.try_add verbatim.
        fronts: list[list[tuple[float, ...]] | None] = [None] * n
        best: dict[int, list[tuple]] = {}
        heap: list[tuple[float, int, tuple]] = []
        tie = 0

        root_front = fronts[src] = []
        if max_frontier is None or len(root_front) < max_frontier:
            root_cost = (0.0,) * dim
            root_front.append(root_cost)
            heap.append((0.0, tie, (src, root_cost, None)))
            tie += 1

        while heap:
            _, _, label = heappop(heap)
            node = label[0]
            cost = label[1]
            fcosts = fronts[node]
            if cost not in fcosts:
                continue
            kept = best.get(node)
            if kept is None:
                kept = best[node] = []
            elif kept:
                kept[:] = [old for old in kept if old[1] in fcosts]
            kept.append(label)
            if dim == 3:
                c0, c1, c2 = cost
                for k in range(indptr[node], indptr[node + 1]):
                    w = cost_rows[k]
                    e0 = c0 + w[0]
                    e1 = c1 + w[1]
                    e2 = c2 + w[2]
                    neighbor = indices[k]
                    nf = fronts[neighbor]
                    if nf is None:
                        nf = fronts[neighbor] = []
                    if max_frontier is not None and len(nf) >= max_frontier:
                        continue
                    rejected = False
                    for kc in nf:
                        if kc[0] <= e0 and kc[1] <= e1 and kc[2] <= e2:
                            rejected = True
                            break
                    if rejected:
                        continue
                    ext = (e0, e1, e2)
                    if nf:
                        nf[:] = [
                            kc
                            for kc in nf
                            if not (
                                e0 <= kc[0]
                                and e1 <= kc[1]
                                and e2 <= kc[2]
                                and (e0 < kc[0] or e1 < kc[1] or e2 < kc[2])
                            )
                        ]
                    nf.append(ext)
                    heappush(heap, (e0 + e1 + e2, tie, (neighbor, ext, label)))
                    tie += 1
            elif dim == 2:
                c0, c1 = cost
                for k in range(indptr[node], indptr[node + 1]):
                    w = cost_rows[k]
                    e0 = c0 + w[0]
                    e1 = c1 + w[1]
                    neighbor = indices[k]
                    nf = fronts[neighbor]
                    if nf is None:
                        nf = fronts[neighbor] = []
                    if max_frontier is not None and len(nf) >= max_frontier:
                        continue
                    rejected = False
                    for kc in nf:
                        if kc[0] <= e0 and kc[1] <= e1:
                            rejected = True
                            break
                    if rejected:
                        continue
                    ext = (e0, e1)
                    if nf:
                        nf[:] = [
                            kc
                            for kc in nf
                            if not (
                                e0 <= kc[0]
                                and e1 <= kc[1]
                                and (e0 < kc[0] or e1 < kc[1])
                            )
                        ]
                    nf.append(ext)
                    heappush(heap, (e0 + e1, tie, (neighbor, ext, label)))
                    tie += 1
            else:
                for k in range(indptr[node], indptr[node + 1]):
                    ext = tuple(c + w for c, w in zip(cost, cost_rows[k]))
                    neighbor = indices[k]
                    nf = fronts[neighbor]
                    if nf is None:
                        nf = fronts[neighbor] = []
                    if max_frontier is not None and len(nf) >= max_frontier:
                        continue
                    if any(dominates_or_equal(kc, ext) for kc in nf):
                        continue
                    if nf:
                        nf[:] = [kc for kc in nf if not dominates(ext, kc)]
                    nf.append(ext)
                    heappush(heap, (sum(ext), tie, (neighbor, ext, label)))
                    tie += 1

        for node, labels in best.items():
            original = node_ids[node]
            if original == entrance or original not in cluster_nodes:
                continue
            fcosts = fronts[node]
            for label in labels:
                cost = label[1]
                if cost not in fcosts:
                    continue
                chain: list[int] = []
                cursor = label
                while cursor is not None:
                    chain.append(node_ids[cursor[0]])
                    cursor = cursor[2]
                rows.append((original, entrance, Path(chain, cost)))
    return rows

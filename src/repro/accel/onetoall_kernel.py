"""Flat one-to-all skyline search over CSR snapshots.

One label-correcting sweep from a single source to every reachable
node, run over the snapshot's python list mirrors with the dominance
tests specialized by dimension.  Statement for statement it is the
reference search of :func:`repro.qa.reference.one_to_all_skyline` —
CSR slot order equals ``sorted_neighbors`` × canonical parallel-cost
order, so pushes, tie-breaker draws, and therefore every answer,
witness, and counter are bit-identical; only the constant factors
change.

Two callers share the sweep: :func:`flat_one_to_all` (one source,
optional ``targets`` filter, time budget and :class:`SearchStats`) and
:func:`flat_label_rows` (every entrance of one condensed cluster, rows
filtered to the cluster in label orientation).
"""

from __future__ import annotations

import heapq
import time
from collections.abc import Iterable

from repro.accel.csr import CSRSnapshot
from repro.errors import NodeNotFoundError
from repro.paths.dominance import dominates, dominates_or_equal
from repro.paths.path import Path


def _sweep(
    snapshot: CSRSnapshot,
    src: int,
    *,
    deadline: float | None = None,
    stats=None,
) -> tuple[dict[int, list[tuple]], list]:
    """Skyline labels from dense node ``src`` to every reachable node.

    A label is a ``(dense node, cost, parent label)`` tuple.  Returns
    ``(best, fronts)``: ``best`` maps each popped dense node, in
    first-pop order, to the labels it expanded; ``fronts[v]`` is the
    node's current frontier (a list of cost tuples, None when nothing
    was ever pushed there).  A label of ``best[v]`` is part of the
    answer iff its cost is still on ``fronts[v]``.  The admission and
    eviction discipline is :meth:`NodeFrontier.try_add
    <repro.search.labels.NodeFrontier.try_add>` verbatim.

    ``deadline`` (a ``time.perf_counter()`` instant) is read every 512
    heap pops; expiry stops the sweep and sets ``stats.timed_out``.
    The counters run in locals and land in ``stats`` (when given) once.
    """
    indptr, indices = snapshot.adjacency_lists()
    cost_rows = snapshot.cost_tuples()
    dim = snapshot.dim
    heappush, heappop = heapq.heappush, heapq.heappop
    fronts: list[list[tuple[float, ...]] | None] = [None] * snapshot.num_nodes
    best: dict[int, list[tuple]] = {}
    root_cost = (0.0,) * dim
    fronts[src] = [root_cost]
    heap: list[tuple[float, int, tuple]] = [(0.0, 0, (src, root_cost, None))]
    tie = 1
    pushes, pruned, expansions, max_heap, pops = 1, 0, 0, 0, 0
    timed_out = False

    while heap:
        if (
            deadline is not None
            and pops & 511 == 0
            and time.perf_counter() > deadline
        ):
            timed_out = True
            break
        pops += 1
        _, _, label = heappop(heap)
        node = label[0]
        cost = label[1]
        fcosts = fronts[node]
        if cost not in fcosts:
            continue
        expansions += 1
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
                rejected = False
                for kc in nf:
                    if kc[0] <= e0 and kc[1] <= e1 and kc[2] <= e2:
                        rejected = True
                        break
                if rejected:
                    pruned += 1
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
                # sum(), not e0 + e1 + e2: the reference's heap key.
                heappush(heap, (sum(ext), tie, (neighbor, ext, label)))
                tie += 1
                pushes += 1
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
                rejected = False
                for kc in nf:
                    if kc[0] <= e0 and kc[1] <= e1:
                        rejected = True
                        break
                if rejected:
                    pruned += 1
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
                pushes += 1
        else:
            for k in range(indptr[node], indptr[node + 1]):
                ext = tuple(c + w for c, w in zip(cost, cost_rows[k]))
                neighbor = indices[k]
                nf = fronts[neighbor]
                if nf is None:
                    nf = fronts[neighbor] = []
                if any(dominates_or_equal(kc, ext) for kc in nf):
                    pruned += 1
                    continue
                if nf:
                    nf[:] = [kc for kc in nf if not dominates(ext, kc)]
                nf.append(ext)
                heappush(heap, (sum(ext), tie, (neighbor, ext, label)))
                tie += 1
                pushes += 1
        if len(heap) > max_heap:
            max_heap = len(heap)

    if stats is not None:
        stats.pushes += pushes
        stats.pruned_by_frontier += pruned
        stats.expansions += expansions
        stats.max_heap_size = max(stats.max_heap_size, max_heap)
        stats.frontier_nodes = sum(1 for f in fronts if f is not None)
        if timed_out:
            stats.timed_out = True
    return best, fronts


def _chain(label: tuple, node_ids: list[int]) -> list[int]:
    """Original node ids from ``label`` back to the sweep's source."""
    chain: list[int] = []
    while label is not None:
        chain.append(node_ids[label[0]])
        label = label[2]
    return chain


def flat_one_to_all(
    snapshot: CSRSnapshot,
    source: int,
    *,
    targets: Iterable[int] | None = None,
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
    deadline = start_time + time_budget if time_budget is not None else None
    best, fronts = _sweep(snapshot, src, deadline=deadline, stats=stats)
    stats.elapsed_seconds = time.perf_counter() - start_time

    node_ids = snapshot.node_ids.tolist()
    result: dict[int, list[Path]] = {}
    for node, labels in best.items():
        original = node_ids[node]
        if wanted is not None and original not in wanted:
            continue
        fcosts = fronts[node]
        paths = [
            Path(_chain(label, node_ids)[::-1], label[1])
            for label in labels
            if label[1] in fcosts
        ]
        if paths:
            result[original] = paths
    return result


def flat_label_rows(
    snapshot: CSRSnapshot,
    cluster_nodes: set[int],
    entrances: Iterable[int],
) -> list[tuple[int, int, Path]]:
    """All cluster-label rows for one condensed cluster.

    Sweeps once per entrance (in sorted order) over one shared snapshot
    and emits ``(node, entrance, path)`` rows for the cluster's nodes,
    with the path in label orientation (node -> entrance).  Row content
    and order equal :func:`flat_one_to_all` per entrance with each
    returned path reversed.  Entrances missing from the snapshot are
    skipped, mirroring the reference pipeline's ``has_node`` guard.
    """
    node_ids = snapshot.node_ids.tolist()
    rows: list[tuple[int, int, Path]] = []
    for entrance in sorted(entrances):
        try:
            src = snapshot.dense_of(entrance)
        except NodeNotFoundError:
            continue
        best, fronts = _sweep(snapshot, src)
        for node, labels in best.items():
            original = node_ids[node]
            if original == entrance or original not in cluster_nodes:
                continue
            fcosts = fronts[node]
            for label in labels:
                if label[1] in fcosts:
                    path = Path(_chain(label, node_ids), label[1])
                    rows.append((original, entrance, path))
    return rows

"""The exact bound matrix: BBS's pruning bounds and its result seeds.

The production BBS (the flat kernel of :mod:`repro.accel.bbs_kernel`)
takes both of [45]'s aids from one place, a dense ``(n, dim)`` float64
matrix of exact per-dimension distances to the target:

* :func:`exact_bound_matrix` runs the per-dimension reverse Dijkstra
  directly over the CSR arrays (multi-source from the target set, which
  equals the per-target minimum), matching the reference provider
  :class:`~repro.qa.bounds.ExactBounds` bit for bit — Dijkstra
  distances are accumulation-order-deterministic and relaxing parallel
  slots independently equals relaxing their per-dimension minimum.
  Given a node mask it bounds within the masked subgraph (corridor
  search).
* :func:`seed_paths_from_bounds` reads each dimension's shortest path
  off the same matrix, the result set BBS starts from.
"""

from __future__ import annotations

from collections.abc import Sequence
from heapq import heappop, heappush

import numpy as np

from repro.accel.csr import CSRSnapshot
from repro.paths.path import Path

_INF = float("inf")


def csr_shortest_costs(
    snapshot: CSRSnapshot,
    sources: Sequence[int],
    dim_index: int,
    *,
    reverse: bool = False,
    node_mask: Sequence[bool] | None = None,
) -> list[float]:
    """Single-dimension (multi-source) Dijkstra over the CSR arrays.

    Returns a dense list of distances (``inf`` for unreachable nodes).
    Multi-source start gives the minimum distance from any source, which
    is exactly the per-target minimum a bound provider needs.  With a
    dense ``node_mask`` the search never enters a masked-out node, so
    distances are those of the masked subgraph (the sources themselves
    always start).
    """
    indptr, indices = snapshot.adjacency_lists(reverse=reverse)
    weights = snapshot.weight_lists(reverse=reverse)[dim_index]
    dist = [_INF] * snapshot.num_nodes
    heap: list[tuple[float, int]] = []
    for source in sources:
        if dist[source] > 0.0:
            dist[source] = 0.0
            heappush(heap, (0.0, source))
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue
        for k in range(indptr[u], indptr[u + 1]):
            v = indices[k]
            nd = d + weights[k]
            if nd < dist[v] and (node_mask is None or node_mask[v]):
                dist[v] = nd
                heappush(heap, (nd, v))
    return dist


def exact_bound_matrix(
    snapshot: CSRSnapshot,
    dense_targets: Sequence[int],
    *,
    node_mask: Sequence[bool] | None = None,
) -> np.ndarray:
    """Exact reverse-Dijkstra bounds to the nearest target, per dimension.

    ``node_mask`` confines the reverse searches to the nodes a
    restricted forward search may enter.  The bounds stay admissible
    for that search (it never leaves the mask), are at least as tight
    as full-graph bounds, and cost time proportional to the mask.
    """
    matrix = np.empty((snapshot.num_nodes, snapshot.dim), dtype=np.float64)
    for i in range(snapshot.dim):
        matrix[:, i] = csr_shortest_costs(
            snapshot, dense_targets, i, reverse=True, node_mask=node_mask
        )
    return matrix


def seed_paths_from_bounds(
    snapshot: CSRSnapshot,
    bound_matrix: np.ndarray,
    src: int,
    dst: int,
) -> list[Path]:
    """Each dimension's shortest ``src``-``dst`` path, read off exact bounds.

    ``bound_matrix[v, k]`` is the exact reverse-Dijkstra distance from
    dense node ``v`` to ``dst`` on dimension ``k`` (an
    :func:`exact_bound_matrix`, masked or not).  The matrix encodes
    every per-dimension shortest-path tree: from ``u`` the next hop on
    dimension ``k`` is the out-slot minimizing ``w_k + bound[v, k]``
    (Bellman optimality).  Slots are scanned in CSR order — neighbors
    ascending, parallel edges in the graph's canonical cost order — and
    the first minimum wins; :func:`repro.qa.reference.skyline_paths`
    walks its dict tables by the same rule, so both searches start from
    the same seeds.  A masked matrix is infinite outside its mask, so
    the walk never leaves it.

    Each walk reads one column as a flat python list, so a query
    allocates a handful of containers, not one per node.  Costs
    accumulate in walk order with the same float additions the search
    performs.  With positive costs the bound strictly decreases along
    the walk; a walk still short of ``dst`` after ``n`` hops (possible
    only around zero-cost cycles) is dropped, as is a dimension on
    which ``dst`` is unreachable.
    """
    indptr, indices = snapshot.adjacency_lists()
    weights = snapshot.weight_lists()
    cost_tuples = snapshot.cost_tuples()
    node_ids = snapshot.node_ids
    paths: list[Path] = []
    for k in range(snapshot.dim):
        if bound_matrix[src, k] == _INF:
            continue
        bound = bound_matrix[:, k].tolist()
        weight = weights[k]
        u = src
        walk = [src]
        total = (0.0,) * snapshot.dim
        for _ in range(snapshot.num_nodes):
            best, step = _INF, -1
            for slot in range(indptr[u], indptr[u + 1]):
                value = weight[slot] + bound[indices[slot]]
                if value < best:
                    best, step = value, slot
            if step < 0:
                break
            total = tuple(c + w for c, w in zip(total, cost_tuples[step]))
            u = indices[step]
            walk.append(u)
            if u == dst:
                paths.append(Path([int(node_ids[v]) for v in walk], total))
                break
    return paths

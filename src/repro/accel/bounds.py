"""Dense lower-bound matrices over CSR snapshots.

The reference loops probe a :class:`~repro.search.bounds.LowerBoundProvider`
per push; the flat kernel instead materializes one ``(n, dim)`` float64
matrix up front so every bound lookup is an indexed load.  Matrices hold
the exact same values the corresponding providers would return:

* :func:`exact_bound_matrix` runs the per-dimension reverse Dijkstra
  directly over the CSR arrays (multi-source from the target set, which
  equals the per-target minimum), matching
  :class:`~repro.search.bounds.ExactBounds` bit for bit — Dijkstra
  distances are accumulation-order-deterministic and relaxing parallel
  slots independently equals relaxing their per-dimension minimum.
  It is the bound of every exact search the engine serves; given a
  node mask it bounds within the masked subgraph (corridor search).
* :func:`landmark_bound_matrix` vectorizes the ALT triangle bound of
  :class:`~repro.search.landmark.LandmarkIndex` (abs/max/min are exact
  IEEE operations, so values again match the dict implementation).
* :func:`materialize_bound_matrix` dispatches any provider, falling back
  to one ``bound()`` probe per node for unknown provider types.
"""

from __future__ import annotations

from collections.abc import Sequence
from heapq import heappop, heappush

import numpy as np

from repro.accel.csr import CSRSnapshot
from repro.search.bounds import (
    LandmarkLowerBounds,
    LowerBoundProvider,
    ZeroBounds,
)
from repro.search.landmark import LandmarkIndex

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


def landmark_distance_arrays(
    index: LandmarkIndex, snapshot: CSRSnapshot
) -> np.ndarray:
    """The landmark tables as one ``(L, dim, n)`` array (``inf`` = missing)."""
    return index.to_arrays(snapshot.node_ids)


def landmark_bound_matrix(
    index: LandmarkIndex,
    snapshot: CSRSnapshot,
    dense_targets: Sequence[int],
) -> np.ndarray:
    """ALT triangle bounds to the nearest target, per dimension.

    Matches ``LandmarkIndex.lower_bound_to_any`` (and ``lower_bound``
    for a single target): landmarks missing either endpoint contribute
    nothing, a node that *is* a target gets a zero bound.
    """
    n = snapshot.num_nodes
    distances = landmark_distance_arrays(index, snapshot)  # (L, dim, n)
    best = np.full((n, snapshot.dim), _INF, dtype=np.float64)
    finite = np.isfinite(distances)
    for target in dense_targets:
        target_col = distances[:, :, target][:, :, None]  # (L, dim, 1)
        valid = finite & np.isfinite(target_col)
        with np.errstate(invalid="ignore"):
            raw = np.abs(distances - target_col)
        contrib = np.where(valid, raw, 0.0)
        if len(contrib):
            per_target = contrib.max(axis=0)  # (dim, n)
        else:
            per_target = np.zeros((snapshot.dim, n), dtype=np.float64)
        per_target[:, target] = 0.0
        np.minimum(best, per_target.T, out=best)
    # With at least one target every entry is finite; an empty target
    # set is a caller error the python provider also rejects.
    return best


def materialize_bound_matrix(
    provider: LowerBoundProvider, snapshot: CSRSnapshot
) -> np.ndarray:
    """One ``(n, dim)`` matrix holding ``provider.bound(node)`` per node."""
    if isinstance(provider, ZeroBounds):
        return np.zeros((snapshot.num_nodes, snapshot.dim), dtype=np.float64)
    if isinstance(provider, LandmarkLowerBounds):
        dense_targets = [snapshot.dense_of(t) for t in provider.targets]
        return landmark_bound_matrix(provider.index, snapshot, dense_targets)
    # ExactBounds and unknown providers: the tables are already paid
    # for, so one bound() probe per node is both cheap and guaranteed
    # to reproduce the provider's values exactly.
    matrix = np.empty((snapshot.num_nodes, snapshot.dim), dtype=np.float64)
    for dense, orig in enumerate(snapshot.node_ids.tolist()):
        matrix[dense] = provider.bound(orig)
    return matrix

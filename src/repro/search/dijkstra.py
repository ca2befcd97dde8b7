"""Single-dimension shortest-path search over multi-cost graphs.

Dijkstra's algorithm [15] applied to one cost dimension at a time.
These routines power the reference bound providers of
:mod:`repro.qa.bounds` (reverse searches and landmark distances) and
the paper's "path hop" statistic (average length of the per-dimension
shortest paths).  Production BBS reads its per-dimension shortest-path
seeds off its exact bound matrix instead
(:func:`repro.accel.bounds.seed_paths_from_bounds`).
"""

from __future__ import annotations

import heapq
from collections.abc import Container, Iterable

from repro.errors import NodeNotFoundError, QueryError
from repro.graph.mcrn import MultiCostGraph
from repro.paths.dominance import add_costs, zero_cost
from repro.paths.path import Path

_INF = float("inf")


def _relax_neighbors(graph: MultiCostGraph, node: int, reverse: bool) -> set[int]:
    if reverse and graph.directed:
        return graph.in_neighbors(node)
    return graph.neighbors(node)


def _edge_weight(
    graph: MultiCostGraph, u: int, v: int, dim_index: int, reverse: bool
) -> float:
    if reverse and graph.directed:
        costs = graph.edge_costs(v, u)
    else:
        costs = graph.edge_costs(u, v)
    return min(cost[dim_index] for cost in costs)


def shortest_costs(
    graph: MultiCostGraph,
    source: int,
    dim_index: int,
    *,
    targets: Iterable[int] | None = None,
    reverse: bool = False,
    within: Container[int] | None = None,
) -> dict[int, float]:
    """Shortest distance on one dimension from ``source`` to every node.

    With ``targets`` the search stops once all targets are settled.
    ``reverse`` searches along incoming arcs (useful for directed
    lower bounds); it is a no-op on undirected graphs.  ``within``
    confines the search to that node set (``source`` always starts).
    """
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    if not 0 <= dim_index < graph.dim:
        raise QueryError(f"dimension index {dim_index} out of range [0, {graph.dim})")
    remaining = set(targets) if targets is not None else None
    dist: dict[int, float] = {source: 0.0}
    settled: set[int] = set()
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if remaining is not None:
            remaining.discard(node)
            if not remaining:
                break
        for neighbor in _relax_neighbors(graph, node, reverse):
            weight = _edge_weight(graph, node, neighbor, dim_index, reverse)
            candidate = d + weight
            if candidate < dist.get(neighbor, _INF) and (
                within is None or neighbor in within
            ):
                dist[neighbor] = candidate
                heapq.heappush(heap, (candidate, neighbor))
    return dist


def shortest_path(
    graph: MultiCostGraph, source: int, target: int, dim_index: int
) -> Path | None:
    """The shortest path on one dimension, with its full cost vector.

    At every relaxation the parallel edge minimizing ``dim_index`` is
    used; the returned :class:`Path` carries the accumulated cost on
    *all* dimensions.  Returns None when target is unreachable.
    """
    if not graph.has_node(target):
        raise NodeNotFoundError(target)
    if source == target:
        return Path.trivial(source, graph.dim)
    dist: dict[int, float] = {source: 0.0}
    parent: dict[int, int] = {}
    settled: set[int] = set()
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node == target:
            break
        for neighbor in graph.neighbors(node):
            weight = _edge_weight(graph, node, neighbor, dim_index, reverse=False)
            candidate = d + weight
            if candidate < dist.get(neighbor, _INF):
                dist[neighbor] = candidate
                parent[neighbor] = node
                heapq.heappush(heap, (candidate, neighbor))
    if target not in settled:
        return None
    nodes = [target]
    while nodes[-1] != source:
        nodes.append(parent[nodes[-1]])
    nodes.reverse()
    cost = zero_cost(graph.dim)
    for u, v in zip(nodes, nodes[1:]):
        costs = graph.edge_costs(u, v)
        best = min(costs, key=lambda c: c[dim_index])
        cost = add_costs(cost, best)
    return Path(nodes, cost)


def per_dimension_shortest_paths(
    graph: MultiCostGraph, source: int, target: int
) -> list[Path]:
    """One shortest path per cost dimension (may contain duplicates)."""
    paths = []
    for dim_index in range(graph.dim):
        path = shortest_path(graph, source, target, dim_index)
        if path is not None:
            paths.append(path)
    return paths


def path_hops(graph: MultiCostGraph, source: int, target: int) -> float:
    """The paper's "path hop": mean length of per-dimension shortest paths.

    Returns ``inf`` when the target is unreachable.
    """
    paths = per_dimension_shortest_paths(graph, source, target)
    if not paths:
        return _INF
    return sum(path.length for path in paths) / len(paths)

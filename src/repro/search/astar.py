"""A* search [23] on one cost dimension of a multi-cost graph.

The classic goal-directed companion to Dijkstra (paper Section 2.2).
With an admissible heuristic — Euclidean distance for the spatial
dimension, or any per-node lower bound such as a landmark triangle
bound — A* settles far fewer nodes than Dijkstra on long queries.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable

from repro.errors import NodeNotFoundError, QueryError
from repro.graph.mcrn import MultiCostGraph
from repro.paths.dominance import add_costs, zero_cost
from repro.paths.path import Path

_INF = float("inf")

Heuristic = Callable[[int], float]


def euclidean_heuristic(graph: MultiCostGraph, target: int) -> Heuristic:
    """Straight-line distance to the target — admissible for the
    spatial dimension (dimension 0 of generated networks) whenever edge
    costs are at least the Euclidean distance between endpoints."""
    target_coord = graph.coord(target)
    if target_coord is None:
        raise QueryError(f"node {target} has no coordinate for the heuristic")

    def heuristic(node: int) -> float:
        coord = graph.coord(node)
        if coord is None:
            return 0.0
        return math.dist(coord, target_coord)

    return heuristic


def astar_path(
    graph: MultiCostGraph,
    source: int,
    target: int,
    dim_index: int,
    *,
    heuristic: Heuristic | None = None,
) -> tuple[Path | None, int]:
    """A* shortest path on one dimension, with its full cost vector.

    Returns ``(path, settled_count)``; the settled count is the
    efficiency measure A* is chosen for.  ``heuristic`` must never
    overestimate the remaining distance on ``dim_index``; ``None``
    degrades to Dijkstra (zero heuristic).
    """
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    if not graph.has_node(target):
        raise NodeNotFoundError(target)
    if not 0 <= dim_index < graph.dim:
        raise QueryError(f"dimension index {dim_index} out of range [0, {graph.dim})")
    if heuristic is None:
        heuristic = lambda node: 0.0  # noqa: E731 - intentional tiny lambda
    if source == target:
        return Path.trivial(source, graph.dim), 0

    dist: dict[int, float] = {source: 0.0}
    parent: dict[int, int] = {}
    settled: set[int] = set()
    heap: list[tuple[float, int]] = [(heuristic(source), source)]
    while heap:
        _, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node == target:
            break
        base = dist[node]
        for neighbor in graph.neighbors(node):
            weight = min(
                cost[dim_index] for cost in graph.edge_costs(node, neighbor)
            )
            candidate = base + weight
            if candidate < dist.get(neighbor, _INF):
                dist[neighbor] = candidate
                parent[neighbor] = node
                heapq.heappush(heap, (candidate + heuristic(neighbor), neighbor))

    if target not in settled:
        return None, len(settled)
    nodes = [target]
    while nodes[-1] != source:
        nodes.append(parent[nodes[-1]])
    nodes.reverse()
    cost = zero_cost(graph.dim)
    for u, v in zip(nodes, nodes[1:]):
        best = min(graph.edge_costs(u, v), key=lambda c: c[dim_index])
        cost = add_costs(cost, best)
    return Path(nodes, cost), len(settled)

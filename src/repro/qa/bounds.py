"""Lower-bound providers for the reference BBS and m_BBS.

Production bounds every exact search with the exact reverse-Dijkstra
matrix of :mod:`repro.accel.bounds` and takes no provider.  The
reference loops of :mod:`repro.qa.reference` keep a ``bounds=``
argument, and these providers are what it accepts:

* :class:`ExactBounds` — per-dimension reverse Dijkstra from the target
  (exact bound; the initialization strategy of [45]).  Its tables hold
  the production matrix's values bit for bit, and the reference reads
  its result seeds off them.
* :class:`LandmarkLowerBounds` — triangle-inequality bounds from a
  :class:`LandmarkIndex` [28, 29], the paper's choice for BBS.
* :class:`ZeroBounds` — no pruning information.

The bound ablation (``benchmarks/bench_ablation_bounds.py``) compares
the three.

A landmark index pre-computes, for a handful of landmark nodes, the
per-dimension shortest distances to every node.  The triangle
inequality then yields a per-dimension lower bound between any two
nodes::

    d_i(u, v) >= max_l |dist_i(l, u) - dist_i(l, v)|
"""

from __future__ import annotations

from collections.abc import Container, Sequence
from typing import Protocol

from repro.errors import BuildError, NodeNotFoundError
from repro.graph.mcrn import MultiCostGraph
from repro.obs.tracer import Tracer, resolve_tracer
from repro.paths.dominance import CostVector
from repro.search.dijkstra import shortest_costs

_INF = float("inf")


class LowerBoundProvider(Protocol):
    """Anything that can lower-bound the remaining cost to the target(s)."""

    def bound(self, node: int) -> CostVector:
        """Per-dimension lower bound from ``node`` to the target set."""
        ...


class ZeroBounds:
    """The trivial all-zero bound (disables cost-to-go pruning)."""

    def __init__(self, dim: int) -> None:
        self._zero = (0.0,) * dim

    def bound(self, node: int) -> CostVector:
        return self._zero


class ExactBounds:
    """Exact per-dimension bounds via reverse Dijkstra from the targets.

    For multiple targets the bound on each dimension is the minimum over
    targets — optimistic, as required.  Unreachable nodes get infinite
    bounds, which lets the search drop them immediately.  ``within``
    confines the reverse searches to the node set a restricted search
    may enter: still admissible for that search, and tighter.
    ``graph``, ``targets`` and ``within`` are kept so a caller can tell
    whether these tables are the ones it would build itself.
    """

    def __init__(
        self,
        graph: MultiCostGraph,
        targets: Sequence[int],
        *,
        within: Container[int] | None = None,
    ) -> None:
        self.graph = graph
        self.targets = tuple(targets)
        self.within = within
        self._dim = graph.dim
        tables: list[dict[int, float]] = [{} for _ in range(graph.dim)]
        for target in targets:
            for i in range(graph.dim):
                for node, dist in shortest_costs(
                    graph, target, i, reverse=True, within=within
                ).items():
                    best = tables[i].get(node, _INF)
                    if dist < best:
                        tables[i][node] = dist
        self._tables = tables

    def bound(self, node: int) -> CostVector:
        return tuple(table.get(node, _INF) for table in self._tables)


def select_landmarks(
    graph: MultiCostGraph, count: int, *, dim_index: int = 0
) -> list[int]:
    """Pick landmarks by the farthest-point heuristic on one dimension.

    The first landmark is the node farthest from an arbitrary start;
    each subsequent landmark maximizes the minimum distance to the
    landmarks chosen so far.  This spreads landmarks to the periphery,
    which is where they yield the tightest triangle bounds.
    """
    if graph.num_nodes == 0:
        raise BuildError("cannot select landmarks from an empty graph")
    count = min(count, graph.num_nodes)
    start = next(iter(graph.nodes()))
    dist = shortest_costs(graph, start, dim_index)
    first = max(dist, key=dist.__getitem__)
    landmarks = [first]
    min_dist = dict(shortest_costs(graph, first, dim_index))
    while len(landmarks) < count:
        candidates = {
            node: d for node, d in min_dist.items() if node not in landmarks
        }
        if not candidates:
            break
        nxt = max(candidates, key=candidates.__getitem__)
        landmarks.append(nxt)
        for node, d in shortest_costs(graph, nxt, dim_index).items():
            if d < min_dist.get(node, _INF):
                min_dist[node] = d
    return landmarks


class LandmarkIndex:
    """Per-dimension landmark distances with triangle lower bounds.

    Parameters
    ----------
    graph:
        The graph to index.
    count:
        Number of landmarks.  A handful (4-16) suffices.
    """

    def __init__(
        self,
        graph: MultiCostGraph,
        count: int = 8,
        *,
        tracer: Tracer | None = None,
    ) -> None:
        if count < 1:
            raise BuildError(f"landmark count must be >= 1, got {count}")
        self._dim = graph.dim
        tracer = resolve_tracer(tracer)
        with tracer.span(
            "landmark.build", requested=count, nodes=graph.num_nodes
        ) as span:
            with tracer.span("landmark.select"):
                self._landmarks = select_landmarks(graph, count)
            # _dist[l][i][node] = per-dimension distances from landmark l
            with tracer.span("landmark.distances"):
                self._dist: list[list[dict[int, float]]] = [
                    [shortest_costs(graph, landmark, i) for i in range(graph.dim)]
                    for landmark in self._landmarks
                ]
            if span.enabled:
                span.set(
                    landmarks=len(self._landmarks),
                    entries=self.size_entries(),
                )

    @property
    def landmarks(self) -> list[int]:
        """The selected landmark node ids."""
        return list(self._landmarks)

    @property
    def dim(self) -> int:
        """Number of cost dimensions covered."""
        return self._dim

    def lower_bound(self, u: int, v: int) -> CostVector:
        """Per-dimension lower bound on the cost of any u-v path."""
        if u == v:
            return (0.0,) * self._dim
        bound = [0.0] * self._dim
        for tables in self._dist:
            for i in range(self._dim):
                table = tables[i]
                du = table.get(u)
                dv = table.get(v)
                if du is None or dv is None:
                    continue
                estimate = abs(du - dv)
                if estimate > bound[i]:
                    bound[i] = estimate
        return tuple(bound)

    def lower_bound_to_any(self, u: int, targets: Sequence[int]) -> CostVector:
        """Per-dimension lower bound from ``u`` to its *nearest* target.

        This is the optimistic bound m_BBS needs: a partial path may
        still end at whichever target is cheapest, so each dimension
        takes the minimum bound over all targets.
        """
        if not targets:
            raise NodeNotFoundError("<empty target set>")
        bound = [_INF] * self._dim
        for target in targets:
            candidate = self.lower_bound(u, target)
            for i in range(self._dim):
                if candidate[i] < bound[i]:
                    bound[i] = candidate[i]
        return tuple(0.0 if b is _INF else b for b in bound)

    def size_entries(self) -> int:
        """Number of stored (landmark, dimension, node) distance entries."""
        return sum(len(table) for tables in self._dist for table in tables)


class LandmarkLowerBounds:
    """Adapter exposing a landmark index as a bound provider."""

    def __init__(self, index: LandmarkIndex, targets: Sequence[int]) -> None:
        self._index = index
        self._targets = list(targets)

    def bound(self, node: int) -> CostVector:
        if len(self._targets) == 1:
            return self._index.lower_bound(node, self._targets[0])
        return self._index.lower_bound_to_any(node, self._targets)

"""Lower-bound providers for skyline search pruning.

BBS prunes a partial path when ``cost(partial) + lower_bound(node)`` is
already dominated by a found result.  The tighter the bound, the more
pruning.  Three providers cover the trade-offs:

* :class:`ExactBounds` — per-dimension reverse Dijkstra from the target
  (exact bound; the initialization strategy of [45]).  Costs d Dijkstra
  runs per query but prunes best; the library's default for BBS.
* :class:`LandmarkLowerBounds` — triangle-inequality bounds from a
  pre-built :class:`~repro.search.landmark.LandmarkIndex` [28, 29];
  zero per-query setup once the index exists.
* :class:`ZeroBounds` — no pruning information; the correctness
  baseline for tests.
"""

from __future__ import annotations

from collections.abc import Container, Sequence
from typing import Protocol

from repro.graph.mcrn import MultiCostGraph
from repro.paths.dominance import CostVector
from repro.search.dijkstra import shortest_costs
from repro.search.landmark import LandmarkIndex

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
    """

    def __init__(
        self,
        graph: MultiCostGraph,
        targets: Sequence[int],
        *,
        within: Container[int] | None = None,
    ) -> None:
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


class LandmarkLowerBounds:
    """Adapter exposing a landmark index as a bound provider."""

    def __init__(self, index: LandmarkIndex, targets: Sequence[int]) -> None:
        self._index = index
        self._targets = list(targets)

    @property
    def index(self) -> LandmarkIndex:
        """The underlying landmark index (read-only)."""
        return self._index

    @property
    def targets(self) -> list[int]:
        """The target node set the bounds point at."""
        return list(self._targets)

    def bound(self, node: int) -> CostVector:
        if len(self._targets) == 1:
            return self._index.lower_bound(node, self._targets[0])
        return self._index.lower_bound_to_any(node, self._targets)

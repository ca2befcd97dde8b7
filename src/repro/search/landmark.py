"""Landmark (ALT-style) lower bounds for multi-cost graphs [28].

A landmark index pre-computes, for a handful of landmark nodes, the
per-dimension shortest distances to every node.  The triangle
inequality then yields a per-dimension lower bound between any two
nodes::

    d_i(u, v) >= max_l |dist_i(l, u) - dist_i(l, v)|

The paper builds this index over the most abstracted graph G_L and uses
it inside BBS/m_BBS to prune partial paths whose optimistic completion
is already dominated.  Here no index or serving path uses it: Alg. 3's
m_BBS runs without a bound (see :mod:`repro.core.query`) and exact
queries use exact bounds.  It remains for A*
(:func:`repro.search.astar.landmark_heuristic`) and for the bound
ablations that measure ALT against exact bounds.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import BuildError, NodeNotFoundError
from repro.graph.mcrn import MultiCostGraph
from repro.obs.tracer import Tracer, resolve_tracer
from repro.paths.dominance import CostVector
from repro.search.dijkstra import shortest_costs

_INF = float("inf")


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
        The graph to index (typically the most abstracted graph G_L).
    count:
        Number of landmarks.  A handful (4-16) suffices for the small
        abstracted graphs the backbone index produces.
    """

    def __init__(
        self,
        graph: MultiCostGraph,
        count: int = 8,
        *,
        tracer: Tracer | None = None,
        csr: object | None = None,
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
                if csr is not None:
                    self._dist = _distances_via_csr(csr, self._landmarks)
                else:
                    self._dist: list[list[dict[int, float]]] = [
                        [
                            shortest_costs(graph, landmark, i)
                            for i in range(graph.dim)
                        ]
                        for landmark in self._landmarks
                    ]
            if span.enabled:
                span.set(
                    landmarks=len(self._landmarks),
                    entries=self.size_entries(),
                    csr_backed=csr is not None,
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
        bound = [
            _INF,
        ] * self._dim
        for target in targets:
            candidate = self.lower_bound(u, target)
            for i in range(self._dim):
                if candidate[i] < bound[i]:
                    bound[i] = candidate[i]
        return tuple(0.0 if b is _INF else b for b in bound)

    def to_arrays(self, node_order: Sequence[int]) -> "object":
        """The distance tables as one ``(L, dim, n)`` float64 array.

        ``node_order`` fixes the third axis (typically
        ``CSRSnapshot.node_ids``); missing entries become ``inf``.  The
        stored floats are copied verbatim, so array-backed bounds see
        exactly the values the dict lookups would.
        """
        import numpy as np

        node_list = [int(node) for node in node_order]
        out = np.full(
            (len(self._landmarks), self._dim, len(node_list)),
            _INF,
            dtype=np.float64,
        )
        for li, tables in enumerate(self._dist):
            for i, table in enumerate(tables):
                row = out[li, i]
                for j, node in enumerate(node_list):
                    dist = table.get(node)
                    if dist is not None:
                        row[j] = dist
        return out

    def size_entries(self) -> int:
        """Number of stored (landmark, dimension, node) distance entries."""
        return sum(len(table) for tables in self._dist for table in tables)


def _distances_via_csr(
    csr: object, landmarks: Sequence[int]
) -> list[list[dict[int, float]]]:
    """Landmark distance tables computed over a CSR snapshot.

    Bit-identical to the dict Dijkstra (distance values are
    accumulation-order-deterministic); unreachable nodes are dropped
    from the tables just like ``shortest_costs`` omits them.
    """
    from repro.accel.bounds import csr_shortest_costs

    node_ids = csr.node_ids.tolist()
    tables: list[list[dict[int, float]]] = []
    for landmark in landmarks:
        dense = csr.dense_of(landmark)
        per_dim: list[dict[int, float]] = []
        for i in range(csr.dim):
            dist = csr_shortest_costs(csr, [dense], i)
            per_dim.append(
                {
                    node: d
                    for node, d in zip(node_ids, dist)
                    if d != _INF
                }
            )
        tables.append(per_dim)
    return tables


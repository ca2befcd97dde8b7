"""Directed-network extension of the backbone index (Section 4.3.1).

The paper models road networks as undirected graphs, noting that
opposite-direction roads "generally connect two same nodes, and the
costs of the two opposite directed roads do not differ much", and
sketches the directed extension: "the index just needs to include the
extra information from highway entrances to each node in dense
clusters".

This module implements that extension without disturbing the undirected
pipeline:

1. the directed network is *projected* to an undirected multigraph
   (per node pair, the mean of both directions' cost vectors);
2. the standard backbone index is built over the projection — all
   structural decisions (clusters, spanning trees, segments) are
   direction-blind, exactly as the paper's sketch implies;
3. at query time every label hop is *replayed* on the directed
   network in the direction the query needs: source-side hops forward,
   target-side hops backward (the "extra information from highway
   entrances to each node").  A hop whose underlying road is one-way
   against the direction of travel is dropped;
4. Alg. 3 itself is the undirected one of :mod:`repro.core.query`: S
   grows over the forward-replayed labels, D over the backward-replayed
   ones, and phase 3 runs m_BBS over G_L with direction restored.
   Answers are spliced back to directed walks of the original network.

Under the paper's stated assumption (near-symmetric costs) the replay
preserves approximation quality; for strongly asymmetric networks it
degrades gracefully (fewer surviving hops, never invalid paths).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.accel.csr import CSRSnapshot
from repro.core.builder import build_backbone_index
from repro.core.index import BackboneIndex
from repro.core.labels import LevelIndex, NodeLabel
from repro.core.params import BackboneParams
from repro.core.query import QueryResult, QueryStats, _answer_target, _grow
from repro.errors import BuildError, NodeNotFoundError
from repro.graph.mcrn import MultiCostGraph
from repro.obs.tracer import resolve_tracer
from repro.paths.frontier import PathSet
from repro.paths.path import Path


def project_undirected(directed: MultiCostGraph) -> MultiCostGraph:
    """The undirected projection: one representative cost per node pair.

    Each pair's cost vector is the component-wise mean over every
    directed edge between the endpoints.  Keeping the *skyline* of both
    directions instead would store two nearly-parallel vectors per road
    (asymmetric costs are mutually incomparable), and skyline widths in
    label construction would then grow exponentially with hop count.
    The projection only drives structure and abstract routing — true
    directed costs are recovered by replay at query time — so the
    symmetric average is the right summary under the paper's
    "costs do not differ much" assumption.
    """
    if not directed.directed:
        raise BuildError("project_undirected expects a directed graph")
    projection = MultiCostGraph(directed.dim)
    for node in directed.nodes():
        projection.add_node(node, directed.coord(node))
    pair_costs: dict[tuple[int, int], list] = {}
    for u, v, cost in directed.edges():
        key = (u, v) if u <= v else (v, u)
        pair_costs.setdefault(key, []).append(cost)
    for (u, v), costs in pair_costs.items():
        mean = tuple(
            sum(cost[i] for cost in costs) / len(costs)
            for i in range(directed.dim)
        )
        projection.add_edge(u, v, mean)
    return projection


def replay(graph: MultiCostGraph, nodes: tuple[int, ...]) -> list[Path]:
    """Directed skyline costs of walking ``nodes`` left to right.

    Returns the Pareto set over parallel-edge choices; empty when a
    one-way road blocks the direction of travel.
    """
    partials = PathSet([Path.trivial(nodes[0], graph.dim)])
    for u, v in zip(nodes, nodes[1:]):
        if not graph.has_edge(u, v):
            return []
        grown = PathSet()
        for prefix in partials:
            for cost in graph.edge_costs(u, v):
                grown.add(prefix.concat(Path((u, v), cost)))
        partials = grown
    return partials.paths()


class _ReplayedLevel:
    """One level's labels with every hop replayed on the directed network.

    Duck-types :meth:`LevelIndex.get` for Alg. 3's grow loop.  Labels are
    replayed on first read and kept; a label hop that no directed walk
    realizes is dropped, and so is an entrance left without hops.
    """

    def __init__(
        self, level: LevelIndex, replay_hop: Callable[[Path], list[Path]]
    ) -> None:
        self._level = level
        self._replay_hop = replay_hop
        self._labels: dict[int, NodeLabel | None] = {}

    def get(self, node: int) -> NodeLabel | None:
        if node in self._labels:
            return self._labels[node]
        label = self._level.get(node)
        if label is not None:
            replayed = NodeLabel(node)
            for entrance, hops in label.entrances.items():
                paths = [p for hop in hops for p in self._replay_hop(hop)]
                if paths:
                    replayed.entrances[entrance] = paths
            label = replayed
        self._labels[node] = label
        return label


class _ReplayedIndex:
    """The inner index as :func:`repro.core.query._grow` and
    :func:`repro.core.query._answer_target` read it: ``dim``,
    replayed ``levels``, and the directed G_L with its snapshot."""

    def __init__(
        self,
        owner: "DirectedBackboneIndex",
        replay_hop: Callable[[Path], list[Path]],
    ) -> None:
        self.dim = owner.directed_graph.dim
        self.levels = [
            _ReplayedLevel(level, replay_hop) for level in owner.inner.levels
        ]
        self.top_graph = owner.directed_top
        self._snapshot = owner._top_snapshot

    def csr_top(self, *, tracer=None) -> CSRSnapshot:
        return self._snapshot


class DirectedBackboneIndex:
    """A backbone index over a directed multi-cost road network.

    Parameters
    ----------
    graph:
        The directed network.  Both one-way roads and asymmetric
        two-way costs are supported.
    params:
        Backbone parameters for the underlying undirected build.
    """

    def __init__(
        self, graph: MultiCostGraph, params: BackboneParams | None = None
    ) -> None:
        if not graph.directed:
            raise BuildError(
                "DirectedBackboneIndex expects a directed graph; use "
                "build_backbone_index for undirected networks"
            )
        self.directed_graph = graph
        self.projection = project_undirected(graph)
        self.inner: BackboneIndex = build_backbone_index(self.projection, params)
        self.directed_top = self._directed_top_graph()
        self._top_snapshot = CSRSnapshot.from_graph(self.directed_top)
        # S grows over hops node -> entrance walked forward.  D grows
        # over hops walked entrance -> node, stored reversed (node
        # order node -> entrance) so that Alg. 3's ``path.reverse()``
        # of a D path is the directed walk toward the target.
        self._forward = _ReplayedIndex(
            self, lambda hop: replay(graph, self._expand(hop.nodes))
        )
        self._backward = _ReplayedIndex(
            self,
            lambda hop: [
                walk.reverse()
                for walk in replay(graph, self._expand(hop.nodes)[::-1])
            ],
        )

    def _directed_top_graph(self) -> MultiCostGraph:
        """G_L with direction restored (shortcut edges replayed)."""
        top = MultiCostGraph(self.directed_graph.dim, directed=True)
        for node in self.inner.top_graph.nodes():
            top.add_node(node, self.directed_graph.coord(node))
        for u, v, _cost in self.inner.top_graph.edges():
            for a, b in ((u, v), (v, u)):
                for path in replay(self.directed_graph, self._expand((a, b))):
                    top.add_edge(a, b, path.cost)
        return top

    def _expand(self, nodes: tuple[int, ...]) -> tuple[int, ...]:
        """Splice every abstract pair of ``nodes`` into projection nodes.

        A pair that is a projection edge stays as it is; a shortcut
        becomes the sequence whose replay priced it.
        """
        expanded: list[int] = [nodes[0]]
        for u, v in zip(nodes, nodes[1:]):
            expanded.extend(self.inner._expand_pair(u, v, depth=0)[1:])
        return tuple(expanded)

    def query(self, source: int, target: int) -> QueryResult:
        """Approximate directed skyline paths from source to target."""
        graph = self.directed_graph
        for node in (source, target):
            if not graph.has_node(node):
                raise NodeNotFoundError(node)
        if source == target:
            return QueryResult(paths=[Path.trivial(source, graph.dim)])
        source_map, _ = _grow(
            self._forward, source, results=PathSet(), other=None,
            goal=None, stats=QueryStats(),
        )
        result = _answer_target(
            self._backward, source, target, source_map, QueryStats(),
            None, resolve_tracer(None),
        )
        # Phase 3's middle path walks G_L, whose edges may be shortcuts.
        result.paths = [
            Path(self._expand(path.nodes), path.cost) for path in result.paths
        ]
        return result

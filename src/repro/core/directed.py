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
   (per node pair, the skyline of both directions' cost vectors);
2. the standard backbone index is built over the projection — all
   structural decisions (clusters, spanning trees, segments) are
   direction-blind, exactly as the paper's sketch implies;
3. at query time every label hop is *replayed* on the directed
   network in the direction the query needs: source-side hops forward,
   target-side hops backward (the "extra information from highway
   entrances to each node").  A hop whose underlying road is one-way
   against the direction of travel is dropped;
4. the second-type search runs m_BBS over the *directed* top graph,
   without a bound like the undirected phase 3: an exact bound would
   prune only labels at nodes that reach no target, and building it
   costs more than those prunes save.

Under the paper's stated assumption (near-symmetric costs) the replay
preserves approximation quality; for strongly asymmetric networks it
degrades gracefully (fewer surviving hops, never invalid paths).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.accel.csr import CSRSnapshot
from repro.core.builder import build_backbone_index
from repro.core.index import BackboneIndex
from repro.core.params import BackboneParams
from repro.errors import BuildError, NodeNotFoundError
from repro.graph.mcrn import MultiCostGraph
from repro.paths.frontier import PathSet
from repro.paths.path import Path
from repro.search.mbbs import Seed, many_to_many_skyline


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


@dataclass
class DirectedQueryResult:
    """Approximate directed skyline paths plus diagnostics."""

    paths: list[Path] = field(default_factory=list)
    dropped_hops: int = 0  # label hops lost to one-way restrictions

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)


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
        # replay caches: abstract hop node-sequence -> directed PathSets
        self._forward_cache: dict[tuple[int, ...], list[Path]] = {}
        self._backward_cache: dict[tuple[int, ...], list[Path]] = {}
        self.directed_top = self._directed_top_graph()
        self._top_snapshot = CSRSnapshot.from_graph(self.directed_top)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def _directed_top_graph(self) -> MultiCostGraph:
        """G_L with direction restored (shortcut edges replayed)."""
        top = MultiCostGraph(self.directed_graph.dim, directed=True)
        for node in self.inner.top_graph.nodes():
            top.add_node(node, self.directed_graph.coord(node))
        for u, v, _cost in self.inner.top_graph.edges():
            for a, b in ((u, v), (v, u)):
                for path in self._replay_forward(
                    self._expand_pair_sequence(a, b)
                ):
                    top.add_edge(a, b, path.cost)
        return top

    def _expand_pair_sequence(self, u: int, v: int) -> tuple[int, ...]:
        """The original-node sequence behind an abstract edge (u, v)."""
        expanded = self.inner._expand_pair(u, v, depth=0)
        return tuple(expanded)

    def _expand_hop(self, hop: Path) -> tuple[int, ...]:
        """Expand one abstract label path to original projection nodes."""
        nodes: list[int] = [hop.nodes[0]]
        for u, v in zip(hop.nodes, hop.nodes[1:]):
            nodes.extend(self.inner._expand_pair(u, v, depth=0)[1:])
        return tuple(nodes)

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------

    def _replay_forward(self, nodes: tuple[int, ...]) -> list[Path]:
        """Directed skyline costs of walking ``nodes`` left to right.

        Returns the Pareto set over parallel-edge choices; empty when a
        one-way road blocks the direction of travel.
        """
        cached = self._forward_cache.get(nodes)
        if cached is not None:
            return cached
        graph = self.directed_graph
        partials = PathSet([Path.trivial(nodes[0], graph.dim)])
        for u, v in zip(nodes, nodes[1:]):
            if not graph.has_edge(u, v):
                partials = PathSet()
                break
            grown = PathSet()
            for prefix in partials:
                for cost in graph.edge_costs(u, v):
                    grown.add(prefix.concat(Path((u, v), cost)))
            partials = grown
        result = partials.paths()
        self._forward_cache[nodes] = result
        return result

    def _replay_hop(self, hop: Path, *, backward: bool) -> list[Path]:
        """Replay one abstract label hop in the required direction.

        ``backward=False``: directed paths hop.source -> hop.target.
        ``backward=True``: directed paths hop.target -> hop.source.
        """
        expanded = self._expand_hop(hop)
        if backward:
            key = expanded[::-1]
            cached = self._backward_cache.get(key)
            if cached is None:
                cached = self._replay_forward(key)
                self._backward_cache[key] = cached
            return cached
        return self._replay_forward(expanded)

    # ------------------------------------------------------------------
    # query (directed Algorithm 3)
    # ------------------------------------------------------------------

    def query(self, source: int, target: int) -> DirectedQueryResult:
        """Approximate directed skyline paths from source to target."""
        graph = self.directed_graph
        if not graph.has_node(source):
            raise NodeNotFoundError(source)
        if not graph.has_node(target):
            raise NodeNotFoundError(target)
        result = DirectedQueryResult()
        if source == target:
            result.paths = [Path.trivial(source, graph.dim)]
            return result

        results = PathSet()
        forward = self._grow(source, backward=False, result=result)

        # grow D with backward replay: D[h] holds directed paths h -> target
        backward = self._grow(target, backward=True, result=result)

        for node, suffixes in backward.items():
            if node == source:
                for suffix in suffixes:
                    results.add(suffix)
            prefixes = forward.get(node)
            if prefixes is None or node == source or node == target:
                continue
            for prefix in prefixes:
                for suffix in suffixes:
                    results.add(prefix.concat(suffix))
        if target in forward:
            for path in forward[target]:
                results.add(path)

        # second type: m_BBS over the directed top graph
        top = self.directed_top
        source_possible = [n for n in forward if top.has_node(n)]
        target_possible = [n for n in backward if top.has_node(n)]
        if source_possible and target_possible:
            seeds = [
                Seed(node, prefix.cost, payload=prefix)
                for node in source_possible
                for prefix in forward[node]
            ]
            outcome = many_to_many_skyline(
                top, seeds, target_possible, snapshot=self._top_snapshot
            )
            for landing, hits in outcome.hits.items():
                suffixes = backward[landing].paths()
                for _cost, (prefix, middle) in hits:
                    through = prefix.concat(middle)
                    for suffix in suffixes:
                        results.add(through.concat(suffix))

        result.paths = results.paths()
        return result

    def _grow(
        self, start: int, *, backward: bool, result: DirectedQueryResult
    ) -> dict[int, PathSet]:
        """Climb the label hierarchy with direction-aware replay.

        Forward mode returns paths ``start -> key``; backward mode
        returns paths ``key -> start``.
        """
        dim = self.directed_graph.dim
        reached: dict[int, PathSet] = {start: PathSet([Path.trivial(start, dim)])}
        for level in self.inner.levels:
            for node in list(reached.keys()):
                label = level.get(node)
                if label is None:
                    continue
                anchored = reached[node].paths()
                for entrance, hops in label.entrances.items():
                    bucket = None
                    for hop in hops:
                        directed_hops = self._replay_hop(hop, backward=backward)
                        if not directed_hops:
                            result.dropped_hops += 1
                            continue
                        if bucket is None:
                            bucket = reached.get(entrance)
                            if bucket is None:
                                bucket = reached[entrance] = PathSet()
                        for existing in anchored:
                            for directed_hop in directed_hops:
                                if backward:
                                    bucket.add(directed_hop.concat(existing))
                                else:
                                    bucket.add(existing.concat(directed_hop))
        return reached

"""The multi-cost road network (MCRN) graph substrate.

A :class:`MultiCostGraph` is an undirected (optionally directed)
multigraph whose edges carry d-dimensional cost vectors.  Parallel edges
between the same pair of nodes are stored as a *Pareto skyline* of cost
vectors: a parallel edge dominated by another between the same endpoints
can never lie on a skyline path (swapping it for the dominating edge
dominates the whole path), so pruning it is lossless for skyline path
queries.  This matters because the backbone index's aggressive
summarization creates shortcut edges that may parallel existing edges.

Node identifiers are integers.  Degrees follow the paper's convention:
``deg(v)`` counts *neighbors*, not parallel edges.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from repro.errors import (
    DimensionMismatchError,
    EdgeNotFoundError,
    GraphError,
    NodeNotFoundError,
)
from repro.paths.dominance import CostVector, dominates, dominates_or_equal

_INF = float("inf")

Coordinate = tuple[float, float]


def cost_skyline(costs: Iterable[CostVector]) -> list[CostVector]:
    """The sorted Pareto skyline of ``costs``, duplicates dropped.

    This is exactly what a node pair stores after every cost is added
    to it as a parallel edge, in any order: dominance is transitive,
    so the survivors are the minimal elements either way.
    """
    kept: list[CostVector] = []
    for vec in costs:
        if any(dominates_or_equal(other, vec) for other in kept):
            continue
        kept = [other for other in kept if not dominates(vec, other)]
        kept.append(vec)
    kept.sort()
    return kept


class MultiCostGraph:
    """An in-memory multigraph with d-dimensional edge costs.

    Parameters
    ----------
    dim:
        Number of cost dimensions; every edge must supply exactly this
        many non-negative costs.
    directed:
        When False (default) edges are undirected, matching the paper's
        road-network model.  The directed mode supports the paper's
        Section 4.3.1 extension.
    """

    def __init__(self, dim: int, *, directed: bool = False) -> None:
        if dim < 1:
            raise GraphError(f"cost dimensionality must be >= 1, got {dim}")
        self._dim = dim
        self._directed = directed
        # adjacency: node -> set of out-neighbors (== neighbors when undirected)
        self._adj: dict[int, set[int]] = {}
        # reverse adjacency, only maintained for directed graphs
        self._radj: dict[int, set[int]] | None = {} if directed else None
        # canonical edge key -> skyline list of cost vectors
        self._edges: dict[tuple[int, int], list[CostVector]] = {}
        self._coords: dict[int, Coordinate] = {}
        self._edge_entries = 0
        # memoized immutable neighborhood views, invalidated on mutation
        self._frozen_adj: dict[int, frozenset[int]] = {}
        self._sorted_adj: dict[int, tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------

    @property
    def dim(self) -> int:
        """Number of cost dimensions."""
        return self._dim

    @property
    def directed(self) -> bool:
        """Whether edges are directed."""
        return self._directed

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return self._adj.__len__()

    @property
    def num_edges(self) -> int:
        """Number of connected node pairs (parallel edges count once)."""
        return len(self._edges)

    @property
    def num_edge_entries(self) -> int:
        """Number of stored edges, counting surviving parallel edges."""
        return self._edge_entries

    def _key(self, u: int, v: int) -> tuple[int, int]:
        if self._directed or u <= v:
            return (u, v)
        return (v, u)

    # ------------------------------------------------------------------
    # nodes
    # ------------------------------------------------------------------

    def add_node(self, node: int, coord: Coordinate | None = None) -> None:
        """Add an isolated node (idempotent); optionally set its coordinate."""
        if node not in self._adj:
            self._adj[node] = set()
            if self._radj is not None:
                self._radj[node] = set()
        if coord is not None:
            self._coords[node] = (float(coord[0]), float(coord[1]))

    def has_node(self, node: int) -> bool:
        """True iff the node exists."""
        return node in self._adj

    def remove_node(self, node: int) -> None:
        """Remove a node and all its incident edges."""
        if node not in self._adj:
            raise NodeNotFoundError(node)
        for neighbor in list(self._adj[node]):
            self.remove_edge(node, neighbor)
        if self._radj is not None:
            for pred in list(self._radj[node]):
                self.remove_edge(pred, node)
        del self._adj[node]
        if self._radj is not None:
            del self._radj[node]
        self._coords.pop(node, None)
        self._frozen_adj.pop(node, None)
        self._sorted_adj.pop(node, None)

    def nodes(self) -> Iterator[int]:
        """Iterate over all node identifiers."""
        return iter(self._adj)

    def coord(self, node: int) -> Coordinate | None:
        """The node's (x, y) coordinate, or None if unset."""
        return self._coords.get(node)

    def set_coord(self, node: int, coord: Coordinate) -> None:
        """Attach an (x, y) coordinate to an existing node."""
        if node not in self._adj:
            raise NodeNotFoundError(node)
        self._coords[node] = (float(coord[0]), float(coord[1]))

    # ------------------------------------------------------------------
    # edges
    # ------------------------------------------------------------------

    def check_cost(self, cost: Sequence[float]) -> CostVector:
        """``cost`` as a cost vector, or :class:`GraphError` when the
        dominance algebra cannot handle it.

        A cost needs this graph's dimension and finite, non-negative
        components: a NaN is never dominated, so a NaN-cost cycle keeps
        every skyline search admitting labels forever, and an infinite
        cost is no road at all.
        """
        if len(cost) != self._dim:
            raise DimensionMismatchError(self._dim, len(cost))
        vec: CostVector = tuple(float(c) for c in cost)
        if not all(0.0 <= c < _INF for c in vec):
            raise GraphError(
                f"edge costs must be finite and non-negative, got {vec}"
            )
        return vec

    def add_edge(self, u: int, v: int, cost: Sequence[float]) -> bool:
        """Add an edge with the given cost vector.

        Endpoints are created on demand.  Returns True iff the edge
        survived skyline pruning against parallel edges between the same
        endpoints (a dominated parallel edge is not stored; adding a
        dominating one evicts the dominated entries).
        """
        if u == v:
            raise GraphError(f"self-loop on node {u} is not allowed")
        vec = self.check_cost(cost)
        self.add_node(u)
        self.add_node(v)
        key = self._key(u, v)
        existing = self._edges.get(key)
        if existing is None:
            self._edges[key] = [vec]
            self._adj[u].add(v)
            if self._radj is not None:
                self._radj[v].add(u)
            else:
                self._adj[v].add(u)
            self._invalidate_neighbor_views(u, v)
            self._edge_entries += 1
            return True
        if any(dominates_or_equal(kept, vec) for kept in existing):
            return False
        survivors = [kept for kept in existing if not dominates(vec, kept)]
        survivors.append(vec)
        # Parallel-cost lists stay sorted so edge-slot order is canonical
        # regardless of insertion history (store round-trips, CSR snapshots).
        survivors.sort()
        self._edge_entries += len(survivors) - len(existing)
        self._edges[key] = survivors
        return True

    def set_edge_costs(
        self, u: int, v: int, costs: Sequence[Sequence[float]]
    ) -> None:
        """Make the pair's parallel edges exactly the skyline of ``costs``.

        An existing pair keeps its slot in the edge table, so edge
        iteration order does not depend on how often its costs changed;
        an empty ``costs`` removes the pair.
        """
        survivors = cost_skyline(self.check_cost(cost) for cost in costs)
        key = self._key(u, v)
        existing = self._edges.get(key)
        if not survivors:
            if existing is not None:
                self.remove_edge(u, v)
            return
        if existing is None:
            for cost in survivors:
                self.add_edge(u, v, cost)
            return
        self._edge_entries += len(survivors) - len(existing)
        self._edges[key] = survivors

    def has_edge(self, u: int, v: int) -> bool:
        """True iff at least one edge connects u to v (u -> v if directed)."""
        return self._key(u, v) in self._edges

    def edge_costs(self, u: int, v: int) -> list[CostVector]:
        """The skyline of cost vectors of parallel edges between u and v.

        Raises :class:`EdgeNotFoundError` when no edge exists.
        """
        try:
            return list(self._edges[self._key(u, v)])
        except KeyError:
            raise EdgeNotFoundError(u, v) from None

    def remove_edge(self, u: int, v: int, cost: Sequence[float] | None = None) -> None:
        """Remove one parallel edge (matching ``cost``) or all edges u-v."""
        key = self._key(u, v)
        entry = self._edges.get(key)
        if entry is None:
            raise EdgeNotFoundError(u, v)
        if cost is None:
            removed = len(entry)
            del self._edges[key]
        else:
            vec = tuple(float(c) for c in cost)
            if vec not in entry:
                raise EdgeNotFoundError(u, v)
            entry.remove(vec)
            removed = 1
            if not entry:
                del self._edges[key]
        self._edge_entries -= removed
        if key not in self._edges:
            self._adj[u].discard(v)
            if self._radj is not None:
                self._radj[v].discard(u)
            else:
                self._adj[v].discard(u)
            self._invalidate_neighbor_views(u, v)

    def edges(self) -> Iterator[tuple[int, int, CostVector]]:
        """Iterate ``(u, v, cost)`` per stored parallel edge.

        Undirected edges appear once, in canonical ``u <= v`` orientation.
        """
        for (u, v), costs in self._edges.items():
            for cost in costs:
                yield u, v, cost

    def edge_pairs(self) -> Iterator[tuple[int, int]]:
        """Iterate connected node pairs (parallel edges collapsed)."""
        return iter(self._edges)

    # ------------------------------------------------------------------
    # neighborhoods and degrees
    # ------------------------------------------------------------------

    def neighbors(self, node: int) -> frozenset[int]:
        """Out-neighbors of the node (all neighbors when undirected).

        The returned view is immutable and memoized: callers can neither
        corrupt the adjacency structure through it nor observe later
        mutations, and repeat lookups on an unchanged node are free.
        """
        frozen = self._frozen_adj.get(node)
        if frozen is None:
            try:
                frozen = frozenset(self._adj[node])
            except KeyError:
                raise NodeNotFoundError(node) from None
            self._frozen_adj[node] = frozen
        return frozen

    def sorted_neighbors(self, node: int) -> tuple[int, ...]:
        """Out-neighbors in ascending id order (memoized).

        Search kernels iterate this instead of the set view so expansion
        order — and therefore tie-breaking among equal-cost labels — is
        deterministic and identical across engines.
        """
        ordered = self._sorted_adj.get(node)
        if ordered is None:
            ordered = tuple(sorted(self.neighbors(node)))
            self._sorted_adj[node] = ordered
        return ordered

    def in_neighbors(self, node: int) -> frozenset[int]:
        """In-neighbors of the node (equals neighbors when undirected)."""
        if self._radj is None:
            return self.neighbors(node)
        try:
            return frozenset(self._radj[node])
        except KeyError:
            raise NodeNotFoundError(node) from None

    def _invalidate_neighbor_views(self, u: int, v: int) -> None:
        for node in (u, v):
            self._frozen_adj.pop(node, None)
            self._sorted_adj.pop(node, None)

    def degree(self, node: int) -> int:
        """Number of distinct neighbors (paper's degree convention)."""
        try:
            out_degree = len(self._adj[node])
        except KeyError:
            raise NodeNotFoundError(node) from None
        if self._radj is None:
            return out_degree
        return out_degree + len(self._radj[node])

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------

    def copy(self) -> "MultiCostGraph":
        """A deep, independent copy of the graph."""
        clone = MultiCostGraph(self._dim, directed=self._directed)
        for node in self._adj:
            clone.add_node(node, self._coords.get(node))
        for (u, v), costs in self._edges.items():
            clone._edges[(u, v)] = list(costs)
            clone._adj[u].add(v)
            if clone._radj is not None:
                clone._radj[v].add(u)
            else:
                clone._adj[v].add(u)
            clone._edge_entries += len(costs)
        return clone

    def restore_from(self, other: "MultiCostGraph") -> None:
        """Replace this graph's contents with a copy of ``other``'s.

        Used to roll back in-place summarization rounds: holders of a
        reference to this graph observe the restored state.
        """
        if other.dim != self._dim or other.directed != self._directed:
            raise GraphError("cannot restore from an incompatible graph")
        clone = other.copy()
        self._adj = clone._adj
        self._radj = clone._radj
        self._edges = clone._edges
        self._coords = clone._coords
        self._edge_entries = clone._edge_entries
        self._frozen_adj = {}
        self._sorted_adj = {}

    def induced_subgraph(self, nodes: Iterable[int]) -> "MultiCostGraph":
        """The subgraph induced by the given node set (coords preserved)."""
        keep = set(nodes)
        missing = [n for n in keep if n not in self._adj]
        if missing:
            raise NodeNotFoundError(missing[0])
        sub = MultiCostGraph(self._dim, directed=self._directed)
        for node in keep:
            sub.add_node(node, self._coords.get(node))
        for (u, v), costs in self._edges.items():
            if u in keep and v in keep:
                sub._edges[(u, v)] = list(costs)
                sub._adj[u].add(v)
                if sub._radj is not None:
                    sub._radj[v].add(u)
                else:
                    sub._adj[v].add(u)
                sub._edge_entries += len(costs)
        return sub

    def __contains__(self, node: int) -> bool:
        return node in self._adj

    def __repr__(self) -> str:
        kind = "directed" if self._directed else "undirected"
        return (
            f"MultiCostGraph({kind}, dim={self._dim}, "
            f"|V|={self.num_nodes}, |E|={self.num_edges})"
        )

"""Dynamic index maintenance (paper Section 4.3.1, "Index maintenance").

The paper maintains the backbone index under road-network updates by
recalculating skyline-path information for the affected parts instead
of rebuilding everything.  This module implements that idea at level
granularity: a :class:`MaintainableIndex` keeps a snapshot of every
level's input graph; when an edge or node changes, construction is
replayed only from the *deepest level still containing the touched
elements* — levels below it are provably unaffected, because their
labels were computed exclusively from edges already removed before the
change's level.

Cost model: an update touching only the abstracted graph G_i (i > 0)
replays the cheap upper levels; a ground-level update (new node, new
level-0 edge) degenerates to a full rebuild, exactly as the paper's
cluster-local scheme degenerates when an update splits a level-0
cluster.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.core.builder import (
    required_edge_removals,
    summarize_levels,
)
from repro.core.index import BackboneIndex, BuildStats, ShortcutKey
from repro.core.params import BackboneParams
from repro.errors import EdgeNotFoundError, GraphError, NodeNotFoundError
from repro.graph.mcrn import MultiCostGraph
from repro.paths.path import Path


def _path_uses_edge(path: Path, edge: tuple[int, int]) -> bool:
    """True when the walk traverses the (undirected) edge either way."""
    u, v = edge
    for a, b in zip(path.nodes, path.nodes[1:]):
        if (a == u and b == v) or (a == v and b == u):
            return True
    return False


@dataclass
class MaintenanceStats:
    """Counters describing maintenance activity so far."""

    updates: int = 0
    levels_replayed: int = 0
    full_rebuilds: int = 0


class MaintainableIndex:
    """A backbone index that absorbs network updates incrementally.

    Parameters
    ----------
    graph:
        The network to index.  The maintainer owns a private copy; read
        it through :attr:`graph`.
    params:
        Backbone construction parameters.
    """

    def __init__(
        self, graph: MultiCostGraph, params: BackboneParams | None = None
    ) -> None:
        self._params = params if params is not None else BackboneParams()
        self._graph = graph.copy()
        self.maintenance_stats = MaintenanceStats()
        self._snapshots: list[MultiCostGraph] = []
        self._level_provenance: list[dict[ShortcutKey, tuple[int, ...]]] = []
        self._index: BackboneIndex | None = None
        self.generation = 0
        self._listeners: list[Callable[[int], None]] = []
        self._rebuild_from(0)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    @property
    def graph(self) -> MultiCostGraph:
        """The current network (do not mutate; use the update methods)."""
        return self._graph

    @property
    def index(self) -> BackboneIndex:
        """The up-to-date backbone index."""
        assert self._index is not None
        return self._index

    def query(self, source: int, target: int, **kwargs):
        """Convenience: query the maintained index."""
        return self.index.query(source, target, **kwargs)

    def subscribe(self, listener: Callable[[int], None]) -> None:
        """Register a callback fired (with the new generation) after
        every structural update.

        The serving layer uses this to invalidate cached query results:
        a result computed against generation g must never be served once
        the network has moved to generation g+1.
        """
        self._listeners.append(listener)

    def _bump_generation(self) -> None:
        self.generation += 1
        for listener in list(self._listeners):
            listener(self.generation)

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def insert_edge(self, u: int, v: int, cost: Sequence[float]) -> None:
        """Add a road; replays construction from the deepest level with
        both endpoints present."""
        self._graph.add_edge(u, v, cost)
        self._apply_at(self._deepest_level_with_nodes(u, v), "add_edge", u, v, cost)

    def delete_edge(self, u: int, v: int, cost: Sequence[float] | None = None) -> None:
        """Remove a road (one parallel cost or all) and repair the index."""
        if not self._graph.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        self._graph.remove_edge(u, v, cost)
        level = self._deepest_level_with_edge(u, v)
        level = self._shallowest_label_reference(level, edge=(u, v))
        self._apply_at(level, "remove_edge", u, v, cost)

    def update_edge_cost(
        self, u: int, v: int, old_cost: Sequence[float], new_cost: Sequence[float]
    ) -> None:
        """Change one road's cost vector and repair the index.

        ``new_cost`` is validated before anything mutates, so a rejected
        update leaves the graph, the index, and the generation as they
        were.
        """
        self._graph.check_cost(new_cost)
        self._graph.remove_edge(u, v, old_cost)
        self._graph.add_edge(u, v, new_cost)
        level = self._deepest_level_with_edge(u, v)
        level = self._shallowest_label_reference(level, edge=(u, v))
        self._apply_at(level, "update_edge", u, v, (old_cost, new_cost))

    def insert_node(
        self,
        node: int,
        edges: Sequence[tuple[int, Sequence[float]]],
        coord: tuple[float, float] | None = None,
    ) -> None:
        """Add a junction with its incident roads (ground-level rebuild)."""
        if self._graph.has_node(node):
            raise GraphError(f"node {node} already exists")
        if not edges:
            raise GraphError("a new junction needs at least one incident road")
        for _, cost in edges:
            self._graph.check_cost(cost)
        self._graph.add_node(node, coord)
        for neighbor, cost in edges:
            self._graph.add_edge(node, neighbor, cost)
        self._rebuild_from(0)
        self.maintenance_stats.updates += 1
        self.maintenance_stats.full_rebuilds += 1
        self._bump_generation()

    def delete_node(self, node: int) -> None:
        """Remove a junction and its roads, repairing from its level."""
        if not self._graph.has_node(node):
            raise NodeNotFoundError(node)
        level = 0
        for i, snapshot in enumerate(self._snapshots):
            if snapshot.has_node(node):
                level = i
        level = self._shallowest_label_reference(level, node=node)
        self._graph.remove_node(node)
        self._replay(level, lambda g: g.remove_node(node) if g.has_node(node) else None)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _deepest_level_with_nodes(self, u: int, v: int) -> int:
        level = 0
        for i, snapshot in enumerate(self._snapshots):
            if snapshot.has_node(u) and snapshot.has_node(v):
                level = i
        return level

    def _deepest_level_with_edge(self, u: int, v: int) -> int:
        level = 0
        for i, snapshot in enumerate(self._snapshots):
            if snapshot.has_edge(u, v):
                level = i
        return level

    def _shallowest_label_reference(
        self,
        limit: int,
        *,
        edge: tuple[int, int] | None = None,
        node: int | None = None,
    ) -> int:
        """Lower the replay level to the shallowest level whose labels
        price or traverse the touched element; ``limit`` when none does.

        Level-i labels are normally built exclusively from edges removed
        during level i's construction, so an element surviving into
        deeper snapshots is invisible to them.  Two cases escape that
        argument: a label path may be routed *through* a surviving
        border node that is about to be deleted, and a label may price
        an edge that later construction rounds re-exposed.  Replaying
        from the first referencing level keeps every retained label
        provably untouched by the update.
        """
        index = self._index
        if index is None:
            return limit
        for i, level in enumerate(index.levels[:limit]):
            for owner in level.nodes():
                label = level.get(owner)
                if label is None:
                    continue
                if node is not None and owner == node:
                    return i
                for entrance, hops in label.entrances.items():
                    if node is not None and entrance == node:
                        return i
                    for hop in hops:
                        if node is not None:
                            if node in hop.nodes:
                                return i
                        elif edge is not None and _path_uses_edge(hop, edge):
                            return i
        return limit

    def _apply_at(self, level: int, op: str, u: int, v: int, payload) -> None:
        def mutate(g: MultiCostGraph) -> None:
            if op == "add_edge":
                if g.has_node(u) and g.has_node(v):
                    g.add_edge(u, v, payload)
            elif op == "remove_edge":
                if g.has_edge(u, v):
                    g.remove_edge(u, v, payload)
            elif op == "update_edge":
                old_cost, new_cost = payload
                if g.has_edge(u, v):
                    costs = g.edge_costs(u, v)
                    if tuple(float(c) for c in old_cost) in costs:
                        g.remove_edge(u, v, old_cost)
                    g.add_edge(u, v, new_cost)
            else:  # pragma: no cover - internal dispatch
                raise GraphError(f"unknown maintenance op {op!r}")

        self._replay(level, mutate)

    def _replay(self, level: int, mutate) -> None:
        """Replay construction from ``level`` after mutating its snapshot.

        The (guarded) mutation is also applied to every kept snapshot
        *below* the replay level.  Their levels' labels stay valid —
        they never reference the touched element — but a later update
        replaying from one of those lower levels re-summarizes from its
        snapshot, and a snapshot still holding pre-update state would
        resurrect stale costs into the rebuilt upper levels and the top
        graph.
        """
        self.maintenance_stats.updates += 1
        if level == 0:
            # self._graph was already mutated by the caller.
            self._rebuild_from(0)
            self.maintenance_stats.full_rebuilds += 1
            self._bump_generation()
            return
        for snapshot in self._snapshots[:level]:
            mutate(snapshot)
        work = self._snapshots[level].copy()
        mutate(work)
        self._rebuild_from(level, work)
        self.maintenance_stats.levels_replayed += (
            len(self._snapshots) - level
        )
        self._bump_generation()

    def _rebuild_from(self, level: int, work: MultiCostGraph | None = None) -> None:
        params = self._params
        if level == 0:
            work = self._graph.copy()
        assert work is not None
        outcome = summarize_levels(
            work,
            params,
            required_edge_removals(self._graph, params),
            level_offset=level,
            keep_snapshots=True,
        )
        top_graph = outcome.final_graph
        assert top_graph is not None

        old = self._index
        kept_levels = old.levels[:level] if old is not None else []
        kept_provenance: dict[ShortcutKey, tuple[int, ...]] = {}
        if old is not None and level > 0:
            kept_stats = old.build_stats.levels[:level]
            kept_snapshots = self._snapshots[:level]
            # Provenance of untouched levels: everything recorded before
            # the replay level.  Per-level provenance lives on the
            # maintainer, recorded at build time.
            for per_level in self._level_provenance[:level]:
                kept_provenance.update(per_level)
        else:
            kept_stats = []
            kept_snapshots = []
            self._level_provenance = []

        self._level_provenance = (
            self._level_provenance[:level] + outcome.level_provenance
        )
        self._snapshots = kept_snapshots + outcome.snapshots
        provenance = dict(kept_provenance)
        for per_level in outcome.level_provenance:
            provenance.update(per_level)

        self._index = BackboneIndex(
            original_graph=self._graph,
            params=params,
            levels=kept_levels + outcome.levels,
            top_graph=top_graph,
            provenance=provenance,
            build_stats=BuildStats(levels=kept_stats + outcome.level_stats),
        )

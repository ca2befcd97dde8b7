"""Dynamic index maintenance (paper Section 4.3.1, "Index maintenance").

The paper maintains the backbone index under road-network updates by
recomputing only the skyline labels of the clusters an update touches.
A :class:`MaintainableIndex` keeps, for every level, the level's input
graph (its *snapshot*) and its :class:`~repro.core.builder.LevelPlan`:
the structure the builder decided (peel orders, clusters, segments),
the priced pieces (strip skylines, cluster label tasks, segment labels
and shortcuts), and a map from node pair to the pieces that read it.

**Edge-cost updates repair in place.**  Structure depends only on
adjacency, which a cost update cannot change.  So the repair
re-derives the edge's parallel costs in each snapshot, reruns only the
pieces that read them, and re-folds each such level into a *new*
:class:`~repro.core.labels.LevelIndex`.  A shortcut whose cost changed
is repaired the same way one level up, and a pair that survives into
G_L gets a new top-graph copy.  The published index shares every
untouched level, and the result is identical to a fresh build of the
updated network.  The level loop's quota counts cost *entries*, so when
a snapshot pair's entry count would change (parallel or shortcut
domination flips), the repair falls back to a full rebuild.  It does
not replay from that level: the working graph's neighbor sets iterate
in an order that depends on their edit history, which a snapshot copy
does not keep, so a mid-level replay can cluster differently from a
fresh build.

**Inserts, deletes and node operations replay.**  Construction reruns
from the shallowest level whose pieces read a touched pair (or the
deepest level still holding the touched elements); the levels below it
are kept, because their pieces never read the change.

In every kept snapshot a touched pair's costs are re-derived as the
skyline of the costs carried from the level below and that level's
shortcuts between the pair, so a shortcut that the edge used to
dominate comes back when the edge gets dearer or goes away.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.core.builder import (
    LevelPlan,
    canonical_pair,
    required_edge_removals,
    summarize_levels,
)
from repro.core.index import BackboneIndex, BuildStats, LevelStats, ShortcutKey
from repro.core.labels import LevelIndex
from repro.core.params import BackboneParams
from repro.core.spanning import Edge
from repro.errors import EdgeNotFoundError, GraphError, NodeNotFoundError
from repro.graph.mcrn import MultiCostGraph, cost_skyline
from repro.obs.tracer import resolve_tracer
from repro.paths.dominance import CostVector

def _costs(graph: MultiCostGraph, pair: Edge) -> list[CostVector]:
    """The pair's parallel costs; empty when the pair is absent."""
    return graph.edge_costs(*pair) if graph.has_edge(*pair) else []


@dataclass
class MaintenanceStats:
    """Counters describing maintenance activity so far.

    ``local_repairs`` counts cost updates absorbed without any replay;
    ``levels_replayed`` and ``full_rebuilds`` count replays.
    """

    updates: int = 0
    levels_replayed: int = 0
    full_rebuilds: int = 0
    local_repairs: int = 0


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
        self._plans: list[LevelPlan] = []
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
        both endpoints present, or the first level reading the pair."""
        self._graph.add_edge(u, v, cost)
        level = self._deepest_level_with_nodes(u, v)
        reader = self._reader_level({canonical_pair(u, v)})
        if reader is not None:
            level = min(level, reader)
        self._replay_edge(level, canonical_pair(u, v))

    def delete_edge(self, u: int, v: int, cost: Sequence[float] | None = None) -> None:
        """Remove a road (one parallel cost or all) and repair the index."""
        if not self._graph.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        self._graph.remove_edge(u, v, cost)
        level = self._reader_level({canonical_pair(u, v)})
        if level is None:
            level = self._deepest_level_with_edge(u, v)
        self._replay_edge(level, canonical_pair(u, v))

    def update_edge_cost(
        self, u: int, v: int, old_cost: Sequence[float], new_cost: Sequence[float]
    ) -> None:
        """Change one road's cost vector and repair the index locally.

        ``new_cost`` is validated before anything mutates, so a rejected
        update leaves the graph, the index, and the generation as they
        were.
        """
        new = self._graph.check_cost(new_cost)
        costs = self._graph.edge_costs(u, v)
        old = tuple(float(c) for c in old_cost)
        if old not in costs:
            raise EdgeNotFoundError(u, v)
        costs.remove(old)
        self._graph.set_edge_costs(u, v, costs + [new])
        self._repair(canonical_pair(u, v))

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
        self._replay(0)

    def delete_node(self, node: int) -> None:
        """Remove a junction and its roads, repairing from its level."""
        if not self._graph.has_node(node):
            raise NodeNotFoundError(node)
        level = 0
        for i, snapshot in enumerate(self._snapshots):
            if not snapshot.has_node(node):
                break
            level = i
            incident = {
                canonical_pair(node, other) for other in snapshot.neighbors(node)
            }
            if not incident.isdisjoint(self._plans[i].readers):
                break
        self._graph.remove_node(node)
        self._replay(
            level, lambda g: g.remove_node(node) if g.has_node(node) else None
        )

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

    def _reader_level(self, pairs: set[Edge]) -> int | None:
        """The shallowest level with a piece that reads one of ``pairs``."""
        for i, plan in enumerate(self._plans):
            if not pairs.isdisjoint(plan.readers):
                return i
        return None

    def _carried_costs(
        self, level: int, pair: Edge, below: list[CostVector]
    ) -> list[CostVector]:
        """The pair's costs in the graph above ``level``, given its costs
        ``below`` in the level's snapshot: the carried costs (when the
        level keeps the pair) merged with the level's shortcuts."""
        plan = self._plans[level]
        above = (
            self._snapshots[level + 1]
            if level + 1 < len(self._snapshots)
            else self.index.top_graph
        )
        carried = (
            below
            if pair not in plan.removed
            and above.has_node(pair[0])
            and above.has_node(pair[1])
            else []
        )
        return cost_skyline([*carried, *plan.shortcut_costs(pair)])

    def _replay_edge(self, level: int, pair: Edge) -> None:
        """Re-derive the pair's costs in snapshots 0..level, then replay
        construction from ``level``."""
        costs = _costs(self._graph, pair)
        # An index with no levels keeps no snapshot to re-derive.
        for i in range(min(level + 1, len(self._snapshots))):
            if i > 0:
                costs = self._carried_costs(i - 1, pair, costs)
            self._snapshots[i].set_edge_costs(*pair, costs)
        self._replay(level)

    def _replay(self, level: int, mutate=None) -> None:
        """Replay construction from ``level``, keeping the levels below.

        ``mutate`` (when given) is applied to every kept snapshot up to
        and including the replay level: the levels below stay valid, but
        a later update replaying from one of them re-summarizes from its
        snapshot, which must not resurrect pre-update state.
        """
        self.maintenance_stats.updates += 1
        if mutate is not None:
            for snapshot in self._snapshots[: level + 1]:
                mutate(snapshot)
        index = self.index
        self._rebuild_from(
            level, index.levels[:level], index.build_stats.levels[:level]
        )
        if level == 0:
            self.maintenance_stats.full_rebuilds += 1
        else:
            self.maintenance_stats.levels_replayed += (
                len(self._snapshots) - level
            )
        self._bump_generation()

    def _repair(self, pair: Edge) -> None:
        """Repair the index after the pair's costs changed in the graph.

        Walks the levels bottom-up carrying the changed pairs: each
        level's snapshot takes their new costs, the pieces that read
        them rerun, and the level re-folds into a new level index.  The
        pairs that survive the level, and shortcuts whose costs changed,
        move one level up; what reaches G_L lands in a top-graph copy.
        """
        old = self.index
        levels: list[LevelIndex] = list(old.levels)
        stats: list[LevelStats] = list(old.build_stats.levels)
        changed = {pair: _costs(self._graph, pair)}
        shortcuts_changed = False
        pieces_rerun = levels_touched = 0
        start = fallback = None
        with resolve_tracer(None).span("build.repair") as span:
            for i, plan in enumerate(self._plans):
                snapshot = self._snapshots[i]
                grows = any(
                    len(costs) != len(_costs(snapshot, p))
                    for p, costs in changed.items()
                )
                for p, costs in changed.items():
                    snapshot.set_edge_costs(*p, costs)
                if grows:
                    # The quota counts entries, so the structure may
                    # move.  Rebuild: a replay from this level's
                    # snapshot is not a fresh build, because a graph
                    # copy does not keep the order in which the working
                    # graph's neighbor sets iterate.
                    start, fallback = i, "entry_count"
                    break
                pieces = {
                    piece for p in changed for piece in plan.readers.get(p, ())
                }
                moved: set[Edge] = set()
                if pieces:
                    start = i if start is None else start
                    moved = plan.reprice(pieces, snapshot)
                    levels[i] = plan.fold()
                    stats[i] = dataclasses.replace(
                        stats[i], label_paths=levels[i].path_count()
                    )
                    shortcuts_changed |= bool(moved)
                    pieces_rerun += len(pieces)
                    levels_touched += 1
                above = (
                    self._snapshots[i + 1]
                    if i + 1 < len(self._snapshots)
                    else old.top_graph
                )
                carried = {}
                for p in (changed.keys() - plan.removed) | moved:
                    costs = self._carried_costs(i, p, _costs(snapshot, p))
                    if costs != _costs(above, p):
                        carried[p] = costs
                changed = carried
                if not changed:
                    break
            top = old.top_graph
            if changed and fallback is None:
                top = top.copy()
                for p, costs in changed.items():
                    top.set_edge_costs(*p, costs)
            span.set(
                level=len(levels) if start is None else start,
                pieces_rerun=pieces_rerun,
                levels_touched=levels_touched,
                fallback=fallback or "none",
            )
        if fallback is not None:
            # Outside the span, as on the local path: the generation
            # bump's listeners are not repair time.
            self._replay(0)
            return
        self._publish(
            levels, top, stats, None if shortcuts_changed else old.provenance
        )
        self.maintenance_stats.updates += 1
        self.maintenance_stats.local_repairs += 1
        self._bump_generation()

    def _rebuild_from(
        self,
        level: int,
        levels: Sequence[LevelIndex] = (),
        stats: Sequence[LevelStats] = (),
    ) -> None:
        """Run the level loop from snapshot ``level`` (from the graph at
        level 0), keeping ``levels`` and ``stats`` below it."""
        params = self._params
        work = (
            self._graph.copy() if level == 0 else self._snapshots[level].copy()
        )
        outcome = summarize_levels(
            work,
            params,
            required_edge_removals(self._graph, params),
            level_offset=level,
            keep_snapshots=True,
        )
        assert outcome.final_graph is not None
        self._snapshots = self._snapshots[:level] + outcome.snapshots
        self._plans = self._plans[:level] + outcome.plans
        self._publish(
            list(levels) + outcome.levels,
            outcome.final_graph,
            list(stats) + outcome.level_stats,
        )

    def _publish(
        self,
        levels: list[LevelIndex],
        top_graph: MultiCostGraph,
        stats: list[LevelStats],
        provenance: dict[ShortcutKey, tuple[int, ...]] | None = None,
    ) -> None:
        if provenance is None:
            provenance = {}
            for plan in self._plans:
                provenance.update(plan.provenance())
        self._index = BackboneIndex(
            original_graph=self._graph,
            params=self._params,
            levels=levels,
            top_graph=top_graph,
            provenance=provenance,
            build_stats=BuildStats(levels=stats),
        )

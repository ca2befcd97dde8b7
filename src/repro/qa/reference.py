"""The reference oracle: readable python searches and the scalar build.

Production serves every search from one flat CSR kernel
(:mod:`repro.accel.bbs_kernel`, :mod:`repro.accel.onetoall_kernel`)
and builds indexes with the flat construction pipeline.  This module
keeps the plain dict-and-heap formulations of the same algorithms — the
paper's BBS, m_BBS, and one-to-all searches, and Algorithm 2 without
any fast path — as the oracle the production code is held to:

* :func:`skyline_paths`, :func:`many_to_many_skyline`, and
  :func:`one_to_all_skyline` are **bit-identical** to their production
  counterparts, counters included: same IEEE additions in the same
  order, same neighbor order (ascending id, parallel edges in the
  graph's canonical cost order), hence the same heap tie-breaking;
* :func:`build_backbone_index` produces an index serving the
  production build's answers path for path.

The qa differential (:mod:`repro.qa.differential`), the property tests,
``repro bench``, and the CI A/B gates compare against this module.
Nothing on the serving path imports it.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.core.builder import _MAX_ROUNDS_PER_LEVEL, required_edge_removals
from repro.core.clustering import find_dense_clusters
from repro.core.index import BackboneIndex, BuildStats, LevelStats, ShortcutKey
from repro.core.labels import CostedEdge, LevelIndex
from repro.core.params import (
    AggressiveMode,
    BackboneParams,
    ClusteringStrategy,
    LabelScope,
)
from repro.core.segments import find_single_segments
from repro.core.spanning import condense_cluster
from repro.core.summarize import bfs_partitions
from repro.errors import BuildError, NodeNotFoundError
from repro.graph.mcrn import MultiCostGraph
from repro.graph.traversal import peel_degree_one
from repro.paths.frontier import ParetoSet, PathSet
from repro.paths.path import Path
from repro.qa.bounds import ExactBounds, LowerBoundProvider, ZeroBounds
from repro.search.bbs import SearchStats, SkylineResult
from repro.search.labels import Label, NodeFrontier
from repro.search.mbbs import ManyToManyResult, Seed

_INF = float("inf")


# ----------------------------------------------------------------------
# searches
# ----------------------------------------------------------------------


class _WithNode:
    """A node restriction plus one extra member."""

    def __init__(self, restriction, node: int) -> None:
        self._restriction = restriction
        self._node = node

    def __contains__(self, node: int) -> bool:
        return node == self._node or node in self._restriction


def skyline_paths(
    graph: MultiCostGraph,
    source: int,
    target: int,
    *,
    bounds: LowerBoundProvider | None = None,
    seed_with_shortest_paths: bool = True,
    time_budget: float | None = None,
    max_expansions: int | None = None,
    restrict_to=None,
    seed_paths=None,
) -> SkylineResult:
    """Exact BBS; the reference for :func:`repro.search.bbs.skyline_paths`.

    Same parameters minus the snapshot and tracer, plus two production
    does not have: ``bounds`` (any :mod:`repro.qa.bounds` provider;
    defaults to :class:`~repro.qa.bounds.ExactBounds`, which is what
    production bounds with) and ``max_expansions`` (a cap on label
    expansions, reported as a timeout).  Seeds always come from exact
    tables taken inside the restriction, walked by :func:`_seed_walks`,
    whatever provider prunes."""
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    if not graph.has_node(target):
        raise NodeNotFoundError(target)
    if source == target:
        return SkylineResult(paths=[Path.trivial(source, graph.dim)])
    start_time = time.perf_counter()
    stats = SearchStats()
    if time_budget is not None and time_budget <= 0:
        stats.timed_out = True
        stats.elapsed_seconds = time.perf_counter() - start_time
        return SkylineResult(stats=stats)
    # A target outside the restriction is unreachable for the search,
    # so it gets no seeds either.
    seeded = seed_with_shortest_paths and (
        restrict_to is None or target in restrict_to
    )
    exact = None
    if bounds is None or seeded:
        within = None
        if restrict_to is not None:
            # The restricted search enters only restricted nodes (plus
            # its source), so reverse Dijkstra inside that set bounds it.
            within = _WithNode(restrict_to, source)
        if (
            isinstance(bounds, ExactBounds)
            and bounds.graph is graph
            and bounds.targets == (target,)
            and bounds.within is None
            and within is None
        ):
            # An unrestricted exact provider for this target already
            # holds the tables the seeds walk.
            exact = bounds
        else:
            exact = ExactBounds(graph, [target], within=within)
    if bounds is None:
        bounds = exact

    results = PathSet()
    if seeded:
        results.add_all(_seed_walks(graph, exact, source, target))
    if seed_paths is not None:
        results.add_all(seed_paths)

    frontiers: dict[int, NodeFrontier] = {}
    tie_breaker = itertools.count()
    heap: list[tuple[float, int, Label]] = []

    def push(label: Label) -> None:
        bound = bounds.bound(label.node)
        projected = tuple(c + b for c, b in zip(label.cost, bound))
        if _INF in projected:
            stats.pruned_by_bound += 1
            return
        stats.dominance_checks += 1
        if results.dominates_candidate(projected):
            stats.pruned_by_result += 1
            return
        frontier = frontiers.get(label.node)
        if frontier is None:
            frontier = frontiers[label.node] = NodeFrontier()
        if not frontier.try_add(label.cost):
            stats.pruned_by_frontier += 1
            return
        stats.pushes += 1
        heapq.heappush(heap, (sum(projected), next(tie_breaker), label))
        if len(heap) > stats.max_heap_size:
            stats.max_heap_size = len(heap)

    push(Label(source, (0.0,) * graph.dim))

    # The budget check is gated on a monotone loop-iteration counter,
    # not on ``stats.expansions``: stale or pruned pops never increment
    # expansions, so a long run of them would otherwise starve the
    # wall-clock check.  Overshoot is bounded to 512 heap pops.
    loop_count = 0
    while heap:
        if loop_count & 511 == 0:
            if time_budget is not None and (
                time.perf_counter() - start_time > time_budget
            ):
                stats.timed_out = True
                break
        loop_count += 1
        if max_expansions is not None and stats.expansions >= max_expansions:
            stats.timed_out = True
            break

        _, _, label = heapq.heappop(heap)
        frontier = frontiers[label.node]
        if not frontier.is_current(label.cost):
            continue  # evicted since push: stale heap entry
        bound = bounds.bound(label.node)
        projected = tuple(c + b for c, b in zip(label.cost, bound))
        stats.dominance_checks += 1
        if results.dominates_candidate(projected):
            stats.pruned_by_result += 1
            continue
        stats.expansions += 1

        if label.node == target:
            results.add(label.to_path())
            continue

        # Ascending-id neighbor order equals the CSR slot order; the
        # restriction check runs before any cost arithmetic and charges
        # one prune per parallel edge, like the kernel's per-slot count.
        for neighbor in graph.sorted_neighbors(label.node):
            if restrict_to is not None and neighbor not in restrict_to:
                stats.pruned_by_corridor += len(
                    graph.edge_costs(label.node, neighbor)
                )
                continue
            for edge_cost in graph.edge_costs(label.node, neighbor):
                extended = tuple(
                    c + w for c, w in zip(label.cost, edge_cost)
                )
                push(Label(neighbor, extended, parent=label))

    stats.elapsed_seconds = time.perf_counter() - start_time
    stats.frontier_nodes = len(frontiers)
    return SkylineResult(paths=results.paths(), stats=stats)


def _seed_walks(
    graph: MultiCostGraph, exact: ExactBounds, source: int, target: int
) -> list[Path]:
    """Each dimension's shortest path, walked down exact bound tables.

    The dict mirror of :func:`repro.accel.bounds.seed_paths_from_bounds`:
    from ``u`` step along the edge minimizing ``w_k + bound(v)[k]``,
    neighbors in ascending id order, parallel edges in the graph's
    canonical cost order, first minimum wins.
    """
    dim = graph.dim
    paths: list[Path] = []
    for k in range(dim):
        if exact.bound(source)[k] == _INF:
            continue
        u = source
        walk = [source]
        total = (0.0,) * dim
        for _ in range(graph.num_nodes):
            best, step = _INF, None
            for neighbor in graph.sorted_neighbors(u):
                remaining = exact.bound(neighbor)[k]
                for edge_cost in graph.edge_costs(u, neighbor):
                    value = edge_cost[k] + remaining
                    if value < best:
                        best, step = value, (neighbor, edge_cost)
            if step is None:
                break
            u, edge_cost = step
            total = tuple(c + w for c, w in zip(total, edge_cost))
            walk.append(u)
            if u == target:
                paths.append(Path(walk, total))
                break
    return paths


def many_to_many_skyline(
    graph: MultiCostGraph,
    seeds: Iterable[Seed],
    targets: Sequence[int],
    *,
    bounds: LowerBoundProvider | None = None,
    time_budget: float | None = None,
    max_expansions: int | None = None,
    restrict_to=None,
) -> ManyToManyResult:
    """m_BBS; the reference for
    :func:`repro.search.mbbs.many_to_many_skyline`.

    Production runs unbounded and matches this loop's ``bounds=None``
    run bit for bit; the paper's bound, the node restriction and the
    expansion cap exist only here."""
    seed_list = list(seeds)
    target_set = set(targets)
    for node in target_set:
        if not graph.has_node(node):
            raise NodeNotFoundError(node)
    if bounds is None:
        bounds = ZeroBounds(graph.dim)

    start_time = time.perf_counter()
    stats = SearchStats()
    result = ManyToManyResult(stats=stats)
    if time_budget is not None and time_budget <= 0:
        stats.timed_out = True
        stats.elapsed_seconds = time.perf_counter() - start_time
        return result
    frontiers: dict[int, NodeFrontier] = {}
    tie_breaker = itertools.count()
    heap: list[tuple[float, int, Label]] = []

    def push(label: Label) -> None:
        bound = bounds.bound(label.node)
        projected = tuple(c + b for c, b in zip(label.cost, bound))
        if _INF in projected:
            stats.pruned_by_bound += 1
            return
        frontier = frontiers.get(label.node)
        if frontier is None:
            frontier = frontiers[label.node] = NodeFrontier()
        if not frontier.try_add(label.cost):
            stats.pruned_by_frontier += 1
            return
        stats.pushes += 1
        heapq.heappush(heap, (sum(projected), next(tie_breaker), label))
        if len(heap) > stats.max_heap_size:
            stats.max_heap_size = len(heap)

    for seed in seed_list:
        if not graph.has_node(seed.node):
            raise NodeNotFoundError(seed.node)
        push(Label(seed.node, tuple(seed.cost), seed=seed))

    loop_count = 0
    while heap:
        if time_budget is not None and loop_count & 511 == 0:
            if time.perf_counter() - start_time > time_budget:
                stats.timed_out = True
                break
        loop_count += 1
        if max_expansions is not None and stats.expansions >= max_expansions:
            stats.timed_out = True
            break

        _, _, label = heapq.heappop(heap)
        if not frontiers[label.node].is_current(label.cost):
            continue
        stats.expansions += 1

        if label.node in target_set:
            seed: Seed = label.seed  # type: ignore[assignment]
            hits = result.hits.get(label.node)
            if hits is None:
                hits = result.hits[label.node] = ParetoSet(keep_equal_costs=True)
            hits.add(label.cost, (seed.payload, _local_path(label, seed)))
            # Targets are ordinary nodes of G_L; keep expanding through
            # them — a skyline path may pass one target to reach another.

        for neighbor in graph.sorted_neighbors(label.node):
            if restrict_to is not None and neighbor not in restrict_to:
                stats.pruned_by_corridor += len(
                    graph.edge_costs(label.node, neighbor)
                )
                continue
            for edge_cost in graph.edge_costs(label.node, neighbor):
                extended = tuple(c + w for c, w in zip(label.cost, edge_cost))
                push(Label(neighbor, extended, parent=label))

    stats.elapsed_seconds = time.perf_counter() - start_time
    stats.frontier_nodes = len(frontiers)
    return result


def _local_path(label: Label, seed: Seed) -> Path:
    """The path through the searched graph only (seed cost stripped)."""
    nodes = []
    walker: Label | None = label
    while walker is not None:
        nodes.append(walker.node)
        walker = walker.parent
    nodes.reverse()
    local_cost = tuple(c - s for c, s in zip(label.cost, seed.cost))
    # Guard against float drift producing tiny negative components.
    return Path(nodes, tuple(max(c, 0.0) for c in local_cost))


def one_to_all_skyline(
    graph: MultiCostGraph,
    source: int,
    *,
    targets: Iterable[int] | None = None,
    time_budget: float | None = None,
    stats: SearchStats | None = None,
) -> dict[int, list[Path]]:
    """One-to-all skyline; the reference for
    :func:`repro.search.onetoall.one_to_all_skyline`."""
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    if stats is None:
        stats = SearchStats()
    start_time = time.perf_counter()
    wanted = set(targets) if targets is not None else None
    if time_budget is not None and time_budget <= 0:
        stats.timed_out = True
        stats.elapsed_seconds = time.perf_counter() - start_time
        return {}

    frontiers: dict[int, NodeFrontier] = {}
    best_labels: dict[int, list[Label]] = {}
    tie_breaker = itertools.count()
    heap: list[tuple[float, int, Label]] = []

    def push(label: Label) -> None:
        frontier = frontiers.get(label.node)
        if frontier is None:
            frontier = frontiers[label.node] = NodeFrontier()
        if not frontier.try_add(label.cost):
            stats.pruned_by_frontier += 1
            return
        stats.pushes += 1
        heapq.heappush(heap, (sum(label.cost), next(tie_breaker), label))

    push(Label(source, (0.0,) * graph.dim))

    loop_count = 0
    while heap:
        if (
            time_budget is not None
            and loop_count & 511 == 0
            and time.perf_counter() - start_time > time_budget
        ):
            stats.timed_out = True
            break
        loop_count += 1
        _, _, label = heapq.heappop(heap)
        frontier = frontiers[label.node]
        if not frontier.is_current(label.cost):
            continue
        stats.expansions += 1
        kept = best_labels.setdefault(label.node, [])
        kept[:] = [old for old in kept if frontier.is_current(old.cost)]
        kept.append(label)
        cost = label.cost
        for neighbor in graph.sorted_neighbors(label.node):
            for edge_cost in graph.edge_costs(label.node, neighbor):
                extended = tuple(c + w for c, w in zip(cost, edge_cost))
                push(Label(neighbor, extended, parent=label))
        if len(heap) > stats.max_heap_size:
            stats.max_heap_size = len(heap)

    stats.frontier_nodes = len(frontiers)
    stats.elapsed_seconds = time.perf_counter() - start_time

    result: dict[int, list[Path]] = {}
    for node, labels in best_labels.items():
        if wanted is not None and node not in wanted:
            continue
        frontier = frontiers[node]
        paths = [
            label.to_path() for label in labels if frontier.is_current(label.cost)
        ]
        if paths:
            result[node] = paths
    return result


# ----------------------------------------------------------------------
# the scalar build (Algorithm 2 without fast paths)
# ----------------------------------------------------------------------


@dataclass
class _Round:
    """What one reference round removed, and the labels it recorded."""

    removed_nodes: set[int] = field(default_factory=set)
    removed_edges: list[CostedEdge] = field(default_factory=list)
    index: LevelIndex = field(default_factory=LevelIndex)

    @property
    def changed(self) -> bool:
        return bool(self.removed_nodes or self.removed_edges)


def _strip_degree_one(graph: MultiCostGraph) -> _Round:
    """Degree-1 stripping with full path sets per removed node."""
    result = _Round()
    order = peel_degree_one(graph)
    removed = {node for node, _ in order}
    paths_to_anchor: dict[int, tuple[int, PathSet]] = {}
    # Outermost anchor first, so an anchor's paths exist before use.
    for node, anchor in reversed(order):
        edge_paths = [
            Path((node, anchor), cost) for cost in graph.edge_costs(node, anchor)
        ]
        if anchor in removed:
            final_anchor, anchor_paths = paths_to_anchor[anchor]
            bucket = PathSet()
            for edge_path in edge_paths:
                for continuation in anchor_paths:
                    bucket.add(edge_path.concat(continuation))
        else:
            final_anchor = anchor
            bucket = PathSet(edge_paths)
        paths_to_anchor[node] = (final_anchor, bucket)

    for node, anchor in order:
        for cost in graph.edge_costs(node, anchor):
            result.removed_edges.append((node, anchor, cost))
        final_anchor, bucket = paths_to_anchor[node]
        for path in bucket:
            result.index.add_path(node, final_anchor, path)
        result.removed_nodes.add(node)
    for node, _ in order:
        graph.remove_node(node)
    return result


def _cluster_labels(
    dim: int,
    cluster_nodes: set[int],
    removed_edges: list[CostedEdge],
    entrances: set[int],
    into: LevelIndex,
) -> None:
    """Definition 4.7 over a restricted graph of the removed edges."""
    if not removed_edges or not entrances:
        return
    restricted = MultiCostGraph(dim)
    for node in cluster_nodes:
        restricted.add_node(node)
    for u, v, cost in removed_edges:
        restricted.add_edge(u, v, cost)
    for entrance in sorted(entrances):
        if not restricted.has_node(entrance):
            continue
        reached = one_to_all_skyline(restricted, entrance)
        for node, paths in reached.items():
            if node == entrance or node not in cluster_nodes:
                continue
            for path in paths:
                into.add_path(node, entrance, path.reverse())


def _condense_round(graph: MultiCostGraph, params: BackboneParams) -> _Round:
    """Strip degree-1 nodes, then condense every dense cluster."""
    strip = _strip_degree_one(graph)
    if params.clustering is ClusteringStrategy.BFS:
        clustering = bfs_partitions(graph, params.m_max)
    else:
        clustering = find_dense_clusters(graph, params)

    clusters = _Round()
    labels: list[tuple] = []
    for cluster_nodes in clustering.clusters:
        live_nodes = {node for node in cluster_nodes if graph.has_node(node)}
        if len(live_nodes) < 2:
            continue
        # Full edge-table sweeps for the cluster's internal edges.
        condensed = condense_cluster(
            graph, live_nodes, policy=params.tree_policy, local_scan=False
        )
        if not condensed.kept_nodes:
            continue  # a whole component: nothing to label toward
        costed = [
            (u, v, cost)
            for u, v in condensed.removed_edges
            for cost in graph.edge_costs(u, v)
        ]
        label_edges = list(costed)
        if params.label_scope is LabelScope.FULL_CLUSTER:
            removed_pairs = set(condensed.removed_edges)
            for u, v in graph.edge_pairs():
                if (
                    u in live_nodes
                    and v in live_nodes
                    and (min(u, v), max(u, v)) not in removed_pairs
                ):
                    for cost in graph.edge_costs(u, v):
                        label_edges.append((u, v, cost))
        labels.append((live_nodes, label_edges, condensed.kept_nodes))
        for u, v in condensed.removed_edges:
            graph.remove_edge(u, v)
        for node in condensed.removed_nodes:
            graph.remove_node(node)
        clusters.removed_nodes |= condensed.removed_nodes
        clusters.removed_edges.extend(costed)
    # Labels are searched after every cluster condensed, over the
    # captured edge lists — the production task order.
    for live_nodes, label_edges, entrances in labels:
        _cluster_labels(
            graph.dim, live_nodes, label_edges, entrances, clusters.index
        )

    strip.index.absorb(clusters.index, set(graph.nodes()))
    return _Round(
        removed_nodes=strip.removed_nodes | clusters.removed_nodes,
        removed_edges=strip.removed_edges + clusters.removed_edges,
        index=strip.index,
    )


def _segment_prefixes(graph: MultiCostGraph, nodes: list[int]) -> list[PathSet]:
    """Skyline paths from ``nodes[0]`` to each position along a segment."""
    prefixes = [PathSet([Path.trivial(nodes[0], graph.dim)])]
    for u, v in zip(nodes, nodes[1:]):
        grown = PathSet()
        for prefix in prefixes[-1]:
            for cost in graph.edge_costs(u, v):
                grown.add(prefix.concat(Path((u, v), cost)))
        prefixes.append(grown)
    return prefixes


def _condense_segments(graph: MultiCostGraph, level: LevelIndex, provenance):
    """Aggressive summarization with full path sets; returns the
    number of removed edge entries."""
    removed_nodes: set[int] = set()
    round_index = LevelIndex()
    removed_edges = 0
    for segment in find_single_segments(graph):
        nodes = segment.nodes
        if any(node in removed_nodes for node in nodes):
            continue  # already consumed by an overlapping segment
        prefixes = _segment_prefixes(graph, nodes)
        suffixes = _segment_prefixes(graph, nodes[::-1])[::-1]
        for position, node in enumerate(nodes[1:-1], start=1):
            for prefix in prefixes[position]:
                round_index.add_path(node, segment.left, prefix.reverse())
            for suffix in suffixes[position]:
                round_index.add_path(node, segment.right, suffix.reverse())
        shortcut_costs = [through.cost for through in prefixes[-1]]
        for u, v in zip(nodes, nodes[1:]):
            removed_edges += len(graph.edge_costs(u, v))
        removed_nodes.update(segment.interior)
        if segment.left != segment.right:
            for cost in shortcut_costs:
                provenance.setdefault(
                    (segment.left, segment.right, cost), tuple(nodes)
                )
        for u, v in zip(nodes, nodes[1:]):
            if graph.has_edge(u, v):
                graph.remove_edge(u, v)
        for node in segment.interior:
            if graph.has_node(node):
                graph.remove_node(node)
        if segment.left != segment.right:
            for cost in shortcut_costs:
                graph.add_edge(segment.left, segment.right, cost)
    if removed_edges and graph.num_nodes > 0:
        level.absorb(round_index, set(graph.nodes()))
    return removed_edges


def build_backbone_index(
    graph: MultiCostGraph, params: BackboneParams | None = None
) -> BackboneIndex:
    """Algorithm 2 as the paper states it; the reference for
    :func:`repro.core.builder.build_backbone_index`."""
    if params is None:
        params = BackboneParams()
    if graph.num_nodes == 0:
        raise BuildError("cannot index an empty graph")
    if graph.directed:
        raise BuildError("the reference build expects an undirected network")
    started = time.perf_counter()
    required = required_edge_removals(graph, params)
    work = graph.copy()
    levels: list[LevelIndex] = []
    level_stats: list[LevelStats] = []
    provenance: dict[ShortcutKey, tuple[int, ...]] = {}

    while len(levels) < params.max_levels:
        nodes_before = work.num_nodes
        edges_before = work.num_edge_entries
        level = LevelIndex()
        level_provenance: dict[ShortcutKey, tuple[int, ...]] = {}
        removed = rounds = 0
        while removed < required and rounds < _MAX_ROUNDS_PER_LEVEL:
            before_round = work.copy()
            outcome = _condense_round(work, params)
            rounds += 1
            if not outcome.changed:
                break
            if work.num_nodes == 0:
                work.restore_from(before_round)  # |G_{i+1}.V| must stay > 0
                break
            level.absorb(outcome.index, set(work.nodes()))
            removed += len(outcome.removed_edges)

        aggressive_used = False
        wants_aggressive = params.aggressive is AggressiveMode.EACH or (
            params.aggressive is AggressiveMode.NORMAL and removed < required
        )
        if wants_aggressive and work.num_nodes > 0:
            shortcut_edges = _condense_segments(work, level, level_provenance)
            if shortcut_edges and work.num_nodes > 0:
                aggressive_used = True
                removed += shortcut_edges
                provenance.update(level_provenance)

        if removed == 0:
            break
        levels.append(level)
        level_stats.append(
            LevelStats(
                level=len(levels) - 1,
                nodes_before=nodes_before,
                edges_before=edges_before,
                removed_edges=removed,
                label_paths=level.path_count(),
                aggressive_used=aggressive_used,
                rounds=rounds,
            )
        )
        if work.num_nodes == 0 or removed < required:
            break

    stats = BuildStats(levels=level_stats)
    stats.elapsed_seconds = time.perf_counter() - started
    return BackboneIndex(
        original_graph=graph,
        params=params,
        levels=levels,
        top_graph=work,
        provenance=provenance,
        build_stats=stats,
    )

"""Level summarization: degree-1 stripping and cluster condensation.

Regular summarization of a level graph G_i (Section 4.3.1) runs in
rounds until enough edges are gone:

1. strip degree-1 edges recursively (dangling trees), labeling each
   removed node with its unique path to the surviving anchor;
2. find dense clusters (Algorithm 1) and condense each one (spanning
   tree + 2-core pruning), labeling every cluster node with its skyline
   paths to the cluster's highway entrances over the removed edges.

Every round mutates a working copy of the level graph in place and
returns its :class:`RoundPlan`; :func:`fold_round` turns a plan into
the round's labels.

A round splits into structure and pricing.  The structure — the peel
order, the clusters and their spanning forests, the surviving nodes —
depends only on adjacency.  The pricing — the strip skylines
(:func:`price_strip`) and the cluster label tasks
(:func:`~repro.core.labels.run_label_task`) — reads edge costs.  A
:class:`RoundPlan` keeps both, so index maintenance can rerun just the
pieces that read a changed edge and re-fold the round
(:func:`fold_round`).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.core.clustering import Clustering, find_dense_clusters
from repro.core.coefficients import all_coefficient_stats
from repro.core.labels import (
    CostedEdge,
    LabelRow,
    LabelTask,
    LevelIndex,
    record_label_rows,
    run_label_task,
)
from repro.core.params import BackboneParams, ClusteringStrategy, LabelScope
from repro.core.spanning import Edge, condense_cluster
from repro.graph.mcrn import MultiCostGraph
from repro.obs.tracer import Tracer, resolve_tracer
from repro.graph.traversal import bfs_order, peel_degree_one
from repro.paths.dominance import (
    CostVector,
    add_costs,
    dominates,
    dominates_or_equal,
)
from repro.paths.path import Path


EdgeCosts = Callable[[int, int], list[CostVector]]


@dataclass
class RoundPlan:
    """One condensing round's decisions and its priced pieces.

    ``strip_order`` is the peel order, ``(node, anchor)`` per stripped
    node, and ``strip_rows`` its priced label rows.  Per condensed
    cluster, ``tasks`` holds the label task (its removed edges costed),
    ``task_rows`` the task's rows, and ``cluster_pairs`` the node pairs
    the cluster removed from the level graph.  ``surviving`` is the
    level graph's node set after the round.
    """

    strip_order: list[Edge] = field(default_factory=list)
    strip_rows: list[LabelRow] = field(default_factory=list)
    tasks: list[LabelTask] = field(default_factory=list)
    task_rows: list[list[LabelRow]] = field(default_factory=list)
    cluster_pairs: list[list[Edge]] = field(default_factory=list)
    surviving: set[int] = field(default_factory=set)


def fold_round(plan: RoundPlan) -> LevelIndex:
    """The round's labels: strip rows, then every cluster task's rows
    (strip labels whose anchors got condensed re-target through the
    cluster labels)."""
    index = LevelIndex()
    record_label_rows(index, plan.strip_rows)
    clusters = LevelIndex()
    for rows in plan.task_rows:
        record_label_rows(clusters, rows)
    index.absorb(clusters, plan.surviving, steal=True)
    return index


@dataclass
class RoundResult:
    """What one summarization round removed and recorded.

    ``clusters_condensed`` counts the dense clusters this round
    actually collapsed (observability only; zero for pure strip
    rounds).  ``plan`` holds the round's structure and priced pieces;
    :func:`fold_round` folds its labels.
    """

    removed_nodes: set[int] = field(default_factory=set)
    removed_edges: list[CostedEdge] = field(default_factory=list)
    clusters_condensed: int = 0
    plan: RoundPlan = field(default_factory=RoundPlan)

    @property
    def removed_edge_count(self) -> int:
        return len(self.removed_edges)

    @property
    def changed(self) -> bool:
        return bool(self.removed_nodes or self.removed_edges)


def price_strip(order: list[Edge], edge_costs: EdgeCosts) -> list[LabelRow]:
    """Label rows for a peel order, priced by ``edge_costs(u, v)``.

    Every path in a removed node's bucket follows the same unique tree
    route, so the per-node path skyline reduces to a cost skyline over
    parallel-edge cost combinations plus one shared route tuple — the
    same labels, in the same order, as the path-set formulation of
    :mod:`repro.qa.reference`.
    """
    removed = {node for node, _ in order}
    # Process outermost-anchor first: iterate the peel order in reverse
    # so a node's anchor paths are ready before the node needs them.
    skyline_to_anchor: dict[
        int, tuple[int, tuple[int, ...], list[CostVector]]
    ] = {}
    for node, anchor in reversed(order):
        costs = edge_costs(node, anchor)
        if anchor in removed:
            final_anchor, route, anchor_costs = skyline_to_anchor[anchor]
            route = (node,) + route
            candidates = [
                add_costs(edge_cost, continuation)
                for edge_cost in costs
                for continuation in anchor_costs
            ]
        else:
            final_anchor = anchor
            route = (node, anchor)
            candidates = [tuple(edge_cost) for edge_cost in costs]
        bucket_costs: list[CostVector] = []
        for candidate in candidates:
            if any(dominates_or_equal(kept, candidate) for kept in bucket_costs):
                continue
            if bucket_costs:
                bucket_costs[:] = [
                    kept for kept in bucket_costs if not dominates(candidate, kept)
                ]
            bucket_costs.append(candidate)
        skyline_to_anchor[node] = (final_anchor, route, bucket_costs)

    rows: list[LabelRow] = []
    for node, _ in order:
        final_anchor, route, bucket_costs = skyline_to_anchor[node]
        for cost in bucket_costs:
            rows.append((node, final_anchor, Path(route, cost)))
    return rows


def strip_degree_one(graph: MultiCostGraph) -> RoundResult:
    """Remove dangling trees, pricing removed nodes' labels to anchors.

    "We first remove the degree-1 edges from graph G_i ... until every
    remaining node has a degree of 2 or higher."  Each removed node's
    highway entrance is the surviving node its dangling tree hangs
    from; the label rows (``plan.strip_rows``) follow the unique tree
    route (parallel edges contribute a skyline of cost combinations,
    see :func:`price_strip`).
    """
    result = RoundResult()
    order = peel_degree_one(graph)
    result.plan.strip_order = order
    result.plan.strip_rows = price_strip(order, graph.edge_costs)
    for node, anchor in order:
        for cost in graph.edge_costs(node, anchor):
            result.removed_edges.append((node, anchor, cost))
        result.removed_nodes.add(node)
    for node, _ in order:
        graph.remove_node(node)
    return result


def bfs_partitions(graph: MultiCostGraph, m_max: int) -> Clustering:
    """Partition nodes into BFS chunks of at most ``m_max`` nodes.

    The comparison method of Section 6.2.3: connected partitions that
    ignore density.  Every node lands in some partition; there are no
    noise nodes.
    """
    clustering = Clustering()
    seen: set[int] = set()
    for start in graph.nodes():
        if start in seen:
            continue
        chunk: set[int] = set()
        for node in bfs_order(graph, start):
            if node in seen:
                continue
            chunk.add(node)
            seen.add(node)
            if len(chunk) >= m_max:
                clustering.clusters.append(chunk)
                chunk = set()
        if chunk:
            clustering.clusters.append(chunk)
    return clustering


def _discover_clusters(
    graph: MultiCostGraph, params: BackboneParams
) -> Clustering:
    if params.clustering is ClusteringStrategy.BFS:
        return bfs_partitions(graph, params.m_max)
    coefficients, cardinalities = all_coefficient_stats(graph)
    return find_dense_clusters(
        graph,
        params,
        coefficients=coefficients,
        cardinalities=cardinalities,
    )


def condense_round(
    graph: MultiCostGraph,
    params: BackboneParams,
    *,
    tracer: Tracer | None = None,
) -> RoundResult:
    """One full condensing round: strip degree-1, then condense clusters.

    Mutates ``graph`` in place.  The returned plan holds the stripping
    rows and the cluster tasks' rows; :func:`fold_round` folds them
    together (strip labels whose anchors get condensed are re-targeted
    through the cluster labels).

    Condensing decisions run first, collecting one pure
    :class:`LabelTask` per cluster; the tasks then execute after the
    graph has mutated, in cluster order (clusters' removed edges are
    captured costed, so nothing depends on the live graph).
    Coefficient tables come from one pass, cluster edges from
    cluster-local scans, labels from the CSR one-to-all kernel, and
    round labels merge by steal — all decision- and label-identical to
    the scalar reference build (:mod:`repro.qa.reference`).
    """
    tracer = resolve_tracer(tracer)
    with tracer.span("build.strip_degree_one") as span:
        result = strip_degree_one(graph)
        if span.enabled:
            span.set(
                removed_nodes=len(result.removed_nodes),
                removed_edges=len(result.removed_edges),
            )
    with tracer.span("build.cluster_discovery") as span:
        clustering = _discover_clusters(graph, params)
        if span.enabled:
            span.set(clusters=len(clustering.clusters))

    plan = result.plan
    with tracer.span("build.condense_clusters") as cspan:
        cluster_edges = 0
        for cluster_nodes in clustering.clusters:
            live_nodes = {
                node for node in cluster_nodes if graph.has_node(node)
            }
            if len(live_nodes) < 2:
                continue
            condensed = condense_cluster(
                graph, live_nodes, policy=params.tree_policy, local_scan=True
            )
            if not condensed.kept_nodes:
                # The cluster is an entire connected component of the
                # working graph, so it has no highway entrance to label
                # toward: condensing would strand every node in it,
                # unreachable by any query.  Algorithm 2's non-empty
                # G_{i+1} requirement applies per component — leave the
                # remnant intact and let it flow up to G_L.
                continue
            result.clusters_condensed += 1
            cspan.count("spanning_trees")
            costed: list[CostedEdge] = []
            for u, v in condensed.removed_edges:
                for cost in graph.edge_costs(u, v):
                    costed.append((u, v, cost))
            label_edges = costed
            if params.label_scope is LabelScope.FULL_CLUSTER:
                # ablation: label searches may also use the kept cluster
                # edges — richer labels at higher construction cost
                removed_pairs = set(condensed.removed_edges)
                label_edges = list(costed)
                for u, v in graph.edge_pairs():
                    if (
                        u in live_nodes
                        and v in live_nodes
                        and (min(u, v), max(u, v)) not in removed_pairs
                    ):
                        for cost in graph.edge_costs(u, v):
                            label_edges.append((u, v, cost))
            plan.tasks.append(
                LabelTask(
                    dim=graph.dim,
                    cluster_nodes=live_nodes,
                    removed_edges=label_edges,
                    entrances=condensed.kept_nodes,
                )
            )
            plan.cluster_pairs.append(condensed.removed_edges)
            for u, v in condensed.removed_edges:
                graph.remove_edge(u, v)
            for node in condensed.removed_nodes:
                graph.remove_node(node)
            result.removed_nodes |= condensed.removed_nodes
            result.removed_edges.extend(costed)
            cluster_edges += len(costed)

        plan.task_rows = [run_label_task(task) for task in plan.tasks]

        if cspan.enabled:
            cspan.set(
                clusters=result.clusters_condensed,
                removed_edges=cluster_edges,
                label_rows=sum(len(rows) for rows in plan.task_rows),
            )

    plan.surviving = set(graph.nodes())
    return result

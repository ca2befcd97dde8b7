"""Level summarization: degree-1 stripping and cluster condensation.

Regular summarization of a level graph G_i (Section 4.3.1) runs in
rounds until enough edges are gone:

1. strip degree-1 edges recursively (dangling trees), labeling each
   removed node with its unique path to the surviving anchor;
2. find dense clusters (Algorithm 1) and condense each one (spanning
   tree + 2-core pruning), labeling every cluster node with its skyline
   paths to the cluster's highway entrances over the removed edges.

Every round mutates a working copy of the level graph in place and
returns the labels it generated; the caller folds rounds together with
:meth:`LevelIndex.absorb`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.clustering import Clustering, find_dense_clusters
from repro.core.coefficients import all_coefficient_stats
from repro.core.labels import (
    CostedEdge,
    LabelTask,
    LevelIndex,
    record_label_rows,
    run_label_task,
)
from repro.core.params import BackboneParams, ClusteringStrategy, LabelScope
from repro.core.spanning import condense_cluster
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


@dataclass
class RoundResult:
    """What one summarization round removed and recorded.

    ``clusters_condensed`` counts the dense clusters this round
    actually collapsed (observability only; zero for pure strip
    rounds).
    """

    removed_nodes: set[int] = field(default_factory=set)
    removed_edges: list[CostedEdge] = field(default_factory=list)
    index: LevelIndex = field(default_factory=LevelIndex)
    clusters_condensed: int = 0

    @property
    def removed_edge_count(self) -> int:
        return len(self.removed_edges)

    @property
    def changed(self) -> bool:
        return bool(self.removed_nodes or self.removed_edges)


def strip_degree_one(graph: MultiCostGraph) -> RoundResult:
    """Remove dangling trees, labeling removed nodes to their anchors.

    "We first remove the degree-1 edges from graph G_i ... until every
    remaining node has a degree of 2 or higher."  Each removed node's
    highway entrance is the surviving node its dangling tree hangs
    from; the label paths follow the unique tree route (parallel edges
    contribute a skyline of cost combinations).

    Every path in a removed node's bucket follows the same unique tree
    route, so the per-node path skyline reduces to a cost skyline over
    parallel-edge cost combinations plus one shared route tuple — the
    same labels, in the same order, as the path-set formulation of
    :mod:`repro.qa.reference`.
    """
    result = RoundResult()
    order = peel_degree_one(graph)
    removed = {node for node, _ in order}
    # Process outermost-anchor first: iterate the peel order in reverse
    # so a node's anchor paths are ready before the node needs them.
    skyline_to_anchor: dict[
        int, tuple[int, tuple[int, ...], list[CostVector]]
    ] = {}
    for node, anchor in reversed(order):
        edge_costs = graph.edge_costs(node, anchor)
        if anchor in removed:
            final_anchor, route, anchor_costs = skyline_to_anchor[anchor]
            route = (node,) + route
            candidates = [
                add_costs(edge_cost, continuation)
                for edge_cost in edge_costs
                for continuation in anchor_costs
            ]
        else:
            final_anchor = anchor
            route = (node, anchor)
            candidates = [tuple(edge_cost) for edge_cost in edge_costs]
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

    for node, anchor in order:
        for cost in graph.edge_costs(node, anchor):
            result.removed_edges.append((node, anchor, cost))
        final_anchor, route, bucket_costs = skyline_to_anchor[node]
        for cost in bucket_costs:
            result.index.add_path(node, final_anchor, Path(route, cost))
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

    Mutates ``graph`` in place.  The returned index already folds the
    stripping labels and the cluster labels together (strip labels whose
    anchors get condensed are re-targeted through the cluster labels).

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
        strip = strip_degree_one(graph)
        if span.enabled:
            span.set(
                removed_nodes=len(strip.removed_nodes),
                removed_edges=len(strip.removed_edges),
            )
    with tracer.span("build.cluster_discovery") as span:
        clustering = _discover_clusters(graph, params)
        if span.enabled:
            span.set(clusters=len(clustering.clusters))

    cluster_result = RoundResult()
    with tracer.span("build.condense_clusters") as cspan:
        tasks: list[LabelTask] = []
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
            cluster_result.clusters_condensed += 1
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
            tasks.append(
                LabelTask(
                    dim=graph.dim,
                    cluster_nodes=live_nodes,
                    removed_edges=label_edges,
                    entrances=condensed.kept_nodes,
                    max_frontier=params.max_label_frontier,
                )
            )
            for u, v in condensed.removed_edges:
                graph.remove_edge(u, v)
            for node in condensed.removed_nodes:
                graph.remove_node(node)
            cluster_result.removed_nodes |= condensed.removed_nodes
            cluster_result.removed_edges.extend(costed)

        all_rows = [run_label_task(task) for task in tasks]
        for rows in all_rows:
            record_label_rows(cluster_result.index, rows)

        if cspan.enabled:
            cspan.set(
                clusters=cluster_result.clusters_condensed,
                removed_edges=len(cluster_result.removed_edges),
                label_rows=sum(len(rows) for rows in all_rows),
            )

    surviving = set(graph.nodes())
    strip.index.absorb(cluster_result.index, surviving, steal=True)
    return RoundResult(
        removed_nodes=strip.removed_nodes | cluster_result.removed_nodes,
        removed_edges=strip.removed_edges + cluster_result.removed_edges,
        index=strip.index,
        clusters_condensed=cluster_result.clusters_condensed,
    )

"""GTree [50] adapted to skyline paths — a comparison index (Table 2).

GTree recursively partitions the road network into a tree (fanout f,
leaves of at most ``leaf_size`` vertices) and pre-computes distance
matrices between partition *borders*.  Following the paper's adaptation
(Section 6.1), the pre-computed entries are **skyline path sets** rather
than single shortest-path weights: every border pair stores the Pareto
set of path costs within its subtree's assembled graph.

This is exactly where the approach collapses for skyline queries: the
assembled graphs of internal tree nodes accumulate one parallel edge
per skyline vector, so the graph "contracting process increases the
graph size, which grows exponentially" (Section 6.2.2).  A build budget
caps the damage and reports DNF, mirroring the paper's 1-day timeout.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

from repro.accel.csr import CSRSnapshot
from repro.errors import BuildError, QueryError
from repro.graph.mcrn import MultiCostGraph
from repro.paths.dominance import CostVector
from repro.paths.frontier import PathSet
from repro.paths.path import Path
from repro.search.bbs import skyline_paths
from repro.search.onetoall import one_to_all_skyline


@dataclass
class GTreeNode:
    """One tree node: a vertex set, its borders, and a skyline matrix."""

    node_id: int
    vertices: set[int]
    borders: list[int] = field(default_factory=list)
    children: list["GTreeNode"] = field(default_factory=list)
    # (border_a, border_b) -> skyline cost vectors, a < b
    matrix: dict[tuple[int, int], list[CostVector]] = field(default_factory=dict)

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass
class GTreeBuildReport:
    """Build metrics for the Table 2 comparison."""

    seconds: float = 0.0
    finished: bool = False
    stored_vectors: int = 0
    tree_nodes: int = 0
    max_assembled_edges: int = 0


class GTreeIndex:
    """A GTree with skyline border matrices over a multi-cost network."""

    def __init__(
        self,
        graph: MultiCostGraph,
        *,
        fanout: int = 4,
        leaf_size: int = 64,
        time_budget: float | None = None,
    ) -> None:
        """Build the index; respects ``time_budget`` (seconds) if given.

        On budget expiry a :class:`BuildError` is raised after filling
        :attr:`report` with the partial metrics — the caller reports a
        DNF row exactly as the paper does for C9_NY_10K.
        """
        if fanout < 2:
            raise BuildError(f"fanout must be >= 2, got {fanout}")
        if leaf_size < 2:
            raise BuildError(f"leaf_size must be >= 2, got {leaf_size}")
        self.graph = graph
        self.fanout = fanout
        self.leaf_size = leaf_size
        self.report = GTreeBuildReport()
        self._deadline = (
            time.perf_counter() + time_budget if time_budget is not None else None
        )
        self._next_id = 0
        started = time.perf_counter()
        self.root = self._build_node(set(graph.nodes()))
        self.report.seconds = time.perf_counter() - started
        self.report.finished = True

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _check_budget(self) -> None:
        if self._deadline is not None and time.perf_counter() > self._deadline:
            self.report.seconds = 0.0  # caller reads wall clock itself
            raise BuildError("GTree construction exceeded its time budget (DNF)")

    def _build_node(self, vertices: set[int]) -> GTreeNode:
        self._check_budget()
        node = GTreeNode(node_id=self._next_id, vertices=vertices)
        self._next_id += 1
        self.report.tree_nodes += 1
        node.borders = self._borders(vertices)
        if len(vertices) > self.leaf_size:
            for part in _multi_seed_partition(self.graph, vertices, self.fanout):
                if part:
                    node.children.append(self._build_node(part))
        if node.is_leaf:
            self._fill_leaf_matrix(node)
        else:
            self._fill_internal_matrix(node)
        return node

    def _borders(self, vertices: set[int]) -> list[int]:
        return sorted(
            v
            for v in vertices
            if any(n not in vertices for n in self.graph.neighbors(v))
        )

    def _fill_leaf_matrix(self, node: GTreeNode) -> None:
        subgraph = self.graph.induced_subgraph(node.vertices)
        snapshot = CSRSnapshot.from_graph(subgraph)
        interesting = set(node.borders)
        for border in node.borders:
            self._check_budget()
            if not subgraph.has_node(border):
                continue
            reached = one_to_all_skyline(
                subgraph, border, targets=interesting, snapshot=snapshot
            )
            for other, paths in reached.items():
                if other <= border:
                    continue
                key = (border, other)
                vectors = [path.cost for path in paths]
                node.matrix[key] = vectors
                self.report.stored_vectors += len(vectors)

    def _assembled_graph(self, node: GTreeNode) -> MultiCostGraph:
        """The border graph of an internal node: children borders plus
        one parallel edge per stored skyline vector."""
        assembled = MultiCostGraph(self.graph.dim)
        for child in node.children:
            for border in child.borders:
                assembled.add_node(border)
            for (a, b), vectors in child.matrix.items():
                for cost in vectors:
                    assembled.add_edge(a, b, cost)
        # Original edges crossing between children stay real edges.
        border_set = {b for child in node.children for b in child.borders}
        for u, v, cost in self.graph.edges():
            if u in border_set and v in border_set:
                owner_u = self._owning_child(node, u)
                owner_v = self._owning_child(node, v)
                if owner_u is not owner_v:
                    assembled.add_edge(u, v, cost)
        if assembled.num_edge_entries > self.report.max_assembled_edges:
            self.report.max_assembled_edges = assembled.num_edge_entries
        return assembled

    def _owning_child(self, node: GTreeNode, vertex: int) -> GTreeNode | None:
        for child in node.children:
            if vertex in child.vertices:
                return child
        return None

    def _fill_internal_matrix(self, node: GTreeNode) -> None:
        assembled = self._assembled_graph(node)
        interesting = [b for b in node.borders if assembled.has_node(b)]
        target_set = set(interesting)
        snapshot = CSRSnapshot.from_graph(assembled)
        for border in interesting:
            self._check_budget()
            reached = one_to_all_skyline(
                assembled, border, targets=target_set, snapshot=snapshot
            )
            for other, paths in reached.items():
                if other <= border:
                    continue
                vectors = [path.cost for path in paths]
                node.matrix[(border, other)] = vectors
                self.report.stored_vectors += len(vectors)

    # ------------------------------------------------------------------
    # introspection & query
    # ------------------------------------------------------------------

    def size_vectors(self) -> int:
        """Total stored skyline cost vectors (the index-size metric)."""
        return self.report.stored_vectors

    def leaf_of(self, vertex: int) -> GTreeNode:
        """The leaf tree-node containing a vertex."""
        node = self.root
        while not node.is_leaf:
            child = self._owning_child(node, vertex)
            if child is None:
                raise QueryError(f"vertex {vertex} fell out of the tree")
            node = child
        return node

    def query(self, source: int, target: int) -> list[Path]:
        """Skyline path *costs* between two vertices via the tree.

        Returns paths over the assembled search graph (border hops, not
        original-node sequences); adequate for the cost-level
        comparisons the paper makes.  Same-leaf queries run an exact
        BBS within the leaf subgraph.
        """
        leaf_s = self.leaf_of(source)
        leaf_t = self.leaf_of(target)
        if leaf_s.node_id == leaf_t.node_id:
            subgraph = self.graph.induced_subgraph(leaf_s.vertices)
            return skyline_paths(subgraph, source, target).paths

        search = MultiCostGraph(self.graph.dim)
        for leaf, endpoint in ((leaf_s, source), (leaf_t, target)):
            subgraph = self.graph.induced_subgraph(leaf.vertices)
            reached = one_to_all_skyline(
                subgraph, endpoint, targets=set(leaf.borders)
            )
            for border, paths in reached.items():
                if border == endpoint:
                    continue
                for path in paths:
                    search.add_edge(endpoint, border, path.cost)
        # Every internal tree node on either root path contributes its
        # assembled border graph (children matrices + cross edges); this
        # is what connects the two leaf branches through their ancestors.
        seen_nodes: set[int] = set()
        for leaf in (leaf_s, leaf_t):
            for tree_node in self._path_to_root(leaf):
                if tree_node.node_id in seen_nodes:
                    continue
                seen_nodes.add(tree_node.node_id)
                if tree_node.is_leaf:
                    for (a, b), vectors in tree_node.matrix.items():
                        for cost in vectors:
                            search.add_edge(a, b, cost)
                else:
                    assembled = self._assembled_graph(tree_node)
                    for a, b, cost in assembled.edges():
                        search.add_edge(a, b, cost)
        if not search.has_node(source) or not search.has_node(target):
            return []
        return skyline_paths(search, source, target).paths

    def _path_to_root(self, leaf: GTreeNode) -> list[GTreeNode]:
        chain: list[GTreeNode] = []
        node = self.root
        while True:
            chain.append(node)
            if node.node_id == leaf.node_id or node.is_leaf:
                break
            child = next(
                (c for c in node.children if leaf.vertices <= c.vertices), None
            )
            if child is None:
                break
            node = child
        return chain


def _multi_seed_partition(
    graph: MultiCostGraph, vertices: set[int], parts: int
) -> list[set[int]]:
    """Split a vertex set into ``parts`` balanced connected chunks.

    Seeds are spread by a farthest-point sweep on hop distance, then
    grown breadth-first in lockstep; ties go to the smallest chunk,
    keeping sizes balanced the way GTree's METIS partitioning would.
    """
    ordered = sorted(vertices)
    if parts >= len(ordered):
        return [{v} for v in ordered]
    seeds = [ordered[0]]
    hop = _hop_distances(graph, ordered[0], vertices)
    while len(seeds) < parts:
        candidates = {v: d for v, d in hop.items() if v not in seeds}
        if not candidates:
            break
        nxt = max(candidates, key=candidates.__getitem__)
        seeds.append(nxt)
        for v, d in _hop_distances(graph, nxt, vertices).items():
            if d < hop.get(v, float("inf")):
                hop[v] = d

    owner: dict[int, int] = {}
    chunks: list[set[int]] = [set() for _ in seeds]
    heap: list[tuple[int, int, int, int]] = []
    counter = 0
    for index, seed in enumerate(seeds):
        owner[seed] = index
        chunks[index].add(seed)
        heap.append((1, counter, seed, index))
        counter += 1
    heapq.heapify(heap)
    while heap:
        size, _, vertex, index = heapq.heappop(heap)
        for neighbor in sorted(graph.neighbors(vertex)):
            if neighbor in vertices and neighbor not in owner:
                owner[neighbor] = index
                chunks[index].add(neighbor)
                counter += 1
                heapq.heappush(heap, (len(chunks[index]), counter, neighbor, index))
    # Disconnected leftovers join the smallest chunk.
    for vertex in ordered:
        if vertex not in owner:
            smallest = min(range(len(chunks)), key=lambda i: len(chunks[i]))
            owner[vertex] = smallest
            chunks[smallest].add(vertex)
    return [chunk for chunk in chunks if chunk]


def _hop_distances(
    graph: MultiCostGraph, source: int, within: set[int]
) -> dict[int, int]:
    from collections import deque

    dist = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in graph.neighbors(node):
            if neighbor in within and neighbor not in dist:
                dist[neighbor] = dist[node] + 1
                queue.append(neighbor)
    return dist

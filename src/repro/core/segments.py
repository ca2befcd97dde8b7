"""Single segments and aggressive summarization (Definition 3.5, Ex. 4.9).

A *single segment* is a maximal path whose interior nodes all have
degree 2 (consecutive <2,2> degree-pair edges) bracketed by two
higher-degree endpoints.  When regular summarization stalls — it cannot
remove enough edges without destroying topology — the aggressive
strategy replaces each segment with a *shortcut edge* between its
endpoints whose cost is the segment's summed cost, and gives every
removed interior node a label to the two endpoints.

Parallel edges along a segment multiply path choices, so the shortcut
is in general a *skyline set* of cost vectors, which the multigraph's
parallel-edge pruning stores naturally.

Which segments condense depends only on degrees; their labels and
shortcut costs are the segment's pricing (:func:`price_segment`),
which index maintenance reruns when a chain edge's cost changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.labels import CostedEdge, LabelRow
from repro.graph.mcrn import MultiCostGraph
from repro.paths.dominance import (
    CostVector,
    add_costs,
    dominates,
    dominates_or_equal,
    zero_cost,
)
from repro.paths.path import Path


@dataclass
class Segment:
    """One single segment: endpoints plus interior degree-2 nodes."""

    nodes: list[int]  # [u, v0, ..., vj, w]

    @property
    def left(self) -> int:
        return self.nodes[0]

    @property
    def right(self) -> int:
        return self.nodes[-1]

    @property
    def interior(self) -> list[int]:
        return self.nodes[1:-1]


@dataclass
class SegmentPiece:
    """One condensed segment and its pricing: the interior nodes' label
    rows and the shortcut's cost skyline."""

    nodes: tuple[int, ...]  # (u, v0, ..., vj, w)
    rows: list[LabelRow]
    shortcut_costs: list[CostVector]

    @property
    def has_shortcut(self) -> bool:
        """False for a lollipop, whose endpoints coincide."""
        return self.nodes[0] != self.nodes[-1]


@dataclass
class AggressiveResult:
    """Outcome of one aggressive summarization pass."""

    removed_nodes: set[int] = field(default_factory=set)
    removed_edges: list[CostedEdge] = field(default_factory=list)
    pieces: list[SegmentPiece] = field(default_factory=list)


def find_single_segments(graph: MultiCostGraph) -> list[Segment]:
    """All single segments of the graph (Definition 3.5).

    Pure degree-2 cycles have no qualifying endpoints and are skipped —
    condensing them to a single edge has no endpoint to anchor to.
    """
    segments: list[Segment] = []
    assigned: set[int] = set()
    for start in graph.nodes():
        if graph.degree(start) != 2 or start in assigned:
            continue
        # Walk left and right from the degree-2 node until hitting a
        # node whose degree differs from 2.
        chain = [start]
        is_cycle = False
        for direction in (0, 1):
            previous = start
            neighbors = sorted(graph.neighbors(start))
            current = neighbors[direction] if len(neighbors) > direction else None
            if current is None:
                break
            while True:
                if direction == 0:
                    chain.insert(0, current)
                else:
                    chain.append(current)
                if graph.degree(current) != 2:
                    break
                if current == start:
                    is_cycle = True
                    break
                step = [n for n in graph.neighbors(current) if n != previous]
                if not step:
                    break
                previous, current = current, step[0]
            if is_cycle:
                break
        if is_cycle:
            # Mark the whole cycle assigned so we do not rediscover it.
            assigned.update(n for n in chain if graph.degree(n) == 2)
            continue
        interior = [n for n in chain if graph.degree(n) == 2]
        if not interior:
            continue
        if graph.degree(chain[0]) < 3 or graph.degree(chain[-1]) < 3:
            # Definition 3.5 requires the outer edges to touch a node of
            # degree > 2; runs ending in degree-1 tails belong to the
            # regular degree-1 stripping instead.
            continue
        assigned.update(interior)
        segments.append(Segment(nodes=chain))
    return segments


def _chain_cost_prefixes(
    dim: int, chain_costs: list[list[CostVector]]
) -> list[list[CostVector]]:
    """Skyline *costs* from a chain's start to each position along it.

    ``chain_costs[k]`` lists the parallel costs of the chain's k-th
    edge.  Every skyline path to position ``k`` walks the same node
    sequence — only the parallel-edge cost choices differ — so the
    per-position path skyline reduces to a cost skyline.  The insertion
    discipline is ``ParetoSet.add`` with ``keep_equal_costs=True``
    under that collapse, so each list matches the path-set formulation
    of :mod:`repro.qa.reference` value for value, in the same order.
    """
    skylines: list[list[CostVector]] = [[zero_cost(dim)]]
    for edge_costs in chain_costs:
        grown: list[CostVector] = []
        for previous in skylines[-1]:
            for cost in edge_costs:
                candidate = add_costs(previous, cost)
                if any(dominates_or_equal(kept, candidate) for kept in grown):
                    continue
                if grown:
                    grown[:] = [
                        kept for kept in grown if not dominates(candidate, kept)
                    ]
                grown.append(candidate)
        skylines.append(grown)
    return skylines


def price_segment(
    dim: int, nodes: tuple[int, ...], chain_costs: list[list[CostVector]]
) -> SegmentPiece:
    """Price one segment from its chain edges' parallel costs.

    Every interior node gets labels to both endpoints (its highway
    entrances), from per-position cost skylines
    (:func:`_chain_cost_prefixes`), each path materialized once,
    directly in label orientation.  The shortcut costs are the skyline
    from one endpoint to the other.
    """
    cost_prefixes = _chain_cost_prefixes(dim, chain_costs)
    cost_suffixes = _chain_cost_prefixes(dim, chain_costs[::-1])[::-1]
    left, right = nodes[0], nodes[-1]
    rows: list[LabelRow] = []
    for position in range(1, len(nodes) - 1):
        node = nodes[position]
        toward_left = nodes[position::-1]
        for cost in cost_prefixes[position]:
            rows.append((node, left, Path(toward_left, cost)))
        toward_right = nodes[position:]
        for cost in cost_suffixes[position]:
            rows.append((node, right, Path(toward_right, cost)))
    return SegmentPiece(nodes, rows, cost_prefixes[-1])


def condense_segments(
    graph: MultiCostGraph, segments: list[Segment]
) -> AggressiveResult:
    """Condense segments into shortcuts, mutating ``graph`` (Ex. 4.9).

    Every interior node receives labels to both segment endpoints
    (:func:`price_segment`); ``pieces`` keeps each condensed segment's
    label rows and shortcut costs, in segment order.  When a segment's endpoints coincide (a
    lollipop), no shortcut is added — the interior is reachable only
    through that one endpoint anyway.
    """
    result = AggressiveResult()
    for segment in segments:
        nodes = tuple(segment.nodes)
        if any(node in result.removed_nodes for node in nodes):
            continue  # already consumed by an overlapping segment
        chain_costs = [
            graph.edge_costs(u, v) for u, v in zip(nodes, nodes[1:])
        ]
        piece = price_segment(graph.dim, nodes, chain_costs)
        result.pieces.append(piece)

        for (u, v), costs in zip(zip(nodes, nodes[1:]), chain_costs):
            for cost in costs:
                result.removed_edges.append((u, v, cost))
        result.removed_nodes.update(segment.interior)

        # Mutate the graph: drop the chain, add the shortcut skyline.
        for u, v in zip(nodes, nodes[1:]):
            if graph.has_edge(u, v):
                graph.remove_edge(u, v)
        for node in segment.interior:
            if graph.has_node(node):
                graph.remove_node(node)
        if piece.has_shortcut:
            for cost in piece.shortcut_costs:
                graph.add_edge(segment.left, segment.right, cost)
    return result

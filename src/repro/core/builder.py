"""Backbone index construction — Algorithm 2.

The builder repeatedly summarizes the working graph level by level:

1. **Regular summarization** — condensing rounds (degree-1 stripping +
   dense-cluster condensation) repeat until the level has removed at
   least ``p * |G_0.E|`` edges or stalls.
2. **Aggressive summarization** — if the level still fell short (the
   ``NORMAL`` variant, Algorithm 2 line 9) or unconditionally (the
   ``EACH`` variant), single segments collapse into shortcut edges and
   their labels fold into the level's index.

The level loop ends when a level cannot remove the required edge share
(or would empty the graph — that level's last round is rolled back);
the remaining graph is the most abstracted graph G_L.

The loop core is exposed as :func:`summarize_levels` so index
maintenance (:mod:`repro.core.maintenance`) can replay construction
from an intermediate level after a network update.  Each level
records a :class:`LevelPlan` — its structure plus its priced pieces —
and its labels are the plan's fold (:meth:`LevelPlan.fold`), so
maintenance can rerun just the pieces an edge-cost update reaches and
re-fold the level the same way.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from functools import cached_property

from repro.core.index import BackboneIndex, BuildStats, LevelStats, ShortcutKey
from repro.core.labels import LevelIndex, record_label_rows, run_label_task
from repro.core.params import AggressiveMode, BackboneParams
from repro.core.segments import (
    SegmentPiece,
    condense_segments,
    find_single_segments,
    price_segment,
)
from repro.core.summarize import (
    Edge,
    RoundPlan,
    condense_round,
    fold_round,
    price_strip,
)
from repro.errors import BuildError
from repro.graph.mcrn import MultiCostGraph
from repro.obs.tracer import Tracer, resolve_tracer
from repro.paths.dominance import CostVector

# A level may loop condensing rounds only so many times before we call
# it stalled; each round shrinks the graph, so this is a safety valve.
_MAX_ROUNDS_PER_LEVEL = 32


def _replay_round_removals(
    work: MultiCostGraph,
    nodes_before: list[tuple[int, tuple[float, float] | None]],
    round_result,
) -> None:
    """Roll back one condensing round without a pre-round graph copy.

    The builder skips the defensive ``work.copy()`` the reference build
    (:mod:`repro.qa.reference`) takes before each round (the emptied-graph rollback has
    never been observed: stripping always leaves the last node of a
    component, and cluster condensation keeps its entrances).  If the
    round nevertheless emptied the graph, rebuild it from the round's
    own removal record: nodes re-register in their original iteration
    order, then every removed parallel edge is re-added — each pair's
    surviving cost set is mutually non-dominated, so re-insertion
    reproduces the stored skylines exactly.
    """
    for node, coord in nodes_before:
        if not work.has_node(node):
            work.add_node(node, coord)
    for u, v, cost in round_result.removed_edges:
        work.add_edge(u, v, cost)


def canonical_pair(u: int, v: int) -> Edge:
    """The undirected node pair as the edge table keys it."""
    return (u, v) if u <= v else (v, u)


# A level's priced piece: ("strip", round, 0), ("task", round, cluster)
# or ("segment", segment, 0).
Piece = tuple[str, int, int]


@dataclass
class LevelPlan:
    """One level's structure and its priced pieces.

    The structure — each round's peel order, clusters and surviving
    nodes, and the condensed segments — depends only on adjacency,
    which an edge-cost update cannot change.  The pieces read edge
    costs: each round's strip skyline, each cluster's label task, each
    segment's labels and shortcut.  :meth:`reprice` reruns chosen
    pieces against the level's input graph and :meth:`fold` re-folds
    the level's labels in the builder's order.
    ``segment_surviving`` is None when aggressive summarization did not
    condense anything at this level.
    """

    rounds: list[RoundPlan] = field(default_factory=list)
    segments: list[SegmentPiece] = field(default_factory=list)
    segment_surviving: set[int] | None = None

    @cached_property
    def readers(self) -> dict[Edge, list[Piece]]:
        """Node pair -> the pieces whose inputs read its costs."""
        readers: dict[Edge, list[Piece]] = {}
        for r, round_plan in enumerate(self.rounds):
            for node, anchor in round_plan.strip_order:
                readers.setdefault(canonical_pair(node, anchor), []).append(
                    ("strip", r, 0)
                )
            for k, task in enumerate(round_plan.tasks):
                for pair in dict.fromkeys(
                    canonical_pair(u, v) for u, v, _ in task.removed_edges
                ):
                    readers.setdefault(pair, []).append(("task", r, k))
        for k, piece in enumerate(self.segments):
            for u, v in zip(piece.nodes, piece.nodes[1:]):
                readers.setdefault(canonical_pair(u, v), []).append(
                    ("segment", k, 0)
                )
        return readers

    @cached_property
    def removed(self) -> set[Edge]:
        """Node pairs this level removes (every other pair of its input
        graph carries into the next level's)."""
        removed = {
            canonical_pair(u, v)
            for round_plan in self.rounds
            for pairs in (round_plan.strip_order, *round_plan.cluster_pairs)
            for u, v in pairs
        }
        for piece in self.segments:
            removed.update(
                canonical_pair(u, v) for u, v in zip(piece.nodes, piece.nodes[1:])
            )
        return removed

    def shortcut_costs(self, pair: Edge) -> list[CostVector]:
        """Every shortcut cost this level adds between the pair."""
        return [
            cost
            for piece in self.segments
            if piece.has_shortcut
            and canonical_pair(piece.nodes[0], piece.nodes[-1]) == pair
            for cost in piece.shortcut_costs
        ]

    def provenance(self) -> dict[ShortcutKey, tuple[int, ...]]:
        """The level's shortcut provenance, first segment wins."""
        provenance: dict[ShortcutKey, tuple[int, ...]] = {}
        for piece in self.segments:
            if piece.has_shortcut:
                for cost in piece.shortcut_costs:
                    provenance.setdefault(
                        (piece.nodes[0], piece.nodes[-1], cost), piece.nodes
                    )
        return provenance

    def reprice(self, pieces: set[Piece], graph: MultiCostGraph) -> set[Edge]:
        """Rerun ``pieces`` priced from ``graph``, the level's input
        graph; returns the node pairs whose shortcut costs changed."""
        edge_costs = graph.edge_costs
        changed_shortcuts: set[Edge] = set()
        for kind, a, b in pieces:
            if kind == "strip":
                round_plan = self.rounds[a]
                round_plan.strip_rows = price_strip(
                    round_plan.strip_order, edge_costs
                )
            elif kind == "task":
                round_plan = self.rounds[a]
                task = round_plan.tasks[b]
                pairs = dict.fromkeys((u, v) for u, v, _ in task.removed_edges)
                task = dataclasses.replace(
                    task,
                    removed_edges=[
                        (u, v, cost) for u, v in pairs for cost in edge_costs(u, v)
                    ],
                )
                round_plan.tasks[b] = task
                round_plan.task_rows[b] = run_label_task(task)
            else:
                old = self.segments[a]
                nodes = old.nodes
                new = price_segment(
                    graph.dim,
                    nodes,
                    [edge_costs(u, v) for u, v in zip(nodes, nodes[1:])],
                )
                self.segments[a] = new
                if new.has_shortcut and new.shortcut_costs != old.shortcut_costs:
                    changed_shortcuts.add(canonical_pair(nodes[0], nodes[-1]))
        return changed_shortcuts

    def fold(self) -> LevelIndex:
        """A new level index from the cached rows, folded in the
        builder's order: rounds first, then the segments."""
        level_index = LevelIndex()
        for round_plan in self.rounds:
            level_index.absorb(
                fold_round(round_plan), round_plan.surviving, steal=True
            )
        if self.segment_surviving is not None:
            aggressive = LevelIndex()
            for piece in self.segments:
                record_label_rows(aggressive, piece.rows)
            level_index.absorb(aggressive, self.segment_surviving, steal=True)
        return level_index


@dataclass
class SummarizationOutcome:
    """Everything the level loop produced from one starting graph."""

    levels: list[LevelIndex] = field(default_factory=list)
    level_stats: list[LevelStats] = field(default_factory=list)
    # Copies of each level's input graph (G_offset, G_offset+1, ...),
    # recorded only when requested; index maintenance replays from them.
    snapshots: list[MultiCostGraph] = field(default_factory=list)
    # Each level's structure and priced pieces (and its shortcut
    # provenance, LevelPlan.provenance).
    plans: list[LevelPlan] = field(default_factory=list)
    final_graph: MultiCostGraph | None = None


def summarize_levels(
    work: MultiCostGraph,
    params: BackboneParams,
    required_removals: int,
    *,
    level_offset: int = 0,
    keep_snapshots: bool = False,
    tracer: Tracer | None = None,
) -> SummarizationOutcome:
    """Run Algorithm 2's level loop, mutating ``work`` in place.

    ``required_removals`` is ``p * |G_0.E|`` evaluated on the original
    network; ``level_offset`` only affects reported level numbers (a
    maintenance replay starts mid-index).  An enabled ``tracer`` emits
    one ``build.level`` span per constructed level, with nested spans
    for condensing rounds and segment materialization.
    """
    outcome = SummarizationOutcome()
    tracer = resolve_tracer(tracer)

    while len(outcome.levels) + level_offset < params.max_levels:
        if keep_snapshots:
            outcome.snapshots.append(work.copy())
        nodes_before = work.num_nodes
        edges_before = work.num_edge_entries

        plan = LevelPlan()
        removed_edges = 0
        rounds = 0
        clusters = 0
        aggressive_used = False

        with tracer.span(
            "build.level",
            level=level_offset + len(outcome.levels),
            nodes_before=nodes_before,
            edges_before=edges_before,
        ) as level_span:
            # --- Step 1: regular summarization rounds -----------------
            while (
                removed_edges < required_removals
                and rounds < _MAX_ROUNDS_PER_LEVEL
            ):
                # Rollback insurance without a full graph copy — see
                # _replay_round_removals.
                nodes_before_round = [
                    (node, work.coord(node)) for node in work.nodes()
                ]
                with tracer.span("build.condense_round") as round_span:
                    round_result = condense_round(work, params, tracer=tracer)
                    if round_span.enabled:
                        round_span.set(
                            removed_edges=round_result.removed_edge_count,
                            clusters=round_result.clusters_condensed,
                        )
                rounds += 1
                if not round_result.changed:
                    break
                if work.num_nodes == 0:
                    # The round would empty the graph; Algorithm 2
                    # requires |G_{i+1}.V| != 0, so undo this round and
                    # stop here.
                    _replay_round_removals(
                        work, nodes_before_round, round_result
                    )
                    break
                plan.rounds.append(round_result.plan)
                removed_edges += round_result.removed_edge_count
                clusters += round_result.clusters_condensed

            # --- Step 2: aggressive summarization ---------------------
            wants_aggressive = params.aggressive is AggressiveMode.EACH or (
                params.aggressive is AggressiveMode.NORMAL
                and removed_edges < required_removals
            )
            if wants_aggressive and work.num_nodes > 0:
                with tracer.span("build.segments") as seg_span:
                    segments = find_single_segments(work)
                    if segments:
                        aggressive = condense_segments(work, segments)
                        if aggressive.removed_edges and work.num_nodes > 0:
                            aggressive_used = True
                            plan.segments = aggressive.pieces
                            plan.segment_surviving = set(work.nodes())
                            removed_edges += len(aggressive.removed_edges)
                    if seg_span.enabled:
                        seg_span.set(
                            segments=len(segments),
                            materialized=aggressive_used,
                        )

            level_index = plan.fold()
            # Counting walks every label: once per level, shared by the
            # span and the level statistics.
            label_paths = level_index.path_count()
            if level_span.enabled:
                level_span.set(
                    removed_edges=removed_edges,
                    rounds=rounds,
                    clusters=clusters,
                    aggressive_used=aggressive_used,
                    label_paths=label_paths,
                    nodes_after=work.num_nodes,
                )

        if removed_edges == 0:
            if keep_snapshots:
                outcome.snapshots.pop()  # the level never materialized
            break  # nothing condensable remains; the loop is done

        outcome.levels.append(level_index)
        outcome.plans.append(plan)
        outcome.level_stats.append(
            LevelStats(
                level=level_offset + len(outcome.levels) - 1,
                nodes_before=nodes_before,
                edges_before=edges_before,
                removed_edges=removed_edges,
                label_paths=label_paths,
                aggressive_used=aggressive_used,
                rounds=rounds,
            )
        )
        if work.num_nodes == 0 or removed_edges < required_removals:
            break  # Algorithm 2's do-while condition fails

    outcome.final_graph = work
    return outcome


def required_edge_removals(graph: MultiCostGraph, params: BackboneParams) -> int:
    """``p * |G_0.E|`` — the per-level removal quota (Definition 4.8)."""
    return max(1, int(params.p * graph.num_edge_entries))


def build_backbone_index(
    graph: MultiCostGraph,
    params: BackboneParams | None = None,
    *,
    tracer: Tracer | None = None,
) -> BackboneIndex:
    """Build the backbone index of a multi-cost road network.

    Parameters
    ----------
    graph:
        The original network G_0.  It is never modified; the builder
        works on a copy.
    params:
        Construction parameters; defaults follow the paper
        (``BackboneParams()``).
    tracer:
        Observability hook; defaults to the process-wide tracer.  When
        enabled, construction emits a ``build.index`` span tree (one
        ``build.level`` child per level).
    """
    if params is None:
        params = BackboneParams()
    if graph.num_nodes == 0:
        raise BuildError("cannot index an empty graph")
    if graph.directed:
        raise BuildError(
            "build_backbone_index expects an undirected network; model "
            "directed roads as undirected edges per the paper's Section 3"
        )

    started = time.perf_counter()
    tracer = resolve_tracer(tracer)
    with tracer.span(
        "build.index", nodes=graph.num_nodes, edges=graph.num_edges
    ) as build_span:
        work = graph.copy()
        outcome = summarize_levels(
            work, params, required_edge_removals(graph, params), tracer=tracer
        )
        top_graph = outcome.final_graph
        assert top_graph is not None
        if top_graph.num_nodes == 0:
            raise BuildError(
                "summarization emptied the graph; this indicates an "
                "internal rollback failure"
            )

        provenance: dict[ShortcutKey, tuple[int, ...]] = {}
        for plan in outcome.plans:
            provenance.update(plan.provenance())
        stats = BuildStats(levels=outcome.level_stats)
        stats.elapsed_seconds = time.perf_counter() - started
        if build_span.enabled:
            build_span.set(
                levels=len(outcome.levels),
                top_graph_nodes=top_graph.num_nodes,
                label_paths=sum(s.label_paths for s in outcome.level_stats),
            )

    return BackboneIndex(
        original_graph=graph,
        params=params,
        levels=outcome.levels,
        top_graph=top_graph,
        provenance=provenance,
        build_stats=stats,
    )

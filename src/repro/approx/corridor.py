"""Corridor construction around backbone skyline answers.

The backbone query (Algorithm 3) produces an approximate skyline whose
paths, once unpacked through the index's shortcut provenance, are real
original-graph walks.  Those walks sketch where the *true* skyline
lives: exact skyline paths between the same endpoints rarely stray far
from the approximate ones on road networks.  A :class:`Corridor` is the
union of k-hop neighborhoods around those unpacked node sets — the
ParetoPrep idea of tightening the explored region a priori, applied on
top of the backbone's path sketch instead of a scalarized pre-search.

Restricted exact BBS inside the corridor (``skyline_paths(...,
restrict_to=corridor, seed_paths=corridor.seed_paths)``) then refines
the backbone answer: every returned path is a genuine original-graph
path, the result always dominates-or-equals the backbone answer (its
paths seed the result set), and with a generous enough radius it
converges to the exact skyline at a fraction of the full-graph cost.

Corridors are value objects built once per ``(source, target, radius)``
and cached generation-aware by the serving layer: a
:class:`CorridorKey` carries a named ``generation`` field so
:func:`repro.service.cache.key_generation` retires stale corridors on
maintenance, exactly like query results.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from repro.core.index import BackboneIndex
from repro.core.query import backbone_query
from repro.obs.tracer import Tracer, resolve_tracer
from repro.paths.path import Path


class CorridorKey(NamedTuple):
    """Cache key for built corridors.

    The named ``generation`` field keeps
    :meth:`repro.service.cache.ResultCache.invalidate_generations_below`
    working on corridor caches without any engine special-casing.
    """

    source: int
    target: int
    radius: int
    generation: int


class Corridor:
    """A node-set restriction for skyline search between two endpoints.

    Attributes
    ----------
    nodes:
        The corridor's node set (original-graph ids), always containing
        ``source`` and ``target``.
    seed_paths:
        The unpacked backbone skyline paths — real original-graph walks
        whose costs are achievable — used to seed the restricted search
        so its answer can never be worse than the backbone tier's.
    radius:
        The k-hop expansion applied around the seed walks.
    generation:
        The index generation the corridor was built against.
    backbone_truncated:
        True when the backbone query that sketched the corridor ran out
        of budget; the corridor may then under-cover the skyline badly
        and the serving layer refuses to cache it.
    build_seconds:
        Wall-clock cost of building this corridor (backbone query,
        unpacking, and BFS expansion together).
    """

    __slots__ = (
        "source",
        "target",
        "nodes",
        "seed_paths",
        "radius",
        "generation",
        "backbone_truncated",
        "build_seconds",
        "_mask_cache",
    )

    def __init__(
        self,
        source: int,
        target: int,
        nodes: frozenset[int],
        *,
        seed_paths: tuple[Path, ...] = (),
        radius: int = 0,
        generation: int = 0,
        backbone_truncated: bool = False,
        build_seconds: float = 0.0,
    ) -> None:
        self.source = source
        self.target = target
        self.nodes = frozenset(nodes) | {source, target}
        self.seed_paths = tuple(seed_paths)
        self.radius = radius
        self.generation = generation
        self.backbone_truncated = backbone_truncated
        self.build_seconds = build_seconds
        # One-entry memo: (snapshot identity, dense boolean mask).  A
        # corridor is queried against one snapshot per generation, so a
        # single slot covers the serving pattern with no dict overhead.
        self._mask_cache: tuple[int, list[bool]] | None = None

    def __contains__(self, node: int) -> bool:
        return node in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)

    def mask_for(self, snapshot) -> list[bool]:
        """A dense boolean node mask over ``snapshot``'s id space.

        ``mask[dense_id]`` is True iff the node is inside the corridor.
        The mask is a plain python list (not an array): the flat kernels
        probe it once per CSR slot, where list indexing beats any array
        scalar access.  Memoized per snapshot identity — the mask is a
        view of this corridor, never a copy of the graph.
        """
        cached = self._mask_cache
        if cached is not None and cached[0] == id(snapshot):
            return cached[1]
        mask = snapshot.node_mask(self.nodes)
        self._mask_cache = (id(snapshot), mask)
        return mask

    def __repr__(self) -> str:
        return (
            f"Corridor({self.source}->{self.target} | {len(self.nodes)} "
            f"nodes, radius={self.radius}, seeds={len(self.seed_paths)})"
        )


def expand_hops(graph, nodes: set[int], radius: int) -> set[int]:
    """Grow ``nodes`` by ``radius`` BFS hops (in-place; returns it).

    On directed graphs both edge directions widen the corridor: an
    exact skyline path may approach a corridor node against the seed
    walk's direction, so one-sided expansion would clip it.
    """
    directed = graph.directed
    frontier = set(nodes)
    for _ in range(radius):
        grown: set[int] = set()
        for node in frontier:
            grown.update(graph.neighbors(node))
            if directed:
                grown.update(graph.in_neighbors(node))
        grown -= nodes
        if not grown:
            break
        nodes |= grown
        frontier = grown
    return nodes


def build_corridor(
    index: BackboneIndex,
    source: int,
    target: int,
    *,
    radius: int = 2,
    generation: int = 0,
    time_budget: float | None = None,
    tracer: Tracer | None = None,
) -> Corridor:
    """Build the k-hop corridor around the backbone answer for (s, t).

    Runs :func:`repro.core.query.backbone_query`, unpacks every result
    path through the index's shortcut provenance
    (:meth:`~repro.core.index.BackboneIndex.expand_path` — cost-aware,
    so the seeds' costs are achievable), unions the walk node sets, and
    expands ``radius`` BFS hops around them.  ``time_budget`` caps the
    backbone query only; the restricted search spends whatever the
    caller has left.
    """
    started = time.perf_counter()
    tracer = resolve_tracer(tracer)
    with tracer.span(
        "approx.corridor.build", source=source, target=target, radius=radius
    ) as span:
        sketch = backbone_query(
            index, source, target, time_budget=time_budget,
            tracer=tracer,
        )
        graph = index.original_graph
        nodes: set[int] = {source, target}
        seeds: list[Path] = []
        for path in sketch.paths:
            unpacked = index.expand_path(path)
            seeds.append(unpacked)
            nodes.update(unpacked.nodes)
        expand_hops(graph, nodes, radius)
        corridor = Corridor(
            source,
            target,
            frozenset(nodes),
            seed_paths=tuple(seeds),
            radius=radius,
            generation=generation,
            backbone_truncated=sketch.truncated,
            build_seconds=time.perf_counter() - started,
        )
        if span.enabled:
            span.set(
                nodes=len(corridor.nodes),
                seeds=len(corridor.seed_paths),
                backbone_truncated=corridor.backbone_truncated,
            )
    return corridor

"""The backbone index container (Definition 4.8).

A built index holds the per-level label structures (0, I_0) ... (L-1,
I_{L-1}), the most abstracted graph G_L, and the shortcut provenance
needed to expand abstract paths back toward the original network.
Construction lives in :mod:`repro.core.builder`;
query evaluation in :mod:`repro.core.query`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path as FilePath

from repro.core.labels import LevelIndex
from repro.core.params import BackboneParams
from repro.errors import BuildError
from repro.graph.mcrn import MultiCostGraph
from repro.paths.dominance import CostVector
from repro.paths.path import Path

ShortcutKey = tuple[int, int, CostVector]

# Distinct-cost expansion states kept while splicing one walk; beyond
# this the cheapest-by-sum states survive (best-effort expansion).
_MAX_EXPANSION_STATES = 4096


def _combine_expansions(
    states: dict[CostVector, tuple[int, ...]],
    options: dict[CostVector, tuple[int, ...]],
) -> dict[CostVector, tuple[int, ...]]:
    """Extend every partial walk by every expansion of the next pair."""
    combined: dict[CostVector, tuple[int, ...]] = {}
    for acc_cost, walk in states.items():
        for opt_cost, opt_walk in options.items():
            total = tuple(a + b for a, b in zip(acc_cost, opt_cost))
            if total not in combined:
                combined[total] = walk + opt_walk[1:]
    if len(combined) > _MAX_EXPANSION_STATES:
        keep = sorted(combined, key=sum)[:_MAX_EXPANSION_STATES]
        combined = {cost: combined[cost] for cost in keep}
    return combined


@dataclass
class LevelStats:
    """Construction bookkeeping for one index level."""

    level: int
    nodes_before: int
    edges_before: int
    removed_edges: int
    label_paths: int
    aggressive_used: bool
    rounds: int


@dataclass
class BuildStats:
    """Construction bookkeeping for a whole index."""

    elapsed_seconds: float = 0.0
    levels: list[LevelStats] = field(default_factory=list)

    @property
    def height(self) -> int:
        return len(self.levels)


class BackboneIndex:
    """A built backbone index over one multi-cost road network."""

    def __init__(
        self,
        *,
        original_graph: MultiCostGraph,
        params: BackboneParams,
        levels: list[LevelIndex],
        top_graph: MultiCostGraph,
        provenance: dict[ShortcutKey, tuple[int, ...]],
        build_stats: BuildStats,
    ) -> None:
        self.original_graph = original_graph
        self.params = params
        self.levels = levels
        self.top_graph = top_graph
        self.provenance = provenance
        self.build_stats = build_stats
        # (u, v) -> list of recorded underlying sequences, for expansion
        self._pair_provenance: dict[tuple[int, int], list[tuple[int, ...]]] = {}
        for (u, v, _cost), sequence in provenance.items():
            key = (u, v) if u <= v else (v, u)
            self._pair_provenance.setdefault(key, []).append(sequence)
        self._expansion_memo: dict[
            tuple[int, int], dict[CostVector, tuple[int, ...]]
        ] = {}
        # Byte count of the store this index was loaded from or last
        # saved to; a never-persisted index measures itself on first ask.
        self.store_bytes: int | None = None
        self._csr_top = None

    # ------------------------------------------------------------------
    # accelerator snapshot
    # ------------------------------------------------------------------

    def csr_top(self, *, tracer=None):
        """The CSR snapshot of the top graph G_L, built lazily.

        The snapshot is cached on the index; an index is immutable after
        construction (maintenance builds a new one), so the cache never
        goes stale.
        """
        if self._csr_top is None:
            from repro.accel.csr import CSRSnapshot

            self._csr_top = CSRSnapshot.from_graph(self.top_graph, tracer=tracer)
        return self._csr_top

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def dim(self) -> int:
        """Cost dimensionality of the indexed network."""
        return self.original_graph.dim

    @property
    def height(self) -> int:
        """L — the number of summarization levels."""
        return len(self.levels)

    def label_path_count(self) -> int:
        """Total skyline paths stored across all level indexes."""
        return sum(level.path_count() for level in self.levels)

    def size_bytes(self) -> int:
        """Measured size of the index payload: its binary-store bytes.

        This is the number the paper's index-size comparisons want —
        what the index costs to persist and ship, not what CPython's
        boxed objects happen to occupy.  A loaded or saved index
        reports its file's byte count without touching its levels;
        only a never-persisted index serializes itself, once (a
        :class:`BackboneIndex` is immutable after construction, and
        maintenance builds a new one).
        """
        if self.store_bytes is None:
            from repro.store.writer import serialize_index

            self.store_bytes = len(serialize_index(self))
        return self.store_bytes

    def stats(self) -> dict:
        """A summary dictionary (levels, sizes, counts) for reporting."""
        return {
            "height": self.height,
            "label_paths": self.label_path_count(),
            "labelled_nodes": sum(len(level) for level in self.levels),
            "top_graph_nodes": self.top_graph.num_nodes,
            "top_graph_edges": self.top_graph.num_edge_entries,
            "size_bytes": self.size_bytes(),
            "build_seconds": self.build_stats.elapsed_seconds,
            "shortcuts": len(self.provenance),
        }

    # ------------------------------------------------------------------
    # queries (delegating to repro.core.query)
    # ------------------------------------------------------------------

    def query(self, source: int, target: int, **kwargs):
        """Approximate skyline paths between two nodes (Algorithm 3)."""
        from repro.core.query import backbone_query

        return backbone_query(self, source, target, **kwargs).paths

    def query_detailed(self, source: int, target: int, **kwargs):
        """Like :meth:`query` but returns the full result with stats."""
        from repro.core.query import backbone_query

        return backbone_query(self, source, target, **kwargs)

    def one_to_all(self, source: int, **kwargs):
        """Approximate skyline paths from one node to every node."""
        from repro.core.query import backbone_one_to_all

        return backbone_one_to_all(self, source, **kwargs)

    # ------------------------------------------------------------------
    # path expansion
    # ------------------------------------------------------------------

    def expand_path(self, path: Path) -> Path:
        """Expand an abstract path to an original-graph walk, cost-aware.

        Shortcut edges created by aggressive summarization are spliced
        with their recorded underlying sequences, recursively, until
        every consecutive pair is an edge of the original graph.  A
        node pair may have *several* recorded expansions (and parallel
        original edges), each with a different cost; the expansion
        explores the combinations and returns the walk whose total
        cost reproduces the abstract path's cost.  If no combination
        matches (the abstract estimate collapsed alternatives the
        provenance no longer distinguishes), the cheapest-by-sum walk
        is returned as a best effort.
        """
        if len(path.nodes) < 2:
            return path
        states: dict[CostVector, tuple[int, ...]] = {
            (0.0,) * self.dim: (path.nodes[0],)
        }
        for u, v in zip(path.nodes, path.nodes[1:]):
            states = _combine_expansions(
                states, self._pair_expansions(u, v, depth=0)
            )
        for cost, walk in states.items():
            if all(
                abs(a - b) <= max(1e-9, 1e-9 * abs(b))
                for a, b in zip(cost, path.cost)
            ):
                return Path(list(walk), cost)
        cost = min(states, key=sum)
        return Path(list(states[cost]), cost)

    def _pair_expansions(
        self, u: int, v: int, depth: int
    ) -> dict[CostVector, tuple[int, ...]]:
        """All distinct-cost original walks one abstract edge stands for."""
        if depth > 64:
            raise BuildError(f"shortcut expansion too deep at edge ({u}, {v})")
        cached = self._expansion_memo.get((u, v))
        if cached is not None:
            return cached
        options: dict[CostVector, tuple[int, ...]] = {}
        if self.original_graph.has_edge(u, v):
            for cost in self.original_graph.edge_costs(u, v):
                options.setdefault(tuple(cost), (u, v))
        key = (u, v) if u <= v else (v, u)
        for sequence in self._pair_provenance.get(key, ()):
            oriented = sequence if sequence[0] == u else sequence[::-1]
            states: dict[CostVector, tuple[int, ...]] = {
                (0.0,) * self.dim: (u,)
            }
            for a, b in zip(oriented, oriented[1:]):
                states = _combine_expansions(
                    states, self._pair_expansions(a, b, depth + 1)
                )
            for cost, walk in states.items():
                options.setdefault(cost, walk)
        if not options:
            raise BuildError(
                f"edge ({u}, {v}) is neither original nor a recorded shortcut"
            )
        self._expansion_memo[(u, v)] = options
        return options

    def _expand_pair(self, u: int, v: int, depth: int) -> list[int]:
        if depth > 64:
            raise BuildError(f"shortcut expansion too deep at edge ({u}, {v})")
        if self.original_graph.has_edge(u, v):
            return [u, v]
        key = (min(u, v), max(u, v))
        sequences = self._pair_provenance.get(key)
        if not sequences:
            raise BuildError(
                f"edge ({u}, {v}) is neither original nor a recorded shortcut"
            )
        sequence = sequences[0]
        if sequence[0] != u:
            sequence = sequence[::-1]
        result = [u]
        for a, b in zip(sequence, sequence[1:]):
            result.extend(self._expand_pair(a, b, depth + 1)[1:])
        return result

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def save(self, path: FilePath | str, *, compress: bool = True) -> None:
        """Persist the index as a :mod:`repro.store` binary store file.

        The write is atomic (tmp file + ``os.replace``).
        """
        from repro.store.writer import save_index

        save_index(self, path, compress=compress)

    @classmethod
    def load(
        cls,
        path: FilePath | str,
        original_graph: MultiCostGraph,
        *,
        lazy: bool = False,
    ) -> "BackboneIndex":
        """Load an index saved by :meth:`save`.

        ``lazy=True`` defers the per-level label sections until first
        access.  The original graph is supplied by the caller (the
        index file stores only the derived structures, matching the
        paper's setup where graphs live in the database and the index
        besides it).  A file that is not a store raises
        :class:`~repro.errors.BuildError`.
        """
        from repro.store.reader import load_index

        return load_index(path, original_graph, lazy=lazy)

    def __repr__(self) -> str:
        return (
            f"BackboneIndex(L={self.height}, "
            f"|G_L.V|={self.top_graph.num_nodes}, "
            f"label_paths={self.label_path_count()})"
        )

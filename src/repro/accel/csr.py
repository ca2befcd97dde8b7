"""Immutable CSR snapshots of a multi-cost graph.

A :class:`CSRSnapshot` freezes a :class:`~repro.graph.mcrn.MultiCostGraph`
into contiguous arrays:

* ``node_ids`` — the original node identifiers, ascending.  The dense id
  of a node is its rank in this array, so the remap preserves order:
  iterating dense ids ascending visits original ids ascending.
* ``indptr``/``indices`` (int32) — CSR adjacency over dense ids.  The
  neighbor slots of each node are sorted by dense neighbor id, with
  parallel edges inlined as consecutive slots in the graph's canonical
  (sorted) cost-list order.
* ``costs`` — one ``(num_edge_slots, dim)`` float64 matrix, row ``k``
  holding the cost vector of slot ``k``.

For directed graphs a second CSR (``rev_*``) stores the transposed
adjacency for reverse searches; undirected snapshots share the forward
arrays.  Because both the node remap and the per-node slot order are
canonical, a snapshot built from a graph equals the snapshot built from
any store round-trip of that graph.

Snapshots are value objects: build once (traced as ``accel.csr.build``),
share freely, never mutate.
"""

from __future__ import annotations

import numpy as np

from repro.errors import BuildError, NodeNotFoundError
from repro.graph.mcrn import MultiCostGraph
from repro.obs.tracer import Tracer, resolve_tracer


class CSRSnapshot:
    """A frozen array view of a :class:`MultiCostGraph`."""

    __slots__ = (
        "dim",
        "directed",
        "node_ids",
        "indptr",
        "indices",
        "costs",
        "rev_indptr",
        "rev_indices",
        "rev_costs",
        "_dense_of",
        "_adj_lists",
        "_weight_lists",
        "_cost_tuples",
    )

    def __init__(
        self,
        *,
        dim: int,
        directed: bool,
        node_ids: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        costs: np.ndarray,
        rev_indptr: np.ndarray,
        rev_indices: np.ndarray,
        rev_costs: np.ndarray,
    ) -> None:
        self.dim = dim
        self.directed = directed
        self.node_ids = node_ids
        self.indptr = indptr
        self.indices = indices
        self.costs = costs
        self.rev_indptr = rev_indptr
        self.rev_indices = rev_indices
        self.rev_costs = rev_costs
        self._dense_of: dict[int, int] | None = None
        # Lazily materialized python-list mirrors for the scalar hot
        # loops (list indexing beats numpy scalar indexing by ~10x).
        self._adj_lists: dict[bool, tuple[list[int], list[int]]] = {}
        self._weight_lists: dict[bool, list[list[float]]] = {}
        self._cost_tuples: list[tuple[float, ...]] | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_graph(
        cls, graph: MultiCostGraph, *, tracer: Tracer | None = None
    ) -> "CSRSnapshot":
        """Freeze ``graph`` into a snapshot (traced as ``accel.csr.build``)."""
        tracer = resolve_tracer(tracer)
        with tracer.span(
            "accel.csr.build",
            nodes=graph.num_nodes,
            edges=graph.num_edge_entries,
            directed=graph.directed,
        ) as span:
            snapshot = cls._build(graph)
            if span.enabled:
                span.set(slots=snapshot.num_edge_slots)
        return snapshot

    @classmethod
    def _build(cls, graph: MultiCostGraph) -> "CSRSnapshot":
        dim = graph.dim
        node_ids = np.asarray(sorted(graph.nodes()), dtype=np.int64)
        dense_of = {int(orig): i for i, orig in enumerate(node_ids)}

        def one_direction(reverse: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            indptr = np.zeros(len(node_ids) + 1, dtype=np.int32)
            indices: list[int] = []
            cost_rows: list[tuple[float, ...]] = []
            for i, orig in enumerate(node_ids):
                orig = int(orig)
                nbrs = (
                    graph.in_neighbors(orig) if reverse else graph.neighbors(orig)
                )
                for nbr in sorted(nbrs):
                    u, v = (nbr, orig) if reverse else (orig, nbr)
                    for cost in graph.edge_costs(u, v):
                        indices.append(dense_of[nbr])
                        cost_rows.append(cost)
                indptr[i + 1] = len(indices)
            return (
                indptr,
                np.asarray(indices, dtype=np.int32),
                np.asarray(cost_rows, dtype=np.float64).reshape(len(cost_rows), dim),
            )

        indptr, indices, costs = one_direction(False)
        if graph.directed:
            rev_indptr, rev_indices, rev_costs = one_direction(True)
        else:
            rev_indptr, rev_indices, rev_costs = indptr, indices, costs
        return cls(
            dim=dim,
            directed=graph.directed,
            node_ids=node_ids,
            indptr=indptr,
            indices=indices,
            costs=costs,
            rev_indptr=rev_indptr,
            rev_indices=rev_indices,
            rev_costs=rev_costs,
        )

    @classmethod
    def from_edges(cls, dim, nodes, edges) -> "CSRSnapshot":
        """Freeze an undirected edge list straight into a snapshot.

        Produces exactly the snapshot :meth:`from_graph` would for a
        :class:`MultiCostGraph` holding ``nodes`` plus ``edges``
        (``(u, v, cost)`` triples): parallel edges between the same
        endpoints are skyline-pruned with ``add_edge``'s
        dominated-or-equal/evict rule, and surviving cost lists sort
        into the canonical slot order — so the result is independent of
        edge insertion order.  The construction pipeline uses this to
        snapshot each cluster's removed-edge subgraph without paying
        per-edge graph-object churn.
        """
        from repro.paths.dominance import dominates, dominates_or_equal

        node_set = {int(n) for n in nodes}
        pair_costs: dict[tuple[int, int], list[tuple[float, ...]]] = {}
        for u, v, cost in edges:
            u, v = int(u), int(v)
            vec = tuple(float(c) for c in cost)
            key = (u, v) if u <= v else (v, u)
            node_set.add(u)
            node_set.add(v)
            existing = pair_costs.get(key)
            if existing is None:
                pair_costs[key] = [vec]
                continue
            if any(dominates_or_equal(kept, vec) for kept in existing):
                continue
            survivors = [kept for kept in existing if not dominates(vec, kept)]
            survivors.append(vec)
            survivors.sort()
            pair_costs[key] = survivors

        adjacency: dict[int, list[int]] = {n: [] for n in node_set}
        for u, v in pair_costs:
            adjacency[u].append(v)
            adjacency[v].append(u)

        node_ids = np.asarray(sorted(node_set), dtype=np.int64)
        dense_of = {int(orig): i for i, orig in enumerate(node_ids)}
        indptr = np.zeros(len(node_ids) + 1, dtype=np.int32)
        indices: list[int] = []
        cost_rows: list[tuple[float, ...]] = []
        for i, orig in enumerate(node_ids.tolist()):
            for nbr in sorted(adjacency[orig]):
                key = (orig, nbr) if orig <= nbr else (nbr, orig)
                for cost in pair_costs[key]:
                    indices.append(dense_of[nbr])
                    cost_rows.append(cost)
            indptr[i + 1] = len(indices)
        indices_arr = np.asarray(indices, dtype=np.int32)
        costs = np.asarray(cost_rows, dtype=np.float64).reshape(
            len(cost_rows), dim
        )
        return cls(
            dim=dim,
            directed=False,
            node_ids=node_ids,
            indptr=indptr,
            indices=indices_arr,
            costs=costs,
            rev_indptr=indptr,
            rev_indices=indices_arr,
            rev_costs=costs,
        )

    # ------------------------------------------------------------------
    # basic views
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def num_edge_slots(self) -> int:
        return len(self.indices)

    def dense_of(self, original: int) -> int:
        """The dense id of an original node id."""
        mapping = self._dense_of
        if mapping is None:
            mapping = self._dense_of = {
                int(orig): i for i, orig in enumerate(self.node_ids)
            }
        try:
            return mapping[original]
        except KeyError:
            raise NodeNotFoundError(original) from None

    def original_of(self, dense: int) -> int:
        """The original node id of a dense id."""
        return int(self.node_ids[dense])

    def node_mask(self, nodes) -> list[bool]:
        """A dense boolean mask over this snapshot's node space.

        ``mask[dense_id]`` is True iff the node's *original* id is in
        ``nodes``.  The restricted flat kernels probe the mask once per
        CSR slot, so it is a plain python list — scalar list indexing
        beats any array access at that grain.  Unknown nodes are
        skipped: they are unreachable in this snapshot anyway.
        """
        mask = [False] * self.num_nodes
        for node in nodes:
            try:
                mask[self.dense_of(node)] = True
            except NodeNotFoundError:
                pass
        return mask

    def adjacency_lists(self, *, reverse: bool = False) -> tuple[list[int], list[int]]:
        """``(indptr, indices)`` as plain python lists (memoized)."""
        cached = self._adj_lists.get(reverse)
        if cached is None:
            if reverse:
                cached = (self.rev_indptr.tolist(), self.rev_indices.tolist())
            else:
                cached = (self.indptr.tolist(), self.indices.tolist())
            self._adj_lists[reverse] = cached
        return cached

    def weight_lists(self, *, reverse: bool = False) -> list[list[float]]:
        """Per-dimension slot weights as python lists (memoized)."""
        cached = self._weight_lists.get(reverse)
        if cached is None:
            costs = self.rev_costs if reverse else self.costs
            cached = [costs[:, i].tolist() for i in range(self.dim)]
            self._weight_lists[reverse] = cached
        return cached

    def cost_tuples(self) -> list[tuple[float, ...]]:
        """Forward slot cost vectors as python float tuples (memoized)."""
        if self._cost_tuples is None:
            self._cost_tuples = [tuple(row) for row in self.costs.tolist()]
        return self._cost_tuples

    # ------------------------------------------------------------------
    # flat-buffer construction (repro.mp zero-copy sharing)
    # ------------------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Total bytes held by the snapshot's arrays (mirrors excluded)."""
        total = (
            self.node_ids.nbytes
            + self.indptr.nbytes
            + self.indices.nbytes
            + self.costs.nbytes
        )
        if self.directed:
            total += (
                self.rev_indptr.nbytes
                + self.rev_indices.nbytes
                + self.rev_costs.nbytes
            )
        return total

    def export_buffers(self) -> tuple[dict, dict[str, np.ndarray]]:
        """The snapshot as ``(meta, buffers)`` — views, not copies.

        ``meta`` carries ``dim``/``directed``; ``buffers`` maps array
        names to the snapshot's own arrays (reverse arrays only for
        directed graphs, since undirected snapshots alias the forward
        ones).  Feed both to :meth:`from_buffers` to reconstruct, or to
        :func:`repro.accel.blob.write_pack` to publish into shared
        memory.
        """
        meta = {"dim": self.dim, "directed": self.directed}
        buffers = {
            "node_ids": self.node_ids,
            "indptr": self.indptr,
            "indices": self.indices,
            "costs": self.costs,
        }
        if self.directed:
            buffers["rev_indptr"] = self.rev_indptr
            buffers["rev_indices"] = self.rev_indices
            buffers["rev_costs"] = self.rev_costs
        return meta, buffers

    @classmethod
    def from_buffers(
        cls, meta: dict, buffers: dict[str, np.ndarray]
    ) -> "CSRSnapshot":
        """Rebuild a snapshot around existing buffers — zero copies.

        The arrays are wrapped as read-only views (a buffer-backed
        snapshot is shared state by construction; nobody may scribble on
        it).  Dtypes, shapes and values are validated, raising
        :class:`~repro.errors.BuildError`, so a torn or mislabelled
        segment fails loudly instead of mis-answering queries.
        """
        dim = int(meta["dim"])
        directed = bool(meta["directed"])
        if dim < 1:
            raise BuildError(f"buffer-backed snapshot has invalid dim {dim}")

        def view(name: str, dtype: str, *, allow_2d: bool = False) -> np.ndarray:
            try:
                array = buffers[name]
            except KeyError:
                raise BuildError(
                    f"buffer-backed snapshot missing array {name!r}"
                ) from None
            array = np.asarray(array)
            if array.dtype != np.dtype(dtype):
                raise BuildError(
                    f"array {name!r} has dtype {array.dtype}, expected {dtype}"
                )
            if array.ndim != (2 if allow_2d else 1):
                raise BuildError(
                    f"array {name!r} has {array.ndim} dimensions"
                )
            array = array.view()
            if array.flags.writeable:
                array.flags.writeable = False
            return array

        node_ids = view("node_ids", "int64")
        indptr = view("indptr", "int32")
        indices = view("indices", "int32")
        costs = view("costs", "float64", allow_2d=True)
        if directed:
            rev_indptr = view("rev_indptr", "int32")
            rev_indices = view("rev_indices", "int32")
            rev_costs = view("rev_costs", "float64", allow_2d=True)
        else:
            rev_indptr, rev_indices, rev_costs = indptr, indices, costs
        # Beyond shapes, every value is checked: ``indptr`` must start
        # at 0 and never decrease, ``indices`` must name nodes in
        # ``[0, n)``, and costs must be finite and non-negative — one NaN
        # weight would poison every exact bound computed over the
        # snapshot, and the dominance algebra has no answer for it.
        n = len(node_ids)
        directions = [("CSR", indptr, indices, costs)]
        if directed:
            directions.append(
                ("reverse CSR", rev_indptr, rev_indices, rev_costs)
            )
        for where, ptr, idx, cst in directions:
            if len(ptr) != n + 1:
                raise BuildError(
                    f"{where} indptr has {len(ptr)} entries for {n} nodes"
                )
            if int(ptr[0]) != 0 or np.any(np.diff(ptr) < 0):
                raise BuildError(
                    f"{where} indptr must be non-decreasing from 0"
                )
            if int(ptr[-1]) != len(idx) or cst.shape != (len(idx), dim):
                raise BuildError(f"{where} array shapes are inconsistent")
            if len(idx) and (int(idx.min()) < 0 or int(idx.max()) >= n):
                raise BuildError(f"{where} indices fall outside [0, {n})")
            if not np.all(np.isfinite(cst)) or np.any(cst < 0):
                raise BuildError(
                    f"{where} costs must be finite and non-negative"
                )
        return cls(
            dim=dim,
            directed=directed,
            node_ids=node_ids,
            indptr=indptr,
            indices=indices,
            costs=costs,
            rev_indptr=rev_indptr,
            rev_indices=rev_indices,
            rev_costs=rev_costs,
        )

    def raw_nbytes(self) -> int:
        """Byte size of the raw (shareable) pack of this snapshot."""
        from repro.accel.blob import pack_nbytes

        meta, buffers = self.export_buffers()
        return pack_nbytes(buffers, meta)

    def write_raw_into(self, buffer) -> int:
        """Publish the snapshot into a writable buffer (shm segment)."""
        from repro.accel.blob import write_pack

        meta, buffers = self.export_buffers()
        return write_pack(buffer, buffers, meta)

    @classmethod
    def from_raw_buffer(cls, buffer) -> "CSRSnapshot":
        """Attach to a raw pack — shm segment, mmap view, or bytes.

        Zero-copy: the snapshot's arrays are read-only views into
        ``buffer``, which stays alive through their ``base`` chain.
        """
        from repro.accel.blob import read_pack

        meta, buffers = read_pack(buffer)
        return cls.from_buffers(meta, buffers)

    def same_topology(self, other: "CSRSnapshot") -> bool:
        """Array-for-array equality (testing aid)."""
        return (
            self.dim == other.dim
            and self.directed == other.directed
            and np.array_equal(self.node_ids, other.node_ids)
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.costs, other.costs)
            and np.array_equal(self.rev_indptr, other.rev_indptr)
            and np.array_equal(self.rev_indices, other.rev_indices)
            and np.array_equal(self.rev_costs, other.rev_costs)
        )

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return (
            f"CSRSnapshot({kind}, dim={self.dim}, |V|={self.num_nodes}, "
            f"slots={self.num_edge_slots})"
        )

"""The fused batch kernel: one bucket traversal for many exact queries.

The flat kernel of :mod:`repro.accel.bbs_kernel` expands one label at a
time and deliberately keeps numpy out of the per-expansion path — at
road-network degrees (2–3 out-slots per node) array dispatch on a
single label loses to plain python.  :func:`fused_skyline_batch`
changes the unit of work instead: a whole serving batch of
``(source, target)`` queries runs as one traversal whose heap pops come
in *buckets* mixing labels from every query, and everything per-label
the flat kernel does in python runs as a handful of numpy operations
over the whole bucket:

* bound projection and result-skyline dominance pruning (one
  broadcasted ``<=`` per query against its
  :class:`~repro.paths.vector_frontier.VectorParetoSet`);
* candidate generation over every out-slot of every popped label (the
  CSR repeat/cumsum gather);
* per-(query, node) frontier admission: the frontier rows of every
  node a bucket touches are gathered once, and one segment-aligned
  comparison decides every candidate's dominated-or-equal rejection
  and every strictly dominated row's eviction in a single pass.

Correctness tier — answers equal, counters may differ
-----------------------------------------------------

The fused kernel is **not** bit-identical to the flat kernel and does
not try to be: popping a bucket before any of its children can enter a
heap reorders expansions, so every counter in
:class:`~repro.search.bbs.SearchStats` diverges.  What is preserved is
the *answer set*: the final skyline is the Pareto filter of all
target-reaching paths found, and

* candidate costs are produced by the same IEEE float64 additions in
  the same association order (``(c + w) + b``, element-wise), so every
  path both kernels find has a bit-identical cost vector;
* pruning differs only in *when* a frontier or the result skyline is
  consulted, never in what it may prune: every rejection criterion is
  the sequential one, which can never remove the last witness of a
  skyline cost;
* within a bucket, each query's labels are processed in ascending key
  order and checked against results found earlier in the same bucket.

Equal-cost alternate paths are the one visible divergence: which of
several equal-cost witnesses survives depends on expansion order.  The
qa harness therefore checks fused answers for answer-set equality
(:func:`repro.qa.invariants.answer_set_errors`).

Every query's result set starts from the per-dimension shortest paths
read off its exact bound matrix
(:func:`~repro.accel.bounds.seed_paths_from_bounds`), the walk the flat
kernel and the reference take, so all three start from the same seeds.

The wall-clock budget is checked once per bucket, so a run may
overshoot it by at most one bucket.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections.abc import Sequence

import numpy as np

from repro.accel.bounds import exact_bound_matrix, seed_paths_from_bounds
from repro.accel.csr import CSRSnapshot
from repro.errors import NodeNotFoundError
from repro.graph.mcrn import MultiCostGraph
from repro.paths.path import Path
from repro.paths.vector_frontier import VectorParetoSet

# The fused kernel amortizes each bucket's numpy passes across every
# query in the batch: on the fig10 serving workload (ny~1200, 6
# queries) 256 beats both 128 and 512 by 10-20%.
FUSED_BUCKET_SIZE = 256

_EMPTY = np.empty(0, dtype=np.int64)


def _all_le(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise ``(a <= b).all(axis=1)``, dimension-unrolled.

    At skyline dimensions (2–3) the per-column AND chain beats the
    generic axis reduction by skipping the ufunc-reduce machinery.
    """
    out = a[:, 0] <= b[:, 0]
    for j in range(1, a.shape[1]):
        out &= a[:, j] <= b[:, j]
    return out


def _all_eq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise ``(a == b).all(axis=1)``, dimension-unrolled."""
    out = a[:, 0] == b[:, 0]
    for j in range(1, a.shape[1]):
        out &= a[:, j] == b[:, j]
    return out


def _all_finite(a: np.ndarray) -> np.ndarray:
    """Row-wise ``isfinite(a).all(axis=1)``, dimension-unrolled."""
    out = np.isfinite(a[:, 0])
    for j in range(1, a.shape[1]):
        out &= np.isfinite(a[:, j])
    return out


def _segment_pairs(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expand per-owner segment counts into (owner, within) pair rows.

    The repeat/cumsum gather shared by candidate generation and
    frontier admission: owner ``i`` contributes ``counts[i]`` rows,
    each tagged with its index within the segment.
    """
    total = int(counts.sum())
    if not total:
        return _EMPTY, _EMPTY
    owner = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    cum = np.cumsum(counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(
        cum - counts, counts
    )
    return owner, within


def _intra_bucket_reject(nodes_sub: np.ndarray, ext_sub: np.ndarray):
    """Dominance resolution *among* one bucket's surviving candidates.

    Two candidates landing on the same node in the same bucket
    interact exactly as sequential pushes would: a strictly dominated
    cost can never reach the frontier (the dominator evicts it whether
    it comes earlier or later), and of exactly equal costs only the
    first — smallest heap key — survives (one label per distinct cost).
    Rejecting the loser *before* the push loop also saves the wasted
    heap entry the sequential engines pay for a push that is evicted
    later in the same bucket.

    Returns a boolean reject mask aligned with ``nodes_sub``.
    """
    reject = np.zeros(len(nodes_sub), dtype=bool)
    if len(nodes_sub) < 2:
        return reject
    order = np.argsort(nodes_sub, kind="stable")
    sorted_nodes = nodes_sub[order]
    boundary = np.empty(len(sorted_nodes), dtype=bool)
    boundary[0] = True
    boundary[1:] = sorted_nodes[1:] != sorted_nodes[:-1]
    seg_id = np.cumsum(boundary) - 1
    seg_sizes = np.bincount(seg_id)
    if seg_sizes.max() < 2:
        return reject
    # All (candidate, other-candidate) pairs within each node segment.
    counts = seg_sizes[seg_id]
    owner, within = _segment_pairs(counts)
    seg_start = np.concatenate(([0], np.cumsum(seg_sizes)[:-1]))
    other = seg_start[seg_id[owner]] + within
    valid = other != owner
    owner, other = owner[valid], other[valid]
    mine = ext_sub[order[owner]]
    theirs = ext_sub[order[other]]
    dom_or_eq = _all_le(theirs, mine)
    equal = _all_eq(theirs, mine)
    # Strict dominators kill regardless of order; exact ties keep the
    # earlier (smaller-key) candidate.
    loses = dom_or_eq & (~equal | (other < owner))
    sorted_reject = np.zeros(len(sorted_nodes), dtype=bool)
    sorted_reject[owner[loses]] = True
    reject[order] = sorted_reject
    return reject


def _bucket_candidates(indptr, indices, nodes):
    """Gather every out-slot of every bucket label, vectorized.

    Returns ``(label_of, slots, cand_nodes)``: for each candidate row,
    the index of its parent in ``owners``, its CSR slot, and its dense
    neighbor id.  Empty arrays when no label has out-edges.
    """
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    label_of, within = _segment_pairs(counts)
    if not len(label_of):
        return _EMPTY, _EMPTY, _EMPTY
    slots = starts[label_of] + within
    return label_of, slots, indices[slots]


class _LabelStore:
    """Flat append-only label store for the fused kernel.

    Labels live in parallel numpy arrays indexed by an integer label
    id: cost row, dense node, query id, composite frontier id, and
    parent label id (``-1`` for roots).  A whole bucket's labels
    gather with fancy indexing instead of per-object attribute reads,
    and admission writes a whole member slice at once — the per-label
    Python objects (``Label``, cost tuples, per-node membership sets)
    disappear from the hot loop.

    Liveness lives in two small Python sets rather than a flag array:
    ``dead`` holds evicted label ids (the lazy-heap staleness test is
    one set-membership check per pop) and ``dirty`` the frontier ids
    that lost a row since last compaction, so per-frontier lists are
    re-filtered only when something was actually evicted from them.
    """

    __slots__ = ("cost", "node", "qid", "fid", "parent", "size",
                 "dead", "dirty")

    def __init__(self, dim: int) -> None:
        cap = 1024
        self.cost = np.empty((cap, dim), dtype=np.float64)
        self.node = np.empty(cap, dtype=np.int64)
        self.qid = np.empty(cap, dtype=np.int64)
        self.fid = np.empty(cap, dtype=np.int64)
        self.parent = np.empty(cap, dtype=np.int64)
        self.size = 0
        self.dead: set[int] = set()
        self.dirty: set[int] = set()

    def _reserve(self, extra: int) -> None:
        need = self.size + extra
        cap = len(self.node)
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        for name in ("cost", "node", "qid", "fid", "parent"):
            old = getattr(self, name)
            shape = (cap,) + old.shape[1:]
            grown = np.empty(shape, dtype=old.dtype)
            grown[: self.size] = old[: self.size]
            setattr(self, name, grown)

    def extend(self, costs, nodes, qids, fids, parents) -> int:
        """Append a block of live labels; return the first new id."""
        k = len(nodes)
        self._reserve(k)
        base = self.size
        end = base + k
        self.cost[base:end] = costs
        self.node[base:end] = nodes
        self.qid[base:end] = qids
        self.fid[base:end] = fids
        self.parent[base:end] = parents
        self.size = end
        return base


class _StoreFrontierBatch:
    """One bucket's gathered frontier state over a :class:`_LabelStore`.

    Per-``fid`` frontiers are plain lists of label ids (compacted lazily against
    ``store.alive`` when touched), the concatenated cost rows come from
    one fancy index into the store, and eviction is a single scatter
    ``alive[dead] = 0`` — no per-frontier bookkeeping at all.
    """

    __slots__ = ("store", "uniq", "uidx", "sizes", "seg_start", "row_idx")

    def __init__(self, store: _LabelStore, fid_rows: list, cand_fids):
        self.store = store
        self.uniq, self.uidx = np.unique(cand_fids, return_inverse=True)
        dead = store.dead
        dirty = store.dirty
        sizes = np.zeros(len(self.uniq), dtype=np.int64)
        chunks = []
        for k, fid in enumerate(self.uniq.tolist()):
            rows = fid_rows[fid]
            if rows:
                if fid in dirty:
                    rows = [i for i in rows if i not in dead]
                    fid_rows[fid] = rows
                    dirty.discard(fid)
                if rows:
                    sizes[k] = len(rows)
                    chunks.append(rows)
        self.sizes = sizes
        self.seg_start = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        if chunks:
            flat = list(itertools.chain.from_iterable(chunks))
            self.row_idx = np.fromiter(flat, dtype=np.int64, count=len(flat))
        else:
            self.row_idx = _EMPTY

    def _pairs(self, positions: np.ndarray):
        uidx = self.uidx[positions]
        owner, within = _segment_pairs(self.sizes[uidx])
        if not len(owner):
            return owner, owner
        return owner, self.seg_start[uidx[owner]] + within

    def admission(
        self, ext: np.ndarray, intra_reject: np.ndarray
    ) -> np.ndarray:
        """Frontier rejection and deferred eviction in one pair sweep.

        Builds the (candidate, frontier-row) pairs once: a candidate is
        rejected when a bucket-start row dominates-or-equals it (the
        ``try_add`` rule) or ``intra_reject`` flags it, and every
        bucket-start row strictly dominated by a *kept* candidate is
        recorded dead.  Eviction ordering is immaterial — the pair set
        is a bucket-start snapshot either way.  Returns the combined
        reject mask.
        """
        reject = intra_reject.copy()
        owner, rows = self._pairs(np.arange(len(self.uidx), dtype=np.int64))
        if not len(owner):
            return reject
        front_rows = self.store.cost[self.row_idx[rows]]
        ext_owner = ext[owner]
        dom = _all_le(front_rows, ext_owner)
        reject[owner[dom]] = True
        doomed = (
            _all_le(ext_owner, front_rows)
            & ~_all_eq(ext_owner, front_rows)
            & ~reject[owner]
        )
        if doomed.any():
            store = self.store
            dead_ids = np.unique(self.row_idx[rows[doomed]])
            store.dead.update(dead_ids.tolist())
            store.dirty.update(store.fid[dead_ids].tolist())
        return reject


def fused_skyline_batch(
    graph: MultiCostGraph,
    snapshot: CSRSnapshot,
    queries: Sequence[tuple[int, int]],
    *,
    time_budget: float | None = None,
):
    """One shared bucket traversal for a whole batch of 1-to-1 queries.

    This is the batch executor's fast path: ``Q`` independent
    ``(source, target)`` queries run over one CSR walk, and every
    bucket mixes labels from all of them.  The per-bucket numpy
    passes — bound projection, result-skyline pruning, frontier
    admission — each process the *combined* bucket, so their fixed
    dispatch cost is amortized ``Q`` ways: the same operations on
    ~``Q``-times larger arrays, which is where bucket vectorization
    wins (see ``BENCH_batch.json``).

    Each query keeps its own heap and contributes an equal quota of
    its smallest-key labels to every bucket.  A single shared heap
    would *not* mix: heap keys are absolute projected-cost sums, so
    the query with the smallest cost scale would drain first and the
    buckets would degenerate to single-query ones.  Cross-query pop
    order is irrelevant to correctness — only the per-query
    subsequence must be ascending, which a per-query heap gives
    trivially.

    Queries stay logically independent: frontiers are keyed by
    ``(query, node)``, and each query prunes only against its own
    result skyline and bound matrix — so every answer set equals the
    flat kernel's answer set for that pair (equal-cost alternates may
    differ, counters may differ).

    Every query is bounded by exact reverse Dijkstra to its target,
    computed once per distinct target in the batch, and seeded with the
    per-dimension shortest paths read off the same matrix.
    ``time_budget`` caps the *whole batch*; on expiry every query's
    stats report ``timed_out`` (the shared traversal cannot attribute
    the shortfall).  Returns one
    :class:`~repro.search.bbs.SkylineResult` per query, positionally.
    """
    from repro.search.bbs import SearchStats, SkylineResult

    start_time = time.perf_counter()
    n_queries = len(queries)
    all_stats = [SearchStats() for _ in range(n_queries)]
    if time_budget is not None and time_budget <= 0:
        for stats in all_stats:
            stats.timed_out = True
        return [SkylineResult(stats=stats) for stats in all_stats]

    dim = snapshot.dim
    n = snapshot.num_nodes
    node_ids = snapshot.node_ids.tolist()
    indptr = snapshot.indptr.astype(np.int64, copy=False)
    indices = snapshot.indices.astype(np.int64, copy=False)
    cost_mat = snapshot.costs

    for source, target in queries:
        if not graph.has_node(source):
            raise NodeNotFoundError(source)
        if not graph.has_node(target):
            raise NodeNotFoundError(target)

    # Per-query state: destination, bounds, result containers.
    dst = np.fromiter(
        (snapshot.dense_of(t) for _, t in queries),
        dtype=np.int64,
        count=n_queries,
    )
    bound_stack = np.empty((n_queries, n, dim), dtype=np.float64)
    exact_cache: dict[int, np.ndarray] = {}
    for q in range(n_queries):
        # Batches repeat targets (dedup only merges identical source
        # AND target pairs); one reverse Dijkstra per unique one.  (A
        # vectorized Bellman-Ford over all targets at once loses here:
        # road-network shortest-path trees run >100 hops deep, so the
        # sweep pays >100 small-array numpy rounds against ~3 ms per
        # heap-Dijkstra matrix on C9_NY~1200.)
        key = int(dst[q])
        cached = exact_cache.get(key)
        if cached is None:
            cached = exact_cache[key] = exact_bound_matrix(snapshot, [key])
        bound_stack[q] = cached

    # Result skylines: the VectorParetoSet mirror is authoritative for
    # *costs*; witnesses accumulate in a plain list and are filtered by
    # final front membership at the end.  This replaces the python
    # dominance scan of PathSet.add (the scalar engines' result-set hot
    # spot on skyline-heavy queries) with one vectorized compare per
    # hit; eviction becomes a single final filter instead of per-add
    # list rebuilds.
    res_skys: list[VectorParetoSet] = [
        VectorParetoSet(dim) for _ in range(n_queries)
    ]
    # A witness is either a ready Path (seeds, trivial queries) or a
    # label id whose node walk materializes only at the end — most
    # hits never need their path before then.  Exact duplicates are
    # dropped in the same final pass.
    witnesses: list[list] = [[] for _ in range(n_queries)]

    def record_hit(q: int, witness, cost) -> bool:
        """PathSet(keep_equal_costs) admission via the vector mirror:
        accept a new non-dominated cost or an equal-cost alternate,
        reject strictly dominated candidates."""
        sky = res_skys[q]
        if sky.contains(cost) or sky.add(cost, None):
            witnesses[q].append(witness)
            return True
        return False

    for q, (source, target) in enumerate(queries):
        if source != target:
            # Exact bound matrices double as shortest-path trees.
            seeds = seed_paths_from_bounds(
                snapshot,
                bound_stack[q],
                snapshot.dense_of(source),
                int(dst[q]),
            )
            for path in seeds:
                record_hit(q, path, path.cost)

    # Frontiers keyed by the composite id q*n + node: per-fid lists of
    # label ids into one flat store, so _StoreFrontierBatch and
    # _intra_bucket_reject work unchanged on composite ids (candidates
    # of different queries never share one).
    store = _LabelStore(dim)
    fid_rows: list[list[int] | None] = [None] * (n_queries * n)
    heaps: list[list[tuple[float, int]]] = [[] for _ in range(n_queries)]

    zero_row = np.zeros((1, dim), dtype=np.float64)
    for q, (source, target) in enumerate(queries):
        if source == target:
            trivial = Path.trivial(source, dim)
            record_hit(q, trivial, trivial.cost)
            continue
        src = snapshot.dense_of(source)
        projected = tuple(bound_stack[q, src].tolist())
        stats = all_stats[q]
        if float("inf") in projected:
            stats.pruned_by_bound += 1
            continue
        stats.dominance_checks += 1
        if res_skys[q].dominates_candidate(projected):
            stats.pruned_by_result += 1
            continue
        idx = store.extend(
            zero_row,
            np.asarray([src], dtype=np.int64),
            np.asarray([q], dtype=np.int64),
            np.asarray([q * n + src], dtype=np.int64),
            np.asarray([-1], dtype=np.int64),
        )
        fid_rows[q * n + src] = [idx]
        stats.pushes += 1
        stats.max_heap_size = 1
        heapq.heappush(heaps[q], (sum(projected), idx))

    timed_out = False
    dst_list = dst.tolist()
    while any(heaps):
        if time_budget is not None and (
            time.perf_counter() - start_time > time_budget
        ):
            timed_out = True
            break

        # Equal quota of smallest-key labels from every live query, so
        # the bucket mixes queries regardless of their cost scales.
        dead = store.dead
        bucket_idx: list[int] = []
        live = [q for q in range(n_queries) if heaps[q]]
        quota = -(-FUSED_BUCKET_SIZE // len(live))
        for q in live:
            heap = heaps[q]
            taken = 0
            while heap and taken < quota:
                _, idx = heapq.heappop(heap)
                if idx not in dead:
                    bucket_idx.append(idx)
                    taken += 1
        if not bucket_idx:
            continue

        barr = np.fromiter(
            bucket_idx, dtype=np.int64, count=len(bucket_idx)
        )
        qids = store.qid[barr]
        nodes = store.node[barr]
        costs = store.cost[barr]
        projected = costs + bound_stack[qids, nodes]
        dominated = np.zeros(len(barr), dtype=bool)
        # Pops are grouped by ascending q, so qids (and every array
        # derived from it downstream) is segment-sorted: per-query
        # work is contiguous slices, not nonzero scans.
        uq_arr, q_starts = np.unique(qids, return_index=True)
        uq = uq_arr.tolist()
        q_bounds = q_starts.tolist() + [len(barr)]
        for j, q in enumerate(uq):
            lo, hi = q_bounds[j], q_bounds[j + 1]
            all_stats[q].dominance_checks += hi - lo
            dominated[lo:hi] = res_skys[q].dominance_mask(projected[lo:hi])

        # Per query: record target hits first (their pops are already
        # in ascending key order), then prune the query's remaining
        # labels against the *updated* skyline in one vectorized pass
        # — the same dominated-or-equal test the sequential engines
        # apply label by label after each fresh path.
        expand_mask = np.zeros(len(barr), dtype=bool)
        for j, q in enumerate(uq):
            lo, hi = q_bounds[j], q_bounds[j + 1]
            stats = all_stats[q]
            seg = slice(lo, hi)
            seg_live = ~dominated[seg]
            stats.pruned_by_result += (hi - lo) - int(seg_live.sum())
            hits = nodes[seg] == dst_list[q]
            found = False
            for p in np.nonzero(hits & seg_live)[0].tolist():
                i = lo + p
                stats.expansions += 1
                cost = tuple(costs[i].tolist())
                if record_hit(q, bucket_idx[i], cost):
                    found = True
            tail = seg_live & ~hits
            if found and tail.any():
                redom = res_skys[q].dominance_mask(projected[seg])
                stats.pruned_by_result += int((tail & redom).sum())
                tail &= ~redom
            expanded = int(tail.sum())
            stats.expansions += expanded
            expand_mask[seg] = tail
        if not expand_mask.any():
            continue

        expand_arr = np.nonzero(expand_mask)[0]
        label_of, slots, cand_nodes = _bucket_candidates(
            indptr, indices, nodes[expand_arr]
        )
        if not len(slots):
            continue
        cand_qids = qids[expand_arr[label_of]]
        extended = costs[expand_arr[label_of]] + cost_mat[slots]
        cand_projected = extended + bound_stack[cand_qids, cand_nodes]
        finite = _all_finite(cand_projected)
        cand_dominated = np.zeros(len(cand_nodes), dtype=bool)
        c_bounds = np.searchsorted(cand_qids, uq_arr).tolist()
        c_bounds.append(len(cand_nodes))
        for j, q in enumerate(uq):
            lo, hi = c_bounds[j], c_bounds[j + 1]
            if lo == hi:
                continue
            stats = all_stats[q]
            fin = finite[lo:hi]
            stats.pruned_by_bound += int(len(fin) - fin.sum())
            stats.dominance_checks += int(fin.sum())
            dom = res_skys[q].dominance_mask(cand_projected[lo:hi])
            stats.pruned_by_result += int((fin & dom).sum())
            cand_dominated[lo:hi] = dom
        admit = finite & ~cand_dominated
        if not admit.any():
            continue

        members = np.nonzero(admit)[0]
        cand_fids = cand_qids * n + cand_nodes
        mfids = cand_fids[members]
        batch_front = _StoreFrontierBatch(store, fid_rows, mfids)
        if len(batch_front.uniq) == len(mfids):
            intra = np.zeros(len(mfids), dtype=bool)
        else:
            intra = _intra_bucket_reject(mfids, extended[members])
        reject = batch_front.admission(extended[members], intra)
        if reject.any():
            counts = np.bincount(
                cand_qids[members[reject]], minlength=n_queries
            )
            for q in np.nonzero(counts)[0].tolist():
                all_stats[q].pruned_by_frontier += int(counts[q])
        keep_pos = np.nonzero(~reject)[0]
        members = members[keep_pos]
        if not len(members):
            continue

        keys = cand_projected[members].sum(axis=1)
        mq = cand_qids[members]
        mkeep = mfids[keep_pos]
        parents_idx = barr[expand_arr[label_of[members]]]
        base = store.extend(
            extended[members], cand_nodes[members], mq, mkeep, parents_idx
        )
        push_counts = np.bincount(mq, minlength=n_queries)
        for q in np.nonzero(push_counts)[0].tolist():
            all_stats[q].pushes += int(push_counts[q])
        for off, (key, q, fid) in enumerate(
            zip(keys.tolist(), mq.tolist(), mkeep.tolist())
        ):
            idx = base + off
            rows = fid_rows[fid]
            if rows is None:
                fid_rows[fid] = [idx]
            else:
                rows.append(idx)
            heapq.heappush(heaps[q], (key, idx))
        for q, heap in enumerate(heaps):
            if len(heap) > all_stats[q].max_heap_size:
                all_stats[q].max_heap_size = len(heap)

    elapsed = time.perf_counter() - start_time
    for stats in all_stats:
        stats.elapsed_seconds = elapsed
        if timed_out:
            stats.timed_out = True
    for q in range(n_queries):
        all_stats[q].frontier_nodes = sum(
            1 for rows in fid_rows[q * n : (q + 1) * n] if rows is not None
        )
    # Witnesses whose cost survived on the final front, in insertion
    # order — exactly the PathSet(keep_equal_costs) survivor set: an
    # evicted cost is strictly dominated by a kept one, so no later
    # equal-cost witness can have re-entered after an eviction.  Node
    # walks happen only here, over plain Python lists, and exact
    # (cost, nodes) duplicates collapse in the same pass.
    parent_list = store.parent[: store.size].tolist()
    dense_nodes = store.node[: store.size].tolist()
    results = []
    for q in range(n_queries):
        sky = res_skys[q]
        final_paths: list[Path] = []
        emitted: set = set()
        for witness in witnesses[q]:
            if isinstance(witness, Path):
                path = witness
                if not sky.contains(path.cost):
                    continue
            else:
                cost = tuple(store.cost[witness].tolist())
                if not sky.contains(cost):
                    continue
                chain = []
                i = witness
                while i >= 0:
                    chain.append(node_ids[dense_nodes[i]])
                    i = parent_list[i]
                chain.reverse()
                path = Path(tuple(chain), cost)
            key = (path.cost, tuple(path.nodes))
            if key in emitted:
                continue
            emitted.add(key)
            final_paths.append(path)
        results.append(
            SkylineResult(paths=final_paths, stats=all_stats[q])
        )
    return results

"""Flat-buffer export/attach fidelity (repro.accel.blob + CSRSnapshot).

The multi-process serving layer only works if the buffer exchange is
*exactly* lossless: a snapshot exported to raw buffers — or packed to
bytes or a shared segment — and attached back must be bit-identical,
and the attached views must be read-only (a worker
scribbling on shared pages would corrupt every other worker's
answers).  These are property tests over random multigraphs.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.blob import pack_bytes, pack_nbytes, read_pack, write_pack
from repro.accel.csr import CSRSnapshot
from repro.errors import BuildError
from repro.graph.mcrn import MultiCostGraph


def random_multigraph(seed: int) -> MultiCostGraph:
    """A small graph with sparse ids, parallel edges, random direction."""
    rng = random.Random(seed)
    dim = rng.choice((2, 3))
    graph = MultiCostGraph(dim, directed=rng.random() < 0.5)
    nodes = rng.sample(range(1000), rng.randint(2, 16))
    for node in nodes:
        graph.add_node(node)
    for _ in range(rng.randint(0, 36)):
        u, v = rng.sample(nodes, 2)
        cost = tuple(float(rng.randint(1, 9)) for _ in range(dim))
        graph.add_edge(u, v, cost)
    return graph


def assert_identical(a: CSRSnapshot, b: CSRSnapshot) -> None:
    assert a.dim == b.dim and a.directed == b.directed
    for name in ("node_ids", "indptr", "indices", "costs"):
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype
        assert np.array_equal(left, right)
    if a.directed:
        for name in ("rev_indptr", "rev_indices", "rev_costs"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


# ----------------------------------------------------------------------
# export_buffers / from_buffers
# ----------------------------------------------------------------------


class TestBufferRoundTrip:
    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=60, deadline=None)
    def test_export_import_is_bit_identical(self, seed):
        snapshot = CSRSnapshot.from_graph(random_multigraph(seed))
        meta, buffers = snapshot.export_buffers()
        rebuilt = CSRSnapshot.from_buffers(meta, buffers)
        assert_identical(snapshot, rebuilt)
        assert rebuilt.same_topology(snapshot)

    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=40, deadline=None)
    def test_imported_views_are_read_only(self, seed):
        snapshot = CSRSnapshot.from_graph(random_multigraph(seed))
        rebuilt = CSRSnapshot.from_buffers(*snapshot.export_buffers())
        arrays = [rebuilt.node_ids, rebuilt.indptr, rebuilt.indices,
                  rebuilt.costs]
        if rebuilt.directed:
            arrays += [rebuilt.rev_indptr, rebuilt.rev_indices,
                       rebuilt.rev_costs]
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                array[..., 0] = 0

    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=40, deadline=None)
    def test_export_does_not_copy(self, seed):
        snapshot = CSRSnapshot.from_graph(random_multigraph(seed))
        _meta, buffers = snapshot.export_buffers()
        assert buffers["indices"] is snapshot.indices
        assert buffers["costs"] is snapshot.costs

    def test_undirected_import_aliases_reverse_to_forward(self):
        graph = MultiCostGraph(2)
        graph.add_edge(1, 2, (1.0, 2.0))
        snapshot = CSRSnapshot.from_graph(graph)
        rebuilt = CSRSnapshot.from_buffers(*snapshot.export_buffers())
        assert rebuilt.rev_indices is rebuilt.indices
        assert rebuilt.rev_indptr is rebuilt.indptr

    def test_inconsistent_buffers_are_rejected(self):
        graph = MultiCostGraph(2)
        graph.add_edge(1, 2, (1.0, 2.0))
        graph.add_edge(2, 3, (2.0, 1.0))
        snapshot = CSRSnapshot.from_graph(graph)
        meta, buffers = snapshot.export_buffers()

        truncated = dict(buffers)
        truncated["indptr"] = buffers["indptr"][:-1]
        with pytest.raises(BuildError):
            CSRSnapshot.from_buffers(meta, truncated)

        wrong_dtype = dict(buffers)
        wrong_dtype["indices"] = buffers["indices"].astype(np.int64)
        with pytest.raises(BuildError):
            CSRSnapshot.from_buffers(meta, wrong_dtype)

        missing = dict(buffers)
        del missing["costs"]
        with pytest.raises(BuildError):
            CSRSnapshot.from_buffers(meta, missing)

        wrong_shape = dict(buffers)
        wrong_shape["costs"] = buffers["costs"][:, :1]
        with pytest.raises(BuildError):
            CSRSnapshot.from_buffers(meta, wrong_shape)


# ----------------------------------------------------------------------
# raw pack (the shm wire format)
# ----------------------------------------------------------------------


def _raw_bytes(snapshot: CSRSnapshot) -> bytes:
    """The snapshot's raw pack, written as into a shared segment."""
    buffer = bytearray(snapshot.raw_nbytes())
    assert snapshot.write_raw_into(buffer) == len(buffer)
    return bytes(buffer)


class TestRawPack:
    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=60, deadline=None)
    def test_raw_bytes_round_trip_is_bit_identical(self, seed):
        snapshot = CSRSnapshot.from_graph(random_multigraph(seed))
        raw = _raw_bytes(snapshot)
        assert len(raw) == snapshot.raw_nbytes()
        rebuilt = CSRSnapshot.from_raw_buffer(raw)
        assert_identical(snapshot, rebuilt)

    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=30, deadline=None)
    def test_write_into_matches_to_bytes(self, seed):
        snapshot = CSRSnapshot.from_graph(random_multigraph(seed))
        buffer = bytearray(snapshot.raw_nbytes() + 7)  # slack tolerated
        written = snapshot.write_raw_into(buffer)
        meta, buffers = snapshot.export_buffers()
        assert bytes(buffer[:written]) == pack_bytes(buffers, meta)

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=30, deadline=None)
    def test_encoding_is_deterministic(self, seed):
        snapshot = CSRSnapshot.from_graph(random_multigraph(seed))
        assert _raw_bytes(snapshot) == _raw_bytes(snapshot)

    def test_pack_rejects_corruption(self):
        arrays = {"a": np.arange(5, dtype=np.int64)}
        raw = pack_bytes(arrays, {"k": 1})
        assert len(raw) == pack_nbytes(arrays, {"k": 1})

        with pytest.raises(BuildError):
            read_pack(b"XXXX" + raw[4:])  # bad magic
        with pytest.raises(BuildError):
            read_pack(raw[: len(raw) - 3])  # truncated payload
        with pytest.raises(BuildError):
            read_pack(raw[:6])  # truncated prefix

    def test_pack_views_are_zero_copy_and_read_only(self):
        arrays = {
            "a": np.arange(6, dtype=np.int32),
            "b": np.linspace(0.0, 1.0, 8).reshape(4, 2),
        }
        raw = pack_bytes(arrays, {"note": "x"})
        meta, views = read_pack(raw)
        assert meta == {"note": "x"}
        for name, original in arrays.items():
            assert np.array_equal(views[name], original)
            assert not views[name].flags.writeable

    def test_write_pack_rejects_short_buffer(self):
        arrays = {"a": np.arange(4, dtype=np.int64)}
        short = bytearray(pack_nbytes(arrays, {}) - 1)
        with pytest.raises(BuildError):
            write_pack(short, arrays, {})


# ----------------------------------------------------------------------
# shared-memory segments
# ----------------------------------------------------------------------


class TestSharedAttachment:
    def test_shared_segment_publish_attach_round_trip(self):
        from repro.mp.shm import MPServingError, SharedCSR

        snapshot = CSRSnapshot.from_graph(random_multigraph(17))
        shared = SharedCSR.publish(snapshot)
        try:
            assert shared.nbytes == snapshot.raw_nbytes()
            attached = SharedCSR.attach(shared.name)
            view = attached.snapshot()
            assert_identical(snapshot, view)
            assert not view.costs.flags.writeable
            with pytest.raises(MPServingError):
                attached.unlink()  # attachers must not own lifetime
            attached.close()
        finally:
            shared.close()
            shared.unlink()

    def test_attach_to_missing_segment_raises(self):
        from repro.mp.shm import MPServingError, SharedCSR

        with pytest.raises(MPServingError):
            SharedCSR.attach("repro-no-such-segment")

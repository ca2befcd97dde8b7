"""Tests for the binary index store: codec, format, round-trips,
lazy loading, and corruption handling."""

from __future__ import annotations

import pytest

from repro.core.builder import build_backbone_index
from repro.core.index import BackboneIndex
from repro.core.params import BackboneParams
from repro.errors import BuildError
from repro.graph.generators import road_network
from repro.graph.mcrn import MultiCostGraph
from repro.store import (
    IndexStore,
    LazyLevelList,
    inspect_store,
    load_index,
    save_index,
    serialize_index,
)
from repro.store.codec import ByteReader, ByteWriter, unzigzag, zigzag
from repro.store.format import (
    FORMAT_VERSION,
    HEADER_STRUCT,
    MAGIC,
    SECTION_STRUCT,
    pack_tag,
)
from repro.store.writer import _iter_sections, encode_top_graph

from tests.conftest import costs_of


@pytest.fixture(scope="module")
def network():
    return road_network(300, dim=3, seed=17)


@pytest.fixture(scope="module")
def index(network):
    return build_backbone_index(
        network, BackboneParams(m_max=30, m_min=5, p=0.03)
    )


@pytest.fixture()
def store_path(tmp_path, index):
    path = tmp_path / "net.rbi"
    save_index(index, path)
    return path


class TestCodec:
    def test_zigzag_roundtrip(self):
        for value in (0, 1, -1, 63, -64, 2**40, -(2**40)):
            assert unzigzag(zigzag(value)) == value

    def test_writer_reader_roundtrip(self):
        writer = ByteWriter()
        writer.uvarint(0)
        writer.uvarint(300)
        writer.svarint(-17)
        writer.deltas([5, 9, 2, 2, 1000])
        writer.floats([1.5, -2.25, float("inf")])
        reader = ByteReader(writer.payload())
        assert reader.uvarint() == 0
        assert reader.uvarint() == 300
        assert reader.svarint() == -17
        assert reader.deltas(5) == [5, 9, 2, 2, 1000]
        assert reader.floats(3) == (1.5, -2.25, float("inf"))
        assert reader.ints_exhausted()

    def test_reader_rejects_overrun(self):
        writer = ByteWriter()
        writer.uvarint(7)
        reader = ByteReader(writer.payload())
        reader.uvarint()
        with pytest.raises(BuildError):
            reader.uvarint()
        with pytest.raises(BuildError):
            reader.floats(1)

    def test_ragged_float_block_rejected(self):
        writer = ByteWriter()
        writer.floats([1.0])
        with pytest.raises(BuildError):
            ByteReader(writer.payload() + b"x")


class TestRoundTrip:
    def test_full_load_answers_identical_queries(
        self, store_path, network, index
    ):
        loaded = load_index(store_path, network)
        assert loaded.height == index.height
        assert loaded.label_path_count() == index.label_path_count()
        assert sorted(loaded.top_graph.nodes()) == sorted(
            index.top_graph.nodes()
        )
        assert loaded.provenance == index.provenance
        nodes = sorted(network.nodes())
        for s, t in [(nodes[1], nodes[-2]), (nodes[4], nodes[-7])]:
            assert costs_of(loaded.query(s, t)) == costs_of(index.query(s, t))

    def test_no_dijkstra_on_load(self, store_path, network, index, monkeypatch):
        import sys

        import repro.accel.bounds
        import repro.search.dijkstra

        def forbid(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("load must not run Dijkstra")

        # Patch every Dijkstra entry point at each name a loaded module
        # binds it under, so a call from anywhere on the load path fires.
        entry_points = (
            repro.search.dijkstra.shortest_costs,
            repro.search.dijkstra.shortest_path,
            repro.search.dijkstra.per_dimension_shortest_paths,
            repro.accel.bounds.csr_shortest_costs,
        )
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "repro":
                continue
            for name, value in list(vars(module).items()):
                if any(value is entry for entry in entry_points):
                    monkeypatch.setattr(module, name, forbid)
        for lazy in (False, True):
            loaded = load_index(store_path, network, lazy=lazy)
            assert loaded.height == index.height
            assert loaded.top_graph.num_edge_entries == (
                index.top_graph.num_edge_entries
            )

    def test_params_roundtrip_exactly(self, store_path, network, index):
        loaded = load_index(store_path, network)
        assert loaded.params == index.params

    def test_build_time_survives_a_load(self, store_path, network, index):
        loaded = load_index(store_path, network)
        assert (
            loaded.build_stats.elapsed_seconds
            == index.build_stats.elapsed_seconds
            > 0
        )

    @pytest.mark.parametrize("compress", [True, False])
    def test_resaving_a_loaded_store_is_byte_identical(
        self, store_path, tmp_path, network, compress
    ):
        first, second = tmp_path / "first.rbi", tmp_path / "second.rbi"
        save_index(load_index(store_path, network), first, compress=compress)
        save_index(load_index(first, network), second, compress=compress)
        assert first.read_bytes() == second.read_bytes()

    def test_uncompressed_store_loads_too(self, tmp_path, network, index):
        path = tmp_path / "raw.rbi"
        save_index(index, path, compress=False)
        loaded = load_index(path, network)
        assert loaded.label_path_count() == index.label_path_count()

    def test_directed_top_graph_flag_survives(self):
        directed = MultiCostGraph(2, directed=True)
        directed.add_edge(1, 2, (1.0, 2.0))
        directed.add_edge(2, 1, (2.0, 1.0))
        directed.add_edge(2, 5, (1.0, 1.0))
        decoded = _decode_top_graph_payload(
            encode_top_graph(directed), dim=2
        )
        assert decoded.directed
        assert decoded.edge_costs(1, 2) == [(1.0, 2.0)]
        assert decoded.edge_costs(2, 1) == [(2.0, 1.0)]
        assert sorted(decoded.nodes()) == [1, 2, 5]


def _decode_top_graph_payload(payload: bytes, dim: int) -> MultiCostGraph:
    """Decode a topgraph section payload without a file on disk."""
    reader = ByteReader(payload)
    nodes = reader.deltas(reader.uvarint())
    directed = bool(reader.uvarint())
    graph = MultiCostGraph(dim, directed=directed)
    for node in nodes:
        graph.add_node(node)
    u = 0
    for _ in range(reader.uvarint()):
        u += reader.svarint()
        v = u + reader.svarint()
        graph.add_edge(u, v, reader.floats(dim))
    return graph


class TestLazyLoading:
    def test_lazy_levels_fault_in_on_demand(self, store_path, network, index):
        loaded = load_index(store_path, network, lazy=True)
        levels = loaded.levels
        assert isinstance(levels, LazyLevelList)
        assert levels.materialized_count() == 0
        assert len(levels) == index.height
        _ = levels[0]
        assert levels.materialized_count() == 1
        # reversed() and slicing both work through the Sequence protocol
        assert len(list(reversed(levels))) == index.height
        assert len(levels[:2]) == min(2, index.height)

    def test_lazy_queries_match_eager(self, store_path, network, index):
        lazy = load_index(store_path, network, lazy=True)
        nodes = sorted(network.nodes())
        s, t = nodes[2], nodes[-3]
        assert costs_of(lazy.query(s, t)) == costs_of(index.query(s, t))


class TestSizeBytes:
    def test_size_bytes_is_measured_store_size(self, index):
        assert index.size_bytes() == len(serialize_index(index))

    def test_lazy_load_reports_the_file_size_without_faulting_in(
        self, store_path, network
    ):
        loaded = load_index(store_path, network, lazy=True)
        assert loaded.size_bytes() == store_path.stat().st_size
        assert loaded.levels.materialized_count() == 0

    def test_save_reports_the_bytes_written(
        self, store_path, tmp_path, network
    ):
        loaded = load_index(store_path, network)
        path = tmp_path / "raw.rbi"
        info = save_index(loaded, path, compress=False)
        assert loaded.size_bytes() == info["bytes"] == path.stat().st_size

    def test_stats_reports_the_measured_size(self, index):
        stats = index.stats()
        assert stats["size_bytes"] == index.size_bytes()
        assert "estimated_size_bytes" not in stats


class TestBackboneSaveLoad:
    def test_backbone_load_reads_the_store(self, store_path, network, index):
        loaded = BackboneIndex.load(store_path, network)
        assert loaded.label_path_count() == index.label_path_count()

    def test_non_store_file_rejected(self, tmp_path, network):
        path = tmp_path / "index.json"
        path.write_text('{"format": "repro-backbone-index", "version": 2}')
        with pytest.raises(BuildError, match="not a backbone index store"):
            BackboneIndex.load(path, network)

    def test_atomic_save_leaves_no_tmp_files(self, tmp_path, index):
        path = tmp_path / "atomic.rbi"
        index.save(path)
        index.save(path)  # overwrite is atomic too
        leftovers = [p for p in tmp_path.iterdir() if p.name != "atomic.rbi"]
        assert leftovers == []


class TestCorruption:
    def test_truncated_file(self, store_path, network, tmp_path):
        data = store_path.read_bytes()
        broken = tmp_path / "trunc.rbi"
        broken.write_bytes(data[: len(data) - max(64, len(data) // 4)])
        with pytest.raises(BuildError, match="truncated|CRC32"):
            load_index(broken, network)

    def test_truncated_header(self, store_path, network, tmp_path):
        broken = tmp_path / "header.rbi"
        broken.write_bytes(store_path.read_bytes()[:10])
        with pytest.raises(BuildError, match="truncated"):
            load_index(broken, network)

    def test_flipped_payload_byte_fails_crc(
        self, store_path, network, tmp_path
    ):
        data = bytearray(store_path.read_bytes())
        store = IndexStore(store_path)
        # Flip one byte inside the largest section's payload.
        victim = max(store.sections.values(), key=lambda s: s.stored_len)
        data[victim.offset + victim.stored_len // 2] ^= 0xFF
        broken = tmp_path / "bitrot.rbi"
        broken.write_bytes(bytes(data))
        with pytest.raises(BuildError, match="CRC32"):
            load_index(broken, network)

    def test_wrong_magic(self, store_path, network, tmp_path):
        data = bytearray(store_path.read_bytes())
        data[:4] = b"NOPE"
        broken = tmp_path / "magic.rbi"
        broken.write_bytes(bytes(data))
        with pytest.raises(BuildError, match="not a backbone index"):
            load_index(broken, network)

    def test_wrong_version(self, store_path, network, tmp_path):
        data = bytearray(store_path.read_bytes())
        header = HEADER_STRUCT.unpack_from(data)
        HEADER_STRUCT.pack_into(
            data, 0, header[0], 99, *header[2:]
        )
        broken = tmp_path / "v99.rbi"
        broken.write_bytes(bytes(data))
        with pytest.raises(BuildError, match="version"):
            load_index(broken, network)

    def test_lazy_load_reports_corrupt_level_on_access(
        self, store_path, network, tmp_path
    ):
        data = bytearray(store_path.read_bytes())
        store = IndexStore(store_path)
        victim = max(
            (s for tag, s in store.sections.items() if tag.startswith("level:")),
            key=lambda s: s.stored_len,
        )
        data[victim.offset] ^= 0xFF
        broken = tmp_path / "lazylevel.rbi"
        broken.write_bytes(bytes(data))
        # Opening and loading the eager sections succeeds...
        lazy = load_index(broken, network, lazy=True)
        # ...the corrupt level only surfaces when faulted in.
        level_number = int(victim.tag.split(":")[1])
        with pytest.raises(BuildError, match="CRC32"):
            lazy.levels[level_number]

    def test_missing_section(self, index, network, tmp_path):
        data = bytearray(serialize_index(index))
        # Rename the (required) top-graph section tag so lookup fails.
        offset = HEADER_STRUCT.size
        while True:
            tag = bytes(data[offset : offset + 12]).rstrip(b"\x00")
            if tag == b"topgraph":
                data[offset : offset + 12] = b"notopgraph!".ljust(12, b"\x00")
                # fix the table entry's tag only; CRC covers payloads
                break
            offset += SECTION_STRUCT.size
        broken = tmp_path / "missing.rbi"
        broken.write_bytes(bytes(data))
        with pytest.raises(BuildError, match="missing section"):
            load_index(broken, network)


class TestInspect:
    def test_inspect_reports_sections(self, store_path, index):
        info = inspect_store(store_path)
        assert info["format"] == "repro-backbone-store"
        assert info["version"] == FORMAT_VERSION == 2
        tags = [section["tag"] for section in info["sections"]]
        levels = [f"level:{i:04d}" for i in range(index.height)]
        assert tags == ["params", "topgraph", "provenance", *levels]
        assert info["file_bytes"] == store_path.stat().st_size
        for section in info["sections"]:
            assert section["raw_bytes"] >= section["stored_bytes"] or (
                not section["compressed"]
            )

    def test_inspect_rejects_non_store(self, tmp_path):
        path = tmp_path / "nope.rbi"
        path.write_bytes(b"garbage bytes that are not a store")
        with pytest.raises(BuildError):
            inspect_store(path)


class TestCompressionEffectiveness:
    def test_compression_shrinks_the_store(self, tmp_path, index):
        raw_path = tmp_path / "raw.rbi"
        packed_path = tmp_path / "packed.rbi"
        index.save(raw_path, compress=False)
        index.save(packed_path)
        assert packed_path.stat().st_size < raw_path.stat().st_size
        sections = inspect_store(packed_path)["sections"]
        assert any(section["compressed"] for section in sections)


def _assemble_store(version: int, dim: int, height: int, sections) -> bytes:
    """Lay out a store file by hand: header, section table, payloads.

    Payloads are stored uncompressed; ``sections`` is a list of
    ``(tag, raw_bytes)`` pairs.
    """
    import zlib

    header = HEADER_STRUCT.pack(MAGIC, version, 0, dim, height, len(sections))
    offset = len(header) + SECTION_STRUCT.size * len(sections)
    table = bytearray()
    for tag, raw in sections:
        table += SECTION_STRUCT.pack(
            pack_tag(tag), 0, 0, offset, len(raw), len(raw),
            zlib.crc32(raw) & 0xFFFFFFFF,
        )
        offset += len(raw)
    return header + bytes(table) + b"".join(raw for _tag, raw in sections)


def _csr_section_payloads(index) -> tuple[bytes, bytes]:
    """G_L's CSR snapshot as the ``csr`` and ``csrraw`` section payloads
    earlier writers emitted: varint/delta-encoded arrays, and the raw
    array pack (:mod:`repro.accel.blob`)."""
    from repro.accel.blob import pack_bytes

    snapshot = index.csr_top()
    writer = ByteWriter()
    writer.uvarint(snapshot.dim)
    writer.uvarint(1 if snapshot.directed else 0)
    writer.uvarint(snapshot.num_nodes)
    writer.deltas(snapshot.node_ids.tolist())
    writer.uvarint(snapshot.num_edge_slots)
    writer.deltas(snapshot.indptr.tolist())
    writer.deltas(snapshot.indices.tolist())
    writer.floats(snapshot.costs.reshape(-1).tolist())
    if snapshot.directed:
        writer.uvarint(len(snapshot.rev_indices))
        writer.deltas(snapshot.rev_indptr.tolist())
        writer.deltas(snapshot.rev_indices.tolist())
        writer.floats(snapshot.rev_costs.reshape(-1).tolist())
    meta, buffers = snapshot.export_buffers()
    return writer.payload(), pack_bytes(buffers, meta)


def _csr_carrying_sections(index):
    """Today's sections plus the ``csr`` and ``csrraw`` sections that
    version 2 writers emitted after ``provenance`` until G_L's CSR
    stopped being persisted."""
    csr, csrraw = _csr_section_payloads(index)
    sections = []
    for tag, raw in _iter_sections(index):
        sections.append((tag, raw))
        if tag == "provenance":
            sections += [("csr", csr), ("csrraw", csrraw)]
    return sections


def _version_1_sections(index):
    """The sections a version-1 writer produced: the CSR-carrying
    sections plus a ``landmarks`` section and a ``landmark_count``
    params key."""
    import json

    landmarks = ByteWriter()
    landmarks.uvarint(1)  # one landmark
    landmarks.uvarint(index.dim)
    top = sorted(index.top_graph.nodes())
    landmarks.svarint(top[0])
    for _ in range(index.dim):
        landmarks.uvarint(len(top))
        landmarks.deltas(top)
        landmarks.floats([1.0] * len(top))
    sections = []
    for tag, raw in _csr_carrying_sections(index):
        if tag == "params":
            document = json.loads(raw)
            document["params"]["landmark_count"] = 8
            raw = json.dumps(document, sort_keys=True).encode("utf-8")
        sections.append((tag, raw))
        if tag == "topgraph":
            sections.append(("landmarks", landmarks.payload()))
    return sections


class TestFormatVersions:
    def test_version_1_file_loads(self, index, network, tmp_path):
        path = tmp_path / "v1.rbi"
        path.write_bytes(
            _assemble_store(1, index.dim, index.height, _version_1_sections(index))
        )
        store = IndexStore(path)
        assert store.version == 1
        assert "landmarks" in store.sections
        loaded = load_index(path, network)
        assert loaded.params == index.params
        assert loaded.label_path_count() == index.label_path_count()
        nodes = sorted(network.nodes())
        for s, t in [(nodes[1], nodes[-2]), (nodes[4], nodes[-7])]:
            assert loaded.query(s, t) == index.query(s, t)

    def test_version_3_rejected(self, index, network, tmp_path):
        path = tmp_path / "v3.rbi"
        path.write_bytes(
            _assemble_store(3, index.dim, index.height, list(_iter_sections(index)))
        )
        with pytest.raises(BuildError, match="unsupported store version 3"):
            load_index(path, network)

    @pytest.mark.parametrize("lazy", [False, True])
    @pytest.mark.parametrize("version", [1, 2])
    def test_csr_carrying_file_loads_and_answers_identically(
        self, index, network, tmp_path, version, lazy
    ):
        sections = (
            _version_1_sections(index)
            if version == 1
            else _csr_carrying_sections(index)
        )
        path = tmp_path / f"v{version}-csr.rbi"
        path.write_bytes(
            _assemble_store(version, index.dim, index.height, sections)
        )
        store = IndexStore(path)
        assert {"csr", "csrraw"} <= set(store.sections)
        for tag in store.sections:
            store.section_bytes(tag)  # every CRC is valid
        loaded = load_index(path, network, lazy=lazy)
        if lazy:
            assert loaded.levels.materialized_count() == 0
        assert loaded.params == index.params
        assert loaded.csr_top().same_topology(index.csr_top())
        nodes = sorted(network.nodes())
        for s, t in [(nodes[1], nodes[-2]), (nodes[4], nodes[-7]),
                     (nodes[2], nodes[-3])]:
            assert loaded.query(s, t) == index.query(s, t)


def _store_with_cap(index, path, cap):
    """Today's sections with the params key ``max_label_frontier`` set
    to ``cap`` (absent when ``cap`` is ``...``), as writers emitted it
    while label construction had a frontier cap."""
    import json

    sections = []
    for tag, raw in _iter_sections(index):
        if tag == "params":
            document = json.loads(raw)
            if cap is not ...:
                document["params"]["max_label_frontier"] = cap
            raw = json.dumps(document, sort_keys=True).encode("utf-8")
        sections.append((tag, raw))
    path.write_bytes(
        _assemble_store(FORMAT_VERSION, index.dim, index.height, sections)
    )
    return path


class TestLabelFrontierKey:
    def test_writer_omits_the_key(self, store_path):
        params = IndexStore(store_path).params_document()["params"]
        assert "max_label_frontier" not in params

    @pytest.mark.parametrize("cap", [None, ...], ids=["null", "absent"])
    def test_null_or_absent_key_loads(self, index, network, tmp_path, cap):
        path = _store_with_cap(index, tmp_path / "cap.rbi", cap)
        loaded = load_index(path, network)
        assert loaded.params == index.params
        nodes = sorted(network.nodes())
        assert loaded.query(nodes[1], nodes[-2]) == index.query(
            nodes[1], nodes[-2]
        )

    def test_set_cap_rejected_naming_the_key(self, index, network, tmp_path):
        path = _store_with_cap(index, tmp_path / "cap.rbi", 3)
        with pytest.raises(BuildError, match="max_label_frontier"):
            load_index(path, network)

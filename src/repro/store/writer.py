"""Single-pass writer for the binary index store.

Each section is encoded into memory, optionally zlib-compressed (kept
only when it actually shrinks), and checksummed; the header, section
table, and payloads are then written in one pass.  File writes are
atomic: the bytes land in a temp file in the target directory and
``os.replace`` publishes them, so a crash mid-save never clobbers a
previously good index file.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path as FilePath
from typing import TYPE_CHECKING

from repro.obs.tracer import Tracer, resolve_tracer
from repro.store.codec import ByteWriter
from repro.store.format import (
    FORMAT_VERSION,
    HEADER_STRUCT,
    MAGIC,
    SECTION_FLAG_ZLIB,
    SECTION_PARAMS,
    SECTION_PROVENANCE,
    SECTION_STRUCT,
    SECTION_TOP_GRAPH,
    level_section_tag,
    pack_tag,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.index import BackboneIndex
    from repro.core.labels import LevelIndex
    from repro.graph.mcrn import MultiCostGraph

# Payloads smaller than this never win from zlib framing overhead.
_MIN_COMPRESS_BYTES = 64


def encode_params(index: "BackboneIndex") -> bytes:
    """The params section: a small JSON document.

    Unlike the numeric sections this one is schema-bearing and tiny, so
    JSON keeps it self-describing (and lets ``repro index inspect``
    print it without the graph).
    """
    params = index.params
    document = {
        "dim": index.dim,
        "height": index.height,
        "build_seconds": index.build_stats.elapsed_seconds,
        "params": {
            "m_max": params.m_max,
            "m_min": params.m_min,
            "p": params.p,
            "p_ind": params.p_ind,
            "aggressive": params.aggressive.value,
            "clustering": params.clustering.value,
            "tree_policy": params.tree_policy.value,
            "label_scope": params.label_scope.value,
            "max_levels": params.max_levels,
        },
    }
    return json.dumps(document, sort_keys=True).encode("utf-8")


def encode_level(level: "LevelIndex") -> bytes:
    """One level's labels: nodes, entrances, and skyline paths.

    Node and entrance keys are sorted and delta-encoded; path node
    sequences keep their stored order (delta-encoded along the walk)
    and path lists keep their Pareto-insertion order so a reloaded
    index reproduces query results exactly.
    """
    writer = ByteWriter()
    nodes = sorted(level.nodes())
    writer.uvarint(len(nodes))
    previous_node = 0
    for node in nodes:
        writer.svarint(node - previous_node)
        previous_node = node
        label = level.get(node)
        assert label is not None
        entrances = sorted(label.entrances)
        writer.uvarint(len(entrances))
        previous_entrance = 0
        for entrance in entrances:
            writer.svarint(entrance - previous_entrance)
            previous_entrance = entrance
            paths = label.entrances[entrance].paths()
            writer.uvarint(len(paths))
            for path in paths:
                writer.uvarint(len(path.nodes))
                writer.deltas(path.nodes)
                writer.floats(path.cost)
    return writer.payload()


def encode_top_graph(graph: "MultiCostGraph") -> bytes:
    """The most abstracted graph G_L: nodes, directedness, edges."""
    writer = ByteWriter()
    nodes = sorted(graph.nodes())
    writer.uvarint(len(nodes))
    writer.deltas(nodes)
    writer.uvarint(1 if graph.directed else 0)
    edges = sorted(graph.edges())
    writer.uvarint(len(edges))
    previous_u = 0
    for u, v, cost in edges:
        writer.svarint(u - previous_u)
        previous_u = u
        writer.svarint(v - u)
        writer.floats(cost)
    return writer.payload()


def encode_provenance(index: "BackboneIndex") -> bytes:
    """Shortcut provenance in insertion order.

    Order matters: path expansion uses the *first* recorded sequence
    per node pair, so preserving it keeps expansion deterministic
    across a save/load round-trip.
    """
    writer = ByteWriter()
    writer.uvarint(len(index.provenance))
    for (u, v, cost), sequence in index.provenance.items():
        writer.svarint(u)
        writer.svarint(v)
        writer.floats(cost)
        writer.uvarint(len(sequence))
        writer.deltas(sequence)
    return writer.payload()


def _finish_section(tag: str, raw: bytes, compress: bool) -> tuple[bytes, bytes, int]:
    """Compress (when worthwhile) and checksum one section.

    Returns ``(table_entry_without_offset_fixup, stored_bytes, flags)``
    — the caller fills offsets once every section's size is known.
    """
    flags = 0
    stored = raw
    if compress and len(raw) >= _MIN_COMPRESS_BYTES:
        packed = zlib.compress(raw, 6)
        if len(packed) < len(raw):
            stored = packed
            flags |= SECTION_FLAG_ZLIB
    return pack_tag(tag), stored, flags


def serialize_index(index: "BackboneIndex", *, compress: bool = True) -> bytes:
    """Serialize a built index to store-format bytes."""
    sections: list[tuple[bytes, bytes, int, int]] = []  # tag, stored, flags, raw_len
    for tag, raw in _iter_sections(index):
        packed_tag, stored, flags = _finish_section(tag, raw, compress)
        sections.append((packed_tag, stored, flags, len(raw)))

    header = HEADER_STRUCT.pack(
        MAGIC, FORMAT_VERSION, 0, index.dim, index.height, len(sections)
    )
    table_size = SECTION_STRUCT.size * len(sections)
    offset = len(header) + table_size
    table = bytearray()
    for packed_tag, stored, flags, raw_len in sections:
        table += SECTION_STRUCT.pack(
            packed_tag, flags, 0, offset, len(stored), raw_len,
            zlib.crc32(stored) & 0xFFFFFFFF,
        )
        offset += len(stored)
    return header + bytes(table) + b"".join(s[1] for s in sections)


def _iter_sections(index: "BackboneIndex"):
    yield SECTION_PARAMS, encode_params(index)
    yield SECTION_TOP_GRAPH, encode_top_graph(index.top_graph)
    yield SECTION_PROVENANCE, encode_provenance(index)
    for i, level in enumerate(index.levels):
        yield level_section_tag(i), encode_level(level)


def atomic_write_bytes(path: FilePath | str, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (tmp file + ``os.replace``).

    The temp file lives in the destination directory so the final
    rename never crosses a filesystem boundary.
    """
    path = FilePath(path)
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink(missing_ok=True)


def save_index(
    index: "BackboneIndex",
    path: FilePath | str,
    *,
    compress: bool = True,
    tracer: Tracer | None = None,
) -> dict:
    """Write an index to a binary store file (atomically).

    Returns a small info dict: output path, byte count, and section
    count — what callers typically log.  The index then reports the
    written byte count as its :meth:`~repro.core.index.BackboneIndex
    .size_bytes`.
    """
    tracer = resolve_tracer(tracer)
    with tracer.span("store.save", path=str(path), compress=compress) as span:
        data = serialize_index(index, compress=compress)
        atomic_write_bytes(path, data)
        index.store_bytes = len(data)
        if span.enabled:
            span.set(bytes=len(data), levels=index.height)
    return {
        "path": str(path),
        "bytes": len(data),
        "sections": HEADER_STRUCT.unpack_from(data)[-1],
    }

"""Reader for the binary index store, with lazy section loading.

:class:`IndexStore` parses the header and section table once; section
payloads are read, CRC-verified, and decompressed on demand.  A full
load materializes every section; a lazy load restores the top graph
and provenance immediately and defers the per-level label sections
behind a :class:`LazyLevelList`, so a serving process can answer its
first backbone query before the deeper levels ever touch disk.

Every corruption mode — truncated file, bad checksum, wrong magic or
version, ragged payload — surfaces as a clean
:class:`~repro.errors.BuildError` naming the file and section.
"""

from __future__ import annotations

import json
import threading
import zlib
from collections.abc import Sequence
from pathlib import Path as FilePath
from typing import TYPE_CHECKING

from repro.errors import BuildError
from repro.obs.tracer import Tracer, resolve_tracer
from repro.store.codec import ByteReader
from repro.store.format import (
    HEADER_STRUCT,
    MAGIC,
    MAX_SECTIONS,
    READABLE_VERSIONS,
    SECTION_PARAMS,
    SECTION_PROVENANCE,
    SECTION_STRUCT,
    SECTION_TOP_GRAPH,
    SectionInfo,
    level_section_tag,
    unpack_tag,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.index import BackboneIndex
    from repro.core.labels import LevelIndex
    from repro.graph.mcrn import MultiCostGraph


class IndexStore:
    """An opened store file: header, section table, on-demand payloads."""

    def __init__(self, path: FilePath | str) -> None:
        self.path = FilePath(path)
        try:
            with open(self.path, "rb") as handle:
                header = handle.read(HEADER_STRUCT.size)
                if len(header) < HEADER_STRUCT.size:
                    raise BuildError(f"{self.path}: truncated store header")
                magic, version, _flags, dim, level_count, section_count = (
                    HEADER_STRUCT.unpack(header)
                )
                if magic != MAGIC:
                    raise BuildError(f"{self.path}: not a backbone index store")
                if version not in READABLE_VERSIONS:
                    supported = ", ".join(map(str, sorted(READABLE_VERSIONS)))
                    raise BuildError(
                        f"{self.path}: unsupported store version {version} "
                        f"(reader supports {supported})"
                    )
                if section_count > MAX_SECTIONS:
                    raise BuildError(
                        f"{self.path}: corrupt header "
                        f"({section_count} sections)"
                    )
                table = handle.read(SECTION_STRUCT.size * section_count)
                if len(table) < SECTION_STRUCT.size * section_count:
                    raise BuildError(f"{self.path}: truncated section table")
        except OSError as error:
            raise BuildError(f"{self.path}: cannot open store: {error}") from error
        self.version = version
        self.dim = dim
        self.level_count = level_count
        self.sections: dict[str, SectionInfo] = {}
        for i in range(section_count):
            raw_tag, flags, _reserved, offset, stored_len, raw_len, crc = (
                SECTION_STRUCT.unpack_from(table, i * SECTION_STRUCT.size)
            )
            tag = unpack_tag(raw_tag)
            self.sections[tag] = SectionInfo(
                tag=tag,
                flags=flags,
                offset=offset,
                stored_len=stored_len,
                raw_len=raw_len,
                crc32=crc,
            )
        self._size = self.path.stat().st_size

    # ------------------------------------------------------------------
    # raw section access
    # ------------------------------------------------------------------

    def section_bytes(self, tag: str) -> bytes:
        """Read, checksum-verify, and decompress one section payload."""
        info = self.sections.get(tag)
        if info is None:
            raise BuildError(f"{self.path}: missing section {tag!r}")
        if info.offset + info.stored_len > self._size:
            raise BuildError(
                f"{self.path}: section {tag!r} truncated "
                f"(need {info.offset + info.stored_len} bytes, "
                f"file has {self._size})"
            )
        try:
            with open(self.path, "rb") as handle:
                handle.seek(info.offset)
                stored = handle.read(info.stored_len)
        except OSError as error:
            raise BuildError(
                f"{self.path}: cannot read section {tag!r}: {error}"
            ) from error
        if len(stored) != info.stored_len:
            raise BuildError(f"{self.path}: section {tag!r} truncated")
        if zlib.crc32(stored) & 0xFFFFFFFF != info.crc32:
            raise BuildError(
                f"{self.path}: section {tag!r} failed its CRC32 check"
            )
        if info.compressed:
            try:
                raw = zlib.decompress(stored)
            except zlib.error as error:
                raise BuildError(
                    f"{self.path}: section {tag!r} failed to decompress: "
                    f"{error}"
                ) from error
        else:
            raw = stored
        if len(raw) != info.raw_len:
            raise BuildError(
                f"{self.path}: section {tag!r} decoded to {len(raw)} bytes, "
                f"expected {info.raw_len}"
            )
        return raw

    # ------------------------------------------------------------------
    # decoding
    # ------------------------------------------------------------------

    def params_document(self) -> dict:
        """The decoded params section (JSON)."""
        try:
            return json.loads(self.section_bytes(SECTION_PARAMS))
        except json.JSONDecodeError as error:
            raise BuildError(
                f"{self.path}: params section is not valid JSON: {error}"
            ) from error

    def load_params(self, document: dict | None = None):
        """The :class:`~repro.core.params.BackboneParams` stored here.

        ``document`` is the params section when the caller has already
        decoded it.
        """
        from repro.core.params import (
            AggressiveMode,
            BackboneParams,
            ClusteringStrategy,
            LabelScope,
            TreePolicy,
        )

        if document is None:
            document = self.params_document()
        raw = document["params"]
        if raw.get("max_label_frontier") is not None:
            # Stores written before the label-frontier cap was removed
            # carry the key; a set cap built labels today's build
            # cannot reproduce.
            raise BuildError(
                f"{self.path}: params key max_label_frontier="
                f"{raw['max_label_frontier']} is no longer supported; "
                "rebuild the index"
            )
        return BackboneParams(
            m_max=raw["m_max"],
            m_min=raw["m_min"],
            p=raw["p"],
            p_ind=raw["p_ind"],
            aggressive=AggressiveMode(raw["aggressive"]),
            clustering=ClusteringStrategy(raw["clustering"]),
            tree_policy=TreePolicy(raw["tree_policy"]),
            label_scope=LabelScope(raw["label_scope"]),
            max_levels=raw["max_levels"],
        )

    def load_level(self, level: int) -> "LevelIndex":
        """Decode one level's label section."""
        from repro.core.labels import LevelIndex
        from repro.paths.path import Path

        reader = ByteReader(self.section_bytes(level_section_tag(level)))
        index = LevelIndex()
        node = 0
        for _ in range(reader.uvarint()):
            node += reader.svarint()
            entrance = 0
            for _ in range(reader.uvarint()):
                entrance += reader.svarint()
                for _ in range(reader.uvarint()):
                    length = reader.uvarint()
                    nodes = reader.deltas(length)
                    cost = reader.floats(self.dim)
                    index.add_path(node, entrance, Path(nodes, cost))
        return index

    def load_top_graph(self) -> "MultiCostGraph":
        """Decode the most abstracted graph G_L."""
        from repro.graph.mcrn import MultiCostGraph

        reader = ByteReader(self.section_bytes(SECTION_TOP_GRAPH))
        node_count = reader.uvarint()
        nodes = reader.deltas(node_count)
        directed = bool(reader.uvarint())
        graph = MultiCostGraph(self.dim, directed=directed)
        for n in nodes:
            graph.add_node(n)
        u = 0
        for _ in range(reader.uvarint()):
            u += reader.svarint()
            v = u + reader.svarint()
            graph.add_edge(u, v, reader.floats(self.dim))
        return graph

    def load_provenance(self) -> dict:
        """Decode the shortcut provenance map, insertion order intact."""
        reader = ByteReader(self.section_bytes(SECTION_PROVENANCE))
        provenance: dict = {}
        for _ in range(reader.uvarint()):
            u = reader.svarint()
            v = reader.svarint()
            cost = reader.floats(self.dim)
            length = reader.uvarint()
            provenance[(u, v, cost)] = tuple(reader.deltas(length))
        return provenance

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------

    def load(
        self,
        original_graph: "MultiCostGraph",
        *,
        lazy: bool = False,
        tracer: Tracer | None = None,
    ) -> "BackboneIndex":
        """Assemble a queryable :class:`BackboneIndex` from this store."""
        from repro.core.index import BackboneIndex, BuildStats

        tracer = resolve_tracer(tracer)
        with tracer.span(
            "store.load", path=str(self.path), lazy=lazy
        ) as span:
            document = self.params_document()
            params = self.load_params(document)
            top_graph = self.load_top_graph()
            provenance = self.load_provenance()
            if lazy:
                levels: Sequence = LazyLevelList(self, self.level_count)
            else:
                levels = [self.load_level(i) for i in range(self.level_count)]
            index = BackboneIndex(
                original_graph=original_graph,
                params=params,
                levels=levels,  # type: ignore[arg-type]
                top_graph=top_graph,
                provenance=provenance,
                build_stats=BuildStats(
                    elapsed_seconds=document["build_seconds"]
                ),
            )
            index.store_bytes = self._size
            if span.enabled:
                span.set(
                    bytes=self._size,
                    levels=self.level_count,
                    materialized=0 if lazy else self.level_count,
                )
        return index

    def info(self) -> dict:
        """A JSON-friendly summary of the store file."""
        return {
            "path": str(self.path),
            "format": "repro-backbone-store",
            "version": self.version,
            "dim": self.dim,
            "levels": self.level_count,
            "file_bytes": self._size,
            "sections": [
                self.sections[tag].as_dict() for tag in self.sections
            ],
            "params": self.params_document(),
        }


class LazyLevelList(Sequence):
    """A list of :class:`LevelIndex` that faults sections in on access.

    Supports everything query evaluation does with ``index.levels`` —
    indexing, slicing, iteration, ``reversed``, ``len`` — while only
    touching disk for the levels actually visited.  Fault-in is
    guarded by a lock so concurrent serving threads load each section
    at most once.
    """

    def __init__(self, store: IndexStore, count: int) -> None:
        self._store = store
        self._count = count
        self._cache: list["LevelIndex | None"] = [None] * count
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, item):
        if isinstance(item, slice):
            return [self._materialize(i) for i in range(*item.indices(self._count))]
        index = item
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError(item)
        return self._materialize(index)

    def _materialize(self, index: int) -> "LevelIndex":
        level = self._cache[index]
        if level is None:
            with self._lock:
                level = self._cache[index]
                if level is None:
                    level = self._store.load_level(index)
                    self._cache[index] = level
        return level

    def materialized_count(self) -> int:
        """How many levels have been faulted in so far."""
        return sum(1 for level in self._cache if level is not None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LazyLevelList({self.materialized_count()}/{self._count} "
            f"materialized from {self._store.path})"
        )


def load_index(
    path: FilePath | str,
    original_graph: "MultiCostGraph",
    *,
    lazy: bool = False,
    tracer: Tracer | None = None,
) -> "BackboneIndex":
    """Open a store file and assemble the index it contains."""
    return IndexStore(path).load(original_graph, lazy=lazy, tracer=tracer)


def inspect_store(path: FilePath | str) -> dict:
    """Header, section table, and params of a store file, as a dict."""
    return IndexStore(path).info()

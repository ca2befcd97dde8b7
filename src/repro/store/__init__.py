"""repro.store — binary index persistence and warm-start support.

The paper's economics ("build once, query forever") only hold in a
serving deployment if a built backbone index can be persisted and
reloaded far faster than it can be rebuilt.  This package provides:

* a **versioned, checksummed binary format** — a struct-packed header,
  a section table, and per-section payloads with varint/delta-encoded
  node ids, ``array``-packed cost floats, optional zlib compression,
  and a CRC32 per section (:mod:`repro.store.format`,
  :mod:`repro.store.writer`, :mod:`repro.store.reader`);
* **lazy section loading** — :func:`load_index` with ``lazy=True``
  restores the top graph and provenance immediately and
  faults per-level label sections in on first access, which is what a
  serving warm start wants (:class:`~repro.store.reader.LazyLevelList`);
* a **generation-aware snapshotter** for
  :class:`~repro.core.maintenance.MaintainableIndex` — atomic
  tmp-file + ``os.replace`` writes, retention of the last K snapshots,
  and recovery that skips corrupt or truncated files
  (:mod:`repro.store.snapshot`).

:meth:`repro.core.index.BackboneIndex.save` and ``.load`` delegate
here; this binary store is the index's only stored form.  A store
holds only what the index cannot cheaply derive: G_L's CSR snapshot
is rebuilt from the top graph on first use.
"""

from repro.store.format import (
    FORMAT_VERSION,
    MAGIC,
    SECTION_PARAMS,
    SECTION_PROVENANCE,
    SECTION_TOP_GRAPH,
    level_section_tag,
)
from repro.store.reader import (
    IndexStore,
    LazyLevelList,
    inspect_store,
    load_index,
)
from repro.store.snapshot import Snapshotter
from repro.store.writer import save_index, serialize_index

__all__ = [
    "FORMAT_VERSION",
    "IndexStore",
    "LazyLevelList",
    "MAGIC",
    "SECTION_PARAMS",
    "SECTION_PROVENANCE",
    "SECTION_TOP_GRAPH",
    "Snapshotter",
    "inspect_store",
    "level_section_tag",
    "load_index",
    "save_index",
    "serialize_index",
]

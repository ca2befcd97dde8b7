"""On-disk layout constants for the binary index store.

A store file is::

    header   | <4s H H H H I>: magic, version, flags, dim,
             |                 level_count, section_count
    table    | section_count entries, each <12s H H Q Q Q I>:
             |   tag, flags, reserved, offset, stored_len, raw_len, crc32
    sections | concatenated payloads, one per table entry

Offsets are absolute file offsets.  ``stored_len`` is the on-disk byte
count (after optional zlib), ``raw_len`` the decompressed payload size,
and ``crc32`` covers the *stored* bytes so corruption is detected
before decompression.  All integers are little-endian.

The format carries a single version number; readers reject unknown
versions outright rather than guessing (a versioned header is cheap,
silent misparses are not).  Version 2 stopped writing version 1's
bound-table section over G_L and its params key.  Readers accept
version 1 files too: sections are looked up by tag and params by key,
so the two are simply never read.  The same holds for the two G_L
CSR snapshot sections earlier writers emitted in both versions (one
varint-encoded, one a raw array pack): a loaded index rebuilds G_L's
CSR from the ``topgraph`` section on first use, so no reader looks
those tags up.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

MAGIC = b"RBIX"
FORMAT_VERSION = 2
# Versions this reader accepts; see the module docstring.
READABLE_VERSIONS = frozenset({1, 2})

HEADER_STRUCT = struct.Struct("<4sHHHHI")
SECTION_STRUCT = struct.Struct("<12sHHQQQI")

# Section payload flags.
SECTION_FLAG_ZLIB = 0x1

# Well-known section tags (ASCII, at most 12 bytes).
SECTION_PARAMS = "params"
SECTION_TOP_GRAPH = "topgraph"
SECTION_PROVENANCE = "provenance"
# Guard against a corrupt header driving a huge allocation loop.
MAX_SECTIONS = 100_000


def level_section_tag(level: int) -> str:
    """Tag of the label section for one index level."""
    return f"level:{level:04d}"


@dataclass(frozen=True)
class SectionInfo:
    """One section-table entry, as stored on disk."""

    tag: str
    flags: int
    offset: int
    stored_len: int
    raw_len: int
    crc32: int

    @property
    def compressed(self) -> bool:
        return bool(self.flags & SECTION_FLAG_ZLIB)

    def as_dict(self) -> dict:
        """A JSON-friendly view (used by ``repro index inspect``)."""
        return {
            "tag": self.tag,
            "offset": self.offset,
            "stored_bytes": self.stored_len,
            "raw_bytes": self.raw_len,
            "compressed": self.compressed,
            "crc32": f"{self.crc32:08x}",
        }


def pack_tag(tag: str) -> bytes:
    """Encode a section tag into its fixed-width field."""
    raw = tag.encode("ascii")
    if len(raw) > 12:
        raise ValueError(f"section tag too long: {tag!r}")
    return raw.ljust(12, b"\x00")


def unpack_tag(raw: bytes) -> str:
    """Decode a fixed-width tag field."""
    return raw.rstrip(b"\x00").decode("ascii", errors="replace")

"""A zero-copy codec for named numpy arrays in one contiguous buffer.

The multi-process serving layer needs the flat CSR arrays (and any
other dense matrix) to live in a single shareable buffer — a
``multiprocessing.shared_memory`` segment — that readers can *attach*
to without materializing anything.  This
module defines that layout:

::

    magic 'RABF' | u16 version | u16 reserved | u32 header_len
    header       | UTF-8 JSON: {"meta": {...}, "arrays": [
                 |   {"name", "dtype", "shape", "offset", "nbytes"}, ...]}
    padding      | zeros to the first 8-byte boundary
    blocks       | one little-endian C-contiguous block per array,
                 | each starting on an 8-byte boundary

Offsets are relative to the start of the pack, so the same bytes decode
identically from a ``bytes`` object, a shared-memory buffer, or a
memory-mapped file slice.  :func:`read_pack` hands back numpy views
*into* the supplied buffer — no copies — flagged read-only, because a
pack is by construction shared state.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from repro.errors import BuildError

PACK_MAGIC = b"RABF"
PACK_VERSION = 1

_PREFIX = struct.Struct("<4sHHI")  # magic, version, reserved, header_len


def _pad8(n: int) -> int:
    """Round up to the next multiple of 8."""
    return (n + 7) & ~7


def _le_dtype(array: np.ndarray) -> np.dtype:
    """The array's dtype forced to little-endian byte order."""
    dtype = array.dtype
    if dtype.byteorder == ">":  # pragma: no cover - big-endian hosts only
        return dtype.newbyteorder("<")
    return dtype.newbyteorder("<") if dtype.byteorder != "<" else dtype


def _layout(arrays: dict[str, np.ndarray], meta: dict) -> tuple[bytes, list[int], int]:
    """Compute the serialized header plus per-array offsets and total size."""
    entries = []
    offsets: list[int] = []
    # Two-pass: entry offsets depend on the header length, which depends
    # on the offsets' digit count.  Iterate until the layout fixes.
    header_len = 0
    while True:
        entries = []
        offsets = []
        cursor = _pad8(_PREFIX.size + header_len)
        for name, array in arrays.items():
            offsets.append(cursor)
            entries.append(
                {
                    "name": name,
                    "dtype": _le_dtype(array).str,
                    "shape": list(array.shape),
                    "offset": cursor,
                    "nbytes": int(array.nbytes),
                }
            )
            cursor = _pad8(cursor + array.nbytes)
        header = json.dumps(
            {"meta": meta, "arrays": entries}, sort_keys=True
        ).encode("utf-8")
        if len(header) == header_len:
            return header, offsets, cursor
        header_len = len(header)


def pack_nbytes(arrays: dict[str, np.ndarray], meta: dict | None = None) -> int:
    """The exact byte size :func:`write_pack` needs for these arrays."""
    _header, _offsets, total = _layout(arrays, meta or {})
    return total


def write_pack(
    buffer, arrays: dict[str, np.ndarray], meta: dict | None = None
) -> int:
    """Serialize ``arrays`` into ``buffer`` (writable, large enough).

    Returns the number of bytes written.  Array data is copied exactly
    once — from each source array into its block — which is the one
    unavoidable copy when *publishing* into shared memory; attaching
    back with :func:`read_pack` is copy-free.
    """
    header, offsets, total = _layout(arrays, meta or {})
    view = memoryview(buffer)
    if len(view) < total:
        raise BuildError(
            f"array pack needs {total} bytes, buffer has {len(view)}"
        )
    view[: _PREFIX.size] = _PREFIX.pack(
        PACK_MAGIC, PACK_VERSION, 0, len(header)
    )
    view[_PREFIX.size : _PREFIX.size + len(header)] = header
    # Zero the padding so packs are byte-deterministic.
    pad_start = _PREFIX.size + len(header)
    first_block = _pad8(pad_start)
    view[pad_start:first_block] = b"\x00" * (first_block - pad_start)
    for offset, array in zip(offsets, arrays.values()):
        data = np.ascontiguousarray(array, dtype=_le_dtype(array))
        block = view[offset : offset + data.nbytes]
        block[:] = data.tobytes() if data.nbytes else b""
        tail = view[offset + data.nbytes : _pad8(offset + data.nbytes)]
        if len(tail) and offset + data.nbytes < total:
            tail[:] = b"\x00" * len(tail)
    return total


def pack_bytes(arrays: dict[str, np.ndarray], meta: dict | None = None) -> bytes:
    """Serialize ``arrays`` to a standalone ``bytes`` pack."""
    out = bytearray(pack_nbytes(arrays, meta))
    write_pack(out, arrays, meta)
    return bytes(out)


def read_pack(buffer) -> tuple[dict, dict[str, np.ndarray]]:
    """Decode a pack as ``(meta, arrays)`` of zero-copy read-only views.

    The returned arrays keep the buffer alive through their ``base``
    chain, so callers may drop their own reference to it.
    """
    view = memoryview(buffer)
    if len(view) < _PREFIX.size:
        raise BuildError("array pack truncated: no prefix")
    magic, version, _reserved, header_len = _PREFIX.unpack(
        view[: _PREFIX.size]
    )
    if magic != PACK_MAGIC:
        raise BuildError("not an array pack (bad magic)")
    if version != PACK_VERSION:
        raise BuildError(f"unsupported array pack version {version}")
    if _PREFIX.size + header_len > len(view):
        raise BuildError("array pack truncated: header overruns buffer")
    try:
        document = json.loads(
            bytes(view[_PREFIX.size : _PREFIX.size + header_len])
        )
    except json.JSONDecodeError as error:
        raise BuildError(f"array pack header is not valid JSON: {error}") from error
    arrays: dict[str, np.ndarray] = {}
    for entry in document["arrays"]:
        offset, nbytes = entry["offset"], entry["nbytes"]
        if offset + nbytes > len(view):
            raise BuildError(
                f"array pack truncated: block {entry['name']!r} overruns"
            )
        dtype = np.dtype(entry["dtype"])
        count = nbytes // dtype.itemsize if dtype.itemsize else 0
        array = np.frombuffer(view, dtype=dtype, count=count, offset=offset)
        array = array.reshape(entry["shape"])
        if array.flags.writeable:
            array.flags.writeable = False
        arrays[entry["name"]] = array
    return document["meta"], arrays

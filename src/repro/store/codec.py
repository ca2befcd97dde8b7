"""Low-level encoding primitives for the binary index format.

Node identifiers dominate an index's payload (label path sequences,
adjacency, provenance sequences), and consecutive ids are strongly
correlated — sorted key sets by construction, path sequences by road
locality.  Varint/zigzag/delta encoding therefore shrinks them by
4-6x against boxed JSON numbers.  Cost floats go through
:mod:`array` blocks (``typecode 'd'``), stored little-endian, which
both packs them at 8 bytes each and decodes in one C-level call.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterable, Sequence

from repro.errors import BuildError

_LITTLE_ENDIAN = sys.byteorder == "little"


def zigzag(value: int) -> int:
    """Map a signed int to an unsigned one (small magnitudes stay small)."""
    return (value << 1) ^ (value >> 63) if value < 0 else value << 1


def unzigzag(value: int) -> int:
    """Inverse of :func:`zigzag`."""
    return (value >> 1) ^ -(value & 1)


class ByteWriter:
    """Accumulates a varint byte stream plus a parallel float block.

    The two streams serialize independently: integers as LEB128
    varints, floats appended (in encounter order) to one ``array('d')``
    block.  Readers consume floats in the same order the writer
    produced them, so no per-float framing is needed.
    """

    __slots__ = ("_ints", "_floats")

    def __init__(self) -> None:
        self._ints = bytearray()
        self._floats: array = array("d")

    def uvarint(self, value: int) -> None:
        """Append one unsigned LEB128 varint."""
        if value < 0:
            raise BuildError(f"uvarint cannot encode negative value {value}")
        out = self._ints
        while value >= 0x80:
            out.append((value & 0x7F) | 0x80)
            value >>= 7
        out.append(value)

    def svarint(self, value: int) -> None:
        """Append one signed (zigzag) varint."""
        self.uvarint(zigzag(value))

    def deltas(self, values: Sequence[int]) -> None:
        """Append a sequence as first value + signed deltas."""
        previous = 0
        for value in values:
            self.svarint(value - previous)
            previous = value

    def floats(self, values: Iterable[float]) -> None:
        """Append floats to the parallel float block."""
        self._floats.extend(values)

    def payload(self) -> bytes:
        """The section payload: varint-framed int stream, then floats."""
        header = ByteWriter._frame(len(self._ints))
        float_block = self._floats
        if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts only
            float_block = array("d", float_block)
            float_block.byteswap()
        return bytes(header) + bytes(self._ints) + float_block.tobytes()

    @staticmethod
    def _frame(value: int) -> bytearray:
        out = bytearray()
        while value >= 0x80:
            out.append((value & 0x7F) | 0x80)
            value >>= 7
        out.append(value)
        return out


class ByteReader:
    """Decodes a :meth:`ByteWriter.payload` section."""

    __slots__ = ("_data", "_pos", "_int_end", "_floats", "_float_pos")

    def __init__(self, payload: bytes) -> None:
        self._data = payload
        self._pos = 0
        int_length = self._raw_uvarint()
        self._int_end = self._pos + int_length
        if self._int_end > len(payload):
            raise BuildError("store section truncated: int stream overruns")
        float_bytes = payload[self._int_end :]
        if len(float_bytes) % 8:
            raise BuildError("store section corrupt: ragged float block")
        floats: array = array("d")
        floats.frombytes(float_bytes)
        if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts only
            floats.byteswap()
        self._floats = floats
        self._float_pos = 0

    def _raw_uvarint(self) -> int:
        data = self._data
        shift = 0
        result = 0
        while True:
            if self._pos >= len(data):
                raise BuildError("store section truncated: unterminated varint")
            byte = data[self._pos]
            self._pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7
            if shift > 70:
                raise BuildError("store section corrupt: varint too long")

    def uvarint(self) -> int:
        """Read one unsigned varint from the int stream."""
        if self._pos >= self._int_end:
            raise BuildError("store section truncated: int stream exhausted")
        return self._raw_uvarint()

    def svarint(self) -> int:
        """Read one signed (zigzag) varint."""
        return unzigzag(self.uvarint())

    def deltas(self, count: int) -> list[int]:
        """Read ``count`` delta-encoded values."""
        values: list[int] = []
        previous = 0
        for _ in range(count):
            previous += self.svarint()
            values.append(previous)
        return values

    def floats(self, count: int) -> tuple[float, ...]:
        """Read ``count`` floats from the float block, in write order."""
        end = self._float_pos + count
        if end > len(self._floats):
            raise BuildError("store section truncated: float block exhausted")
        values = tuple(self._floats[self._float_pos : end])
        self._float_pos = end
        return values

    def ints_exhausted(self) -> bool:
        """True when the int stream is fully consumed."""
        return self._pos >= self._int_end

"""The on-disk wire format: tagged values, struct-packed rows, CRC frames.

Everything the store writes — WAL records and snapshot files alike — is built
from three layers:

* **values** — the persisted domain dictionary entries.  Stored values are
  arbitrary hashable Python objects; the common scalar types (int, float,
  str, bytes, bool, ``None``) get compact tagged encodings and anything else
  falls back to a pickled blob, so the dictionary never refuses a value the
  in-memory :class:`~repro.engine.domain.Domain` accepted;
* **rows** — tuple payloads are *not* stored as values: every row is interned
  against the store's persistent domain first and written as struct-packed
  little-endian ``int64`` codes (``arity`` codes per row), the same dense-int
  representation the evaluation engine runs on;
* **frames** — each record is framed as ``uint32 length | uint32 crc32 |
  payload``.  A torn tail (a crash mid-append) or a flipped bit fails the
  length or checksum test and cleanly ends replay instead of feeding garbage
  downstream.

Readers and writers are tiny offset-cursor helpers over ``bytes`` — the
record sizes here (one coalesced flush batch, one snapshot) comfortably fit
in memory, so no streaming decode is needed.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from typing import List, Sequence, Tuple

from ..datalog.relation import Row, Value
from .errors import StorageError

#: file magic for both snapshot files and WAL segment headers
MAGIC = b"RPLG"
#: bump on incompatible layout changes; readers reject unknown versions
FORMAT_VERSION = 1

#: WAL record kinds
RECORD_SEGMENT_HEADER = 0
RECORD_BATCH = 1

#: op codes inside a batch record
OP_DELETE = 0
OP_INSERT = 1

_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_FRAME = struct.Struct("<II")  # payload length, crc32(payload)

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

# value tags (one byte each)
_TAG_INT = b"i"  # fits int64: 8-byte struct
_TAG_BIGINT = b"n"  # arbitrary precision: utf-8 decimal text
_TAG_FLOAT = b"f"
_TAG_STR = b"s"
_TAG_BYTES = b"b"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_NONE = b"N"
_TAG_PICKLE = b"p"


class Writer:
    """A growable little-endian buffer with the layer's primitive fields."""

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = bytearray()

    def u8(self, value: int) -> None:
        self._buffer += _U8.pack(value)

    def u32(self, value: int) -> None:
        self._buffer += _U32.pack(value)

    def i64(self, value: int) -> None:
        self._buffer += _I64.pack(value)

    def blob(self, data: bytes) -> None:
        """Length-prefixed byte string."""
        self._buffer += _U32.pack(len(data))
        self._buffer += data

    def text(self, value: str) -> None:
        self.blob(value.encode("utf-8"))

    def value(self, value: Value) -> None:
        """One tagged dictionary value (see module docstring for the tags)."""
        # bool before int: bool is an int subclass and must round-trip as bool
        if value is True:
            self._buffer += _TAG_TRUE
        elif value is False:
            self._buffer += _TAG_FALSE
        elif value is None:
            self._buffer += _TAG_NONE
        elif type(value) is int:
            if _INT64_MIN <= value <= _INT64_MAX:
                self._buffer += _TAG_INT
                self._buffer += _I64.pack(value)
            else:
                self._buffer += _TAG_BIGINT
                self.blob(str(value).encode("ascii"))
        elif type(value) is float:
            self._buffer += _TAG_FLOAT
            self._buffer += _F64.pack(value)
        elif type(value) is str:
            self._buffer += _TAG_STR
            self.text(value)
        elif type(value) is bytes:
            self._buffer += _TAG_BYTES
            self.blob(value)
        else:
            self._buffer += _TAG_PICKLE
            self.blob(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))

    def values(self, values: Sequence[Value]) -> None:
        self.u32(len(values))
        for value in values:
            self.value(value)

    def rows(self, arity: int, count: int, packed: bytes) -> None:
        """A pre-packed code matrix (``count`` rows of ``arity`` int64s)."""
        if len(packed) != count * arity * 8:
            raise StorageError(
                f"packed rows have {len(packed)} bytes, expected {count}×{arity}×8"
            )
        self.u32(count)
        self._buffer += packed

    def getvalue(self) -> bytes:
        return bytes(self._buffer)


class Reader:
    """An offset cursor over one record payload, mirroring :class:`Writer`."""

    __slots__ = ("_data", "_offset")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._offset = 0

    def _take(self, size: int) -> bytes:
        end = self._offset + size
        if end > len(self._data):
            raise StorageError("record payload is truncated")
        chunk = self._data[self._offset:end]
        self._offset = end
        return chunk

    def u8(self) -> int:
        return _U8.unpack(self._take(1))[0]

    def u32(self) -> int:
        return _U32.unpack(self._take(4))[0]

    def i64(self) -> int:
        return _I64.unpack(self._take(8))[0]

    def blob(self) -> bytes:
        return self._take(self.u32())

    def text(self) -> str:
        return self.blob().decode("utf-8")

    def value(self) -> Value:
        tag = self._take(1)
        if tag == _TAG_TRUE:
            return True
        if tag == _TAG_FALSE:
            return False
        if tag == _TAG_NONE:
            return None
        if tag == _TAG_INT:
            return _I64.unpack(self._take(8))[0]
        if tag == _TAG_BIGINT:
            return int(self.blob().decode("ascii"))
        if tag == _TAG_FLOAT:
            return _F64.unpack(self._take(8))[0]
        if tag == _TAG_STR:
            return self.text()
        if tag == _TAG_BYTES:
            return self.blob()
        if tag == _TAG_PICKLE:
            return pickle.loads(self.blob())
        raise StorageError(f"unknown value tag {tag!r}")

    def values(self) -> List[Value]:
        return [self.value() for _ in range(self.u32())]

    def rows(self, arity: int) -> Tuple[int, bytes]:
        """``(count, packed)`` for a code matrix of the given arity."""
        count = self.u32()
        return count, self._take(count * arity * 8)

    def done(self) -> bool:
        return self._offset == len(self._data)


# ----------------------------------------------------------------------
# record framing
# ----------------------------------------------------------------------
def frame(payload: bytes) -> bytes:
    """``payload`` wrapped in the ``length | crc32 | payload`` frame."""
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def split_frames(data: bytes) -> Tuple[List[bytes], bool]:
    """``(payloads, clean)`` — every intact framed payload, stopping at a tear.

    A truncated header, a payload shorter than its declared length, or a
    checksum mismatch all end the scan: that is exactly the state an
    interrupted append (or a dying disk) leaves behind, and everything
    *before* the tear was fsynced as a prefix, so the clean stop is the
    recovery semantics — replay the durable prefix, drop the torn tail.
    ``clean`` is ``True`` when the data ends exactly on a frame boundary
    (no tear), which replay uses to stop crossing into later segments.
    """
    payloads: List[bytes] = []
    offset = 0
    total = len(data)
    while offset + _FRAME.size <= total:
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        end = start + length
        if end > total:
            return payloads, False
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            return payloads, False
        payloads.append(payload)
        offset = end
    return payloads, offset == total

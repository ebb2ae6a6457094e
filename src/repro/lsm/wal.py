"""Write-ahead log (§2.1: "it is also written in a log file for recovery").

Framing is ``fixed32(len) || fixed32(crc) || payload`` per record.  The
reader stops at the first corrupt or truncated record, which is how a
torn tail from an unsynced crash is handled (the same contract as
LevelDB's log reader).

A log record is a *write batch*: one or more put/delete operations that
commit atomically — the group-commit surface mentioned in §2.1 (callers
amortize WAL/sync costs by batching operations into one record).
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Optional, Tuple

from ..sim import CpuMeter
from ..storage import FileHandle, SimFS
from .codec import (
    VALUE_TYPE_DELETION,
    VALUE_TYPE_VALUE,
    crc32,
    decode_fixed64,
    decode_length_prefixed,
    decode_varint,
    encode_fixed64,
    encode_length_prefixed,
    encode_varint,
)

__all__ = ["LogWriter", "read_log_records", "list_wal_files", "WriteBatch"]

_HEADER = 8
#: ``len || crc`` record header in one struct call (byte-identical to
#: the two fixed32 writes it replaces).
_FRAME = struct.Struct("<II")


class WriteBatch:
    """An atomically-committed group of operations.

    Encodes as ``fixed64(first_sequence) || varint(count) || ops`` where
    each op is ``byte(type) || key || [value]`` (length-prefixed).
    """

    def __init__(self) -> None:
        self.ops: List[Tuple[int, bytes, bytes]] = []
        #: Payload bytes of :attr:`ops` (key + value + 8 per op), kept
        #: by every mutator: group commit sizes each queued batch on
        #: every probe of the queue.
        self.byte_size = 0

    def put(self, key: bytes, value: bytes) -> None:
        """Buffer an insert of ``key -> value`` in this batch."""
        self.ops.append((VALUE_TYPE_VALUE, key, value))
        self.byte_size += len(key) + len(value) + 8

    def delete(self, key: bytes) -> None:
        """Buffer a deletion tombstone for ``key``."""
        self.ops.append((VALUE_TYPE_DELETION, key, b""))
        self.byte_size += len(key) + 8

    def extend(self, other: "WriteBatch") -> None:
        """Append ``other``'s operations (group commit's record merge).

        Merging batches and encoding once is byte-identical to encoding
        the concatenated op list: sequence numbers are implicit (first
        op takes ``first_sequence``, later ops count up), so a merged
        group commits atomically under this record's single CRC.
        """
        self.ops.extend(other.ops)
        self.byte_size += other.byte_size

    def __len__(self) -> int:
        return len(self.ops)

    def encode(self, first_sequence: int) -> bytes:
        """Serialize with sequence numbers starting at ``first_sequence``."""
        out = bytearray(encode_fixed64(first_sequence))
        out.extend(encode_varint(len(self.ops)))
        for value_type, key, value in self.ops:
            out.append(value_type)
            out.extend(encode_length_prefixed(key))
            if value_type == VALUE_TYPE_VALUE:
                out.extend(encode_length_prefixed(value))
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> Tuple[int, "WriteBatch"]:
        """Parse an encoded batch; returns ``(first_sequence, batch)``."""
        first_sequence = decode_fixed64(data, 0)
        count, pos = decode_varint(data, 8)
        batch = cls()
        for _ in range(count):
            value_type = data[pos]
            pos += 1
            key, pos = decode_length_prefixed(data, pos)
            if value_type == VALUE_TYPE_VALUE:
                value, pos = decode_length_prefixed(data, pos)
            else:
                value = b""
            batch.ops.append((value_type, key, value))
            batch.byte_size += len(key) + len(value) + 8
        return first_sequence, batch


class LogWriter:
    """Appends checksummed records to a log file."""

    def __init__(self, handle: FileHandle):
        self.handle = handle
        self.records_written = 0

    def append(self, payload: bytes, meter: Optional[CpuMeter] = None) -> None:
        """Frame ``payload`` with length + CRC and write it to the log file."""
        frame = _FRAME.pack(len(payload), crc32(payload)) + payload
        self.handle.append(frame, meter)
        self.records_written += 1


def read_log_records(data: bytes) -> Iterator[bytes]:
    """Yield intact records; stop silently at the first corrupt one."""
    pos = 0
    while pos + _HEADER <= len(data):
        length, stored_crc = _FRAME.unpack_from(data, pos)
        if length == 0:
            return  # zero-filled (lost) page, not a valid record
        start = pos + _HEADER
        end = start + length
        if end > len(data):
            return  # truncated tail
        payload = bytes(data[start:end])
        if crc32(payload) != stored_crc:
            return  # torn or lost page
        yield payload
        pos = end


def list_wal_files(fs: SimFS, dbname: str) -> List[Tuple[int, str]]:
    """``dbname``'s write-ahead logs as ``(number, name)``, oldest first.

    Only a numeric stem (``000007.log``) names a WAL.  A listing is
    untrusted input: any other ``.log`` file in the db dir (operator
    notes, foreign tooling) is counted on the tracer and left alone —
    neither replayed nor deleted as obsolete.
    """
    logs: List[Tuple[int, str]] = []
    for name in fs.listdir(f"{dbname}/"):
        if not name.endswith(".log"):
            continue
        stem = name[:-len(".log")].rsplit("/", 1)[-1]
        if stem.isascii() and stem.isdecimal():  # every such stem, int() parses
            logs.append((int(stem), name))
        else:
            fs.env.tracer.count("wal.foreign_files_skipped")
    return sorted(logs)

"""Binary codecs shared by the WAL, SSTables and the MANIFEST.

Everything the engines persist goes through these helpers, so the bytes
in :class:`~repro.storage.filesystem.SimFS` are a real, self-describing,
checksummed format — crash-recovery tests corrupt pages and rely on the
CRCs here to detect it, exactly as LevelDB's formats do.
"""

from __future__ import annotations

import struct
import zlib
from typing import Tuple

__all__ = [
    "CorruptionError",
    "encode_varint",
    "decode_varint",
    "encode_fixed32",
    "decode_fixed32",
    "encode_fixed64",
    "decode_fixed64",
    "encode_length_prefixed",
    "decode_length_prefixed",
    "crc32",
    "VALUE_TYPE_VALUE",
    "VALUE_TYPE_DELETION",
    "MAX_SEQUENCE",
]

#: Record type tags, matching LevelDB's ValueType.
VALUE_TYPE_DELETION = 0
VALUE_TYPE_VALUE = 1

#: Largest representable sequence number (56 bits, as in LevelDB).
MAX_SEQUENCE = (1 << 56) - 1

_FIXED32 = struct.Struct("<I")
_FIXED64 = struct.Struct("<Q")
#: Two fixed32s in one pack/unpack — block trailers (count || crc) and
#: log-record headers (len || crc) are encoded with a single struct call.
_FIXED32_PAIR = struct.Struct("<II")

#: Single-byte varints, precomputed: lengths under 128 cover almost every
#: key/value/count the encoders emit.
_VARINT1 = [bytes([i]) for i in range(0x80)]
#: Lazily-filled cache for two-byte varints (128..16383): value sizes and
#: block offsets repeat heavily within a run.
_VARINT2: dict = {}


class CorruptionError(Exception):
    """Raised when a checksum or framing check fails during decode."""


def crc32(data: bytes) -> int:
    """Masked CRC-32 of ``data`` (zlib polynomial)."""
    return zlib.crc32(data) & 0xFFFFFFFF


def encode_varint(value: int) -> bytes:
    """LEB128-encode a non-negative integer."""
    if 0 <= value < 0x80:
        return _VARINT1[value]
    if value < 0x4000:
        cached = _VARINT2.get(value)
        if cached is None:
            cached = bytes((value & 0x7F | 0x80, value >> 7))
            _VARINT2[value] = cached
        return cached
    if value < 0x200000:  # offsets inside a compaction file
        return bytes((value & 0x7F | 0x80, value >> 7 & 0x7F | 0x80, value >> 14))
    if value < 0:
        raise ValueError("varint cannot encode negative values")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, offset: int = 0) -> Tuple[int, int]:
    """Decode a varint; returns ``(value, next_offset)``."""
    size = len(data)
    if offset + 1 < size:  # one- and two-byte fast paths
        byte = data[offset]
        if not byte & 0x80:
            return byte, offset + 1
        second = data[offset + 1]
        if not second & 0x80:
            return byte & 0x7F | second << 7, offset + 2
    elif offset < size and not data[offset] & 0x80:
        return data[offset], offset + 1
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= size:
            raise CorruptionError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise CorruptionError("varint too long")


def encode_fixed32(value: int) -> bytes:
    """Encode ``value`` as 4 little-endian bytes."""
    return _FIXED32.pack(value)


def decode_fixed32(data: bytes, offset: int = 0) -> int:
    """Decode 4 little-endian bytes at ``offset``."""
    if offset + 4 > len(data):
        raise CorruptionError("truncated fixed32")
    return _FIXED32.unpack_from(data, offset)[0]


def encode_fixed64(value: int) -> bytes:
    """Encode ``value`` as 8 little-endian bytes."""
    return _FIXED64.pack(value)


def decode_fixed64(data: bytes, offset: int = 0) -> int:
    """Decode 8 little-endian bytes at ``offset``."""
    if offset + 8 > len(data):
        raise CorruptionError("truncated fixed64")
    return _FIXED64.unpack_from(data, offset)[0]


def encode_length_prefixed(data: bytes) -> bytes:
    """``varint(len) || data``."""
    return encode_varint(len(data)) + data


def decode_length_prefixed(data: bytes, offset: int = 0) -> Tuple[bytes, int]:
    """Decode a length-prefixed blob; returns ``(blob, next_offset)``."""
    length, pos = decode_varint(data, offset)
    end = pos + length
    if end > len(data):
        raise CorruptionError("truncated length-prefixed slice")
    return bytes(data[pos:end]), end

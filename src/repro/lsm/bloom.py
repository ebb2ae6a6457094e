"""Bloom filter, as attached to every SSTable (paper §2.5, §4.1).

The paper configures "10 bloom bits [per key], 1% false-positive rate,
as is commonly used in industry" — that is this module's default.  The
hashing scheme is LevelDB's double hashing over a single base hash.
"""

from __future__ import annotations

import struct
from typing import Iterable

__all__ = ["BloomFilter"]


#: Memo for default-seed hashes: workloads probe the same keys over and
#: over (every table's filter re-hashes the key on a point read), so the
#: hit rate is high.  Bounded by a wholesale clear; the cached *values*
#: are pure functions of the key, so caching cannot change results.
_HASH_CACHE: dict = {}
_HASH_CACHE_LIMIT = 1 << 20
_DEFAULT_SEED = 0xBC9F1D34
#: ``flag byte -> binary digit``: :meth:`BloomFilter.add_all` marks one
#: byte per bit, then reads the flags as one base-2 numeral.
_FLAG_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


#: ``len(key) -> Struct`` of the key's whole little-endian 32-bit words.
_WORDS: dict = {}


def _base_hash(key: bytes, seed: int = _DEFAULT_SEED) -> int:
    """A 32-bit multiplicative hash (same family as LevelDB's Hash())."""
    if seed == _DEFAULT_SEED:
        cached = _HASH_CACHE.get(key)
        if cached is not None:
            return cached
    size = len(key)
    words = _WORDS.get(size)
    if words is None:
        if len(_WORDS) >= 256:  # bounded like the hash memo
            _WORDS.clear()
        words = _WORDS[size] = struct.Struct("<%dI" % (size >> 2))
    h = seed ^ (size * 0xC6A4A793)
    for word in words.unpack_from(key):  # mod 2^32 throughout
        h = (h + word) * 0xC6A4A793 & 0xFFFFFFFF
        h ^= h >> 16
    tail = size & 3
    if tail:
        h = (h + int.from_bytes(key[-tail:], "little")) * 0xC6A4A793 & 0xFFFFFFFF
        h ^= h >> 24
    if seed == _DEFAULT_SEED:
        if len(_HASH_CACHE) >= _HASH_CACHE_LIMIT:
            _HASH_CACHE.clear()
        _HASH_CACHE[bytes(key)] = h
    return h


class BloomFilter:
    """A fixed-size bloom filter with double hashing."""

    def __init__(self, num_keys: int, bits_per_key: int = 10):
        if bits_per_key < 1:
            raise ValueError("bits_per_key must be >= 1")
        self.bits_per_key = bits_per_key
        # k = bits_per_key * ln(2), clamped as LevelDB does.
        self.num_probes = max(1, min(30, int(bits_per_key * 0.69)))
        nbits = max(64, num_keys * bits_per_key)
        self._nbits = (nbits + 7) // 8 * 8
        self._bits = bytearray(self._nbits // 8)

    @property
    def size_bytes(self) -> int:
        """Size of the filter bitmap in bytes."""
        return len(self._bits)

    def add(self, key: bytes) -> None:
        """Insert ``key`` into the filter."""
        h = _base_hash(key)
        delta = ((h >> 17) | (h << 15)) & 0xFFFFFFFF
        bits = self._bits
        nbits = self._nbits
        for _ in range(self.num_probes):
            pos = h % nbits
            bits[pos >> 3] |= 1 << (pos & 7)
            h = (h + delta) & 0xFFFFFFFF

    def add_all(self, keys: Iterable[bytes]) -> None:
        """Insert every key of ``keys`` (the builder's batched path).

        Each probe marks one byte of a flag array — a small-int store,
        where setting a bit of the bitmap would build a new int per
        probe — and the flags are packed into the bitmap once, OR-ed
        with the bits already set.
        """
        nbits = self._nbits
        flags = bytearray(nbits)
        probes = range(self.num_probes)
        cached = _HASH_CACHE.get
        for key in keys:
            h = cached(key)
            if h is None:
                h = _base_hash(key)
            delta = ((h >> 17) | (h << 15)) & 0xFFFFFFFF
            for _ in probes:
                flags[h % nbits] = 1
                h = (h + delta) & 0xFFFFFFFF
        bits = self._bits
        # Flag p is bit p of the little-endian bitmap: the flags read
        # last-first are that bitmap as a base-2 numeral.
        acc = int(flags[::-1].translate(_FLAG_DIGITS), 2)
        acc |= int.from_bytes(bits, "little")
        bits[:] = acc.to_bytes(len(bits), "little")

    def may_contain(self, key: bytes) -> bool:
        """True if ``key`` may be present; False is definitive."""
        h = _base_hash(key)
        delta = ((h >> 17) | (h << 15)) & 0xFFFFFFFF
        for _ in range(self.num_probes):
            pos = h % self._nbits
            if not self._bits[pos // 8] & (1 << (pos % 8)):
                return False
            h = (h + delta) & 0xFFFFFFFF
        return True

    # -- serialization ------------------------------------------------------

    def encode(self) -> bytes:
        """Serialize the filter (probe count + bitmap)."""
        return bytes([self.num_probes, self.bits_per_key]) + bytes(self._bits)

    @classmethod
    def decode(cls, data: bytes) -> "BloomFilter":
        """Rebuild a filter from :meth:`encode` output."""
        if len(data) < 2:
            raise ValueError("bloom filter blob too short")
        filt = cls.__new__(cls)
        filt.num_probes = data[0]
        filt.bits_per_key = data[1]
        filt._bits = bytearray(data[2:])
        filt._nbits = len(filt._bits) * 8
        return filt

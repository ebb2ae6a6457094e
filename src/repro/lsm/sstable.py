"""SSTable builder and reader.

An SSTable is a sorted array of versioned records organized as data
blocks, followed by an index block (last key of each data block), a
bloom filter, and a fixed-size footer — the layout of Fig 5 in the
paper.  All section offsets in the footer are *relative to the table's
base offset*, which is what lets BoLT store many logical SSTables inside
one compaction file (§3.2): a logical SSTable is simply a table whose
base offset is nonzero.

Every block carries a CRC so that crash tests detect pages lost by an
unsynced write, and every structure is real bytes in SimFS.  The CRC is
checked on every load of bytes not already verified: a point read keeps
what it parsed while SimFS still holds the same chunk (SSTableReader).
"""

from __future__ import annotations

import bisect
import struct
from dataclasses import dataclass
from typing import Any, Dict, Generator, Iterator, List, Optional, Tuple

from ..sim import CpuMeter, Event
from ..storage import PAGE_SIZE, FileHandle
from .codec import (
    CorruptionError,
    VALUE_TYPE_DELETION,
    crc32,
    decode_fixed32,
    decode_varint,
    encode_fixed32,
    encode_varint,
)
from .bloom import BloomFilter
from .memtable import DELETED, FOUND, NOT_FOUND
from .options import TableFormat

__all__ = ["SSTableBuilder", "SSTableReader", "TableInfo", "DataBlock",
           "FOOTER_SIZE", "read_table_extent"]

_MAGIC = 0xB0171E5B0171E5B0 & 0xFFFFFFFFFFFFFFFF
#: Footer body: index off/len, bloom off/len, entry count, magic.
_FOOTER = struct.Struct("<6Q")
FOOTER_SIZE = _FOOTER.size + 4  # body || crc32

#: A table no longer than this is fetched whole in one request — every
#: LSST (1 MB / 256 at the default byte scale, cut at a key boundary)
#: and every stock 2 MB / 256 table.  A longer one (the 64 MB-table
#: engines, a stock L0 flush) is streamed a page-sized request at a
#: time: no kernel hands a device one 64 MB request, foreground reads
#: are served between a streaming reader's requests, and that is the
#: device schedule the per-block reader gave those engines.
EXTENT_READAHEAD = 16 * 1024

#: (user_key, sequence, value_type, value)
Entry = Tuple[bytes, int, int, bytes]

#: ``max_bytes=None``: a size no table reaches.
_NO_LIMIT = 1 << 62

_SEQ = struct.Struct("<Q")
#: ``count || crc`` block trailer — packed/unpacked in one struct call
#: (byte-identical to the two fixed32 writes it replaces).
_TRAILER = struct.Struct("<II")

#: ``(klen, vlen, value_type, per_record_overhead) -> (header_prefix, pad,
#: encoded entry size)``.  Entry headers repeat massively within a
#: workload (fixed key/value sizes), so the varint/type prefix and the
#: zero pad are built once.  Bounded by a wholesale clear, as
#: ``bloom._HASH_CACHE`` is: a variable-value-size workload would
#: otherwise grow it forever, and the values are pure functions of the
#: key, so dropping them cannot change results.
_HEADER_CACHE: Dict[Tuple[int, int, int, int], Tuple[bytes, bytes, int]] = {}
_HEADER_CACHE_LIMIT = 1 << 16
#: ``(stride, key offset, klen, vlen) -> Struct`` of one entry of a
#: uniform block (:func:`_decode_uniform`); bounded the same way.
_STRIDE_STRUCTS: Dict[Tuple[int, int, int, int], struct.Struct] = {}


def _entry_header(cache_key: Tuple[int, int, int, int]) -> Tuple[bytes, bytes, int]:
    """Build and cache the header for one ``_HEADER_CACHE`` key."""
    klen, vlen, value_type, overhead = cache_key
    prefix = encode_varint(klen) + encode_varint(vlen) + bytes([value_type])
    pad = max(0, overhead - (len(prefix) + 8))
    cached = (prefix, b"\x00" * pad, len(prefix) + 8 + klen + vlen + pad)
    if len(_HEADER_CACHE) >= _HEADER_CACHE_LIMIT:
        _HEADER_CACHE.clear()
    _HEADER_CACHE[cache_key] = cached
    return cached


@dataclass(frozen=True)
class TableInfo:
    """What a finished build reports; feeds FileMetaData."""

    base_offset: int
    length: int
    num_entries: int
    smallest: bytes
    largest: bytes
    index_size: int
    bloom_size: int


def _entry_parts(overhead: int, user_key: bytes, seq: int, value_type: int,
                 value: bytes) -> Tuple[Tuple[bytes, ...], int]:
    """One encoded entry as its pieces in file order, and their total
    size: the pieces :meth:`SSTableBuilder.add_run` appends, for code
    that encodes an entry outside a table (perfbench's block rows)."""
    cache_key = (len(user_key), len(value), value_type, overhead)
    prefix, pad, size = _HEADER_CACHE.get(cache_key) or _entry_header(cache_key)
    return (prefix, _SEQ.pack(seq), user_key, value, pad), size


def _decode_entries(fmt: TableFormat, data: bytes) -> List[Entry]:
    if not isinstance(data, bytes):
        data = bytes(data)  # so fast-path slices are bytes, not views
    entries: List[Entry] = []
    append = entries.append
    varint = decode_varint
    unpack_seq = _SEQ.unpack_from
    overhead = fmt.per_record_overhead
    pos = 0
    end = len(data)
    # Stride fast path: runs of entries sharing one header prefix
    # (klen || vlen || type) — the common case, since a workload writes
    # fixed-size keys and values — are sliced at fixed offsets after a
    # single prefix comparison, skipping the varint state machine.
    run_prefix = b""
    run_klen = run_vlen = run_type = run_skip = 0
    while pos < end:
        if run_prefix and data.startswith(run_prefix, pos):
            hpos = pos + len(run_prefix)
            kstart = hpos + 8
            vstart = kstart + run_klen
            vend = vstart + run_vlen
            nxt = vend + run_skip
            if nxt <= end:
                append((data[kstart:vstart], unpack_seq(data, hpos)[0],
                        run_type, data[vstart:vend]))
                pos = nxt
                continue
        start = pos
        # Single-byte varint fast path: header lengths under 128 cover
        # every table format the repo ships.
        klen = data[pos]
        if klen < 0x80:
            pos += 1
        else:
            klen, pos = varint(data, pos)
        if pos < end and data[pos] < 0x80:
            vlen = data[pos]
            pos += 1
        else:
            vlen, pos = varint(data, pos)
        if pos >= end:
            raise CorruptionError("truncated entry header")
        value_type = data[pos]
        pos += 1
        if pos + 8 > end:
            raise CorruptionError("truncated fixed64")
        seq = unpack_seq(data, pos)[0]
        pos += 8
        header_len = pos - start
        key = bytes(data[pos:pos + klen])
        pos += klen
        value = bytes(data[pos:pos + vlen])
        pos += vlen
        pad = overhead - header_len
        if pad > 0:
            pos += pad
        if pos > end:
            raise CorruptionError("truncated entry body")
        append((key, seq, value_type, value))
        run_prefix = bytes(data[start:start + header_len - 8])
        run_klen, run_vlen, run_type = klen, vlen, value_type
        run_skip = pad if pad > 0 else 0
    return entries


def _open_block(raw: bytes, start: int, end: int, what: str = "block") -> int:
    """CRC-check the encoded data or index block ``raw[start:end]`` in
    place; the trailer's entry count.  The payload is
    ``raw[start:end - 8]``."""
    stop = end - 8
    if stop < start:
        raise CorruptionError(f"{what} too short")
    count, stored_crc = _TRAILER.unpack_from(raw, stop)
    if crc32(memoryview(raw)[start:stop]) != stored_crc:
        raise CorruptionError(f"{what} checksum mismatch")
    return count


def _decode_block(fmt: TableFormat, raw: bytes) -> List[Entry]:
    """CRC-check an encoded data block and return its entries."""
    count = _open_block(raw, 0, len(raw))
    payload = raw[:-8]
    layout = _uniform_layout(fmt, payload, 0, len(payload), count)
    if layout is not None:
        return _decode_uniform(payload, layout)
    entries = _decode_entries(fmt, payload)
    if len(entries) != count:
        raise CorruptionError("block entry count mismatch")
    return entries


def _uniform_layout(fmt: TableFormat, raw: bytes, start: int, stop: int,
                    count: int) -> Optional[Tuple[int, int, int, int, int]]:
    """``(stride, key offset, klen, vlen, value type)`` when the payload
    ``raw[start:stop]`` is ``count`` entries of one stride under one
    ``klen || vlen || type`` prefix — the blocks ``_decode_entries``
    would take on its stride fast path from the second entry on — else
    None.  The key offset is relative to ``start``."""
    if not count:
        return None
    try:
        klen, pos = decode_varint(raw, start)
        vlen, pos = decode_varint(raw, pos)
    except CorruptionError:
        return None  # the full decoder names the fault
    key_at = pos - start + 9  # type byte, fixed64 sequence
    stride = max(key_at, fmt.per_record_overhead) + klen + vlen
    # count x stride == len puts entry i at i x stride, the first one
    # wholly inside the payload, and every strided slice at count bytes.
    if count * stride != stop - start:
        return None
    for at in range(start, pos + 1):
        if raw[at:stop:stride] != raw[at:at + 1] * count:
            return None
    return stride, key_at, klen, vlen, raw[pos]


def _decode_uniform(payload: bytes,
                    layout: Tuple[int, int, int, int, int]) -> List[Entry]:
    """The entries of a block :func:`_uniform_layout` accepted: one
    struct per layout unpacks every stride as ``(seq, key, value)``."""
    stride, key_at, klen, vlen, value_type = layout
    shape = (stride, key_at, klen, vlen)
    entry = _STRIDE_STRUCTS.get(shape)
    if entry is None:
        if len(_STRIDE_STRUCTS) >= _HEADER_CACHE_LIMIT:
            _STRIDE_STRUCTS.clear()
        entry = _STRIDE_STRUCTS[shape] = struct.Struct(
            f"<{key_at - 8}xQ{klen}s{vlen}s{stride - key_at - klen - vlen}x")
    return [(key, seq, value_type, value)
            for seq, key, value in entry.iter_unpack(payload)]


class DataBlock:
    """One verified data block, as a point read searches it.

    ``decode`` checks the CRC and the trailer's entry count on every
    load of bytes not already verified (:class:`SSTableReader` keeps a
    uniform block it decoded and reuses it while SimFS hands back the
    same chunk).  A uniform block (:func:`_uniform_layout`: what
    fixed-size keys and values produce) is a view: it keeps the buffer
    it was read from, copies nothing, and is searched in place — a
    bisect over the keys at their fixed offsets, a sequence number
    unpacked only under a matching key, one value sliced out.  Any
    other block (tombstones among values, mixed sizes, a hostile
    header) is decoded whole by ``_decode_entries``, the one statement
    of the entry layout, into ``entries``.  The bytes choose the
    representation; the answers are the same.  A uniform block's
    ``keys`` is None until :meth:`build_keys` lists them for a block
    that is searched again.
    """

    __slots__ = ("count", "entries", "keys", "_data", "_start", "_layout")

    def __init__(self, count: int, data: bytes = b"", start: int = 0,
                 layout: Optional[Tuple[int, int, int, int, int]] = None,
                 entries: Optional[List[Entry]] = None):
        self.count = count
        #: The buffer a uniform block lies in, its payload from
        #: ``_start`` on; ``_layout``'s key offset is the first key's
        #: position in it.
        self._data = data
        self._start = start
        self._layout = layout
        self.entries = entries
        self.keys: Optional[List[bytes]] = None

    @classmethod
    def decode(cls, fmt: TableFormat, raw: bytes, start: int = 0,
               length: Optional[int] = None) -> "DataBlock":
        """Parse and CRC-check the encoded block ``raw[start:start +
        length]`` (all of ``raw`` by default), without copying it."""
        end = len(raw) if length is None else min(start + length, len(raw))
        count = _open_block(raw, start, end)
        stop = end - 8
        layout = _uniform_layout(fmt, raw, start, stop, count)
        if layout is not None:
            stride, key_at, klen, vlen, value_type = layout
            return cls(count, raw, start,
                       (stride, start + key_at, klen, vlen, value_type))
        entries = _decode_entries(fmt, raw[start:stop])
        if len(entries) != count:
            raise CorruptionError("block entry count mismatch")
        return cls(count, entries=entries)

    def build_keys(self) -> None:
        """List a uniform block's user keys, so later lookups bisect in
        C.  Called when a verified block is searched again: a block
        searched once never pays for the list."""
        stride, key_at, klen, _vlen, _type = self._layout
        data = self._data
        self.keys = [data[pos:pos + klen]
                     for pos in range(key_at, key_at + self.count * stride, stride)]

    def detach(self) -> None:
        """Point a uniform block at a copy of just its own payload, so
        that a copy left in the BlockCache does not keep the whole SimFS
        chunk it was read from alive once that chunk is punched away or
        its file unlinked.  The answers do not change."""
        if self._layout is None:
            return
        start = self._start
        stride, key_at, klen, vlen, value_type = self._layout
        self._data = self._data[start:start + self.count * stride]
        self._start = 0
        self._layout = (stride, key_at - start, klen, vlen, value_type)

    def lookup(self, user_key: bytes, snapshot_seq: int) -> Tuple[str, Optional[bytes]]:
        """Newest visible version of ``user_key`` within this block."""
        entries = self.entries
        if entries is not None:
            # (key,) sorts just before every (key, seq, type, value).
            idx = bisect.bisect_left(entries, (user_key,))
            while idx < len(entries) and entries[idx][0] == user_key:
                _key, seq, value_type, value = entries[idx]
                if seq <= snapshot_seq:
                    if value_type == VALUE_TYPE_DELETION:
                        return (DELETED, None)
                    return (FOUND, value)
                idx += 1
            return (NOT_FOUND, None)
        data = self._data
        stride, key_at, klen, vlen, value_type = self._layout
        count = self.count
        keys = self.keys
        if keys is not None:
            lo = bisect.bisect_left(keys, user_key)
        else:
            lo, hi = 0, count
            while lo < hi:  # bisect_left over the keys where they lie
                mid = (lo + hi) // 2
                pos = mid * stride + key_at
                if data[pos:pos + klen] < user_key:
                    lo = mid + 1
                else:
                    hi = mid
        pos = lo * stride + key_at
        end = count * stride + key_at
        while pos < end and data[pos:pos + klen] == user_key:
            if _SEQ.unpack_from(data, pos - 8)[0] <= snapshot_seq:
                if value_type == VALUE_TYPE_DELETION:
                    return (DELETED, None)
                return (FOUND, data[pos + klen:pos + klen + vlen])
            pos += stride
        return (NOT_FOUND, None)


def _encode_block(payload: bytes, count: int) -> bytes:
    return payload + _TRAILER.pack(count, crc32(payload))


class SSTableBuilder:
    """Collects sorted entries and writes them to ``handle`` as one table.

    The whole table is buffered — :meth:`add_run` only encodes, a full
    data block closes with one join and one CRC — and ``finish`` hands
    blocks, index, bloom filter and footer to the file in a single
    append (into the page cache; durability is the caller's fsync).
    So the builder holds the encoded table, and twice that for the
    moment ``finish`` joins it: ``sstable_size`` where the caller cuts
    tables, a whole memtable for a stock L0 flush or repair's salvage,
    which build one table however large.  A failed append
    (``DiskFullError``) leaves *none* of the table in the file: SimFS
    appends are all-or-nothing.

    The meter is charged here, not by the append, with the sequence a
    block-at-a-time writer would produce — each record's codec charge,
    then its block's byte charge; index, bloom and footer bytes after
    the append.  The accumulator is a float, so the order of charges is
    part of the simulation's result.  One append is equivalent to one
    per section only while nothing else runs between the first entry
    and ``finish`` (no barrier, no other writer to the file): callers
    must not yield in between.  Entries must arrive in internal-key
    order.
    """

    def __init__(self, handle: FileHandle, fmt: TableFormat,
                 bloom_bits_per_key: int = 10,
                 meter: Optional[CpuMeter] = None):
        self.handle = handle
        self.fmt = fmt
        self.meter = meter
        self.base_offset = handle.size
        self._overhead = fmt.per_record_overhead
        self._block_size = fmt.block_size
        self._parts: List[bytes] = []  # encoded pieces of the open block
        self._block_bytes = 0
        self._block_count = 0
        self._blocks: List[bytes] = []  # closed blocks, CRC trailer included
        self._index: List[Tuple[bytes, int, int]] = []  # (last_key, off, len)
        self._written = 0  # bytes in closed blocks
        self._closed_entries = 0
        self._smallest: Optional[bytes] = None
        self._last_key: Optional[bytes] = None
        self._keys: List[bytes] = []  # distinct user keys, for the bloom filter
        self._bloom_bits = bloom_bits_per_key
        #: Bytes this table will occupy: every encoded entry and closed
        #: block trailer, plus 40 per index entry (one more than the
        #: closed blocks), ``bits // 8 + 1`` of filter per distinct key
        #: and the footer.  Kept as a running sum by :meth:`add_run`;
        #: it decides where tables are cut, so it is exact, not a guess
        #: refreshed now and then.
        self.estimated_size = 40 + FOOTER_SIZE
        self.finished = False

    @property
    def num_entries(self) -> int:
        """Number of entries added so far."""
        return self._closed_entries + self._block_count

    def add(self, user_key: bytes, seq: int, value_type: int, value: bytes) -> None:
        """Append one entry; user keys must arrive in sorted order."""
        self.add_run(iter(((user_key, seq, value_type, value),)))

    def add_run(self, entries: Iterator[Entry], max_bytes: Optional[int] = None,
                cut_key: Optional[bytes] = None) -> Optional[Entry]:
        """Append entries from ``entries`` until the cut rule fires.

        A table is cut only between two user keys, and only once it
        holds one: before a new user key when :attr:`estimated_size` has
        reached ``max_bytes`` (None: never) or the key is ``>= cut_key``
        (None: never).  Returns the entry the table was cut before — not
        added, and the rest of ``entries`` untouched — or None once
        ``entries`` is exhausted.
        """
        if self.finished:
            raise RuntimeError("builder already finished")
        limit = max_bytes if max_bytes is not None else _NO_LIMIT
        key_cost = self._bloom_bits // 8 + 1
        overhead = self._overhead
        block_size = self._block_size
        pack_seq = _SEQ.pack
        keys_append = self._keys.append
        parts = self._parts
        count = self._block_count
        block_bytes = self._block_bytes
        estimate = self.estimated_size
        last_key = self._last_key
        klen = vlen = shape_type = -1  # what ``prefix, pad, size`` below encode
        cut = None
        for user_key, seq, value_type, value in entries:
            if user_key != last_key:
                if last_key is None:
                    self._smallest = user_key
                elif user_key < last_key:
                    raise ValueError("keys added out of order")
                elif estimate >= limit or (cut_key is not None
                                           and user_key >= cut_key):
                    cut = (user_key, seq, value_type, value)
                    break
                last_key = user_key
                keys_append(user_key)
                estimate += key_cost
            if len(value) != vlen or len(user_key) != klen or value_type != shape_type:
                klen, vlen, shape_type = len(user_key), len(value), value_type
                cache_key = (klen, vlen, value_type, overhead)
                prefix, pad, size = (_HEADER_CACHE.get(cache_key)
                                     or _entry_header(cache_key))
            parts += (prefix, pack_seq(seq), user_key, value, pad)
            count += 1
            block_bytes += size
            estimate += size
            if block_bytes >= block_size:
                self._last_key = last_key
                self._close_block(parts, count)
                parts = []
                count = block_bytes = 0
                estimate += 48  # the block's trailer, its index entry
        self._parts = parts
        self._block_count = count
        self._block_bytes = block_bytes
        self.estimated_size = estimate
        self._last_key = last_key
        return cut

    def _close_block(self, parts: List[bytes], count: int) -> None:
        raw = _encode_block(b"".join(parts), count)
        meter = self.meter
        if meter is not None:
            meter.charge_repeat(meter.model.codec_per_record, count)
            meter.charge_bytes(len(raw))
        self._index.append((self._last_key, self._written, len(raw)))
        self._blocks.append(raw)
        self._written += len(raw)
        self._closed_entries += count

    def finish(self) -> TableInfo:
        """Write blocks, index, bloom and footer in one append; return metadata."""
        if self.finished:
            raise RuntimeError("builder already finished")
        if self._block_count:
            self._close_block(self._parts, self._block_count)
            self._block_count = 0
        if not self._closed_entries:
            raise ValueError("cannot finish an empty table")
        self.finished = True

        pad = b"\x00" * self.fmt.index_entry_overhead
        index_parts: List[bytes] = []
        for last_key, off, length in self._index:
            index_parts += (encode_varint(len(last_key)), last_key,
                            encode_varint(off), encode_varint(length), pad)
        index_raw = _encode_block(b"".join(index_parts), len(self._index))
        index_off = self._written

        bloom = BloomFilter(len(self._keys), self._bloom_bits)
        bloom.add_all(self._keys)
        bloom_blob = bloom.encode()
        bloom_raw = bloom_blob + encode_fixed32(crc32(bloom_blob))
        bloom_off = index_off + len(index_raw)

        footer_payload = _FOOTER.pack(index_off, len(index_raw), bloom_off,
                                      len(bloom_raw), self._closed_entries, _MAGIC)
        footer = footer_payload + encode_fixed32(crc32(footer_payload))

        tail = (index_raw, bloom_raw, footer)
        self._blocks += tail
        table = b"".join(self._blocks)
        self.handle.append(table)
        meter = self.meter
        if meter is not None:
            for section in tail:
                meter.charge_bytes(len(section))

        return TableInfo(
            base_offset=self.base_offset,
            length=len(table),
            num_entries=self._closed_entries,
            smallest=self._smallest,
            largest=self._last_key,
            index_size=len(index_raw),
            bloom_size=len(bloom_raw),
        )


def _parse_footer(raw_footer: bytes, length: int
                  ) -> Tuple[int, int, int, int, int]:
    """Validate a footer against its table's ``length``; returns
    ``(index_off, index_len, bloom_off, bloom_len, num_entries)`` with
    ``blocks | index | bloom | footer`` in file order inside the table,
    so no later read or slice can leave the table's extent (a CRC-valid
    footer may still be hostile)."""
    if length < FOOTER_SIZE or len(raw_footer) != FOOTER_SIZE:
        raise CorruptionError("truncated footer")
    payload = raw_footer[:-4]
    if crc32(payload) != decode_fixed32(raw_footer, FOOTER_SIZE - 4):
        raise CorruptionError("footer checksum mismatch")
    (index_off, index_len, bloom_off, bloom_len, num_entries,
     magic) = _FOOTER.unpack(payload)
    if magic != _MAGIC:
        raise CorruptionError("bad table magic")
    # index: count || crc trailer; bloom: probes || bits-per-key || crc.
    if not (index_len >= 8 and bloom_len >= 6
            and index_off + index_len <= bloom_off
            and bloom_off + bloom_len <= length - FOOTER_SIZE):
        raise CorruptionError("footer sections outside the table")
    return index_off, index_len, bloom_off, bloom_len, num_entries


def _check_bloom(raw_bloom: bytes, bloom_len: int) -> bytes:
    """CRC-check an encoded bloom section; returns the filter blob.

    A CRC-valid blob must still be one the builder could write — a
    probe count in 1..30 and a bitmap of at least 8 bytes — or a filter
    decoded from it would answer "absent" for keys the table holds."""
    if len(raw_bloom) != bloom_len:
        raise CorruptionError("truncated bloom filter")
    blob = raw_bloom[:-4]
    if crc32(blob) != decode_fixed32(raw_bloom, bloom_len - 4):
        raise CorruptionError("bloom checksum mismatch")
    if len(blob) < 2 + 8 or not 1 <= blob[0] <= 30:
        raise CorruptionError("bloom filter shape out of range")
    return blob


def _decode_index(raw: bytes, fmt: TableFormat, index_off: int
                  ) -> List[Tuple[bytes, int, int]]:
    """CRC-check and parse the index block.  The data blocks it names
    must tile ``[0, index_off)`` exactly, as the builder wrote them."""
    count = _open_block(raw, 0, len(raw), "index block")
    payload = raw[:-8]
    entries: List[Tuple[bytes, int, int]] = []
    pos = 0
    next_off = 0
    for _ in range(count):
        klen, pos = decode_varint(payload, pos)
        key = bytes(payload[pos:pos + klen])
        pos += klen
        off, pos = decode_varint(payload, pos)
        length, pos = decode_varint(payload, pos)
        pos += fmt.index_entry_overhead  # skip fixed per-entry padding
        if off != next_off or length < 8:
            raise CorruptionError("index names a block outside the table")
        next_off += length
        entries.append((key, off, length))
    if pos != len(payload) or next_off != index_off:
        raise CorruptionError("index does not cover the data blocks")
    return entries


#: ``relative offset -> (buf, start, length, parsed form)``: one table's
#: verified sections — footer, index, bloom filter, uniform data blocks —
#: each with the SimFS chunk :meth:`~repro.storage.SimFS.read_view`
#: handed back.
Sections = Dict[int, Tuple[bytes, int, int, Any]]


def _reused(sections: Sections, at: int, buf: bytes, start: int,
            length: int) -> Any:
    """The parsed form of section ``at`` if it was parsed from these very
    bytes — the same immutable chunk object at the same place — else None.
    Holding ``buf`` keeps the object alive, so ``is`` cannot be fooled by
    a recycled address."""
    entry = sections.get(at)
    if (entry is not None and entry[0] is buf and entry[1] == start
            and entry[2] == length):
        return entry[3]
    return None


def _release(parsed: Any) -> None:
    if type(parsed) is DataBlock:
        parsed.detach()


def _remember(sections: Sections, at: int, buf: bytes, start: int,
              length: int, parsed: Any) -> None:
    """Record ``parsed`` as section ``at``, read as ``buf[start:start +
    length]``, in place of what was parsed from bytes no longer there.
    A fresh join (``start`` 0, no longer than the range) is never handed
    back again, so it is not kept."""
    old = sections.pop(at, None)
    if old is not None:
        _release(old[3])
    if start or len(buf) > length:
        sections[at] = (buf, start, length, parsed)


def release_sections(sections: Sections) -> None:
    """Empty ``sections``, first detaching every data block in it: a
    block may live on in the BlockCache after its table's file is
    punched or unlinked, and must not keep the table's chunk alive."""
    for entry in sections.values():
        _release(entry[3])
    sections.clear()


class SSTableReader:
    """Random and sequential access to one (possibly logical) SSTable.

    ``sections`` is the table's memo of verified sections, which the
    :class:`~repro.lsm.cache.TableCache` keeps for a live table across
    reopenings.  Every section is still read through SimFS each time —
    the same page-cache probes, device requests and CPU charges — but
    one whose read hands back the chunk it was parsed from is not
    CRC-checked or parsed again: a SimFS chunk never changes, so the
    verdict and the parse carry over exactly.
    """

    def __init__(self, uid: int, handle: FileHandle, fmt: TableFormat,
                 base_offset: int, length: int,
                 footer: Tuple[int, int, int, int, int],
                 index: Tuple[List[Tuple[bytes, int, int]], List[bytes]],
                 bloom: BloomFilter, sections: Sections):
        self.uid = uid
        self.handle = handle
        self.fmt = fmt
        self.base_offset = base_offset
        self.length = length
        self.index, self.index_keys = index
        self.bloom = bloom
        self.num_entries = footer[4]
        self.index_size = footer[1]
        self._sections = sections

    # -- opening ---------------------------------------------------------

    @classmethod
    def open(cls, uid: int, handle: FileHandle, fmt: TableFormat,
             base_offset: int, length: int,
             meter: Optional[CpuMeter] = None,
             sections: Optional[Sections] = None
             ) -> Generator[Event, Any, "SSTableReader"]:
        """Read footer, index block and bloom filter (the §2.6 miss cost).

        The index read is proportional to the table size — this is the
        TableCache miss penalty the paper measures in Fig 6.  Each
        section is verified and parsed unless ``sections`` holds it
        parsed from the bytes just read.
        """
        if sections is None:
            sections = {}
        at = length - FOOTER_SIZE
        buf, start = yield from handle.read_view(
            base_offset + at, FOOTER_SIZE, meter)
        footer = _reused(sections, at, buf, start, FOOTER_SIZE)
        if footer is None:
            release_sections(sections)  # the footer placed every section
            footer = _parse_footer(buf[start:start + FOOTER_SIZE], length)
            _remember(sections, at, buf, start, FOOTER_SIZE, footer)
        index_off, index_len, bloom_off, bloom_len, _count = footer
        buf, start = yield from handle.read_view(
            base_offset + index_off, index_len, meter, sequential=True)
        index = _reused(sections, index_off, buf, start, index_len)
        if index is None:
            entries = _decode_index(buf[start:start + index_len], fmt, index_off)
            index = (entries, [entry[0] for entry in entries])
            _remember(sections, index_off, buf, start, index_len, index)
        buf, start = yield from handle.read_view(
            base_offset + bloom_off, bloom_len, meter)
        bloom = _reused(sections, bloom_off, buf, start, bloom_len)
        if bloom is None:
            bloom = BloomFilter.decode(
                _check_bloom(buf[start:start + bloom_len], bloom_len))
            _remember(sections, bloom_off, buf, start, bloom_len, bloom)
        return cls(uid, handle, fmt, base_offset, length, footer, index, bloom,
                   sections)

    # -- reads ----------------------------------------------------------

    def get(self, user_key: bytes, snapshot_seq: int,
            meter: Optional[CpuMeter] = None,
            block_cache: Optional[Any] = None
            ) -> Generator[Event, Any, Tuple[str, Optional[bytes]]]:
        """Point lookup within this table: bloom filter, index, data block."""
        if meter is not None:
            meter.charge(meter.model.bloom_probe)
        if not self.bloom.may_contain(user_key):
            return (NOT_FOUND, None)
        index = self.index
        idx = bisect.bisect_left(self.index_keys, user_key)
        while idx < len(index):
            last_key, off, length = index[idx]
            if meter is not None:
                meter.charge(meter.model.block_search)
            block = block_cache.get((self.uid, off)) if block_cache is not None else None
            if block is not None:
                if meter is not None:
                    meter.charge(meter.model.memtable_lookup)
            else:
                buf, start = yield from self.handle.read_view(
                    self.base_offset + off, length, meter)
                block = _reused(self._sections, off, buf, start, length)
                if block is None:
                    block = DataBlock.decode(self.fmt, buf, start, length)
                    if block.entries is None:  # a view: keeping it is free
                        _remember(self._sections, off, buf, start, length, block)
                    else:  # decoded whole: not kept, nor what older bytes left
                        self._sections.pop(off, None)
                elif block.keys is None:
                    block.build_keys()
                if meter is not None:
                    meter.charge(meter.model.codec_per_record * max(1, block.count))
                if block_cache is not None:
                    block_cache.put((self.uid, off), block,
                                    min(length, len(buf) - start))
            if meter is not None:
                meter.charge(meter.model.block_search)
            found = block.lookup(user_key, snapshot_seq)
            if found[0] != NOT_FOUND or last_key != user_key:
                return found
            # The builder cuts blocks on bytes, not keys: every version
            # here is newer than the snapshot, older ones follow the cut.
            idx += 1
        return (NOT_FOUND, None)

    def read_block(self, index: int, meter: Optional[CpuMeter] = None
                   ) -> Generator[Event, Any, List[Entry]]:
        """Decode data block ``index`` of this table (the range-scan step).

        One sequential read, fully decoded and charged per record; the
        block cache is neither consulted nor filled.
        """
        _key, off, length = self.index[index]
        raw = yield from self.handle.read(
            self.base_offset + off, length, meter, sequential=True)
        block = _decode_block(self.fmt, raw)
        if meter is not None:
            meter.charge(meter.model.codec_per_record * len(block))
        return block


def read_table_extent(handle: FileHandle, fmt: TableFormat, base_offset: int,
                      length: int, meter: Optional[CpuMeter] = None
                      ) -> Generator[Event, Any, List[Entry]]:
    """Read and decode one whole (logical) table as a single extent.

    For consumers that want every entry once (compaction inputs, scrub,
    repair, the crash checker): **one** sequential read of the extent
    (a table longer than :data:`EXTENT_READAHEAD` is streamed front to
    back a page at a time instead), then footer, index and every data
    block parsed out of that buffer.  All four CRC regions (footer,
    index, bloom blob, each block) and the footer's entry count are
    verified; the bloom filter is never decoded and nothing enters the
    table or block cache, so a flipped byte on "disk" cannot hide behind
    a cached decode.  Any failed check is a
    :class:`~repro.lsm.codec.CorruptionError`.
    """
    step = length if length <= EXTENT_READAHEAD else PAGE_SIZE
    parts = []
    for off in range(0, length, step):
        parts.append((yield from handle.read(
            base_offset + off, min(step, length - off), meter,
            sequential=True)))
    raw = b"".join(parts)
    if len(raw) != length:
        raise CorruptionError("truncated table")
    index_off, index_len, bloom_off, bloom_len, num_entries = _parse_footer(
        raw[-FOOTER_SIZE:], length)
    index = _decode_index(raw[index_off:index_off + index_len], fmt, index_off)
    _check_bloom(raw[bloom_off:bloom_off + bloom_len], bloom_len)
    entries: List[Entry] = []
    for _key, off, block_len in index:
        entries += _decode_block(fmt, raw[off:off + block_len])
    if len(entries) != num_entries:
        raise CorruptionError(f"decoded {len(entries)} entries, "
                              f"footer says {num_entries}")
    if meter is not None:
        meter.charge(meter.model.codec_per_record * num_entries)
    return entries

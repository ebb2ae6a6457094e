"""Unit tests for the SSTable builder/reader, including logical tables."""

import bisect
import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.lsm import LEVELDB_FORMAT, ROCKSDB_FORMAT, BloomFilter, CorruptionError
from repro.lsm.codec import (MAX_SEQUENCE, VALUE_TYPE_DELETION, VALUE_TYPE_VALUE,
                             crc32, decode_fixed32, decode_fixed64, decode_varint,
                             encode_fixed32, encode_fixed64, encode_varint)
from repro.lsm.memtable import DELETED, FOUND, NOT_FOUND
from repro.lsm.sstable import (EXTENT_READAHEAD, FOOTER_SIZE, DataBlock,
                               SSTableBuilder, SSTableReader, TableInfo, _MAGIC,
                               read_table_extent)
from repro.sim import CostModel, CpuMeter, Environment
from repro.storage import PAGE_SIZE, BlockDevice, DiskFullError, PageCache, SimFS


def build_table(fs, run, entries, fmt=LEVELDB_FORMAT, name="t.ldb"):
    def scenario():
        handle = yield from fs.create(name)
        builder = SSTableBuilder(handle, fmt)
        for key, seq, vtype, value in entries:
            builder.add(key, seq, vtype, value)
        info = builder.finish()
        yield from handle.fsync()
        reader = yield from SSTableReader.open(1, handle, fmt,
                                               info.base_offset, info.length)
        return info, reader

    return run(scenario())


def simple_entries(n=100, prefix=b"key"):
    return [(b"%s%06d" % (prefix, i), i + 1, VALUE_TYPE_VALUE, b"value-%d" % i)
            for i in range(n)]


class TestBuilderReader:
    def test_roundtrip_all_entries(self, fs, run):
        entries = simple_entries(200)
        info, reader = build_table(fs, run, entries)

        assert run(read_table_extent(reader.handle, LEVELDB_FORMAT,
                                     info.base_offset, info.length)) == entries

    def test_point_lookup_found(self, fs, run):
        entries = simple_entries(150)
        _info, reader = build_table(fs, run, entries)

        def lookup(key):
            return (yield from reader.get(key, MAX_SEQUENCE))

        assert run(lookup(b"key000077")) == (FOUND, b"value-77")
        assert run(lookup(b"key000000")) == (FOUND, b"value-0")
        assert run(lookup(b"key000149")) == (FOUND, b"value-149")

    def test_point_lookup_missing(self, fs, run):
        _info, reader = build_table(fs, run, simple_entries(50))

        def lookup(key):
            return (yield from reader.get(key, MAX_SEQUENCE))

        assert run(lookup(b"key999999")) == (NOT_FOUND, None)
        assert run(lookup(b"aaa")) == (NOT_FOUND, None)

    def test_tombstone_read_back(self, fs, run):
        entries = [(b"dead", 5, VALUE_TYPE_DELETION, b""),
                   (b"live", 4, VALUE_TYPE_VALUE, b"v")]
        _info, reader = build_table(fs, run, entries)

        def lookup(key):
            return (yield from reader.get(key, MAX_SEQUENCE))

        assert run(lookup(b"dead")) == (DELETED, None)
        assert run(lookup(b"live")) == (FOUND, b"v")

    def test_snapshot_visibility(self, fs, run):
        entries = [(b"k", 9, VALUE_TYPE_VALUE, b"new"),
                   (b"k", 3, VALUE_TYPE_VALUE, b"old")]
        _info, reader = build_table(fs, run, entries)

        def lookup(seq):
            return (yield from reader.get(b"k", seq))

        assert run(lookup(MAX_SEQUENCE)) == (FOUND, b"new")
        assert run(lookup(5)) == (FOUND, b"old")
        assert run(lookup(2)) == (NOT_FOUND, None)

    def test_out_of_order_keys_rejected(self, fs, run):
        def scenario():
            handle = yield from fs.create("t")
            builder = SSTableBuilder(handle, LEVELDB_FORMAT)
            builder.add(b"b", 1, VALUE_TYPE_VALUE, b"")
            builder.add(b"a", 2, VALUE_TYPE_VALUE, b"")

        with pytest.raises(ValueError):
            run(scenario())

    def test_empty_table_rejected(self, fs, run):
        def scenario():
            handle = yield from fs.create("t")
            SSTableBuilder(handle, LEVELDB_FORMAT).finish()

        with pytest.raises(ValueError):
            run(scenario())

    def test_info_reports_bounds_and_counts(self, fs, run):
        entries = simple_entries(42)
        info, _reader = build_table(fs, run, entries)
        assert info.num_entries == 42
        assert info.smallest == b"key000000"
        assert info.largest == b"key000041"
        assert info.length > 0
        assert info.index_size > 0

    def test_per_record_overhead_shapes_size(self, fs, run):
        """§4.3.3: the LevelDB format spends ~100 B/record, RocksDB ~24."""
        entries = [(b"%023d" % i, i + 1, VALUE_TYPE_VALUE, b"v" * 100)
                   for i in range(500)]
        info_ldb, _ = build_table(fs, run, entries, LEVELDB_FORMAT, "ldb")
        info_rdb, _ = build_table(fs, run, entries, ROCKSDB_FORMAT, "rdb")
        per_ldb = info_ldb.length / 500
        per_rdb = info_rdb.length / 500
        # 223 vs 141 bytes in the paper: a 1.4-1.7x gap.
        assert 1.3 < per_ldb / per_rdb < 1.9

    def test_read_block(self, fs, run):
        """The scan step: block ``i`` alone, in one sequential read of
        exactly its extent."""
        entries = simple_entries(300)
        _info, reader = build_table(fs, run, entries)
        reads = []
        fs_read = fs.read

        def counted(handle, offset, length, meter=None, sequential=False):
            reads.append((offset, length, sequential))
            return fs_read(handle, offset, length, meter, sequential)

        fs.read = counted
        blocks = [run(reader.read_block(i)) for i in range(len(reader.index))]
        assert len(blocks) > 2
        assert [e for block in blocks for e in block] == entries
        assert [block[-1][0] for block in blocks] == reader.index_keys
        assert reads == [(reader.base_offset + off, length, True)
                         for _key, off, length in reader.index]

    def test_index_size_proportional_to_table(self, fs, run):
        small_info, _ = build_table(fs, run, simple_entries(50), name="s")
        large_info, _ = build_table(fs, run, simple_entries(2000), name="l")
        assert large_info.index_size > small_info.index_size * 10


class TestLogicalTables:
    def test_multiple_tables_share_one_file(self, fs, run):
        """§3.2: logical SSTables live at offsets inside one file."""
        def scenario():
            handle = yield from fs.create("container.cf")
            infos = []
            for part in range(3):
                builder = SSTableBuilder(handle, LEVELDB_FORMAT)
                for i in range(50):
                    builder.add(b"p%d-%04d" % (part, i), i + 1,
                                VALUE_TYPE_VALUE, b"v%d" % part)
                infos.append(builder.finish())
            yield from handle.fsync()
            readers = []
            for uid, info in enumerate(infos):
                reader = yield from SSTableReader.open(
                    uid, handle, LEVELDB_FORMAT, info.base_offset, info.length)
                readers.append(reader)
            results = []
            for part, reader in enumerate(readers):
                state, value = yield from reader.get(
                    b"p%d-%04d" % (part, 7), MAX_SEQUENCE)
                results.append((state, value))
            return infos, results

        infos, results = run(scenario())
        assert infos[0].base_offset == 0
        assert infos[1].base_offset == infos[0].length
        assert infos[2].base_offset == infos[0].length + infos[1].length
        assert results == [(FOUND, b"v0"), (FOUND, b"v1"), (FOUND, b"v2")]

    def test_logical_table_survives_sibling_hole_punch(self, fs, run):
        """§3.2: punching a dead logical SSTable must not corrupt its
        live neighbours in the same compaction file."""
        def scenario():
            handle = yield from fs.create("c.cf")
            infos = []
            for part in range(2):
                builder = SSTableBuilder(handle, LEVELDB_FORMAT)
                for i in range(200):
                    builder.add(b"p%d-%06d" % (part, i), i + 1,
                                VALUE_TYPE_VALUE, b"x" * 64)
                infos.append(builder.finish())
            yield from handle.fsync()
            handle.punch_hole(infos[0].base_offset, infos[0].length)
            reader = yield from SSTableReader.open(
                1, handle, LEVELDB_FORMAT,
                infos[1].base_offset, infos[1].length)
            return (yield from reader.get(b"p1-%06d" % 123, MAX_SEQUENCE))

        assert run(scenario()) == (FOUND, b"x" * 64)


class TestCorruptionDetection:
    def test_corrupt_data_block_detected(self, fs, run):
        entries = simple_entries(100)

        def scenario():
            handle = yield from fs.create("t")
            builder = SSTableBuilder(handle, LEVELDB_FORMAT)
            for key, seq, vtype, value in entries:
                builder.add(key, seq, vtype, value)
            info = builder.finish()
            yield from handle.fsync()
            handle.write_at(10, b"\xde\xad\xbe\xef")  # corrupt first block
            reader = yield from SSTableReader.open(
                1, handle, LEVELDB_FORMAT, info.base_offset, info.length)
            yield from reader.get(entries[0][0], MAX_SEQUENCE)

        with pytest.raises(CorruptionError):
            run(scenario())

    def test_corrupt_footer_detected(self, fs, run):
        def scenario():
            handle = yield from fs.create("t")
            builder = SSTableBuilder(handle, LEVELDB_FORMAT)
            builder.add(b"k", 1, VALUE_TYPE_VALUE, b"v")
            info = builder.finish()
            handle.write_at(info.length - 6, b"\xff\xff")
            yield from SSTableReader.open(1, handle, LEVELDB_FORMAT,
                                          info.base_offset, info.length)

        with pytest.raises(CorruptionError):
            run(scenario())

    def test_zeroed_table_detected(self, fs, run):
        """A table whose unsynced pages were lost must fail loudly."""
        def scenario():
            handle = yield from fs.create("t")
            builder = SSTableBuilder(handle, LEVELDB_FORMAT)
            for key, seq, vtype, value in simple_entries(500):
                builder.add(key, seq, vtype, value)
            info = builder.finish()
            fs.crash(survive_probability=0.0)  # never fsynced
            fresh = yield from fs.open("t")
            yield from SSTableReader.open(1, fresh, LEVELDB_FORMAT,
                                          info.base_offset, info.length)

        with pytest.raises(CorruptionError):
            run(scenario())


class TestProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.dictionaries(st.binary(min_size=1, max_size=16),
                           st.binary(max_size=64),
                           min_size=1, max_size=120))
    def test_every_written_key_readable(self, data):
        from repro.sim import Environment
        from repro.storage import BlockDevice, PageCache, SimFS
        env = Environment()
        fs = SimFS(env, BlockDevice(env), PageCache(1 << 24))

        def scenario():
            handle = yield from fs.create("t")
            builder = SSTableBuilder(handle, LEVELDB_FORMAT)
            for seq, key in enumerate(sorted(data), start=1):
                builder.add(key, seq, VALUE_TYPE_VALUE, data[key])
            info = builder.finish()
            reader = yield from SSTableReader.open(
                1, handle, LEVELDB_FORMAT, info.base_offset, info.length)
            for key, value in data.items():
                state, got = yield from reader.get(key, MAX_SEQUENCE)
                assert state == FOUND and got == value

        env.run_until(env.process(scenario()))


# -- the buffered builder against the per-entry builder it replaced ---------


def _plain_entry(fmt, user_key, seq, value_type, value):
    """One entry, encoded as plainly as ``_reference_block`` decodes it."""
    prefix = (encode_varint(len(user_key)) + encode_varint(len(value))
              + bytes([value_type]))
    pad = max(0, fmt.per_record_overhead - (len(prefix) + 8))
    return prefix + encode_fixed64(seq) + user_key + value + b"\x00" * pad


class _ReferenceBuilder:
    """Frozen copy of the builder before it buffered whole tables.

    One ``handle.append`` per data block and per index/bloom/footer
    section, each charging the meter itself; one codec charge per
    ``add``.  Kept as the reference the buffered builder must match bit
    for bit — file bytes, filesystem state, ``TableInfo``, size
    estimates and the meter's floats.
    """

    def __init__(self, handle, fmt, bloom_bits_per_key=10, meter=None):
        self.handle = handle
        self.fmt = fmt
        self.meter = meter
        self.base_offset = handle.size
        self._block = bytearray()
        self._block_count = 0
        self._index = []
        self._written = 0
        self._num_entries = 0
        self._smallest = None
        self._largest = None
        self._keys = []
        self._bloom_bits = bloom_bits_per_key

    @property
    def estimated_size(self):
        overhead = (len(self._index) + 1) * 40 + len(self._keys) * (
            self._bloom_bits // 8 + 1) + FOOTER_SIZE
        return self._written + len(self._block) + overhead

    @staticmethod
    def _block_bytes(payload, count):
        return payload + encode_fixed32(count) + encode_fixed32(crc32(payload))

    def add(self, user_key, seq, value_type, value):
        self._block.extend(_plain_entry(self.fmt, user_key, seq, value_type, value))
        self._block_count += 1
        self._num_entries += 1
        if self._smallest is None:
            self._smallest = user_key
        self._largest = user_key
        if user_key != (self._keys[-1] if self._keys else None):
            self._keys.append(user_key)
        if self.meter is not None:
            self.meter.charge(self.meter.model.codec_per_record)
        if len(self._block) >= self.fmt.block_size:
            self._flush_block()

    def _flush_block(self):
        if not self._block:
            return
        raw = self._block_bytes(bytes(self._block), self._block_count)
        self.handle.append(raw, self.meter)
        self._index.append((self._largest, self._written, len(raw)))
        self._written += len(raw)
        self._block = bytearray()
        self._block_count = 0

    def finish(self):
        self._flush_block()
        index_payload = bytearray()
        for last_key, off, length in self._index:
            index_payload.extend(encode_varint(len(last_key)) + last_key
                                 + encode_varint(off) + encode_varint(length))
            index_payload.extend(b"\x00" * self.fmt.index_entry_overhead)
        index_raw = self._block_bytes(bytes(index_payload), len(self._index))
        index_off = self._written
        self.handle.append(index_raw, self.meter)
        self._written += len(index_raw)

        bloom = BloomFilter(len(self._keys), self._bloom_bits)
        for key in self._keys:
            bloom.add(key)
        bloom_blob = bloom.encode()
        bloom_raw = bloom_blob + encode_fixed32(crc32(bloom_blob))
        bloom_off = self._written
        self.handle.append(bloom_raw, self.meter)
        self._written += len(bloom_raw)

        footer_payload = b"".join(encode_fixed64(field) for field in (
            index_off, len(index_raw), bloom_off, len(bloom_raw),
            self._num_entries, _MAGIC))
        footer = footer_payload + encode_fixed32(crc32(footer_payload))
        self.handle.append(footer, self.meter)
        self._written += len(footer)
        return TableInfo(
            base_offset=self.base_offset, length=self._written,
            num_entries=self._num_entries, smallest=self._smallest,
            largest=self._largest, index_size=len(index_raw),
            bloom_size=len(bloom_raw))


class _CountingHandle:
    """The two things a builder uses of a FileHandle, counting appends."""

    def __init__(self, handle):
        self._handle = handle
        self.appends = 0

    @property
    def size(self):
        return self._handle.size

    def append(self, data, meter=None):
        self.appends += 1
        return self._handle.append(data, meter)


#: Sorted user keys of 1-40 bytes, each with 1-3 versions (newest
#: first, some of them tombstones) and values of 0-700 bytes: enough to
#: span several 4 KB blocks and several header-cache keys.
_versions = st.lists(
    st.tuples(st.booleans(), st.binary(max_size=700)), min_size=1, max_size=3)
_tables = st.lists(
    st.dictionaries(st.binary(min_size=1, max_size=40), _versions,
                    min_size=1, max_size=40),
    min_size=1, max_size=3)


def _entries_of(table, first_seq):
    entries = []
    seq = first_seq
    for key in sorted(table):
        seq += len(table[key])
        for age, (is_tombstone, value) in enumerate(table[key]):
            if is_tombstone:
                entries.append((key, seq - age, VALUE_TYPE_DELETION, b""))
            else:
                entries.append((key, seq - age, VALUE_TYPE_VALUE, value))
    return entries


def _build_with(builder_cls, tables, fmt, prefix, scale):
    """Build ``tables`` back to back in one file; everything observable."""
    env = Environment()
    # Two pages of cache: every table evicts, so insertion order shows.
    fs = SimFS(env, BlockDevice(env), PageCache(2 * 4096))
    meter = CpuMeter(env, CostModel(), scale=scale)
    seen = {"infos": [], "estimates": [], "appends": []}

    def scenario():
        handle = yield from fs.create("t.cf")
        if prefix:
            handle.append(bytes(prefix))
            yield from handle.fsync()  # a durable, partly filled first page
        for number, table in enumerate(tables):
            counting = _CountingHandle(handle)
            builder = builder_cls(counting, fmt, 10, meter)
            for entry in _entries_of(table, 1000 * number):
                builder.add(*entry)
                seen["estimates"].append(builder.estimated_size)
            seen["infos"].append(builder.finish())
            seen["appends"].append(counting.appends)
        return handle

    handle = env.run_until(env.process(scenario()))
    file = handle._file
    seen.update(
        data=bytes(file.data), dirty=dict(file.dirty),
        dirty_epoch=dict(file.dirty_epoch),
        resident=list(fs.page_cache.resident_pages()),
        evictions=fs.page_cache.evictions,
        logical_bytes_written=fs.stats.logical_bytes_written,
        accumulated=meter._accumulated, total_charged=meter.total_charged)
    return seen


class TestBufferedBuilder:
    @settings(max_examples=60, deadline=None)
    @given(_tables, st.sampled_from([LEVELDB_FORMAT, ROCKSDB_FORMAT]),
           st.integers(0, 5000), st.sampled_from([1.0, 0.25]))
    def test_bit_equal_to_the_per_entry_builder(self, tables, fmt, prefix, scale):
        new = _build_with(SSTableBuilder, tables, fmt, prefix, scale)
        old = _build_with(_ReferenceBuilder, tables, fmt, prefix, scale)
        assert new.pop("appends") == [1] * len(tables)
        assert all(count >= 4 for count in old.pop("appends"))
        assert new == old

    def test_tables_read_back_through_a_counting_handle(self, fs, run):
        def scenario():
            handle = yield from fs.create("t.cf")
            counting = _CountingHandle(handle)
            builder = SSTableBuilder(counting, LEVELDB_FORMAT)
            for entry in simple_entries(300):
                builder.add(*entry)
            assert counting.appends == 0  # nothing reaches the file before finish
            info = builder.finish()
            assert counting.appends == 1
            assert handle.size == info.length
            reader = yield from SSTableReader.open(
                1, handle, LEVELDB_FORMAT, info.base_offset, info.length)
            assert len(reader.index) > 1  # multi-block
            return (yield from read_table_extent(
                handle, LEVELDB_FORMAT, info.base_offset, info.length))

        assert run(scenario()) == simple_entries(300)

    def test_header_cache_is_bounded(self, fs, run, monkeypatch):
        from repro.lsm import sstable
        monkeypatch.setattr(sstable, "_HEADER_CACHE", {})
        monkeypatch.setattr(sstable, "_HEADER_CACHE_LIMIT", 8)
        entries = [(b"k%04d" % i, i + 1, VALUE_TYPE_VALUE, bytes(i))
                   for i in range(50)]  # 50 distinct value sizes
        info, reader = build_table(fs, run, entries)
        assert 0 < len(sstable._HEADER_CACHE) <= 8
        assert run(read_table_extent(reader.handle, LEVELDB_FORMAT,
                                     info.base_offset, info.length)) == entries

    def test_disk_full_leaves_none_of_the_table_in_the_file(self, fs, run):
        def scenario():
            handle = yield from fs.create("t.cf")
            first = SSTableBuilder(handle, LEVELDB_FORMAT)
            for entry in simple_entries(50):
                first.add(*entry)
            first.finish()
            size = handle.size
            written = fs.stats.logical_bytes_written
            # Room for the first data block of the next table, not for all of it.
            fs.set_capacity(fs.total_allocated_bytes() + 5000)
            second = SSTableBuilder(handle, LEVELDB_FORMAT)
            for entry in simple_entries(300, prefix=b"later"):
                second.add(*entry)
            with pytest.raises(DiskFullError):
                second.finish()
            assert handle.size == size
            assert fs.stats.logical_bytes_written == written
            yield from handle.fsync()

        run(scenario())


# -- the extent decoder against the per-block reader it replaced -------------


def _reference_block(fmt, raw):
    """Deliberately plain decode of one data block: CRC, entries, count."""
    if len(raw) < 8:
        raise CorruptionError("block too short")
    payload = raw[:-8]
    if crc32(payload) != decode_fixed32(raw, len(raw) - 4):
        raise CorruptionError("block checksum mismatch")
    entries, pos = [], 0
    while pos < len(payload):
        start = pos
        klen, pos = decode_varint(payload, pos)
        vlen, pos = decode_varint(payload, pos)
        if pos + 9 > len(payload):
            raise CorruptionError("truncated entry header")
        value_type = payload[pos]
        seq = decode_fixed64(payload, pos + 1)
        pos += 9
        pad = max(0, fmt.per_record_overhead - (pos - start))
        key, value = payload[pos:pos + klen], payload[pos + klen:pos + klen + vlen]
        pos += klen + vlen + pad
        if pos > len(payload):
            raise CorruptionError("truncated entry body")
        entries.append((key, seq, value_type, value))
    if len(entries) != decode_fixed32(raw, len(raw) - 8):
        raise CorruptionError("block entry count mismatch")
    return entries


def _reference_read_all(handle, fmt, base_offset, length):
    """Frozen copy of what compaction, scrub and repair did before
    ``read_table_extent``: ``SSTableReader.open`` (three reads), then the
    old ``SSTableReader.iter_entries`` — one read per data block — then
    the scrubber's check against the footer's entry count.
    Kept as the reference the extent decoder must agree with."""
    reader = yield from SSTableReader.open(0, handle, fmt, base_offset, length)
    entries = []
    for _key, off, block_len in reader.index:
        raw = yield from handle.read(base_offset + off, block_len, None,
                                     sequential=True)
        entries += _reference_block(fmt, raw)
    if len(entries) != reader.num_entries:
        raise CorruptionError("entry count differs from the footer's")
    return entries


class _RecordingHandle:
    """A FileHandle's ``read`` and ``read_view``, recording every request."""

    def __init__(self, handle):
        self._handle = handle
        self.reads = []

    def read(self, offset, length, meter=None, sequential=False):
        self.reads.append((offset, length, sequential))
        return self._handle.read(offset, length, meter, sequential)

    def read_view(self, offset, length, meter=None, sequential=False):
        self.reads.append((offset, length, sequential))
        return self._handle.read_view(offset, length, meter, sequential)


def _build_back_to_back(fs, fmt, prefix, tables, name="t.cf"):
    """``prefix`` junk bytes, then each entry list as one table; the infos."""
    handle = yield from fs.create(name)
    handle.append(bytes(prefix))
    infos = []
    for entries in tables:
        builder = SSTableBuilder(handle, fmt)
        for entry in entries:
            builder.add(*entry)
        infos.append(builder.finish())
    return handle, infos


_FORMATS = st.sampled_from([LEVELDB_FORMAT, ROCKSDB_FORMAT])


class TestReadTableExtent:
    @settings(max_examples=60, deadline=None)
    @given(_tables, _FORMATS, st.integers(1, 5000))
    def test_equal_to_the_per_block_reader(self, tables, fmt, prefix):
        env = Environment()
        fs = SimFS(env, BlockDevice(env), PageCache(1 << 24))
        written = [_entries_of(table, 1000 * number)
                   for number, table in enumerate(tables)]

        def scenario():
            handle, infos = yield from _build_back_to_back(fs, fmt, prefix, written)
            assert infos[0].base_offset == prefix
            for info, entries in zip(infos, written):
                recording = _RecordingHandle(handle)
                got = yield from read_table_extent(
                    recording, fmt, info.base_offset, info.length)
                step = (info.length if info.length <= EXTENT_READAHEAD
                        else PAGE_SIZE)
                assert recording.reads == [
                    (info.base_offset + off, min(step, info.length - off), True)
                    for off in range(0, info.length, step)]
                reference = yield from _reference_read_all(
                    handle, fmt, info.base_offset, info.length)
                assert got == reference == entries

        env.run_until(env.process(scenario()))

    @pytest.mark.parametrize("records", [15, 300])
    def test_one_request_one_copy_charge_and_no_cache(self, env, fs, run, records):
        entries = simple_entries(records)
        meter = CpuMeter(env, CostModel())

        def scenario():
            handle, (info,) = yield from _build_back_to_back(
                fs, LEVELDB_FORMAT, 100, [entries])
            yield from handle.fsync()
            fs.page_cache.drop_all()
            before = fs.device.stats.num_reads
            got = yield from read_table_extent(
                handle, LEVELDB_FORMAT, info.base_offset, info.length, meter)
            return info, got, fs.device.stats.num_reads - before

        info, got, device_reads = run(scenario())
        assert got == entries
        if records == 15:   # cold, two blocks, one device request
            assert info.length <= EXTENT_READAHEAD and device_reads == 1
        else:               # past the window: about one request per page
            assert info.length > EXTENT_READAHEAD
            pages = (100 + info.length - 1) // PAGE_SIZE + 1
            assert device_reads in (pages - 1, pages)
        model = meter.model
        assert meter.total_charged == pytest.approx(
            info.length * model.memcpy_per_byte + records * model.codec_per_record)


# -- the block searched in place against decode-everything + bisect ----------


def _plain_block(fmt, entries):
    return _crc_block(b"".join(_plain_entry(fmt, *entry) for entry in entries),
                      len(entries))


def _reference_lookup(entries, user_key, snapshot_seq):
    """Frozen copy of ``DataBlock.lookup`` from before blocks were
    searched in place: every entry decoded (by ``_reference_block``),
    a parallel key list, one ``bisect``."""
    keys = [entry[0] for entry in entries]
    idx = bisect.bisect_left(keys, user_key)
    while idx < len(entries) and keys[idx] == user_key:
        _key, seq, value_type, value = entries[idx]
        if seq <= snapshot_seq:
            if value_type == VALUE_TYPE_DELETION:
                return (DELETED, None)
            return (FOUND, value)
        idx += 1
    return (NOT_FOUND, None)


def _reference_get(reader, user_key, snapshot_seq):
    """The reader's block choice around the frozen lookup: the first
    block whose last key >= ``user_key``; while that block ends on the
    key and showed no visible version, the next one."""
    for last_key, off, length in reader.index:
        if last_key < user_key:
            continue
        raw = yield from reader.handle.read(reader.base_offset + off, length)
        found = _reference_lookup(_reference_block(reader.fmt, raw),
                                  user_key, snapshot_seq)
        if found[0] != NOT_FOUND or last_key != user_key:
            return found
    return (NOT_FOUND, None)


def _visible(entries, user_key, snapshot_seq):
    """The model: the newest version at or below the snapshot, from the
    entry list alone (internal-key order, so the first match)."""
    for key, seq, value_type, value in entries:
        if key == user_key and seq <= snapshot_seq:
            if value_type == VALUE_TYPE_DELETION:
                return (DELETED, None)
            return (FOUND, value)
    return (NOT_FOUND, None)


def _snapshots_around(entries):
    seqs = {entry[1] for entry in entries}
    return sorted(seqs | {min(seqs) - 1, max(seqs) + 1, MAX_SEQUENCE})


@st.composite
def _versioned_entries(draw):
    """1-40 entries in internal-key order: sorted keys, each in 1-3
    versions, sequences descending.  A uniform draw fixes key length,
    value length and type — what a fixed-size workload writes and
    ``DataBlock`` searches in place; a mixed draw varies all three and
    forces the fallback decoder."""
    if draw(st.booleans()):
        klen = draw(st.integers(1, 3))
        key = st.binary(min_size=klen, max_size=klen)
        dead = draw(st.booleans())
        size = 0 if dead else draw(st.sampled_from([0, 1, 100, 127, 128, 300]))
        version = st.tuples(st.just(dead), st.binary(min_size=size, max_size=size))
    else:
        key = st.binary(min_size=1, max_size=4)
        version = st.tuples(st.booleans(), st.binary(max_size=300))
    table = draw(st.dictionaries(
        key, st.lists(version, min_size=1, max_size=3), min_size=1, max_size=14))
    return _entries_of(table, 100)[:40]


def _one_shape(entries):
    """What the bytes must decide: one ``klen || vlen || type`` prefix
    (canonical varints) and so one stride, or not."""
    return len({(len(key), len(value), value_type)
                for key, _seq, value_type, value in entries}) == 1


class TestBlockSearchedInPlace:
    @settings(max_examples=80, deadline=None)
    @given(_versioned_entries(), _FORMATS)
    def test_lookup_equals_decode_everything_and_bisect(self, entries, fmt):
        raw = _plain_block(fmt, entries)
        block = DataBlock.decode(fmt, raw)
        decoded = _reference_block(fmt, raw)
        assert decoded == entries
        assert block.count == len(entries)
        # Which representation: chosen by the bytes, and only by them.
        assert (block.entries is None) == _one_shape(entries)
        assert block.entries in (None, entries)
        keys = {entry[0] for entry in entries}
        probes = (keys | {key + b"\x00" for key in keys}   # between, after the last
                  | {key[:-1] for key in keys}              # before, b"" before the first
                  | {b"\xff" * 5})
        for probe in sorted(probes):
            for snapshot in _snapshots_around(entries):
                assert block.lookup(probe, snapshot) == \
                    _reference_lookup(decoded, probe, snapshot), (probe, snapshot)

    @settings(max_examples=40, deadline=None)
    @given(_versioned_entries(), _FORMATS, st.sampled_from([256, 1024, 4096]))
    def test_reader_get_equals_the_reference_and_the_model(self, entries, fmt,
                                                           block_size):
        """Across block cuts too: blocks of two or three entries put the
        versions of one key on either side of most cuts."""
        fmt = dataclasses.replace(fmt, block_size=block_size)
        env = Environment()
        fs = SimFS(env, BlockDevice(env), PageCache(1 << 24))

        def scenario():
            handle, (info,) = yield from _build_back_to_back(fs, fmt, 0, [entries])
            reader = yield from SSTableReader.open(
                0, handle, fmt, info.base_offset, info.length)
            for key in sorted({entry[0] for entry in entries}):
                for snapshot in _snapshots_around(
                        [entry for entry in entries if entry[0] == key]):
                    got = yield from reader.get(key, snapshot)
                    reference = yield from _reference_get(reader, key, snapshot)
                    assert got == reference == _visible(entries, key, snapshot), \
                        (key, snapshot)

        env.run_until(env.process(scenario()))

    @pytest.mark.parametrize("fmt", [LEVELDB_FORMAT, ROCKSDB_FORMAT],
                             ids=["leveldb", "rocksdb"])
    def test_snapshot_on_either_side_of_every_block_cut(self, fs, run, fmt):
        """Nine keys, then one key in versions 50..31 (in-place blocks),
        then keys whose middle version is a tombstone (fallback blocks):
        the builder cuts on bytes, so runs of one key straddle cuts."""
        entries = [(b"a%02d" % i, i + 1, VALUE_TYPE_VALUE, b"x" * 256)
                   for i in range(9)]
        entries += [(b"k", seq, VALUE_TYPE_VALUE, b"v%02d" % seq + b"y" * 253)
                    for seq in range(50, 30, -1)]
        for i in range(14):
            top = 100 + 3 * i
            size = 150 + 41 * i % 200  # so cuts fall at every place in a triple
            entries += [(b"z%02d" % i, top, VALUE_TYPE_VALUE, b"n" * size),
                        (b"z%02d" % i, top - 1, VALUE_TYPE_DELETION, b""),
                        (b"z%02d" % i, top - 2, VALUE_TYPE_VALUE, b"o" * size)]
        _info, reader = build_table(fs, run, entries, fmt)

        def scenario():
            blocks = []
            for _last_key, off, length in reader.index:
                raw = yield from reader.handle.read(reader.base_offset + off, length)
                blocks.append(_reference_block(fmt, raw))
            straddled = set()
            for left, right in zip(blocks, blocks[1:]):
                (key, visible_left, *_), (after, visible_right, *_) = left[-1], right[0]
                if key == after:
                    straddled.add(key[:1])
                    for snapshot in (visible_left, visible_right):
                        got = yield from reader.get(key, snapshot)
                        assert got == _visible(entries, key, snapshot), (key, snapshot)
            assert straddled == {b"k", b"z"}  # in-place and fallback blocks alike
            for key in sorted({entry[0] for entry in entries}):
                for snapshot in _snapshots_around(
                        [entry for entry in entries if entry[0] == key]):
                    got = yield from reader.get(key, snapshot)
                    assert got == _visible(entries, key, snapshot), (key, snapshot)

        run(scenario())


# -- corruption matrix: every region x {bit flip, truncation, hostile} -------

_FOOTER_FIELDS = ("index_off", "index_len", "bloom_off", "bloom_len",
                  "num_entries", "magic")


def _crc_block(payload, count):
    return payload + encode_fixed32(count) + encode_fixed32(crc32(payload))


def _honest_index(last_keys, blocks):
    """The index the builder writes: blocks back to back from offset 0."""
    entries, off = [], 0
    for key, block in zip(last_keys, blocks):
        entries.append((key, off, len(block)))
        off += len(block)
    return entries


def _assemble(fmt, blocks, last_keys, bloom_raw, num_entries,
              index_entries=None, index_count=None, index_tail=b"", footer=()):
    """A table from its parts, every CRC valid; the keyword overrides
    plant hostile-but-checksummed index entries and footer fields."""
    body = b"".join(blocks)
    if index_entries is None:
        index_entries = _honest_index(last_keys, blocks)
    payload = b"".join(
        encode_varint(len(key)) + key + encode_varint(off) + encode_varint(size)
        + b"\x00" * fmt.index_entry_overhead
        for key, off, size in index_entries) + index_tail
    index_raw = _crc_block(
        payload, len(index_entries) if index_count is None else index_count)
    fields = dict(index_off=len(body), index_len=len(index_raw),
                  bloom_off=len(body) + len(index_raw), bloom_len=len(bloom_raw),
                  num_entries=num_entries, magic=_MAGIC)
    fields.update(footer)
    footer_payload = b"".join(encode_fixed64(fields[name])
                              for name in _FOOTER_FIELDS)
    return (body + index_raw + bloom_raw + footer_payload
            + encode_fixed32(crc32(footer_payload)))


class _Matrix:
    """One shared file — junk prefix, then three tables — whose middle,
    multi-block table every case damages in one place."""

    PREFIX = 777
    fmt = LEVELDB_FORMAT

    def __init__(self):
        env = Environment()
        fs = SimFS(env, BlockDevice(env), PageCache(1 << 24))
        tables = [simple_entries(40, b"a"), simple_entries(90, b"m"),
                  simple_entries(40, b"z")]
        handle, infos = env.run_until(env.process(
            _build_back_to_back(fs, self.fmt, self.PREFIX, tables)))
        self.file = bytes(handle._file.data)
        info = infos[1]
        self.base, self.length = info.base_offset, info.length
        self.num_entries = info.num_entries
        table = self.table = self.file[self.base:self.base + self.length]
        body = self.length - FOOTER_SIZE
        self.bloom_off = bloom_off = body - info.bloom_size
        self.index_off = index_off = bloom_off - info.index_size
        self.index_len, self.bloom_len = info.index_size, info.bloom_size
        reader = env.run_until(env.process(SSTableReader.open(
            0, handle, self.fmt, self.base, self.length)))
        self.last_keys = [key for key, _off, _size in reader.index]
        self.blocks = [table[off:off + size] for _key, off, size in reader.index]
        assert len(self.blocks) >= 3
        self.bloom_raw = table[bloom_off:body]
        #: name -> (start, end) inside the table; what a case aims at.
        self.regions = {}
        for i, (_key, off, size) in enumerate(reader.index):
            self._trailered(f"block{i}", off, off + size)
        self._trailered("index", index_off, bloom_off)
        self.regions["bloom.blob"] = (bloom_off, body - 4)
        self.regions["bloom.crc"] = (body - 4, body)
        for i, name in enumerate(_FOOTER_FIELDS):
            self.regions[f"footer.{name}"] = (body + 8 * i, body + 8 * i + 8)
        self.regions["footer.crc"] = (self.length - 4, self.length)

    def _trailered(self, name, start, end):
        self.regions[f"{name}.payload"] = (start, end - 8)
        self.regions[f"{name}.count"] = (end - 8, end - 4)
        self.regions[f"{name}.crc"] = (end - 4, end)

    def with_table(self, table):
        """The file with the middle table replaced; its new extent."""
        end = self.base + self.length
        return self.file[:self.base] + table + self.file[end:], len(table)

    def assemble(self, **overrides):
        parts = dict(blocks=self.blocks, last_keys=self.last_keys,
                     bloom_raw=self.bloom_raw, num_entries=self.num_entries)
        parts.update(overrides)
        return _assemble(self.fmt, **parts)

    def cases(self):
        """``(id, file bytes, table length)`` for every planted fault."""
        table = self.table
        for name, (start, end) in self.regions.items():
            for where, at in (("first", start), ("last", end - 1)):
                flipped = bytearray(table)
                flipped[at] ^= 0x10
                yield (f"flip-{name}-{where}", *self.with_table(bytes(flipped)))
            # Bytes missing from the middle of the table: the tail shifts up.
            cut = max(1, (end - start) // 2)
            yield (f"excise-{name}", *self.with_table(
                table[:end - cut] + table[end:]))
            # The file itself ends inside the region: a short read.
            middle = self.base + (start + end) // 2
            yield f"eof-{name}", self.file[:middle], self.length
        index_off, index_len = self.index_off, self.index_len
        bloom_off, bloom_len = self.bloom_off, self.bloom_len
        hostile_footers = {
            "index_off": (1 << 40, self.length + 16, index_off + 1),
            "index_len": (0, 7, 1 << 40, index_len + 1, index_len + bloom_len),
            "bloom_off": (1 << 40, bloom_off - 1, self.length + 16),
            "bloom_len": (0, 3, 5, 1 << 40, bloom_len + 1,
                          bloom_len + FOOTER_SIZE + 100),
            "num_entries": (self.num_entries - 1, self.num_entries + 1),
            "magic": (_MAGIC ^ 1,),
        }
        for field, values in hostile_footers.items():
            for value in values:
                yield (f"hostile-footer.{field}={value}",
                       *self.with_table(self.assemble(footer={field: value})))
        # CRC-valid filters the builder never writes: read as written,
        # each would answer "absent" for keys the table holds (or never).
        bitmap = self.bloom_raw[2:-4]
        hostile_blooms = {
            "empty-bitmap": bytes([6, 10]),
            "probes=0": bytes([0, 10]) + bitmap,
            "probes=31": bytes([31, 10]) + bitmap,
        }
        for label, blob in hostile_blooms.items():
            yield (f"hostile-bloom.{label}", *self.with_table(self.assemble(
                bloom_raw=blob + encode_fixed32(crc32(blob)))))
        honest = _honest_index(self.last_keys, self.blocks)
        (k0, o0, n0), (k_last, o_last, n_last) = honest[0], honest[-1]
        hostile_indexes = {
            "first-off=1": [(k0, 1, n0)] + honest[1:],
            "last-len-into-neighbour": honest[:-1] + [(k_last, o_last, n_last + 4096)],
            "last-off=2^40": honest[:-1] + [(k_last, 1 << 40, n_last)],
            "len=7": [(k0, o0, 7)] + honest[1:],
            "len=0": [(k0, o0, 0)] + honest[1:],
            "block-skipped": honest[:1] + honest[2:],
            "block-twice": honest[:2] + honest[1:],
        }
        for label, entries in hostile_indexes.items():
            yield (f"hostile-index.{label}",
                   *self.with_table(self.assemble(index_entries=entries)))
        yield ("hostile-index.count+1",
               *self.with_table(self.assemble(index_count=len(honest) + 1)))
        yield ("hostile-index.count-1",
               *self.with_table(self.assemble(index_count=len(honest) - 1)))
        yield ("hostile-index.trailing-bytes",
               *self.with_table(self.assemble(index_tail=b"\x00\x00")))
        payload, count = self.blocks[1][:-8], decode_fixed32(
            self.blocks[1], len(self.blocks[1]) - 8)
        hostile_blocks = {
            "klen=127": _crc_block(b"\x7f" + payload[1:], count),
            "endless-varint": _crc_block(b"\xff" * 12 + payload[12:], count),
            "dangling-header": _crc_block(payload + b"\x05", count),
            "dangling-varint": _crc_block(payload + b"\x05\x85", count),
            "count+1": _crc_block(payload, count + 1),
            "empty": _crc_block(b"", 0),
        }
        for label, block in hostile_blocks.items():
            blocks = [self.blocks[0], block] + self.blocks[2:]
            yield (f"hostile-block1.{label}",
                   *self.with_table(self.assemble(blocks=blocks)))


    def block_cases(self):
        """``(id, raw block, raises)``: one data block as a point read
        loads it, damaged or hostile — planted in ``blocks[1]``, which
        is one shape throughout and searched in place, and in
        ``blocks[0]``, where ``value-9`` and ``value-10`` differ in
        length and the full decoder runs."""
        for which, label in ((1, "in-place"), (0, "decoded")):
            raw = self.blocks[which]
            payload, count = raw[:-8], decode_fixed32(raw, len(raw) - 8)
            entries = _reference_block(self.fmt, raw)
            assert _one_shape(entries) == (which == 1)
            sizes = [len(_plain_entry(self.fmt, *entry)) for entry in entries]
            third = sum(sizes[:3])  # entry 3: klen, vlen, type at +0, +1, +2

            def flipped(at, mask=0x10, raw=raw):
                return raw[:at] + bytes([raw[at] ^ mask]) + raw[at + 1:]

            def hostile(at, byte, payload=payload, count=count):
                return _crc_block(payload[:at] + bytes([byte]) + payload[at + 1:],
                                  count)

            damaged = {
                "flip-payload": flipped(len(payload) // 2),
                "flip-count": flipped(len(raw) - 8, 0x01),
                "flip-crc": flipped(len(raw) - 1),
                "truncated-to-7": raw[:7],
                "truncated-mid-payload": raw[:len(raw) // 2],
                "truncated-by-1": raw[:-1],
                # CRC-valid from here on: only the layout checks can object.
                "count+1": _crc_block(payload, count + 1),
                "count-1": _crc_block(payload, count - 1),
                "count=0": _crc_block(payload, 0),
                "last-entry-missing": _crc_block(payload[:-sizes[-1]], count),
                # Every header prefix is there, in place and the same:
                # only count x stride == len can tell (or a full decode).
                "last-byte-missing": _crc_block(payload[:-1], count),
                "one-entry-more": _crc_block(payload + payload[:sizes[0]], count),
                "five-bytes-more": _crc_block(payload + bytes(5), count),
                "entry0-klen-1": hostile(0, payload[0] - 1),
                "entry3-klen-1": hostile(third, payload[third] - 1),
                "entry3-vlen+1": hostile(third + 1, payload[third + 1] + 1),
            }
            for name, block in damaged.items():
                yield f"{label}.{name}", block, True
            # A well-formed block that merely is not what the builder
            # wrote: nobody raises, everybody must read it the same way.
            yield f"{label}.undamaged", raw, False
            yield (f"{label}.entry3-is-a-tombstone",
                   hostile(third + 2, VALUE_TYPE_DELETION), False)
            yield (f"{label}.one-entry-more-counted",
                   _crc_block(payload + payload[-sizes[-1]:], count + 1), False)


_MATRIX = _Matrix()
_MATRIX_CASES = [pytest.param(data, length, id=label)
                 for label, data, length in _MATRIX.cases()]
_BLOCK_CASES = [pytest.param(raw, raises, id=label)
                for label, raw, raises in _MATRIX.block_cases()]
#: Damage to footer, index or bloom — what ``SSTableReader.open`` reads.
#: (The footer's entry count is only checkable against decoded blocks.)
_METADATA_CASES = [case for case in _MATRIX_CASES
                   if "block" not in case.id.split(".")[0]
                   and "num_entries=" not in case.id]


class TestCorruptionMatrix:
    def test_assembler_reproduces_the_builder(self):
        assert _MATRIX.assemble() == _MATRIX.table

    def _decode(self, reader_fn, data, length):
        env = Environment()
        fs = SimFS(env, BlockDevice(env), PageCache(1 << 24))

        def scenario():
            handle = yield from fs.create("t.cf")
            handle.append(data)
            recording = _RecordingHandle(handle)
            try:
                yield from reader_fn(recording, _MATRIX.fmt, _MATRIX.base, length)
            finally:
                # Typed error or not, no request may leave the table's extent.
                for offset, size, _sequential in recording.reads:
                    assert _MATRIX.base <= offset
                    assert offset + size <= _MATRIX.base + length
        env.run_until(env.process(scenario()))

    def test_undamaged_table_decodes_both_ways(self):
        self._decode(read_table_extent, _MATRIX.file, _MATRIX.length)
        self._decode(_reference_read_all, _MATRIX.file, _MATRIX.length)

    @pytest.mark.parametrize("data,length", _MATRIX_CASES)
    def test_every_fault_is_a_corruption_error(self, data, length):
        """CorruptionError — never IndexError, struct.error or ValueError —
        from the extent decoder and from the per-block reader alike."""
        with pytest.raises(CorruptionError):
            self._decode(read_table_extent, data, length)
        with pytest.raises(CorruptionError):
            self._decode(_reference_read_all, data, length)

    @pytest.mark.parametrize("data,length", _METADATA_CASES)
    def test_open_alone_rejects_metadata_faults(self, data, length):
        """Footer, index and bloom damage never gets past the TableCache
        miss path, so a point read cannot see a half-valid reader."""
        def open_only(handle, fmt, base_offset, length):
            yield from SSTableReader.open(0, handle, fmt, base_offset, length)

        with pytest.raises(CorruptionError):
            self._decode(open_only, data, length)

    @pytest.mark.parametrize("raw,raises", _BLOCK_CASES)
    def test_data_block_raises_exactly_when_the_reference_does(self, raw, raises):
        """``DataBlock.decode`` — whichever representation the bytes pick
        — against the plain decoder: ``CorruptionError`` from both or
        from neither, and then the same answer to every lookup."""
        fmt = _MATRIX.fmt
        if raises:
            with pytest.raises(CorruptionError):
                _reference_block(fmt, raw)
            with pytest.raises(CorruptionError):
                DataBlock.decode(fmt, raw)
            return
        entries = _reference_block(fmt, raw)
        block = DataBlock.decode(fmt, raw)
        assert (block.entries is None) == _one_shape(entries)
        for key in sorted({entry[0] for entry in entries}):
            for snapshot in _snapshots_around(entries):
                assert block.lookup(key, snapshot) == \
                    _reference_lookup(entries, key, snapshot), (key, snapshot)

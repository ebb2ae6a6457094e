"""Unit tests for the WAL, write batches, and the cache hierarchy."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.lsm import LogWriter, Options, WriteBatch, read_log_records
from repro.lsm.cache import BlockCache, LRUCache, TableCache
from repro.lsm.codec import VALUE_TYPE_DELETION, VALUE_TYPE_VALUE
from repro.lsm.sstable import SSTableBuilder


class TestWriteBatch:
    def test_roundtrip(self):
        batch = WriteBatch()
        batch.put(b"a", b"1")
        batch.delete(b"b")
        batch.put(b"c", b"3")
        first_seq, decoded = WriteBatch.decode(batch.encode(77))
        assert first_seq == 77
        assert decoded.ops == [(VALUE_TYPE_VALUE, b"a", b"1"),
                               (VALUE_TYPE_DELETION, b"b", b""),
                               (VALUE_TYPE_VALUE, b"c", b"3")]

    def test_len_and_size(self):
        batch = WriteBatch()
        batch.put(b"key", b"value")
        assert len(batch) == 1
        assert batch.byte_size >= 8

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.booleans(),
                              st.binary(min_size=1, max_size=32),
                              st.binary(max_size=64)), max_size=50))
    def test_roundtrip_property(self, ops):
        def resum(batch):
            return sum(len(k) + len(v) + 8 for _t, k, v in batch.ops)

        batch = WriteBatch()
        for is_put, key, value in ops:
            if is_put:
                batch.put(key, value)
            else:
                batch.delete(key)
            assert batch.byte_size == resum(batch)
        _seq, decoded = WriteBatch.decode(batch.encode(1))
        assert decoded.byte_size == resum(decoded) == batch.byte_size
        merged = WriteBatch()
        for part in (batch, decoded, WriteBatch()):
            merged.extend(part)
            assert merged.byte_size == resum(merged)
        assert len(decoded.ops) == len(ops)
        for (is_put, key, value), (vt, dk, dv) in zip(ops, decoded.ops):
            assert dk == key
            if is_put:
                assert vt == VALUE_TYPE_VALUE and dv == value
            else:
                assert vt == VALUE_TYPE_DELETION


class TestLogWriterReader:
    def test_records_roundtrip(self, fs, run):
        def scenario():
            handle = yield from fs.create("wal")
            writer = LogWriter(handle)
            for i in range(10):
                writer.append(b"record-%d" % i)
            data = yield from handle.read(0, handle.size)
            return list(read_log_records(data))

        records = run(scenario())
        assert records == [b"record-%d" % i for i in range(10)]

    def test_torn_tail_stops_cleanly(self, fs, run):
        def scenario():
            handle = yield from fs.create("wal")
            writer = LogWriter(handle)
            writer.append(b"good-one")
            writer.append(b"good-two")
            data = yield from handle.read(0, handle.size)
            return data

        data = run(scenario())
        torn = data[:-3]  # drop part of the last record
        assert list(read_log_records(torn)) == [b"good-one"]

    def test_corrupt_record_stops(self, fs, run):
        def scenario():
            handle = yield from fs.create("wal")
            writer = LogWriter(handle)
            writer.append(b"first")
            writer.append(b"second")
            writer.append(b"third")
            data = bytearray((yield from handle.read(0, handle.size)))
            return data

        data = run(scenario())
        # Flip a byte inside the second record's payload.
        data[8 + 5 + 8 + 2] ^= 0xFF
        records = list(read_log_records(bytes(data)))
        assert records == [b"first"]

    def test_zeroed_region_stops(self):
        assert list(read_log_records(b"\x00" * 64)) == []


class TestLRUCache:
    def test_get_put(self):
        cache = LRUCache(3, by_bytes=False)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("b") is None

    def test_count_eviction_order(self):
        cache = LRUCache(2, by_bytes=False)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # promote a
        cache.put("c", 3)       # evict b
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_byte_capacity(self):
        cache = LRUCache(100, by_bytes=True)
        cache.put("a", "x", charge=60)
        cache.put("b", "y", charge=60)  # evicts a
        assert cache.get("a") is None
        assert cache.get("b") == "y"
        assert cache.charged == 60

    def test_replace_updates_charge(self):
        cache = LRUCache(100, by_bytes=True)
        cache.put("a", "x", charge=60)
        cache.put("a", "x2", charge=10)
        assert cache.charged == 10

    def test_remove(self):
        cache = LRUCache(10, by_bytes=False)
        cache.put("a", 1)
        cache.remove("a")
        assert cache.get("a") is None

    def test_hit_ratio(self):
        cache = LRUCache(10, by_bytes=False)
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        assert cache.hit_ratio == pytest.approx(0.5)


class TestTableCache:
    def _build(self, fs, run, options, name="db/000001.ldb", uid=1):
        def scenario():
            handle = yield from fs.create(name)
            builder = SSTableBuilder(handle, options.table_format)
            for i in range(100):
                builder.add(b"k%04d" % i, i + 1, VALUE_TYPE_VALUE, b"v")
            info = builder.finish()
            yield from handle.fsync()
            return info

        return run(scenario())

    def test_miss_opens_then_hit_is_free(self, fs, device, run):
        options = Options(max_open_files=8)
        info = self._build(fs, run, options)
        cache = TableCache(fs, options)

        def find():
            return (yield from cache.find_table(1, "db/000001.ldb",
                                                info.base_offset, info.length))

        run(find())
        opens_after_miss = fs.stats.num_opens
        reader = run(find())
        assert fs.stats.num_opens == opens_after_miss  # hit: no reopen
        assert cache.hits == 1 and cache.misses == 1
        assert reader.num_entries == 100

    def test_capacity_counted_in_tables(self, fs, run):
        """§4.3.1: TableCache capacity is a table count, not bytes."""
        options = Options(max_open_files=2)
        cache = TableCache(fs, options)
        infos = []
        for uid in range(3):
            infos.append(self._build(fs, run, options,
                                     name=f"db/{uid:06d}.ldb", uid=uid))

        def find(uid):
            return (yield from cache.find_table(uid, f"db/{uid:06d}.ldb",
                                                infos[uid].base_offset,
                                                infos[uid].length))

        run(find(0))
        run(find(1))
        run(find(2))  # evicts table 0
        assert len(cache) == 2
        misses_before = cache.misses
        run(find(0))  # must re-open (and re-read the index block)
        assert cache.misses == misses_before + 1

    def test_miss_cost_includes_index_read(self, fs, device, run):
        """§2.6: the TableCache miss penalty is the index block read."""
        options = Options(max_open_files=4)
        info = self._build(fs, run, options)
        cache = TableCache(fs, options)
        fs.page_cache.drop_all()  # cold cache: the build left pages warm
        read_before = device.stats.bytes_read

        def find():
            return (yield from cache.find_table(1, "db/000001.ldb",
                                                info.base_offset, info.length))

        run(find())
        assert device.stats.bytes_read > read_before
        assert cache.index_bytes_loaded > 0

    def test_evict(self, fs, run):
        options = Options(max_open_files=4)
        info = self._build(fs, run, options)
        cache = TableCache(fs, options)

        def find():
            return (yield from cache.find_table(1, "db/000001.ldb",
                                                info.base_offset, info.length))

        run(find())
        cache.evict(1)
        misses = cache.misses
        run(find())
        assert cache.misses == misses + 1


class TestBlockCache:
    def test_stores_decoded_blocks_by_bytes(self):
        cache = BlockCache(1000)
        cache.put((1, 0), "block-a", 600)
        cache.put((1, 4096), "block-b", 600)  # evicts block-a
        assert cache.get((1, 0)) is None
        assert cache.get((1, 4096)) == "block-b"

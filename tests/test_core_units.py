"""Unit tests for BoLT's building blocks in isolation."""

import pytest

from repro.lsm.sink import CompactionFileSink, container_name
from repro.lsm.cache import FileDescriptorCache


class TestContainerName:
    def test_format(self):
        assert container_name("db", 42) == "db/000042.cf"


class TestCompactionFileSink:
    def test_lazy_creation(self, fs, run):
        sink = CompactionFileSink(fs, "db", 7)
        assert not fs.exists("db/000007.cf")

        def scenario():
            yield from sink.seal()  # no outputs: no file, no barrier

        run(scenario())
        assert not fs.exists("db/000007.cf")
        assert fs.stats.num_barrier_calls == 0

    def test_all_tables_share_the_file(self, fs, run):
        sink = CompactionFileSink(fs, "db", 7)

        def scenario():
            handles = []
            for table_number in (100, 101, 102):
                handle, name = yield from sink.next_handle(table_number)
                handle.append(b"table-%d" % table_number)
                handles.append((handle, name))
            yield from sink.seal()
            return handles

        handles = run(scenario())
        names = {name for _h, name in handles}
        assert names == {"db/000007.cf"}
        assert sink.tables_written == 3
        assert fs.stats.num_barrier_calls == 1  # ONE fsync for all three
        assert fs.file_size("db/000007.cf") == sum(
            len(b"table-%d" % n) for n in (100, 101, 102))

    def test_seal_fsyncs_once_regardless_of_table_count(self, fs, run):
        sink = CompactionFileSink(fs, "db", 9)

        def scenario():
            for table_number in range(20):
                handle, _name = yield from sink.next_handle(table_number)
                handle.append(b"x" * 1000)
            yield from sink.seal()

        run(scenario())
        assert fs.stats.num_barrier_calls == 1


class TestFileDescriptorCache:
    def test_hit_skips_metadata_op(self, fs, device, run):
        def setup():
            yield from fs.create("db/000001.cf")

        run(setup())
        cache = FileDescriptorCache(fs, capacity=4)

        def open_twice():
            first = yield from cache.open("db/000001.cf")
            ops_after_first = device.stats.num_metadata_ops
            second = yield from cache.open("db/000001.cf")
            return first, second, ops_after_first

        first, second, ops_after_first = run(open_twice())
        assert first is second
        assert device.stats.num_metadata_ops == ops_after_first
        assert cache.hits == 1 and cache.misses == 1

    def test_capacity_evicts_lru(self, fs, run):
        def setup():
            for i in range(3):
                yield from fs.create(f"db/{i}.cf")

        run(setup())
        cache = FileDescriptorCache(fs, capacity=2)

        def scenario():
            yield from cache.open("db/0.cf")
            yield from cache.open("db/1.cf")
            yield from cache.open("db/2.cf")   # evicts 0.cf
            yield from cache.open("db/0.cf")   # miss again
            return cache.misses

        assert run(scenario()) == 4

    def test_evict(self, fs, run):
        def setup():
            yield from fs.create("db/x.cf")

        run(setup())
        cache = FileDescriptorCache(fs, capacity=4)

        def scenario():
            yield from cache.open("db/x.cf")
            yield from cache.evict("db/x.cf")
            yield from cache.open("db/x.cf")
            return cache.misses

        assert run(scenario()) == 2

    def test_hit_ratio(self, fs, run):
        def setup():
            yield from fs.create("db/y.cf")

        run(setup())
        cache = FileDescriptorCache(fs, capacity=4)

        def scenario():
            for _ in range(4):
                yield from cache.open("db/y.cf")

        run(scenario())
        assert cache.hit_ratio == pytest.approx(0.75)

"""Qualitative paper-shape assertions (DESIGN.md §4).

These are the reproduction's acceptance tests: small-scale versions of
the relationships the paper's figures report.  They assert *orderings*
("who wins") and generous bands around factors, not absolute numbers —
the substrate is a simulator, not the authors' testbed.

The module-level results are computed once (loads are seconds each) and
shared across tests.
"""

import pytest

from repro.bench import BenchConfig, SYSTEMS, new_stack, open_engine
from repro.bench.harness import load_database
from repro.engines import bolt_options, leveldb_options

#: The default bench sizing: 20k records -> ~20+ MemTable flushes, data
#: reaching level 4, which is deep enough for steady-state compaction.
CONFIG = BenchConfig()


def load_one(system_key, options=None, config=CONFIG):
    stack = new_stack(config)
    db = open_engine(stack, SYSTEMS[system_key], config, options)
    proc = stack.env.process(load_database(stack, db, config))
    result, _counter = stack.env.run_until(proc)
    db.close_sync()
    return result, db, stack


@pytest.fixture(scope="module")
def loads():
    """Load-A results for every system, computed once."""
    results = {}
    for key in ("leveldb", "lvl64mb", "hyperleveldb", "pebblesdb",
                "rocksdb", "bolt", "hyperbolt"):
        results[key] = load_one(key)
    return results


class TestFig4Shapes:
    def test_bigger_sstables_fewer_fsyncs_and_faster(self):
        """Fig 4: fsync count drops ~linearly with SSTable size and the
        write path speeds up."""
        results = {}
        for size_mb in (2, 8, 32):
            options = leveldb_options(CONFIG.scale).copy(
                sstable_size=max(4096, size_mb * (1 << 20) // CONFIG.scale))
            results[size_mb], _db, _stack = load_one("leveldb", options)
        assert (results[2].fsync_calls > results[8].fsync_calls
                > results[32].fsync_calls)
        assert results[32].throughput > results[2].throughput


class TestFig11Shapes:
    def test_group_size_monotonically_cuts_fsyncs(self):
        counts = []
        for group_mb in (4, 16, 64):
            options = bolt_options(
                CONFIG.scale, settled=False, fd_cache=False,
                group_bytes=group_mb * (1 << 20))
            result, _db, _stack = load_one("bolt", options)
            counts.append(result.fsync_calls)
        assert counts[0] > counts[1] > counts[2]

    def test_bolt_full_beats_leveldb_on_fsyncs(self, loads):
        bolt, _d, _s = loads["bolt"]
        stock, _d, _s = loads["leveldb"]
        assert bolt.fsync_calls < stock.fsync_calls / 5


class TestHeadlineThroughput:
    """The paper's banner orderings on write-only Load A: BoLT 3.24x
    LevelDB, HyperBoLT 1.44x HyperLevelDB, Hyper ~4x Level, LVL64MB
    2.75x Level, PebblesDB best overall.  We assert direction and a
    generous lower band on the factors."""

    def test_bolt_much_faster_than_leveldb(self, loads):
        speedup = loads["bolt"][0].throughput / loads["leveldb"][0].throughput
        assert speedup > 1.4

    def test_hyperbolt_faster_than_hyperleveldb(self, loads):
        assert (loads["hyperbolt"][0].throughput
                > loads["hyperleveldb"][0].throughput)

    def test_hyperleveldb_faster_than_leveldb(self, loads):
        assert (loads["hyperleveldb"][0].throughput
                > 1.3 * loads["leveldb"][0].throughput)

    def test_lvl64mb_faster_than_stock(self, loads):
        assert (loads["lvl64mb"][0].throughput
                > 1.3 * loads["leveldb"][0].throughput)

    def test_bolt_beats_lvl64mb(self, loads):
        """§4.3.1: BoLT is ~17% over LVL64MB — small logical tables with
        one barrier beat big physical tables."""
        assert (loads["bolt"][0].throughput
                >= 0.95 * loads["lvl64mb"][0].throughput)

    def test_pebblesdb_wins_write_only(self, loads):
        """§4.3.1: PebblesDB's write-only throughput beats every
        LevelDB-derived system including BoLT (it skips merges)."""
        pebbles = loads["pebblesdb"][0].throughput
        assert pebbles > loads["leveldb"][0].throughput
        assert pebbles > loads["hyperleveldb"][0].throughput
        assert pebbles > loads["bolt"][0].throughput

    def test_barrier_time_is_the_mechanism(self, loads):
        """§6: BoLT's gain comes from eliminating barrier time — the
        device spends far less time in fsync-induced drains/flushes."""
        bolt_barrier = loads["bolt"][2].device.stats.barrier_time
        stock_barrier = loads["leveldb"][2].device.stats.barrier_time
        assert bolt_barrier < stock_barrier / 2


class TestWriteAmplification:
    def test_settled_compaction_reduces_bytes(self):
        """Fig 12 inset: +STL writes fewer total bytes (paper: -9.53%)."""
        with_stl, _d, _s = load_one("bolt", bolt_options(
            CONFIG.scale, settled=True, fd_cache=False))
        without, _d, _s = load_one("bolt", bolt_options(
            CONFIG.scale, settled=False, fd_cache=False))
        assert with_stl.bytes_written < without.bytes_written

    def test_bolt_writes_fewer_bytes_than_leveldb(self, loads):
        """§4.3.1: BoLT decreases total bytes written (paper: -16%)."""
        assert (loads["bolt"][0].bytes_written
                < loads["leveldb"][0].bytes_written)

    def test_write_amplification_sane(self, loads):
        for key, (result, _db, _stack) in loads.items():
            assert 1.0 < result.write_amplification < 40.0, key


class TestFormatEffect:
    def test_rocksdb_writes_fewer_bytes_for_small_records(self):
        """Fig 15(c): with 100-byte records RocksDB's compact record
        format writes fewer total bytes than BoLT."""
        small = CONFIG.copy(value_size=100, record_count=12_000)
        rocks, _d, _s = load_one("rocksdb", config=small)
        bolt, _d, _s = load_one("bolt", config=small)
        assert rocks.bytes_written < bolt.bytes_written

    def test_format_gap_narrows_for_large_records(self, fs, run):
        """§4.3.3: per-record on-disk size — 223 vs 141 bytes at 100 B
        values (58% apart) but only ~7% apart at 1 KB values."""
        from repro.lsm import LEVELDB_FORMAT, ROCKSDB_FORMAT
        from repro.lsm.codec import VALUE_TYPE_VALUE
        from repro.lsm.sstable import SSTableBuilder

        def per_record(fmt, value_size, name):
            def scenario():
                handle = yield from fs.create(name)
                builder = SSTableBuilder(handle, fmt)
                for i in range(400):
                    builder.add(b"%023d" % i, i + 1, VALUE_TYPE_VALUE,
                                b"v" * value_size)
                return builder.finish().length / 400

            return run(scenario())

        gap_small = (per_record(LEVELDB_FORMAT, 100, "a")
                     / per_record(ROCKSDB_FORMAT, 100, "b"))
        gap_large = (per_record(LEVELDB_FORMAT, 1024, "c")
                     / per_record(ROCKSDB_FORMAT, 1024, "d"))
        assert gap_small > 1.35
        assert gap_large < 1.15

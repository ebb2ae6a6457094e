"""Behavioural tests for the four baseline engines."""

import random
import zlib

import pytest

from repro.bench.harness import (ALL_SYSTEMS, BenchConfig, Stack,
                                 open_engine)
from repro.engines import (
    HyperLevelDBEngine,
    PebblesDBEngine,
    RocksDBEngine,
    hyperleveldb_options,
    leveldb_64mb_options,
    leveldb_options,
    pebblesdb_options,
    rocksdb_options,
)
from repro.lsm import LSMEngine, ROCKSDB_FORMAT
from repro.sim import Environment
from repro.storage import BlockDevice, PageCache, SimFS

SCALE = 1024


def fresh_stack():
    env = Environment()
    fs = SimFS(env, BlockDevice(env), PageCache(16 << 20))
    return env, fs


def load_random(env, db, n=2500, keyspace=1200, seed=11, value_size=80):
    rng = random.Random(seed)
    model = {}

    def writer():
        for i in range(n):
            key = b"user%08d" % rng.randrange(keyspace)
            value = b"v" * value_size + b"%d" % i
            model[key] = value
            yield from db.put(key, value)
        yield from db.flush_all()

    env.run_until(env.process(writer()))
    return model


def verify_model(env, db, model):
    def reader():
        for key, value in model.items():
            got = yield from db.get(key)
            assert got == value, key

    env.run_until(env.process(reader()))


ALL_ENGINES = [
    (LSMEngine, leveldb_options),
    (HyperLevelDBEngine, hyperleveldb_options),
    (RocksDBEngine, rocksdb_options),
    (PebblesDBEngine, pebblesdb_options),
]


@pytest.mark.parametrize("engine_cls,factory", ALL_ENGINES,
                         ids=lambda p: getattr(p, "name", ""))
class TestAllBaselinesCorrect:
    def test_read_your_writes(self, engine_cls, factory):
        env, fs = fresh_stack()
        db = engine_cls.open_sync(env, fs, factory(SCALE), "db")
        model = load_random(env, db)
        verify_model(env, db, model)

    def test_deletes_respected(self, engine_cls, factory):
        env, fs = fresh_stack()
        db = engine_cls.open_sync(env, fs, factory(SCALE), "db")
        model = load_random(env, db, n=1200)
        victims = list(model)[::5]

        def deleter():
            for key in victims:
                yield from db.delete(key)
            yield from db.flush_all()

        env.run_until(env.process(deleter()))

        def check():
            for key in victims:
                got = yield from db.get(key)
                assert got is None, key

        env.run_until(env.process(check()))

    def test_scan_matches_model(self, engine_cls, factory):
        env, fs = fresh_stack()
        db = engine_cls.open_sync(env, fs, factory(SCALE), "db")
        model = load_random(env, db, n=1500)
        expected = sorted(model.items())[:25]
        assert db.scan_sync(b"user", 25) == expected

    def test_recovery(self, engine_cls, factory):
        env, fs = fresh_stack()
        db = engine_cls.open_sync(env, fs, factory(SCALE), "db")
        model = load_random(env, db, n=800)
        fs.crash(survive_probability=0.0)
        db2 = engine_cls.open_sync(env, fs, factory(SCALE), "db")
        verify_model(env, db2, model)


class TestHyperLevelDB:
    def test_l0_stop_disabled(self):
        assert hyperleveldb_options().enable_l0_stop is False

    def test_cheaper_write_path_than_leveldb(self):
        hyper = hyperleveldb_options()
        stock = leveldb_options()
        assert (hyper.cost_model.write_mutex_overhead
                < stock.cost_model.write_mutex_overhead)


def _picker_version():
    """Level 1 of six tables, ``(number, keys, length, next-level
    overlap bytes)``: 1 a-b 40000 50000, 2 c-d 400 0, 3 e-f 40000 100,
    4 g-h 400 0, 5 i-j 40000 0, 6 k-l 400 20000."""
    from repro.lsm.version import FileMetaData, Version
    version = Version(4)
    level1 = [(1, b"a", b"b", 40000), (2, b"c", b"d", 400),
              (3, b"e", b"f", 40000), (4, b"g", b"h", 400),
              (5, b"i", b"j", 40000), (6, b"k", b"l", 400)]
    level2 = [(11, b"a", b"b", 50000), (12, b"e", b"f", 100),
              (13, b"k", b"l", 20000)]
    for level, tables in ((1, level1), (2, level2)):
        for number, smallest, largest, length in tables:
            version.add_file(level, FileMetaData(
                number=number, container=f"{number}.ldb", offset=0,
                length=length, smallest=smallest, largest=largest))
    return version


class TestVictimPicker:
    """The one victim picker, pinned per configuration.  At 1/1024 a
    group budget is 64 KB and a logical SSTable 1 KB; the compact
    pointer after "j" makes round-robin start at table 6."""

    CASES = [
        ("leveldb", "stock", [6]),             # round-robin, one table
        ("hyperleveldb", "stock", [2]),        # least overlap, one table
        ("leveldb", "+LS", [6]),
        ("leveldb", "+GC", [6, 1, 2, 3]),      # round-robin to 64 KB
        ("leveldb", "+STL", [2, 4, 5, 3]),     # least overlap to 64 KB
        ("hyperleveldb", "+LS", [2]),
        ("hyperleveldb", "+GC", [6, 1, 2, 3]),  # a group budget wins
        ("hyperleveldb", "+STL", [2, 4, 5, 3]),
        ("leveldb", "settled-gc0", [2, 4, 5]),  # least overlap to 1 KB
    ]

    @pytest.mark.parametrize("system,stage,expected", CASES,
                             ids=[f"{c[0]}-{c[1]}" for c in CASES])
    def test_victims(self, system, stage, expected):
        from repro.engines import bolt_ablation_options, bolt_options
        if stage == "settled-gc0":
            options = bolt_options(SCALE, group_bytes=0)
        else:
            options = bolt_ablation_options(stage, SCALE, base=system)
        engine_cls = {"leveldb": LSMEngine, "hyperleveldb": HyperLevelDBEngine}[system]
        env, fs = fresh_stack()
        db = engine_cls.open_sync(env, fs, options, "db")
        db.versions.compact_pointers[1] = b"j"
        victims = db._pick_victims(_picker_version(), 1)
        assert [v.number for v in victims] == expected


class TestRocksDB:
    def test_configuration_matches_paper(self):
        options = rocksdb_options()
        assert options.sstable_size == 64 << 20
        assert options.level1_max_bytes == 256 << 20
        assert options.l0_slowdown_trigger == 20
        assert options.l0_stop_trigger == 36
        assert options.enable_seek_compaction is False
        assert options.num_compaction_threads == 2
        assert options.table_format is ROCKSDB_FORMAT

    def test_reads_bypass_writer_mutex(self):
        assert RocksDBEngine.read_lock is False
        assert LSMEngine.read_lock is True

    def test_compact_format_writes_fewer_bytes_for_small_records(self):
        """§4.3.3: for 100-byte records RocksDB writes far fewer bytes;
        for 1 KB records the two formats nearly converge."""
        def loaded_bytes(engine_cls, factory, value_size):
            env, fs = fresh_stack()
            dev_stats = fs.device.stats
            db = engine_cls.open_sync(env, fs, factory(SCALE), "db")
            load_random(env, db, n=1500, value_size=value_size)
            return dev_stats.bytes_written

        small_ldb = loaded_bytes(LSMEngine, leveldb_options, 100)
        small_rdb = loaded_bytes(RocksDBEngine, rocksdb_options, 100)
        assert small_rdb < small_ldb

    def test_parallel_compaction_workers(self):
        env, fs = fresh_stack()
        db = RocksDBEngine.open_sync(env, fs, rocksdb_options(SCALE), "db")
        assert len(db._workers) == 2
        model = load_random(env, db, n=2000)
        verify_model(env, db, model)


class TestPebblesDB:
    def test_guards_accumulate(self):
        env, fs = fresh_stack()
        db = PebblesDBEngine.open_sync(env, fs, pebblesdb_options(SCALE), "db")
        load_random(env, db, n=3000, keyspace=3000)
        total_guards = sum(len(v) for v in db.versions.guards.values())
        assert total_guards > 0

    def test_level_tables_may_overlap(self):
        """The FLSM signature: overlapping tables inside one level."""
        env, fs = fresh_stack()
        db = PebblesDBEngine.open_sync(env, fs, pebblesdb_options(SCALE), "db")
        load_random(env, db, n=4000, keyspace=2000)
        version = db.versions.current
        overlapping = False
        for level in range(1, version.num_levels):
            files = sorted(version.files[level], key=lambda f: f.smallest)
            for left, right in zip(files, files[1:]):
                if left.largest >= right.smallest:
                    overlapping = True
        # With append-only placement overlaps routinely arise.
        assert overlapping or db.stats.compactions == 0

    def test_guards_persist_across_recovery(self):
        env, fs = fresh_stack()
        db = PebblesDBEngine.open_sync(env, fs, pebblesdb_options(SCALE), "db")
        model = load_random(env, db, n=2500, keyspace=2500)
        guards_before = {level: list(keys)
                         for level, keys in db.versions.guards.items() if keys}
        fs.crash(survive_probability=1.0)
        db2 = PebblesDBEngine.open_sync(env, fs, pebblesdb_options(SCALE), "db")
        for level, keys in guards_before.items():
            assert set(keys) <= set(db2.versions.guards.get(level, []))
        verify_model(env, db2, model)

    def test_writes_fewer_compaction_bytes_than_leveldb(self):
        """PebblesDB's raison d'ĂȘtre: less write amplification."""
        def written(engine_cls, factory):
            env, fs = fresh_stack()
            db = engine_cls.open_sync(env, fs, factory(SCALE), "db")
            load_random(env, db, n=4000, keyspace=2000)
            return fs.device.stats.bytes_written

        assert (written(PebblesDBEngine, pebblesdb_options)
                < written(LSMEngine, leveldb_options))


class TestLVL64MB:
    def test_bigger_tables_fewer_fsyncs(self):
        def fsyncs(factory):
            env, fs = fresh_stack()
            db = LSMEngine.open_sync(env, fs, factory(SCALE), "db")
            load_random(env, db, n=3000, keyspace=3000)
            return fs.stats.num_barrier_calls

        assert fsyncs(leveldb_64mb_options) < fsyncs(leveldb_options)


#: Per system, as opened at scale 256: (engine name, ``read_lock``,
#: ``min_overlap_victims``, CRC-32 of ``repr(options)``).  Recorded when
#: each BoLT integration and stock LevelDB still had an engine class of
#: its own; folding them into SYSTEMS rows must not move any of it.
SYSTEM_SHAPES = {
    "leveldb": ("leveldb", True, False, 0x3904E9B5),
    "lvl64mb": ("leveldb", True, False, 0x5554C1E8),
    "hyperleveldb": ("hyperleveldb", True, True, 0x771F206D),
    "pebblesdb": ("pebblesdb", True, False, 0x339A5019),
    "rocksdb": ("rocksdb", False, False, 0xD221DE12),
    "bolt": ("bolt", True, False, 0xDD53535E),
    "hyperbolt": ("hyperbolt", True, True, 0xD19CBB34),
    "rocksbolt": ("rocksbolt", False, False, 0x4B5AAFC1),
}


class TestSystemRows:
    def test_every_system_is_recorded(self):
        assert set(SYSTEM_SHAPES) == set(ALL_SYSTEMS)

    @pytest.mark.parametrize("key", sorted(SYSTEM_SHAPES))
    def test_row_opens_the_recorded_engine(self, key):
        spec = ALL_SYSTEMS[key]
        env, fs = fresh_stack()
        db = open_engine(Stack(env, fs.device, fs), spec, BenchConfig(scale=256))
        name, read_lock, min_overlap, options_crc = SYSTEM_SHAPES[key]
        assert (db.name, db.read_lock, db.min_overlap_victims) == (
            name, read_lock, min_overlap)
        assert zlib.crc32(repr(db.options).encode()) == options_crc, db.options

    def test_pebblesdb_is_the_only_hook_overrider(self):
        def overrides(cls):
            return {name for name, value in vars(cls).items()
                    if callable(value) and hasattr(LSMEngine, name)}

        assert overrides(PebblesDBEngine) == {
            "has_pending_work", "_pick_compaction", "_may_drop_tombstones",
            "_output_cut_keys", "_finish_edit"}
        assert not overrides(HyperLevelDBEngine) | overrides(RocksDBEngine)

"""Integration tests for the base LSM engine: operations, compaction
dynamics, governors, and the read path."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import SYSTEMS
from repro.lsm import Compaction, CorruptionError, LSMEngine, Options, WriteBatch
from repro.lsm.codec import (VALUE_TYPE_DELETION, VALUE_TYPE_VALUE, crc32,
                              encode_fixed32)
from repro.lsm.sstable import _FOOTER, FOOTER_SIZE, SSTableBuilder
from repro.sim import Environment
from repro.storage import BlockDevice, PageCache, SimFS

KB = 1 << 10


def small_options(**overrides):
    base = dict(memtable_size=32 * KB, sstable_size=8 * KB,
                level1_max_bytes=32 * KB, block_cache_bytes=128 * KB,
                max_open_files=128)
    base.update(overrides)
    return Options(**base)


def fresh_db(options=None):
    env = Environment()
    fs = SimFS(env, BlockDevice(env), PageCache(16 << 20))
    db = LSMEngine.open_sync(env, fs, options or small_options(), "db")
    return env, fs, db


class TestBasicOperations:
    def test_put_get(self):
        _env, _fs, db = fresh_db()
        db.put_sync(b"key", b"value")
        assert db.get_sync(b"key") == b"value"

    def test_get_missing(self):
        _env, _fs, db = fresh_db()
        assert db.get_sync(b"nope") is None

    def test_overwrite(self):
        _env, _fs, db = fresh_db()
        db.put_sync(b"k", b"v1")
        db.put_sync(b"k", b"v2")
        assert db.get_sync(b"k") == b"v2"

    def test_delete(self):
        _env, _fs, db = fresh_db()
        db.put_sync(b"k", b"v")
        db.delete_sync(b"k")
        assert db.get_sync(b"k") is None

    def test_delete_missing_is_fine(self):
        _env, _fs, db = fresh_db()
        db.delete_sync(b"ghost")
        assert db.get_sync(b"ghost") is None

    def test_empty_value(self):
        _env, _fs, db = fresh_db()
        db.put_sync(b"k", b"")
        assert db.get_sync(b"k") == b""

    def test_large_value(self):
        _env, _fs, db = fresh_db()
        value = bytes(range(256)) * 512  # 128 KB, spans many blocks
        db.put_sync(b"big", value)
        assert db.get_sync(b"big") == value

    def test_write_batch_is_atomic_unit(self):
        env, _fs, db = fresh_db()
        batch = WriteBatch()
        batch.put(b"a", b"1")
        batch.put(b"b", b"2")
        batch.delete(b"a")
        env.run_until(env.process(db.write(batch)))
        assert db.get_sync(b"a") is None
        assert db.get_sync(b"b") == b"2"

    def test_empty_batch_noop(self):
        env, _fs, db = fresh_db()
        env.run_until(env.process(db.write(WriteBatch())))
        assert db.versions.last_sequence == 0

    def test_scan_ordered(self):
        _env, _fs, db = fresh_db()
        for i in (5, 1, 3, 2, 4):
            db.put_sync(b"k%02d" % i, b"v%d" % i)
        result = db.scan_sync(b"k02", 3)
        assert result == [(b"k02", b"v2"), (b"k03", b"v3"), (b"k04", b"v4")]

    def test_scan_skips_tombstones(self):
        _env, _fs, db = fresh_db()
        for i in range(5):
            db.put_sync(b"k%d" % i, b"v")
        db.delete_sync(b"k2")
        result = db.scan_sync(b"k0", 10)
        assert [k for k, _v in result] == [b"k0", b"k1", b"k3", b"k4"]

    def test_scan_across_memtable_and_tables(self):
        env, _fs, db = fresh_db()
        for i in range(0, 100, 2):
            db.put_sync(b"k%04d" % i, b"old")
        env.run_until(env.process(db.flush_all()))
        for i in range(1, 100, 2):
            db.put_sync(b"k%04d" % i, b"new")
        result = db.scan_sync(b"k0000", 10)
        assert [k for k, _v in result] == [b"k%04d" % i for i in range(10)]

    def test_describe(self):
        _env, _fs, db = fresh_db()
        db.put_sync(b"k", b"v")
        info = db.describe()
        assert info["engine"] == "leveldb"
        assert info["last_sequence"] == 1
        assert len(info["levels"]) == 7


class TestCompactionDynamics:
    def _load(self, db, env, n=2000, value_size=64, seed=3):
        rng = random.Random(seed)
        model = {}

        def writer():
            for i in range(n):
                key = b"user%08d" % rng.randrange(n)
                value = b"v" * value_size + b"%d" % i
                model[key] = value
                yield from db.put(key, value)
            yield from db.flush_all()

        env.run_until(env.process(writer()))
        return model

    def test_data_migrates_to_deeper_levels(self):
        env, _fs, db = fresh_db()
        self._load(db, env)
        counts = db.level_table_counts()
        assert sum(counts[1:]) > 0  # data left level 0
        assert db.stats.compactions > 0
        assert db.stats.memtable_flushes > 0

    def test_levels_stay_disjoint(self):
        env, _fs, db = fresh_db()
        self._load(db, env)
        db.versions.current.check_invariants()

    def test_all_data_readable_after_compactions(self):
        env, _fs, db = fresh_db()
        model = self._load(db, env)

        def verify():
            for key, value in model.items():
                got = yield from db.get(key)
                assert got == value, key

        env.run_until(env.process(verify()))

    def test_level_sizes_respect_limits_when_idle(self):
        env, _fs, db = fresh_db()
        self._load(db, env)
        options = db.options
        sizes = db.level_byte_sizes()
        for level in range(1, len(sizes) - 1):
            if sizes[level + 1] or sizes[level]:
                # an idle tree holds at most ~1 victim of slack per level
                assert sizes[level] <= options.max_bytes_for_level(level) * 1.5

    def test_tombstones_reclaimed_at_bottom(self):
        # l0_compaction_trigger=1 forces every flush down the tree, so
        # the final compaction reaches the base level and may drop
        # tombstones (LevelDB's IsBaseLevelForKey rule).
        env, _fs, db = fresh_db(small_options(l0_compaction_trigger=1))
        for i in range(300):
            db.put_sync(b"k%06d" % i, b"x" * 64)
        env.run_until(env.process(db.flush_all()))
        populated = db.versions.current.total_bytes()
        for i in range(300):
            db.delete_sync(b"k%06d" % i)
        env.run_until(env.process(db.flush_all()))
        assert db.versions.current.total_bytes() < populated / 2

    def test_obsolete_tables_deleted_from_fs(self):
        env, fs, db = fresh_db()
        self._load(db, env)
        live = {meta.container
                for meta in db.versions.current.live_numbers().values()}
        on_disk = {name for name in fs.listdir("db/") if name.endswith(".ldb")}
        assert on_disk == live

    def test_write_stalls_counted_under_pressure(self):
        env, _fs, db = fresh_db(small_options(
            l0_compaction_trigger=1, l0_slowdown_trigger=1,
            l0_stop_trigger=2))
        self._load(db, env, n=1500)
        assert db.stats.slowdown_events > 0

    def test_seek_compaction_triggers(self):
        options = small_options(enable_seek_compaction=True,
                                seek_compaction_divisor=1 << 30)
        env, _fs, db = fresh_db(options)
        # Two overlapping L0 tables so misses probe 2+ tables.
        for i in range(200):
            db.put_sync(b"a%06d" % i, b"v" * 64)
        env.run_until(env.process(db.flush_all()))
        # allowed_seeks floors at 100; hammer misses within the range.
        def reader():
            for i in range(250):
                yield from db.get(b"a%06d" % (i % 200))

        env.run_until(env.process(reader()))
        # Bloom filters usually answer; seek compaction needs 2+ probes
        # of real blocks, so just assert the accounting exists.
        assert db.stats.tables_probed > 0

    def test_trivial_move_skips_rewrite(self):
        env, fs, db = fresh_db()
        # Sequential keys: compactions frequently find no next-level
        # overlap, so LevelDB's trivial move must fire.
        for i in range(3000):
            db.put_sync(b"seq%08d" % i, b"v" * 64)
        env.run_until(env.process(db.flush_all()))
        assert db.stats.trivial_moves > 0


class TestGovernors:
    def test_l0_stop_blocks_until_compaction(self):
        options = small_options(l0_compaction_trigger=2,
                                l0_slowdown_trigger=2, l0_stop_trigger=3)
        env, _fs, db = fresh_db(options)
        for i in range(3000):
            db.put_sync(b"user%08d" % (i * 7919 % 3000), b"x" * 64)
        env.run_until(env.process(db.flush_all()))
        assert db.stats.stall_events > 0
        assert db.stats.stall_time > 0

    def test_disabled_governors_never_stall_on_l0(self):
        options = small_options(enable_l0_slowdown=False,
                                enable_l0_stop=False)
        env, _fs, db = fresh_db(options)
        for i in range(1000):
            db.put_sync(b"user%08d" % (i * 7919 % 1000), b"x" * 64)
        env.run_until(env.process(db.flush_all()))
        assert db.stats.slowdown_events == 0

    def test_slowdown_sleep_is_1ms(self):
        options = small_options(l0_slowdown_trigger=1, l0_stop_trigger=1000)
        env, _fs, db = fresh_db(options)
        for i in range(1500):
            db.put_sync(b"user%08d" % (i * 104729 % 1500), b"x" * 64)
        env.run_until(env.process(db.flush_all()))
        if db.stats.slowdown_events:
            assert db.stats.slowdown_time == pytest.approx(
                db.stats.slowdown_events * options.slowdown_sleep)


class TestConcurrentClients:
    def test_interleaved_writers_all_land(self):
        env, _fs, db = fresh_db()
        done = []

        def writer(tag, count):
            for i in range(count):
                yield from db.put(b"%s-%04d" % (tag, i), tag)
            done.append(tag)

        for tag in (b"alpha", b"beta", b"gamma", b"delta"):
            env.process(writer(tag, 200))
        env.run()
        assert len(done) == 4

        def verify():
            for tag in (b"alpha", b"beta", b"gamma", b"delta"):
                for i in range(200):
                    got = yield from db.get(b"%s-%04d" % (tag, i))
                    assert got == tag

        env.run_until(env.process(verify()))

    def test_reader_during_compaction_sees_consistent_data(self):
        env, _fs, db = fresh_db()
        errors = []

        def writer():
            for i in range(2000):
                yield from db.put(b"user%08d" % (i % 500), b"gen-%d" % i)

        def reader():
            for _ in range(500):
                value = yield from db.get(b"user%08d" % 42)
                if value is not None and not value.startswith(b"gen-"):
                    errors.append(value)

        env.process(writer())
        env.process(reader())
        env.run()
        assert errors == []


class TestPropertyVsModel:
    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.tuples(st.booleans(),
                              st.integers(0, 120),
                              st.binary(min_size=1, max_size=32)),
                    min_size=1, max_size=300))
    def test_engine_matches_dict(self, ops):
        env, _fs, db = fresh_db(small_options(memtable_size=4 * KB,
                                              sstable_size=2 * KB,
                                              level1_max_bytes=8 * KB))
        model = {}

        def apply_ops():
            for is_put, keynum, value in ops:
                key = b"key%04d" % keynum
                if is_put:
                    model[key] = value
                    yield from db.put(key, value)
                else:
                    model.pop(key, None)
                    yield from db.delete(key)
            yield from db.flush_all()
            for keynum in range(121):
                key = b"key%04d" % keynum
                got = yield from db.get(key)
                assert got == model.get(key), key
            scan = yield from db.scan(b"key0000", 200)
            assert scan == sorted(model.items())[:200]

        env.run_until(env.process(apply_ops()))


class TestKill:
    def test_kill_stops_workers_without_quiescing(self):
        env, fs, db = fresh_db()
        for i in range(800):
            db.put_sync(b"user%08d" % (i * 7 % 800), b"x" * 64)
        db.kill()
        env.run()  # drain: workers must exit, not deadlock or raise
        assert all(not worker.is_alive for worker in db._workers)

    def test_reopen_after_kill_and_crash(self):
        env, fs, db = fresh_db()
        for i in range(500):
            db.put_sync(b"key%06d" % i, b"v%d" % i)
        env.run_until(env.process(db.flush_all()))
        for i in range(200):
            db.put_sync(b"late%06d" % i, b"x")
        db.kill()
        fs.crash(survive_probability=0.0)
        db2 = LSMEngine.open_sync(env, fs, small_options(), "db")
        for i in range(500):
            assert db2.get_sync(b"key%06d" % i) == b"v%d" % i


class TestBinaryKeys:
    def test_arbitrary_bytes_roundtrip(self):
        _env, _fs, db = fresh_db()
        keys = [b"\x00", b"\x00\x00", b"\xff" * 8, bytes(range(32)),
                b"a\x00b", b"\xfe\xff"]
        for i, key in enumerate(keys):
            db.put_sync(key, b"value-%d" % i)
        for i, key in enumerate(keys):
            assert db.get_sync(key) == b"value-%d" % i

    def test_binary_keys_survive_compaction(self):
        env, _fs, db = fresh_db()
        import random as _random
        rng = _random.Random(99)
        model = {}
        def writer():
            for _ in range(1500):
                key = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 12)))
                value = bytes(rng.randrange(256) for _ in range(40))
                model[key] = value
                yield from db.put(key, value)
            yield from db.flush_all()
            for key, value in model.items():
                got = yield from db.get(key)
                assert got == value, key
        env.run_until(env.process(writer()))


class TestReadPathLockSafety:
    """The read mutex must survive a raising lookup (simcheck SIM008).

    ``get``/``scan`` take the db mutex for their in-memory phase; the
    release sits in a ``finally`` so an exception inside the locked
    window cannot leak the mutex and deadlock every later writer.
    """

    class _Boom(RuntimeError):
        pass

    def test_get_releases_mutex_when_lookup_raises(self):
        _env, _fs, db = fresh_db()
        db.put_sync(b"k", b"v")
        assert db.read_lock  # the guard only matters on this family
        real = db._memtable

        class Exploding:
            def get(self, key, snapshot):
                raise TestReadPathLockSafety._Boom

        db._memtable = Exploding()
        with pytest.raises(self._Boom):
            db.get_sync(b"k")
        db._memtable = real
        assert db._mutex.in_use == 0
        assert db.get_sync(b"k") == b"v"

    def test_scan_releases_mutex_when_lookup_raises(self):
        _env, _fs, db = fresh_db()
        db.put_sync(b"k", b"v")
        real = db._memtable

        class Exploding:
            def entries_from(self, start_key):
                raise TestReadPathLockSafety._Boom

        db._memtable = Exploding()
        with pytest.raises(self._Boom):
            db.scan_sync(b"", 10)
        db._memtable = real
        assert db._mutex.in_use == 0
        assert db.scan_sync(b"", 10) == [(b"k", b"v")]


# -- compaction input: one extent per victim, around the caches --------------

def _open_l0_only(engine_key, **overrides):
    """An engine whose flushes pile up in level 0 until a test says go."""
    env = Environment()
    fs = SimFS(env, BlockDevice(env), PageCache(16 << 20))
    spec = SYSTEMS[engine_key]
    options = spec.options(1024).copy(
        memtable_size=4 * KB, block_cache_bytes=8 * KB,
        l0_compaction_trigger=64, l0_slowdown_trigger=96, l0_stop_trigger=128,
        **overrides)
    return env, fs, spec.engine_cls.open_sync(env, fs, options, "db")


def _load_flushes(env, db, prefix, flushes=3, keys=40, seed=5):
    """``flushes`` level-0 tables of random ``prefix`` keys; what was put."""
    rng = random.Random(seed)
    model = {}
    for _ in range(flushes):
        for _ in range(keys):
            key = prefix + b"%05d" % rng.randrange(keys * 2)
            model[key] = b"v" * 64 + b"%d" % len(model)
            env.run_until(env.process(db.put(key, model[key])))
        env.run_until(env.process(db.flush_all()))
    return model


def _live(db):
    return sorted(db.versions.current.live_numbers().values(),
                  key=lambda meta: meta.number)


def _start_compactions(env, db):
    db.options.l0_compaction_trigger = 2
    db._bg_work.notify_all()


class TestCompactionInputIsOneExtent:
    @pytest.mark.parametrize("engine_key", ["leveldb", "bolt", "pebblesdb"])
    def test_one_sequential_read_per_cold_input(self, engine_key, monkeypatch):
        env, fs, db = _open_l0_only(engine_key)
        model = _load_flushes(env, db, b"key", flushes=6)
        extents = {(m.container, m.offset): m.length for m in _live(db)}
        assert len(extents) >= 6
        fs.page_cache.drop_all()
        fs_reads, device_reads = [], []
        fs_read, device_read = fs.read, fs.device.read

        def recording_fs_read(handle, offset, length, meter=None, sequential=False):
            fs_reads.append((handle.name, offset, length, sequential))
            return fs_read(handle, offset, length, meter, sequential)

        def recording_device_read(nbytes, sequential=False):
            device_reads.append(sequential)
            return device_read(nbytes, sequential)

        monkeypatch.setattr(fs, "read", recording_fs_read)
        monkeypatch.setattr(fs.device, "read", recording_device_read)
        num_reads = fs.device.stats.num_reads
        bytes_read = db.stats.compaction_bytes_read
        _start_compactions(env, db)
        env.run_until(env.process(db.wait_idle()))

        assert db.stats.compactions >= 1
        extents.update({(m.container, m.offset): m.length for m in _live(db)})
        # Nothing but whole table extents is read, each exactly once ...
        assert len(fs_reads) == len(set(fs_reads)) >= 6
        for name, offset, length, sequential in fs_reads:
            assert extents[(name, offset)] == length and sequential
        assert (sum(length for _n, _o, length, _s in fs_reads)
                == db.stats.compaction_bytes_read - bytes_read)
        # ... so the device sees at most one request per input, all sequential.
        assert device_reads and all(device_reads)
        assert fs.device.stats.num_reads - num_reads <= len(fs_reads)
        assert db.table_cache.misses == 0 and len(db.table_cache) == 0
        monkeypatch.undo()
        for key, value in model.items():
            assert db.get_sync(key) == value

    @pytest.mark.parametrize("engine_key", ["leveldb", "bolt"])
    def test_table_cache_is_untouched_by_a_compaction(self, engine_key):
        env, _fs, db = _open_l0_only(engine_key)
        cold = _load_flushes(env, db, b"aaa")
        victims = _live(db)
        warm = _load_flushes(env, db, b"zzz")
        for key in warm:  # readers of the zzz tables, and only those
            assert db.get_sync(key) == warm[key]
        cache = db.table_cache
        entries = cache._cache._entries
        before = (list(entries), len(cache), cache.hits, cache.misses)
        assert before[0] and not {m.number for m in victims} & set(entries)

        compaction = Compaction(0, victims, [])
        env.run_until(env.process(db._run_compaction(compaction)))

        assert db.stats.compaction_bytes_read == sum(m.length for m in victims)
        assert (list(entries), len(cache), cache.hits, cache.misses) == before
        outputs = {m.number for m in db.versions.current.files[1]}
        assert outputs and not outputs & set(entries)
        # The first get of a compacted key pays its own open.
        key = next(iter(cold))
        assert db.get_sync(key) == cold[key]
        assert cache.misses == before[3] + 1

    @pytest.mark.parametrize("region", ["block", "index", "bloom", "footer",
                                        "checksummed-footer"])
    @pytest.mark.parametrize("engine_key", ["leveldb", "bolt", "pebblesdb"])
    def test_corrupt_input_is_quarantined_and_the_job_aborts(self, engine_key,
                                                             region):
        """docs/FAULT_MODEL.md, "silent corruption": a soft background
        error, the table quarantined, the tree unchanged, the store up."""
        env, fs, db = _open_l0_only(engine_key)
        model = _load_flushes(env, db, b"key")
        tables = _live(db)
        victim = tables[len(tables) // 2]
        handle = env.run_until(env.process(fs.open(victim.container)))
        table = bytes(handle._file.data[victim.offset:victim.offset + victim.length])
        fields = list(_FOOTER.unpack(table[-_FOOTER.size - 4:-4]))
        index_off, _ilen, bloom_off, _blen, _count, _magic = fields
        if region == "checksummed-footer":
            # Valid CRC, bloom_len < 4: used to escape as struct.error,
            # past the worker's handler, and take the simulation down.
            fields[3] = 3
            payload = _FOOTER.pack(*fields)
            handle.write_at(victim.offset + victim.length - len(payload) - 4,
                            payload + encode_fixed32(crc32(payload)))
        else:
            at = {"block": 12, "index": index_off + 3, "bloom": bloom_off + 3,
                  "footer": victim.length - 20}[region]
            handle.write_at(victim.offset + at, bytes([table[at] ^ 0x40]))

        written = db.stats.compaction_bytes_written  # the flushes'
        _start_compactions(env, db)
        env.run(until=env.now + 0.05)

        assert db._quarantined == {victim.number}
        assert victim.number in db._busy_tables
        assert db.health.errors_by_site == {"compaction": 1}
        assert isinstance(db.health.last_error[1], CorruptionError)
        assert not db.health.degraded and not db.health.read_only
        assert [m.number for m in _live(db)] == [m.number for m in tables]
        assert db.stats.compaction_bytes_written == written
        assert len(db.table_cache) == 0
        # Still serving: every key some other table resolves reads fine.
        readable = 0
        for key, value in model.items():
            try:
                assert db.get_sync(key) == value
                readable += 1
            except CorruptionError:
                pass  # resolved by the quarantined table: fails fast
        assert readable
        db.put_sync(b"after", b"still-writable")
        assert db.get_sync(b"after") == b"still-writable"


def _estimated_size(builder):
    """The builder's size estimate recomputed from its parts, as the
    ``estimated_size`` property did before it became a running sum."""
    overhead = (len(builder._index) + 1) * 40 + len(builder._keys) * (
        builder._bloom_bits // 8 + 1) + FOOTER_SIZE
    return builder._written + builder._block_bytes + overhead


def _per_entry_build(db, entries, sink, meter, max_table_bytes=-1, cut_keys=None):
    """The oracle: ``_build_tables`` as a per-entry loop that asks the
    builder for its last key and its size before every entry."""
    opts = db.options
    if max_table_bytes == -1:
        max_table_bytes = opts.sstable_size
    num_cuts = len(cut_keys) if cut_keys is not None else 0
    metas, builder, number, container, cut_index = [], None, 0, "", 0
    for user_key, seq, value_type, value in entries:
        if builder is not None and user_key != builder._last_key:
            cut = False
            if num_cuts:
                while (cut_index < num_cuts
                       and cut_keys[cut_index] <= builder._last_key):
                    cut_index += 1
                cut = cut_index < num_cuts and user_key >= cut_keys[cut_index]
            if cut or (max_table_bytes is not None
                       and _estimated_size(builder) >= max_table_bytes):
                metas.append(db._finish_builder(builder, number, container))
                builder = None
        if builder is None:
            number = db.versions.new_file_number()
            handle, container = yield from sink.next_handle(number)
            builder = SSTableBuilder(handle, opts.table_format,
                                     opts.bloom_bits_per_key, meter)
        builder.add(user_key, seq, value_type, value)
        assert builder.estimated_size == _estimated_size(builder)
    if builder is not None:
        metas.append(db._finish_builder(builder, number, container))
    yield from sink.seal()
    for meta in metas:
        db.stats.compaction_bytes_written += meta.length
    yield from meter.drain()
    return metas


def _build_outcome(build, entries, max_table_bytes, cut_keys):
    """Tables, container bytes, meter and clock after one build on a
    fresh BoLT stack (LSSTs in one compaction file)."""
    env = Environment()
    fs = SimFS(env, BlockDevice(env), PageCache(16 << 20))
    db = SYSTEMS["bolt"].engine_cls.open_sync(env, fs, SYSTEMS["bolt"].options(256), "db")
    meter = db._bg_meter()
    metas = env.run_until(env.process(build(
        db, iter(entries), db._make_sink(), meter, max_table_bytes, cut_keys)))

    def containers():
        blobs = {}
        for name in sorted({meta.container for meta in metas}):
            handle = yield from fs.open(name)
            blobs[name] = yield from handle.read(0, handle.size)
        return blobs

    return ([vars(meta) for meta in metas], env.run_until(env.process(containers())),
            meter.total_charged, env.now, db.stats.compaction_bytes_written)


@st.composite
def _multi_version_runs(draw):
    """Sorted multi-version entries with tombstones — one key carries
    enough versions to span a block cut — and sorted cut keys before,
    equal to, just past and after the entries' keys."""
    keys = sorted(draw(st.sets(st.integers(0, 400), max_size=40)))
    spanning = draw(st.sampled_from(keys)) if keys else None
    seq = 10_000
    entries = []
    for key in keys:
        versions = 24 if key == spanning else draw(st.integers(1, 3))
        for _ in range(versions):
            seq -= draw(st.integers(1, 5))
            tombstone = draw(st.integers(0, 4)) == 0
            size = 300 if key == spanning else draw(st.integers(0, 300))
            entries.append((b"k%05d" % key, seq,
                            VALUE_TYPE_DELETION if tombstone else VALUE_TYPE_VALUE,
                            b"" if tombstone else bytes([key % 251]) * size))
    cut_keys = set()
    for kind in draw(st.lists(st.sampled_from(("before", "equal", "between",
                                               "after")), max_size=8)):
        if kind in ("before", "after") or not keys:
            cut_keys.add(b"a" if kind == "before" else b"z")
        else:
            key = b"k%05d" % draw(st.sampled_from(keys))
            cut_keys.add(key if kind == "equal" else key + b"\x00")
    return entries, sorted(cut_keys)


class TestBuildTablesCutRule:
    """Where ``_build_tables`` cuts: at user-key boundaries only, at the
    first cut key past a table's first key, and once the size estimate
    reaches ``max_table_bytes``."""

    @settings(max_examples=80, deadline=None)
    @given(run=_multi_version_runs(),
           max_table_bytes=st.sampled_from([None, 1, -1, "first-key"]))
    def test_cuts_equal_the_per_entry_loop(self, run, max_table_bytes):
        entries, cut_keys = run
        if max_table_bytes == "first-key":
            # The estimate with the first user key in: a bound met exactly.
            env = Environment()
            fs = SimFS(env, BlockDevice(env), PageCache(1 << 20))
            builder = SSTableBuilder(env.run_until(env.process(fs.create("t"))),
                                     SYSTEMS["bolt"].options(256).table_format)
            for entry in entries:
                if entry[0] != entries[0][0]:
                    break
                builder.add(*entry)
            max_table_bytes = _estimated_size(builder)

        def library(db, *args):
            return db._build_tables(*args)

        assert _build_outcome(library, entries, max_table_bytes, cut_keys) == \
            _build_outcome(_per_entry_build, entries, max_table_bytes, cut_keys)

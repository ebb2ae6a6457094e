"""Crash-recovery integration tests.

These exercise the §2.4 failure-atomicity story end to end: the WAL and
MANIFEST act as commit marks, unsynced pages vanish per-page in any
order, and recovery must restore exactly the acknowledged-durable state
(plus, possibly, unsynced-but-lucky writes — never a corrupt mix).
"""

import random

from hypothesis import given, settings, strategies as st

from repro.engines import bolt_options
from repro.lsm import LSMEngine, Options
from repro.sim import Environment
from repro.storage import BlockDevice, PageCache, SimFS

KB = 1 << 10


def small_options(**overrides):
    base = dict(memtable_size=16 * KB, sstable_size=8 * KB,
                level1_max_bytes=32 * KB, block_cache_bytes=128 * KB)
    base.update(overrides)
    return Options(**base)


def fresh_stack():
    env = Environment()
    fs = SimFS(env, BlockDevice(env), PageCache(16 << 20))
    return env, fs


class TestWalRecovery:
    def test_flushed_data_survives_total_crash(self):
        env, fs = fresh_stack()
        db = LSMEngine.open_sync(env, fs, small_options(), "db")
        for i in range(500):
            db.put_sync(b"key%05d" % i, b"value-%d" % i)
        env.run_until(env.process(db.flush_all()))
        fs.crash(survive_probability=0.0)

        db2 = LSMEngine.open_sync(env, fs, small_options(), "db")
        for i in range(500):
            assert db2.get_sync(b"key%05d" % i) == b"value-%d" % i

    def test_unflushed_unsynced_writes_lost(self):
        env, fs = fresh_stack()
        db = LSMEngine.open_sync(env, fs, small_options(), "db")
        db.put_sync(b"volatile", b"gone")
        fs.crash(survive_probability=0.0)
        db2 = LSMEngine.open_sync(env, fs, small_options(), "db")
        assert db2.get_sync(b"volatile") is None

    def test_wal_synced_writes_survive(self):
        env, fs = fresh_stack()
        db = LSMEngine.open_sync(env, fs, small_options(wal_sync=True), "db")
        db.put_sync(b"durable", b"kept")
        fs.crash(survive_probability=0.0)
        db2 = LSMEngine.open_sync(env, fs, small_options(), "db")
        assert db2.get_sync(b"durable") == b"kept"

    def test_torn_wal_tail_keeps_prefix(self):
        env, fs = fresh_stack()
        db = LSMEngine.open_sync(env, fs, small_options(wal_sync=True), "db")
        db.put_sync(b"a", b"1")
        db.put_sync(b"b", b"2")
        # Third write reaches the WAL page cache but is never synced.
        db.options.wal_sync = False
        db.put_sync(b"c", b"3")
        fs.crash(survive_probability=0.0)
        db2 = LSMEngine.open_sync(env, fs, small_options(), "db")
        assert db2.get_sync(b"a") == b"1"
        assert db2.get_sync(b"b") == b"2"
        assert db2.get_sync(b"c") is None

    def test_deletes_survive_recovery(self):
        env, fs = fresh_stack()
        db = LSMEngine.open_sync(env, fs, small_options(), "db")
        db.put_sync(b"k", b"v")
        env.run_until(env.process(db.flush_all()))
        db.delete_sync(b"k")
        env.run_until(env.process(db.flush_all()))
        fs.crash(survive_probability=0.0)
        db2 = LSMEngine.open_sync(env, fs, small_options(), "db")
        assert db2.get_sync(b"k") is None

    def test_sequence_numbers_continue_after_recovery(self):
        env, fs = fresh_stack()
        db = LSMEngine.open_sync(env, fs, small_options(), "db")
        for i in range(100):
            db.put_sync(b"k%d" % i, b"v")
        env.run_until(env.process(db.flush_all()))
        seq_before = db.versions.last_sequence
        fs.crash(survive_probability=0.0)
        db2 = LSMEngine.open_sync(env, fs, small_options(), "db")
        assert db2.versions.last_sequence >= seq_before
        db2.put_sync(b"new", b"v")
        assert db2.get_sync(b"new") == b"v"

    def test_recovery_is_idempotent(self):
        env, fs = fresh_stack()
        db = LSMEngine.open_sync(env, fs, small_options(), "db")
        for i in range(200):
            db.put_sync(b"key%05d" % i, b"v%d" % i)
        env.run_until(env.process(db.flush_all()))
        for _ in range(3):
            fs.crash(survive_probability=0.0)
            db = LSMEngine.open_sync(env, fs, small_options(), "db")
        for i in range(200):
            assert db.get_sync(b"key%05d" % i) == b"v%d" % i

    def test_obsolete_files_removed_on_recovery(self):
        env, fs = fresh_stack()
        db = LSMEngine.open_sync(env, fs, small_options(), "db")
        for i in range(400):
            db.put_sync(b"key%05d" % (i % 100), b"x" * 128)
        env.run_until(env.process(db.flush_all()))
        fs.crash(survive_probability=1.0)
        db2 = LSMEngine.open_sync(env, fs, small_options(), "db")
        live = {m.container for m in db2.versions.current.live_numbers().values()}
        tables_on_disk = {n for n in fs.listdir("db/") if n.endswith(".ldb")}
        assert tables_on_disk <= live | set()


class TestManifestCommitMark:
    def test_lucky_unsynced_pages_do_not_resurrect_uncommitted_tables(self):
        """Even if table pages survive, an uncommitted MANIFEST record
        decides: the compaction never happened."""
        env, fs = fresh_stack()
        db = LSMEngine.open_sync(env, fs, small_options(), "db")
        for i in range(300):
            db.put_sync(b"key%05d" % i, b"v" * 64)
        env.run_until(env.process(db.flush_all()))
        fs.crash(survive_probability=1.0)  # everything survives
        db2 = LSMEngine.open_sync(env, fs, small_options(), "db")
        db2.versions.current.check_invariants()
        for i in range(300):
            assert db2.get_sync(b"key%05d" % i) == b"v" * 64


class TestRandomizedCrashes:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_acknowledged_flushes_always_recover(self, seed):
        """Property: after a random-page crash, every key flushed before
        the last quiesce is intact — regardless of which unsynced pages
        survived."""
        rng = random.Random(seed)
        env, fs = fresh_stack()
        db = LSMEngine.open_sync(env, fs, small_options(), "db")
        model = {}
        for i in range(rng.randrange(100, 400)):
            key = b"user%06d" % rng.randrange(200)
            value = b"val-%d" % i
            model[key] = value
            db.put_sync(key, value)
        env.run_until(env.process(db.flush_all()))
        # Unsynced writes after the quiesce point may be lost.
        for i in range(rng.randrange(0, 50)):
            db.put_sync(b"late%04d" % i, b"x")
        fs.crash(rng=rng, survive_probability=rng.random())

        db2 = LSMEngine.open_sync(env, fs, small_options(), "db")
        for key, value in model.items():
            assert db2.get_sync(key) == value, key

    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_bolt_recovers_like_leveldb(self, seed):
        """BoLT's logical SSTables and hole punching must not weaken the
        recovery contract."""
        rng = random.Random(seed)
        env, fs = fresh_stack()
        options = bolt_options(1024)
        db = LSMEngine.open_sync(env, fs, options, "db")
        model = {}
        for i in range(rng.randrange(100, 400)):
            key = b"user%06d" % rng.randrange(150)
            value = b"val-%d" % i
            model[key] = value
            db.put_sync(key, value)
        env.run_until(env.process(db.flush_all()))
        fs.crash(rng=rng, survive_probability=rng.random())

        db2 = LSMEngine.open_sync(env, fs, options, "db")
        for key, value in model.items():
            assert db2.get_sync(key) == value, key

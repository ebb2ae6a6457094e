"""Tests for pinned read snapshots (LevelDB's GetSnapshot semantics)."""

import pytest

from repro.bench import SYSTEMS
from repro.engines import bolt_options
from repro.lsm import LSMEngine, Options
from repro.lsm.codec import VALUE_TYPE_DELETION, VALUE_TYPE_VALUE
from repro.lsm.iterators import collapse_versions
from repro.sim import Environment
from repro.storage import BlockDevice, PageCache, SimFS

KB = 1 << 10


def fresh_db(options=None):
    env = Environment()
    fs = SimFS(env, BlockDevice(env), PageCache(16 << 20))
    opts = options or Options(memtable_size=16 * KB, sstable_size=8 * KB,
                              level1_max_bytes=32 * KB)
    db = LSMEngine.open_sync(env, fs, opts, "db")
    return env, fs, db


def put(key, seq, value=b"v"):
    return (key, seq, VALUE_TYPE_VALUE, value)


def tomb(key, seq):
    return (key, seq, VALUE_TYPE_DELETION, b"")


class TestCollapseWithSnapshots:
    def test_keeps_one_version_per_interval(self):
        entries = [put(b"k", 20, b"v20"), put(b"k", 12, b"v12"),
                   put(b"k", 8, b"v8"), put(b"k", 3, b"v3")]
        kept = list(collapse_versions(entries, False, snapshots=[10]))
        # v20 newest; v8 is the newest version <= snapshot 10.
        assert kept == [put(b"k", 20, b"v20"), put(b"k", 8, b"v8")]

    def test_no_snapshots_keeps_newest_only(self):
        entries = [put(b"k", 9), put(b"k", 5), put(b"k", 1)]
        assert list(collapse_versions(entries, False)) == [put(b"k", 9)]

    def test_multiple_snapshots(self):
        entries = [put(b"k", 30, b"c"), put(b"k", 15, b"b"), put(b"k", 5, b"a")]
        kept = list(collapse_versions(entries, False, snapshots=[10, 20]))
        assert kept == entries  # one per interval: (20,inf), (10,20], (0,10]

    def test_tombstone_retained_while_snapshot_older(self):
        entries = [tomb(b"k", 12), put(b"k", 4, b"old")]
        kept = list(collapse_versions(entries, True, snapshots=[8]))
        # Snapshot 8 must still see b"old"; the tombstone must keep
        # shadowing it for latest readers.
        assert kept == [tomb(b"k", 12), put(b"k", 4, b"old")]

    def test_tombstone_dropped_below_oldest_snapshot(self):
        entries = [tomb(b"k", 5), put(b"k", 2)]
        kept = list(collapse_versions(entries, True, snapshots=[9]))
        assert kept == []


class TestSnapshotReads:
    def test_snapshot_freezes_view(self):
        _env, _fs, db = fresh_db()
        db.put_sync(b"k", b"before")
        snap = db.snapshot()
        db.put_sync(b"k", b"after")
        assert db.get_sync(b"k") == b"after"
        assert db.get_sync(b"k", snapshot=snap) == b"before"
        snap.release()

    def test_snapshot_hides_later_deletes(self):
        _env, _fs, db = fresh_db()
        db.put_sync(b"k", b"v")
        snap = db.snapshot()
        db.delete_sync(b"k")
        assert db.get_sync(b"k") is None
        assert db.get_sync(b"k", snapshot=snap) == b"v"
        snap.release()

    def test_snapshot_survives_flush_and_compaction(self):
        env, _fs, db = fresh_db()
        for i in range(200):
            db.put_sync(b"key%04d" % i, b"old-%d" % i)
        snap = db.snapshot()
        for i in range(200):
            db.put_sync(b"key%04d" % i, b"new-%d" % i)
        env.run_until(env.process(db.flush_all()))  # compact everything
        for i in (0, 57, 199):
            assert db.get_sync(b"key%04d" % i) == b"new-%d" % i
            assert db.get_sync(b"key%04d" % i,
                               snapshot=snap) == b"old-%d" % i
        snap.release()

    def test_snapshot_scan(self):
        env, _fs, db = fresh_db()
        for i in range(20):
            db.put_sync(b"key%02d" % i, b"old")
        snap = db.snapshot()
        for i in range(20):
            db.put_sync(b"key%02d" % i, b"new")
        db.put_sync(b"zzz", b"unseen")
        result = db.scan_sync(b"key", 5, snapshot=snap)
        assert result == [(b"key%02d" % i, b"old") for i in range(5)]
        full = db.scan_sync(b"key", 100, snapshot=snap)
        assert len(full) == 20  # b"zzz" invisible
        snap.release()

    def test_release_allows_reclamation(self):
        env, _fs, db = fresh_db(Options(
            memtable_size=16 * KB, sstable_size=8 * KB,
            level1_max_bytes=32 * KB, l0_compaction_trigger=1))
        db.put_sync(b"k", b"old")
        snap = db.snapshot()
        db.put_sync(b"k", b"new")
        env.run_until(env.process(db.flush_all()))
        assert db.live_snapshot_sequences() == [snap.sequence]
        snap.release()
        assert db.live_snapshot_sequences() == []
        # After release, further compactions may drop the old version;
        # latest reads are unaffected.
        env.run_until(env.process(db.flush_all()))
        assert db.get_sync(b"k") == b"new"

    def test_context_manager(self):
        _env, _fs, db = fresh_db()
        db.put_sync(b"k", b"v1")
        with db.snapshot() as snap:
            db.put_sync(b"k", b"v2")
            assert db.get_sync(b"k", snapshot=snap) == b"v1"
        assert snap.released
        assert db.live_snapshot_sequences() == []

    def test_refcounted_duplicate_sequences(self):
        _env, _fs, db = fresh_db()
        db.put_sync(b"k", b"v")
        first = db.snapshot()
        second = db.snapshot()  # same sequence
        assert first.sequence == second.sequence
        first.release()
        assert db.live_snapshot_sequences() == [second.sequence]
        second.release()
        assert db.live_snapshot_sequences() == []

    def test_double_release_is_safe(self):
        _env, _fs, db = fresh_db()
        snap = db.snapshot()
        snap.release()
        snap.release()
        assert db.live_snapshot_sequences() == []

    def test_snapshot_on_bolt_engine(self):
        env = Environment()
        fs = SimFS(env, BlockDevice(env), PageCache(16 << 20))
        db = LSMEngine.open_sync(env, fs, bolt_options(1024), "db")
        for i in range(300):
            db.put_sync(b"key%04d" % i, b"old")
        snap = db.snapshot()
        for i in range(300):
            db.put_sync(b"key%04d" % i, b"new")
        env.run_until(env.process(db.flush_all()))
        assert db.get_sync(b"key0042", snapshot=snap) == b"old"
        assert db.get_sync(b"key0042") == b"new"
        snap.release()


class TestReleasedSnapshotGuard:
    def test_read_through_released_snapshot_rejected(self):
        _env, _fs, db = fresh_db()
        db.put_sync(b"k", b"v")
        snap = db.snapshot()
        snap.release()
        with pytest.raises(ValueError, match="released snapshot"):
            db.get_sync(b"k", snapshot=snap)
        with pytest.raises(ValueError, match="released snapshot"):
            db.scan_sync(b"k", 5, snapshot=snap)


#: The six engine implementations (lvl64mb is LevelDB with other options).
ENGINES = ("leveldb", "hyperleveldb", "rocksdb", "pebblesdb", "bolt",
           "hyperbolt")


@pytest.mark.parametrize("engine", ENGINES)
class TestSnapshotAcrossABlockCut:
    """``SSTableBuilder.add`` closes a block on bytes, not on a key
    boundary, so the version a snapshot pins can open the block after
    the one whose last key is the user key.  Forty keys, a snapshot, the
    same forty overwritten; value sizes vary so that cuts fall on either
    side of a pair under every table format."""

    KEYS = [b"key%04d" % i for i in range(40)]

    @staticmethod
    def value(tag, i):
        return b"%s-%d-" % (tag, i) + b"x" * (61 * i % 400)

    def overwritten_under_a_snapshot(self, engine):
        spec = SYSTEMS[engine]
        env = Environment()
        fs = SimFS(env, BlockDevice(env), PageCache(16 << 20))
        # Scale 64: one MemTable holds both versions of all forty keys.
        db = spec.engine_cls.open_sync(env, fs, spec.options(64), "db")
        for i, key in enumerate(self.KEYS):
            db.put_sync(key, self.value(b"old", i))
        snap = db.snapshot()
        for i, key in enumerate(self.KEYS):
            db.put_sync(key, self.value(b"new", i))
        env.run_until(env.process(db.flush_all()))
        return env, db, snap

    def assert_both_views(self, db, snap, live_tag):
        for i, key in enumerate(self.KEYS):
            assert db.get_sync(key) == self.value(live_tag, i), key
            assert db.get_sync(key, snapshot=snap) == self.value(b"old", i), key

    def test_after_the_flush(self, engine):
        _env, db, snap = self.overwritten_under_a_snapshot(engine)
        assert db.versions.current.num_files(0) > 0
        self.assert_both_views(db, snap, b"new")

    def test_after_a_compaction_moved_the_table_down(self, engine):
        env, db, snap = self.overwritten_under_a_snapshot(engine)
        for residue in range(3):  # three more L0 tables reach the trigger
            for i in range(residue, len(self.KEYS), 3):
                db.put_sync(self.KEYS[i], self.value(b"newer", i))
            env.run_until(env.process(db.flush_all()))
        version = db.versions.current
        assert db.stats.compactions and version.num_files(0) == 0
        assert version.total_files() > 0
        self.assert_both_views(db, snap, b"newer")

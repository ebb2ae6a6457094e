"""Recovery edge cases driven through the repro.faults harness.

Five corners the plain recovery tests don't reach: power loss in the
middle of the recovery-time MANIFEST rewrite itself, power loss right
after a BoLT hole punch (which deliberately issues no barrier, §3.2),
reopening a database whose WAL never received a durable byte, a replayed
WAL whose number the MANIFEST never recorded, and the fixed-point
property of recovery (reopen-after-reopen changes nothing).
"""

import random

from repro.bench import SYSTEMS
from repro.engines import bolt_options
from repro.faults import (
    SITE_CURRENT_RENAME,
    SITE_HOLE_PUNCH,
    SITE_MANIFEST_APPEND,
    SITE_MANIFEST_COMMIT,
    CrashChecker,
    CrashInjector,
    DurabilityOracle,
    FaultModel,
    FaultPlan,
)
from repro.lsm import LSMEngine, Options
from repro.lsm.wal import LogWriter, WriteBatch
from repro.sim import Environment
from repro.storage import BlockDevice, PageCache, SimFS

KB = 1 << 10

#: The six engine implementations (lvl64mb is LevelDB with other options).
ENGINES = ("leveldb", "hyperleveldb", "rocksdb", "pebblesdb", "bolt",
           "hyperbolt")

ALL_LOST = FaultModel("all-lost", 0.0)
SUBSET = FaultModel("subset", 0.5)


def small_options(**overrides):
    base = dict(memtable_size=16 * KB, sstable_size=8 * KB,
                level1_max_bytes=32 * KB, block_cache_bytes=128 * KB,
                wal_sync=True)
    base.update(overrides)
    return Options(**base)


def fresh_stack():
    env = Environment()
    fs = SimFS(env, BlockDevice(env), PageCache(16 << 20))
    return env, fs


def run_workload(env, fs, db, oracle, num_ops=120, keyspace=40, seed=2,
                 value_pad=0):
    rng = random.Random(seed)
    for i in range(num_ops):
        key = b"key%05d" % rng.randrange(keyspace)
        if i % 9 == 8:
            oracle.begin(key, None)
            db.delete_sync(key)
            oracle.acked(key, None)
        else:
            value = b"value-%04d" % i + b"x" * value_pad
            oracle.begin(key, value)
            db.put_sync(key, value)
            oracle.acked(key, value)
    env.run_until(env.process(db.flush_all()))


class TestManifestRewriteCrash:
    def test_crash_mid_manifest_rewrite_is_recoverable(self):
        # Build a database, then arm the injector only on the MANIFEST
        # sites and reopen: recovery rewrites the MANIFEST and renames
        # CURRENT, and a crash at any instant of that dance must leave a
        # recoverable image.
        env, fs = fresh_stack()
        oracle = DurabilityOracle()
        db = LSMEngine.open_sync(env, fs, small_options(), "db")
        run_workload(env, fs, db, oracle)
        db.close_sync()

        plan = FaultPlan(sites=(SITE_MANIFEST_APPEND, SITE_MANIFEST_COMMIT,
                                SITE_CURRENT_RENAME), max_per_site=None)
        injector = CrashInjector(fs, plan, oracle)
        db2 = LSMEngine.open_sync(env, fs, small_options(), "db")
        db2.close_sync()
        injector.disarm()

        assert injector.images, "reopen never hit a MANIFEST crash site"
        sites = {image.site for image in injector.images}
        assert SITE_CURRENT_RENAME in sites
        checker = CrashChecker(LSMEngine, small_options(), "db")
        for image in injector.images:
            for model in (ALL_LOST, SUBSET):
                violations = checker.check_image(image, model, seed=3)
                assert violations == [], "\n".join(str(v) for v in violations)


class TestHolePunchCrash:
    def test_crash_after_hole_punch_before_next_barrier(self):
        # §3.2: BoLT punches dead logical SSTables without a barrier.
        # A crash in that window must never surface punched data — the
        # MANIFEST committed first, so no live table points there.
        env, fs = fresh_stack()
        oracle = DurabilityOracle()
        plan = FaultPlan(sites=(SITE_HOLE_PUNCH,), max_images=6,
                         max_per_site=6)
        injector = CrashInjector(fs, plan, oracle)
        options = bolt_options(4096).copy(wal_sync=True)
        db = LSMEngine.open_sync(env, fs, options, "db")
        run_workload(env, fs, db, oracle, num_ops=800, keyspace=300,
                     value_pad=90)
        db.close_sync()
        injector.disarm()

        assert injector.images, "workload never punched a hole"
        assert fs.stats.num_hole_punches > 0
        checker = CrashChecker(LSMEngine, options, "db")
        for image in injector.images:
            for model in (ALL_LOST, SUBSET):
                violations = checker.check_image(image, model, seed=5)
                assert violations == [], "\n".join(str(v) for v in violations)


class TestEmptyWalReopen:
    def test_reopen_with_no_durable_wal_bytes(self):
        # The WAL file exists (its create is journalled) but power is
        # lost before any record reaches the platter.
        env, fs = fresh_stack()
        db = LSMEngine.open_sync(env, fs, small_options(wal_sync=False), "db")
        db.put_sync(b"ghost", b"never-synced")
        fs.crash(survive_probability=0.0)
        db2 = LSMEngine.open_sync(env, fs, small_options(), "db")
        assert db2.get_sync(b"ghost") is None
        db2.put_sync(b"alive", b"yes")
        assert db2.get_sync(b"alive") == b"yes"
        db2.close_sync()

    def test_reopen_freshly_created_database(self):
        env, fs = fresh_stack()
        db = LSMEngine.open_sync(env, fs, small_options(), "db")
        db.close_sync()
        fs.crash(survive_probability=0.0)
        db2 = LSMEngine.open_sync(env, fs, small_options(), "db")
        assert db2.scan_sync(b"", 16) == []
        db2.close_sync()


class TestReplayedWalNumberIsNotReissued:
    """A WAL created after the last MANIFEST edit (a rotation racing an
    uncommitted compaction) carries a number recovery's counter has not
    reached.  Reissued to the fresh WAL, it truncates the replayed file
    before its records are flushed, and the fresh log is then unlinked
    as "replayed"."""

    def _killed_with_unrecorded_wals(self):
        env, fs = fresh_stack()
        oracle = DurabilityOracle()
        db = LSMEngine.open_sync(env, fs, small_options(), "db")
        acked = [(b"key%05d" % i, b"v") for i in range(3)]
        for key, value in acked:
            db.put_sync(key, value)
        first = db.versions.next_file_number
        planted = range(first, first + 3)  # covers whatever reopen allocates

        def plant():
            for number in planted:
                handle = yield from fs.create(f"db/{number:06d}.log")
                batch = WriteBatch()
                batch.put(b"planted%05d" % number, b"p")
                LogWriter(handle).append(batch.encode(4 + number - first))
                yield from handle.fsync()
                acked.append((b"planted%05d" % number, b"p"))

        env.run_until(env.process(plant(), name="plant-wals"))
        for key, value in acked:
            oracle.begin(key, value)
            oracle.acked(key, value)
        db.kill()
        fs.crash(survive_probability=0.0)
        return env, fs, oracle, len(acked)

    def test_put_after_recovery_survives(self):
        env, fs, _oracle, rows = self._killed_with_unrecorded_wals()
        db = LSMEngine.open_sync(env, fs, small_options(), "db")
        assert len(db.scan_sync(b"", 64)) == rows
        db.put_sync(b"after", b"acked")
        db.kill()
        fs.crash(survive_probability=0.0)
        db = LSMEngine.open_sync(env, fs, small_options(), "db")
        assert db.get_sync(b"after") == b"acked"
        assert len(db.scan_sync(b"", 64)) == rows + 1
        db.close_sync()

    def test_crash_before_the_residue_flush_commits_loses_nothing(self):
        env, fs, oracle, _rows = self._killed_with_unrecorded_wals()
        plan = FaultPlan(sites=(SITE_MANIFEST_APPEND,), max_per_site=None)
        injector = CrashInjector(fs, plan, oracle)
        LSMEngine.open_sync(env, fs, small_options(), "db").close_sync()
        injector.disarm()
        assert injector.images, "reopen never flushed the replayed residue"
        checker = CrashChecker(LSMEngine, small_options(), "db")
        for image in injector.images:
            violations = checker.check_image(image, ALL_LOST, seed=3)
            assert violations == [], "\n".join(str(v) for v in violations)


class TestDoubleReopenIdempotence:
    def _surviving_state(self, seed):
        env, fs = fresh_stack()
        oracle = DurabilityOracle()
        db = LSMEngine.open_sync(env, fs, small_options(), "db")
        run_workload(env, fs, db, oracle, seed=seed)
        # Crash without closing: recovery starts from a torn runtime
        # state, with a random subset of unsynced pages surviving.
        fs.crash(rng=random.Random(seed), survive_probability=0.5)
        return env, fs

    def _killed_writer_state(self, spec, puts):
        """``puts`` fsync-acknowledged writes, then kill() + power cut."""
        env, fs = fresh_stack()
        db = spec.engine_cls.open_sync(
            env, fs, spec.options(1024, wal_sync=True), "db")
        for i in range(puts):
            db.put_sync(b"key%05d" % i, b"v" * 100)
        db.kill()
        fs.crash(survive_probability=0.0)
        return env, fs

    def _assert_fixed_point(self, engine_cls, options, env, fs, case):
        db = engine_cls.open_sync(env, fs, options, "db")
        env.run_until(env.process(db.wait_idle()))
        rows, sequence = db.scan_sync(b"", 256), db.versions.last_sequence
        db.close_sync()
        fs.crash(survive_probability=0.0)
        db2 = engine_cls.open_sync(env, fs, options, "db")
        assert db2.scan_sync(b"", 256) == rows, case
        assert db2.versions.last_sequence == sequence, case
        # A write after the second recovery must land on top of what was
        # recovered, not under it at a regressed sequence number.
        key = rows[0][0] if rows else b"key"
        db2.put_sync(key, b"after")
        assert db2.get_sync(key) == b"after", case
        db2.close_sync()
        return rows

    def test_second_recovery_is_a_fixed_point(self):
        for seed in (1, 2, 3):
            env, fs = self._surviving_state(seed)
            self._assert_fixed_point(LSMEngine, small_options(), env, fs,
                                     f"seed {seed}")
        # ROADMAP item 1: with memtable_size=1024 every 8th of these
        # 132-byte entries overflows the replay MemTable, so 8, 16 and
        # 24 puts end replay exactly on the in-replay flush — which used
        # to commit a stale last_sequence and nothing after it.
        for engine in ENGINES:
            spec = SYSTEMS[engine]
            options = spec.options(1024, wal_sync=True, memtable_size=1024)
            for puts in (7, 8, 9, 16, 24):
                env, fs = self._killed_writer_state(spec, puts)
                rows = self._assert_fixed_point(
                    spec.engine_cls, options, env, fs, f"{engine}, {puts} puts")
                assert len(rows) == puts, f"{engine}, {puts} puts"

    def test_repeated_recovery_without_quiesce(self):
        # Even without waiting for background work, closing and
        # re-recovering repeatedly must converge on one state.
        env, fs = self._surviving_state(seed=9)
        states = []
        for _ in range(3):
            db = LSMEngine.open_sync(env, fs, small_options(), "db")
            env.run_until(env.process(db.wait_idle()))
            states.append(db.scan_sync(b"", 256))
            db.close_sync()
            fs.crash(survive_probability=0.0)
        assert states[0] == states[1] == states[2]

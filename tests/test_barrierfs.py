"""Tests for the BarrierFS mode (paper §5): ordering-only barriers."""

import random

import pytest

from repro.engines import leveldb_options
from repro.lsm import LSMEngine
from repro.sim import Environment
from repro.storage import BlockDevice, PAGE_SIZE, PageCache, SATA_SSD, SimFS

SCALE = 1024


def fresh_stack():
    env = Environment()
    fs = SimFS(env, BlockDevice(env), PageCache(16 << 20))
    return env, fs


class TestFdatabarrierPrimitive:
    def test_costs_only_submission(self, env, fs, run):
        def scenario():
            handle = yield from fs.create("f")
            handle.append(b"x" * (1 << 20))
            t0 = env.now
            yield from handle.fdatabarrier()
            return env.now - t0

        elapsed = run(scenario())
        # Orders of magnitude cheaper than a real barrier.
        assert elapsed < SATA_SSD.barrier_latency / 10
        assert fs.stats.num_fdatabarrier == 1
        assert fs.stats.num_barrier_calls == 0  # not an fsync

    def test_data_not_durable_until_flush(self, env, fs, run):
        def scenario():
            handle = yield from fs.create("f")
            handle.append(b"ordered" * 1000)
            yield from handle.fdatabarrier()
            fs.crash(survive_probability=0.0)
            fresh = yield from fs.open("f")
            return (yield from fresh.read(0, 7))

        assert run(scenario()) == b"\x00" * 7  # ordered != durable

    def test_any_fsync_flushes_submitted_data(self, env, fs, run):
        """A FLUSH drains the whole device cache: data dispatched by an
        earlier ordering barrier becomes durable with any later fsync."""
        def scenario():
            data_file = yield from fs.create("data")
            data_file.append(b"payload" * 1000)
            yield from data_file.fdatabarrier()
            commit = yield from fs.create("commit")
            commit.append(b"mark")
            yield from commit.fsync()
            fs.crash(survive_probability=0.0)
            fresh = yield from fs.open("data")
            return (yield from fresh.read(0, 7))

        assert run(scenario()) == b"payload"

    def test_crash_preserves_epoch_order(self, env, fs, run):
        """If any page written *after* an ordering barrier survives, all
        pages written before it survive too."""
        rng = random.Random(7)

        def scenario():
            before = yield from fs.create("before")
            before.append(b"A" * (8 * PAGE_SIZE))
            yield from before.fdatabarrier()
            after = yield from fs.create("after")
            after.append(b"B" * (8 * PAGE_SIZE))
            return before, after

        run(scenario())
        fs.crash(rng=rng, survive_probability=0.5)

        def readback():
            before = yield from fs.open("before")
            after = yield from fs.open("after")
            early = yield from before.read(0, 8 * PAGE_SIZE)
            late = yield from after.read(0, 8 * PAGE_SIZE)
            return early, late

        early, late = run(readback())
        late_pages_survived = sum(
            late[i * PAGE_SIZE:(i + 1) * PAGE_SIZE] == b"B" * PAGE_SIZE
            for i in range(8))
        early_pages_survived = sum(
            early[i * PAGE_SIZE:(i + 1) * PAGE_SIZE] == b"A" * PAGE_SIZE
            for i in range(8))
        if late_pages_survived > 0:
            assert early_pages_survived == 8

    def test_rewriting_submitted_page_reorders_it(self, env, fs, run):
        def scenario():
            handle = yield from fs.create("f")
            handle.append(b"X" * PAGE_SIZE)
            yield from handle.fdatabarrier()
            handle.write_at(0, b"Y" * PAGE_SIZE)  # re-dirtied, later epoch
            return handle

        handle = run(scenario())
        file = handle._file
        assert 0 not in file.submitted
        assert file.dirty_epoch[0] == fs.epoch


class TestBarrierFSEngine:
    def _load(self, options, n=2500, seed=3):
        env, fs = fresh_stack()
        db = LSMEngine.open_sync(env, fs, options, "db")
        rng = random.Random(seed)
        model = {}

        def writer():
            for i in range(n):
                key = b"user%08d" % rng.randrange(1200)
                value = b"v" * 80 + b"%d" % i
                model[key] = value
                yield from db.put(key, value)
            yield from db.flush_all()

        env.run_until(env.process(writer()))
        return env, fs, db, model

    def test_correctness_unchanged(self):
        env, _fs, db, model = self._load(
            leveldb_options(SCALE).copy(use_barrierfs=True))

        def verify():
            for key, value in model.items():
                got = yield from db.get(key)
                assert got == value, key

        env.run_until(env.process(verify()))

    def test_fsync_count_drops_like_the_paper_says(self):
        """§5: BarrierFS can cut LevelDB's fsync count as much as BoLT —
        only the MANIFEST commit per compaction remains a real fsync."""
        _e, fs_stock, db1, _m = self._load(leveldb_options(SCALE))
        _e, fs_bfs, db2, _m = self._load(
            leveldb_options(SCALE).copy(use_barrierfs=True))
        assert fs_bfs.stats.num_barrier_calls < fs_stock.stats.num_barrier_calls
        assert fs_bfs.stats.num_fdatabarrier > 0
        # BUT the amount of data written is NOT reduced (BoLT's other
        # contribution): both LevelDB variants rewrite the same bytes.
        assert (fs_bfs.stats.logical_bytes_written
                == pytest.approx(fs_stock.stats.logical_bytes_written,
                                 rel=0.25))

    def test_rejected_with_compaction_files(self):
        """The compaction-file sink always seals with a real fsync, so
        asking it for ordering-only barriers is an error, not a no-op."""
        options = leveldb_options(SCALE).copy(use_barrierfs=True,
                                              use_compaction_file=True)
        with pytest.raises(ValueError, match="use_barrierfs"):
            options.validate()
        env, fs = fresh_stack()
        with pytest.raises(ValueError, match="use_barrierfs"):
            LSMEngine.open_sync(env, fs, options, "db")

    def test_recovery_after_ordered_crash(self):
        env, fs, db, model = self._load(
            leveldb_options(SCALE).copy(use_barrierfs=True))
        db.kill()
        fs.crash(rng=random.Random(11), survive_probability=0.6)
        db2 = LSMEngine.open_sync(
            env, fs, leveldb_options(SCALE).copy(use_barrierfs=True), "db")

        def verify():
            for key, value in model.items():
                got = yield from db2.get(key)
                assert got == value, key

        env.run_until(env.process(verify()))

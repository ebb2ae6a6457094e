"""Tests for repro.health: severity policy, degraded modes, scrubbing.

Covers the runtime error manager (classification, pause/auto-resume,
retries-exhausted escalation, ENOSPC read-only mode and its exits), the
filesystem capacity model, device retry accounting, the background-
error unwind regression (a failed compaction must not wedge the
engine), read-only exactness, the corruption scrubber across all four
engine families, quarantine persistence, and the transient-fault chaos
schedule end to end.
"""

import random

import pytest

from repro.bench import SYSTEMS
from repro.bench.report import unified_snapshot
from repro.faults import ChaosConfig, TransientEIO, chaos_sweep
from repro.health import (
    SEVERITY_FATAL,
    SEVERITY_HARD,
    SEVERITY_SOFT,
    ErrorManager,
    ReadOnlyError,
    Scrubber,
)
from repro.lsm import Options
from repro.lsm.codec import CorruptionError
from repro.lsm.engine import LSMEngine
from repro.lsm.manifest import VersionEdit
from repro.sim import Environment
from repro.storage import (
    SATA_SSD,
    BlockDevice,
    DeviceError,
    DiskFullError,
    PageCache,
    SimFS,
)

KB = 1 << 10


def sleep(env, delay):
    """A coroutine that just advances virtual time."""
    yield env.timeout(delay)


def drive(env, gen):
    """Run a coroutine to completion on ``env`` and return its value."""
    return env.run_until(env.process(gen))


def settle(env, delay=0.05, rounds=1):
    """Advance time so background/auto-resume processes can run."""
    for _ in range(rounds):
        drive(env, sleep(env, delay))


def small_options(**overrides):
    base = dict(memtable_size=16 * KB, sstable_size=8 * KB,
                level1_max_bytes=32 * KB, block_cache_bytes=128 * KB,
                bg_error_backoff=1e-4, bg_error_backoff_max=1e-2)
    base.update(overrides)
    return Options(**base)


def fresh_stack(page_cache_bytes=16 << 20):
    env = Environment()
    device = BlockDevice(env, SATA_SSD)
    fs = SimFS(env, device, PageCache(page_cache_bytes))
    return env, device, fs


class _Stack:
    """Duck-typed stand-in for the bench harness Stack."""

    def __init__(self, env, device, fs):
        self.env = env
        self.device = device
        self.fs = fs


# ---------------------------------------------------------------------------
# ErrorManager unit behaviour
# ---------------------------------------------------------------------------

class TestErrorManager:
    def _manager(self, env, space_ok=None, **option_overrides):
        options = small_options(**option_overrides)
        space_check = None if space_ok is None else (lambda: space_ok[0])
        return ErrorManager(env, options, "db", space_check=space_check)

    def test_classification_table(self):
        env, _device, _fs = fresh_stack()
        mgr = self._manager(env)
        assert mgr.classify("flush", DiskFullError("full")) == SEVERITY_HARD
        assert mgr.classify("flush", DeviceError("eio")) == SEVERITY_HARD
        assert mgr.classify("flush", CorruptionError("bad")) == SEVERITY_SOFT
        assert mgr.classify("read", DeviceError("eio")) == SEVERITY_SOFT
        assert mgr.classify("cleanup", DiskFullError("x")) == SEVERITY_SOFT
        assert mgr.classify("manifest_in_doubt",
                            DeviceError("eio")) == SEVERITY_FATAL
        # Unclassified exceptions are never assumed benign.
        assert mgr.classify("flush", RuntimeError("bug")) == SEVERITY_FATAL

    def test_soft_error_counts_but_does_not_pause(self):
        env, _device, _fs = fresh_stack()
        mgr = self._manager(env)
        assert mgr.report("read", DeviceError("eio")) == SEVERITY_SOFT
        assert mgr.bg_error_count == 1
        assert not mgr.paused and not mgr.degraded

    def test_hard_error_pauses_then_auto_resumes(self):
        env, _device, _fs = fresh_stack()
        mgr = self._manager(env)
        mgr.report("compaction", DeviceError("eio"))
        assert mgr.paused and mgr.degraded and not mgr.read_only
        settle(env)
        assert not mgr.paused and not mgr.degraded
        assert mgr.resume_attempts == 1
        assert mgr.time_in_degraded > 0

    def test_retries_exhausted_escalates_to_read_only(self):
        env, _device, _fs = fresh_stack()
        space_ok = [False]
        mgr = self._manager(env, space_ok=space_ok, bg_error_max_retries=3)
        mgr.report("flush", DiskFullError("full"))
        assert mgr.read_only and mgr.enospc
        settle(env, rounds=4)
        assert mgr.fatal and mgr.read_only and mgr.paused
        assert "retries exhausted" in mgr.reason

    def test_poke_exits_enospc_even_after_escalation(self):
        env, _device, _fs = fresh_stack()
        space_ok = [False]
        mgr = self._manager(env, space_ok=space_ok, bg_error_max_retries=2)
        mgr.report("flush", DiskFullError("full"))
        settle(env, rounds=4)
        assert mgr.fatal
        space_ok[0] = True
        mgr.poke()
        assert not mgr.degraded and not mgr.fatal
        assert mgr.reason is None

    def test_poke_is_a_noop_while_space_is_still_short(self):
        env, _device, _fs = fresh_stack()
        space_ok = [False]
        mgr = self._manager(env, space_ok=space_ok,
                            enable_auto_resume=False)
        mgr.report("flush", DiskFullError("full"))
        mgr.poke()
        assert mgr.paused and mgr.read_only

    def test_manual_reset_clears_fatal(self):
        env, _device, _fs = fresh_stack()
        mgr = self._manager(env)
        mgr.report("manifest_in_doubt", DeviceError("eio"))
        assert mgr.fatal and mgr.read_only
        settle(env, rounds=2)
        assert mgr.fatal  # fatal never auto-resumes
        mgr.manual_reset()
        assert not mgr.degraded

    def test_snapshot_shape(self):
        env, _device, _fs = fresh_stack()
        mgr = self._manager(env)
        mgr.report("flush", DeviceError("eio"))
        snap = mgr.snapshot()
        assert snap["bg_error_count"] == 1
        assert snap["paused"] == 1
        assert snap["errors_by_site"] == {"flush": 1}


# ---------------------------------------------------------------------------
# Filesystem capacity model (ENOSPC)
# ---------------------------------------------------------------------------

class TestCapacityModel:
    def test_append_rejected_before_any_mutation(self):
        env, _device, fs = fresh_stack()
        handle = drive(env, fs.create("f"))
        handle.append(b"x" * 100)
        fs.set_capacity(fs.total_allocated_bytes() + 10)
        with pytest.raises(DiskFullError):
            handle.append(b"y" * 200)
        # All-or-nothing: the failed append left no partial bytes.
        assert handle.size == 100
        assert drive(env, handle.read(0, 100)) == b"x" * 100

    def test_free_bytes_accounting(self):
        env, _device, fs = fresh_stack()
        handle = drive(env, fs.create("f"))
        fs.set_capacity(1 << 20)
        before = fs.free_bytes()
        handle.append(b"x" * 4096)
        assert fs.free_bytes() == before - 4096
        fs.set_capacity(None)
        assert fs.free_bytes() is None

    def test_punch_hole_frees_and_refill_charges(self):
        from repro.storage import PAGE_SIZE
        env, _device, fs = fresh_stack()
        handle = drive(env, fs.create("f"))
        handle.append(b"x" * (4 * PAGE_SIZE))
        allocated = fs.total_allocated_bytes()
        handle.punch_hole(0, 2 * PAGE_SIZE)
        assert fs.total_allocated_bytes() == allocated - 2 * PAGE_SIZE
        # Refilling a punched page must be charged against capacity.
        fs.set_capacity(fs.total_allocated_bytes() + 10)
        with pytest.raises(DiskFullError):
            handle.write_at(0, b"y" * PAGE_SIZE)


# ---------------------------------------------------------------------------
# Device retry accounting
# ---------------------------------------------------------------------------

class TestDeviceRetryAccounting:
    def _timed_read(self, fault_attempts):
        """Elapsed time for a read contending with a long write, where
        the read's first ``fault_attempts`` attempts hit EIO."""
        env, device, _fs = fresh_stack()
        state = {"left": fault_attempts}

        def hook(op):
            """Fault the next read attempt while the budget lasts."""
            if op == "read" and state["left"] > 0:
                state["left"] -= 1
                return True
            return False

        device.fault_hook = hook

        def scenario():
            # Occupy the channel so the read genuinely queues first
            # (SATA profile: parallelism 1, so the read finishes last).
            env.process(device.write(256 * KB, sequential=True))
            yield env.timeout(0)
            yield from device.read(4 * KB)
            return env.now

        return env.run_until(env.process(scenario())), device

    def test_retry_pays_device_time_but_queue_wait_once(self):
        base, device0 = self._timed_read(0)
        assert device0.stats.num_eio_retries == 0
        # Solo read cost on an idle device = the per-attempt service time.
        env, device, _fs = fresh_stack()
        env.run_until(env.process(device.read(4 * KB)))
        attempt = env.now

        faulted, device2 = self._timed_read(2)
        assert device2.stats.num_eio_retries == 2
        # Two retries add exactly two service times: the FIFO wait behind
        # the contending write is paid once, not once per attempt.
        assert faulted - base == pytest.approx(2 * attempt, rel=1e-6)

    def test_persistent_fault_raises_device_error(self):
        env, device, _fs = fresh_stack()
        device.fault_hook = lambda op: True
        with pytest.raises(DeviceError):
            env.run_until(env.process(device.read(4 * KB)))
        assert device.stats.num_eio_retries == device.max_eio_retries + 1

    def test_eio_retries_surface_in_unified_snapshot(self):
        env, device, fs = fresh_stack()
        options = small_options()
        db = LSMEngine.open_sync(env, fs, options, "db")
        eio = TransientEIO(1.0, random.Random(3), max_failures=2)
        device.fault_hook = eio
        drive(env, device.read(4 * KB))
        device.fault_hook = None
        snap = unified_snapshot(_Stack(env, device, fs), db)
        assert snap["health"]["eio_retries"] == 2
        assert snap["health"]["bg_error_count"] == 0
        assert snap["health"]["quarantined_tables"] == 0
        # One engine's snapshot keeps the non-numeric diagnostics.
        assert snap["health"]["reason"] is None
        assert snap["health"]["errors_by_site"] == {}
        db.close_sync()


# ---------------------------------------------------------------------------
# Background-error unwind (regression: no wedged engine)
# ---------------------------------------------------------------------------

class TestBackgroundErrorUnwind:
    def test_compaction_failure_does_not_wedge_engine(self):
        env, _device, fs = fresh_stack()
        options = small_options(l0_compaction_trigger=2,
                                l0_slowdown_trigger=64, l0_stop_trigger=96)
        db = LSMEngine.open_sync(env, fs, options, "db")
        orig = db._run_compaction
        state = {"failed": False}

        def flaky(compaction):
            """Fail the first compaction, then behave normally."""
            if not state["failed"]:
                state["failed"] = True
                raise DeviceError("injected compaction failure")
            yield from orig(compaction)

        db._run_compaction = flaky
        rng = random.Random(5)
        for i in range(400):
            key = b"k%06d" % rng.randrange(512)
            drive(env, db.put(key, b"v" * 64))
        settle(env, rounds=3)
        drive(env, db.flush_all())

        assert state["failed"], "the injected failure never triggered"
        # The in-progress accounting and table locks were unwound: work
        # resumed, nothing is busy, and the writer path is healthy.
        assert db._compactions_in_progress == 0
        assert not db._flush_in_progress
        assert not db._busy_tables
        assert not db.health.degraded
        assert db.health.resume_attempts >= 1
        assert db.stats.compactions >= 1
        drive(env, db.put(b"after", b"ok"))
        assert drive(env, db.get(b"after")) == b"ok"
        db.close_sync()


    def test_disk_full_flush_leaves_no_partial_table(self):
        """A table is one append, and SimFS appends are all-or-nothing:
        ENOSPC in a flush leaves none of the table's bytes behind — room
        for its first block does not help — and still degrades the store
        to read-only through ``_on_background_error``."""
        env, _device, fs = fresh_stack()
        db = LSMEngine.open_sync(
            env, fs, small_options(enable_auto_resume=False), "db")
        for i in range(40):
            drive(env, db.put(b"user%04d" % i, b"x" * 200))
        before = set(fs.listdir("db"))
        reported = []
        route = db._on_background_error
        db._on_background_error = lambda site, exc: (
            reported.append((site, type(exc))), route(site, exc))
        # The ~12 KB table would not fit; its first 4 KB block would.
        fs.set_capacity(fs.total_allocated_bytes() + 6000)
        drive(env, db.flush_all())
        assert reported == [("flush", DiskFullError)]
        assert db.health.read_only and db.health.enospc
        created = set(fs.listdir("db")) - before
        assert any(name.endswith(".ldb") for name in created)
        assert all(fs.file_size(name) == 0 for name in created)
        for i in range(40):
            assert drive(env, db.get(b"user%04d" % i)) == b"x" * 200

        fs.set_capacity(None)
        db.health.poke()
        drive(env, db.flush_all())
        assert not db.health.degraded and db.stats.memtable_flushes == 1
        db.close_sync()


# ---------------------------------------------------------------------------
# Read-only exactness property
# ---------------------------------------------------------------------------

class TestReadOnlyExactness:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_acked_survive_and_rejected_never_visible(self, seed):
        env, _device, fs = fresh_stack()
        options = small_options(memtable_size=4 * KB, wal_sync=True)
        db = LSMEngine.open_sync(env, fs, options, "db")
        rng = random.Random(seed)
        acked = {}
        rejected = []

        def put(i):
            key = b"user%04d" % rng.randrange(96)
            value = b"v%06d-" % i + b"x" * 48
            try:
                drive(env, db.put(key, value))
            except ReadOnlyError:
                rejected.append((key, value))
            else:
                acked[key] = value

        for i in range(120):
            put(i)
        fs.set_capacity(fs.total_allocated_bytes() + 512)
        for i in range(120, 200):
            put(i)
        assert rejected, "the capacity clamp never rejected a write"
        assert db.health.read_only

        # Degraded, but every acked write reads back exactly — and the
        # store still serves reads at all.
        for key, value in acked.items():
            assert drive(env, db.get(key)) == value

        fs.set_capacity(None)
        db.health.poke()
        settle(env)
        assert not db.health.degraded
        rejected_before = len(rejected)
        for i in range(200, 260):
            put(i)
        assert len(rejected) == rejected_before, (
            "writes were still rejected after capacity was restored")
        drive(env, db.flush_all())

        for key, value in acked.items():
            assert drive(env, db.get(key)) == value
        for key, value in rejected:
            assert drive(env, db.get(key)) != value, (
                "a write rejected in read-only mode became visible")
        db.close_sync()


# ---------------------------------------------------------------------------
# Scrubber: 100% detection, zero false positives, quarantine persistence
# ---------------------------------------------------------------------------

def _open_small(engine_key, env, fs, **overrides):
    spec = SYSTEMS[engine_key]
    options = spec.options(1024).copy(
        memtable_size=4 * KB, block_cache_bytes=8 * KB, **overrides)
    return spec.engine_cls.open_sync(env, fs, options, "db")


def _load(env, db, n=300, seed=9):
    rng = random.Random(seed)
    for i in range(n):
        drive(env, db.put(b"key%05d" % rng.randrange(n), b"v" * 64))
    drive(env, db.flush_all())


class TestScrubber:
    @pytest.mark.parametrize("engine_key",
                             ["leveldb", "rocksdb", "pebblesdb", "bolt"])
    def test_quarantines_every_corrupt_table(self, engine_key):
        env, _device, fs = fresh_stack()
        # Compaction disabled so every flushed table stays live at L0:
        # the corrupted set is exactly what the scrubber must find.
        db = _open_small(engine_key, env, fs, l0_compaction_trigger=32,
                         l0_slowdown_trigger=48, l0_stop_trigger=64)
        _load(env, db)
        live = sorted(db.versions.current.live_numbers().values(),
                      key=lambda m: m.number)
        assert len(live) >= 2, "need at least two live tables to corrupt"
        victims = [live[0], live[-1]]
        for meta in victims:
            handle = drive(env, fs.open(meta.container))
            handle.write_at(meta.offset + 12, b"\xde\xad\xbe\xef")

        scrubber = Scrubber(db)
        report = drive(env, scrubber.scrub_once())
        assert report.tables_checked == len(live)
        corrupt_numbers = {number for number, _c, _e in report.corrupt}
        assert corrupt_numbers == {m.number for m in victims}
        assert db._quarantined == corrupt_numbers
        # Reads resolved by a quarantined table fail fast, loudly.  The
        # newest table's smallest key is deterministic: no newer table
        # can shadow it, so the probe must reach the quarantined one.
        with pytest.raises(CorruptionError):
            drive(env, db.get(victims[-1].smallest))
        settle(env)  # let the quarantine MANIFEST records commit
        db.close_sync()

    @pytest.mark.parametrize("engine_key", ["leveldb", "bolt"])
    def test_zero_false_positives_across_seeds(self, engine_key):
        for seed in (1, 2, 3):
            env, _device, fs = fresh_stack()
            db = _open_small(engine_key, env, fs)
            _load(env, db, seed=seed)
            report = drive(env, Scrubber(db).scrub_once())
            assert report.tables_corrupt == 0
            assert not db._quarantined
            db.close_sync()

    def test_background_scrubber_runs_on_idle_budget(self):
        env, _device, fs = fresh_stack()
        db = _open_small("leveldb", env, fs, enable_scrubber=True,
                         scrub_interval=0.01, scrub_tables_per_round=2)
        _load(env, db, n=200)
        meta = next(iter(db.versions.current.live_numbers().values()))
        handle = drive(env, fs.open(meta.container))
        handle.write_at(meta.offset + 12, b"\xde\xad\xbe\xef")
        settle(env, delay=0.2, rounds=3)
        assert meta.number in db._quarantined
        assert db.scrubber is not None and db.scrubber.rounds > 0
        assert not db.health.degraded  # scrub corruption is soft
        db.close_sync()

    def test_quarantine_survives_reopen(self):
        env, _device, fs = fresh_stack()
        db = _open_small("leveldb", env, fs)
        # Small load -> exactly one table, so every read must resolve
        # through it and the fail-fast contract is unambiguous.
        _load(env, db, n=20)
        live = list(db.versions.current.live_numbers().values())
        assert len(live) == 1
        meta = live[0]
        handle = drive(env, fs.open(meta.container))
        handle.write_at(meta.offset + 12, b"\xde\xad\xbe\xef")
        report = drive(env, Scrubber(db).scrub_once())
        assert report.tables_corrupt == 1
        settle(env)  # commit the quarantine record
        db.close_sync()

        db2 = _open_small("leveldb", env, fs)
        assert meta.number in db2._quarantined
        with pytest.raises(CorruptionError):
            drive(env, db2.get(meta.smallest))
        db2.close_sync()


class TestManifestQuarantineCodec:
    def test_version_edit_roundtrip(self):
        edit = VersionEdit()
        edit.quarantine_file(7)
        edit.quarantine_file(123456)
        decoded = VersionEdit.decode(edit.encode())
        assert decoded.quarantined_files == [7, 123456]


# ---------------------------------------------------------------------------
# Chaos schedule end to end
# ---------------------------------------------------------------------------

class TestChaos:
    def test_chaos_smoke_all_engines(self):
        report = chaos_sweep(ChaosConfig(num_ops=200))
        assert report.ok, "\n".join(report.summary_lines())
        for result in report.results:
            assert result.entered_read_only
            assert result.recovered
            assert result.writes_rejected > 0
            assert result.reads > 0

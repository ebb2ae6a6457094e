"""Tests for repro.faults: crash modes, EIO injection, images, the sweep.

The heavyweight acceptance test is ``test_sweep_passes_all_engines``:
one golden run per architecture family, every captured crash image
checked under the smoke fault models.  The seeded-bug test proves the
harness has teeth — an engine that skips the MANIFEST commit barrier
must be caught.
"""

import random

import pytest

from repro.faults import (
    DEFAULT_MODELS,
    SITE_BARRIER,
    SITE_TIMER,
    SITE_WAL_APPEND,
    CrashChecker,
    CrashInjector,
    DurabilityOracle,
    FaultModel,
    FaultPlan,
    TransientEIO,
    crash_sweep,
    smoke_config,
    sweep_engine,
)
from repro.faults.sweep import DEFAULT_ENGINES, SweepConfig
from repro.lsm import LSMEngine, Options
from repro.sim import Environment
from repro.storage import (
    PAGE_SIZE,
    SECTOR_SIZE,
    BlockDevice,
    DeviceError,
    PageCache,
    SimFS,
)

KB = 1 << 10


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


class TestCrashModes:
    """SimFS-level semantics of the torn-tail and reorder fault models."""

    def _one_page_file(self, run, fs):
        handle = run(fs.create("f"))
        handle.append(b"A" * PAGE_SIZE)
        run(handle.fsync())
        return handle

    def test_torn_tail_keeps_sector_aligned_prefix(self, env, fs, run):
        handle = self._one_page_file(run, fs)
        handle.write_at(0, b"B" * PAGE_SIZE)
        fs.crash(rng=random.Random(11), survive_probability=0.0,
                 torn_tail=True)
        data = run(handle.read(0, PAGE_SIZE))
        keep = data.index(b"A")
        assert data == b"B" * keep + b"A" * (PAGE_SIZE - keep)
        assert keep % SECTOR_SIZE == 0
        assert 0 < keep < PAGE_SIZE

    def test_torn_tail_never_tears_synced_data(self, env, fs, run):
        handle = self._one_page_file(run, fs)
        fs.crash(rng=random.Random(5), survive_probability=0.0,
                 torn_tail=True)
        assert run(handle.read(0, PAGE_SIZE)) == b"A" * PAGE_SIZE

    def test_epoch_mode_preserves_write_order(self):
        # Page 0 is dirtied one epoch before page 1: under the default
        # (epoch-ordered) device, page 1 surviving implies page 0 did.
        for seed in range(40):
            env, fs = fresh_stack()
            handle = env.run_until(env.process(fs.create("f")))
            handle.write_at(0, b"E" * PAGE_SIZE)
            fs.epoch += 1  # what any intervening barrier would do
            handle.write_at(PAGE_SIZE, b"L" * PAGE_SIZE)
            fs.crash(rng=random.Random(seed), survive_probability=0.5)
            data = env.run_until(env.process(handle.read(0, 2 * PAGE_SIZE)))
            late_survived = data[PAGE_SIZE:] == b"L" * PAGE_SIZE
            early_survived = data[:PAGE_SIZE] == b"E" * PAGE_SIZE
            assert not (late_survived and not early_survived)

    def test_reorder_mode_can_violate_epoch_order(self):
        # The adversarial device persists pages independently: across
        # enough seeds it must produce late-without-early at least once.
        seen_violation = False
        for seed in range(60):
            env, fs = fresh_stack()
            handle = env.run_until(env.process(fs.create("f")))
            handle.write_at(0, b"E" * PAGE_SIZE)
            fs.epoch += 1
            handle.write_at(PAGE_SIZE, b"L" * PAGE_SIZE)
            fs.crash(rng=random.Random(seed), survive_probability=0.5,
                     mode="reorder")
            data = env.run_until(env.process(handle.read(0, 2 * PAGE_SIZE)))
            if (data[PAGE_SIZE:] == b"L" * PAGE_SIZE
                    and data[:PAGE_SIZE] != b"E" * PAGE_SIZE):
                seen_violation = True
                break
        assert seen_violation

    def test_unknown_mode_rejected(self, fs):
        with pytest.raises(ValueError):
            fs.crash(mode="lightning")


class TestTransientEIO:
    def test_retries_are_counted_and_write_succeeds(self, env):
        device = BlockDevice(env)
        device.fault_hook = TransientEIO(1.0, random.Random(1),
                                         max_failures=3)
        env.run_until(env.process(device.write(8 * KB)))
        assert device.stats.num_eio_retries == 3
        assert device.stats.num_writes == 1

    def test_each_retry_pays_device_time(self, env):
        device = BlockDevice(env)
        env.run_until(env.process(device.write(8 * KB)))
        clean = env.now
        device.fault_hook = TransientEIO(1.0, random.Random(1),
                                         max_failures=2)
        before = env.now
        env.run_until(env.process(device.write(8 * KB)))
        # simcheck: waive[SIM004] - pytest.approx IS the epsilon compare
        assert env.now - before == pytest.approx(3 * clean)

    def test_persistent_eio_raises_device_error(self, env):
        device = BlockDevice(env)
        device.fault_hook = TransientEIO(1.0, random.Random(1),
                                         max_failures=None)
        with pytest.raises(DeviceError):
            env.run_until(env.process(device.read(4 * KB)))
        assert device.stats.num_eio_retries == device.max_eio_retries + 1

    def test_ops_filter_restricts_faults(self, env):
        device = BlockDevice(env)
        device.fault_hook = TransientEIO(1.0, random.Random(1),
                                         max_failures=None, ops=("read",))
        env.run_until(env.process(device.write(8 * KB)))
        assert device.stats.num_eio_retries == 0

    def test_engine_survives_transient_eio(self):
        env, fs = fresh_stack()
        fs.device.fault_hook = TransientEIO(0.2, random.Random(3),
                                            max_failures=32)
        db = LSMEngine.open_sync(env, fs, small_options(), "db")
        for i in range(200):
            db.put_sync(b"key%04d" % i, b"value-%d" % i)
        env.run_until(env.process(db.flush_all()))
        for i in range(200):
            assert db.get_sync(b"key%04d" % i) == b"value-%d" % i
        db.close_sync()
        assert fs.device.stats.num_eio_retries > 0


class TestOracle:
    def test_acked_value_is_allowed(self):
        oracle = DurabilityOracle()
        oracle.begin(b"k", b"v1")
        oracle.acked(b"k", b"v1")
        assert oracle.snapshot().allowed(b"k") == {b"v1"}

    def test_pending_value_also_allowed(self):
        oracle = DurabilityOracle()
        oracle.begin(b"k", b"v1")
        oracle.acked(b"k", b"v1")
        oracle.begin(b"k", b"v2")
        state = oracle.snapshot()
        assert state.allowed(b"k") == {b"v1", b"v2"}
        oracle.acked(b"k", b"v2")
        assert oracle.snapshot().allowed(b"k") == {b"v2"}

    def test_acked_delete_disallows_old_value(self):
        oracle = DurabilityOracle()
        oracle.begin(b"k", b"v")
        oracle.acked(b"k", b"v")
        oracle.begin(b"k", None)
        oracle.acked(b"k", None)
        state = oracle.snapshot()
        assert state.allowed(b"k") == {None}  # resurrection is a violation
        assert state.keys() == {b"k"}

    def test_never_acked_key_may_vanish(self):
        oracle = DurabilityOracle()
        oracle.begin(b"k", b"v")
        assert oracle.snapshot().allowed(b"k") == {None, b"v"}


class TestInjectorAndPlan:
    def _golden_run(self, plan, num_ops=40, oracle=None):
        env, fs = fresh_stack()
        injector = CrashInjector(fs, plan, oracle)
        db = LSMEngine.open_sync(env, fs, small_options(), "db")
        for i in range(num_ops):
            db.put_sync(b"key%04d" % i, b"v%d" % i)
        env.run_until(env.process(db.flush_all()))
        db.close_sync()
        injector.disarm()
        return env, fs, injector

    def test_site_filter_limits_captures(self):
        plan = FaultPlan(sites=(SITE_WAL_APPEND,), max_per_site=None)
        _env, _fs, injector = self._golden_run(plan)
        assert injector.images
        assert {image.site for image in injector.images} == {SITE_WAL_APPEND}
        # Other sites were still *counted*, just not captured.
        assert injector.site_counts[SITE_BARRIER] > 0

    def test_stride_thins_captures(self):
        dense = self._golden_run(
            FaultPlan(sites=(SITE_WAL_APPEND,), max_per_site=None))[2]
        sparse = self._golden_run(
            FaultPlan(sites=(SITE_WAL_APPEND,), stride=4,
                      max_per_site=None))[2]
        assert len(sparse.images) == -(-len(dense.images) // 4)

    def test_max_per_site_and_max_images(self):
        plan = FaultPlan(max_per_site=2, max_images=5)
        _env, _fs, injector = self._golden_run(plan)
        assert len(injector.images) <= 5
        per_site = {}
        for image in injector.images:
            per_site[image.site] = per_site.get(image.site, 0) + 1
        assert all(n <= 2 for n in per_site.values())

    def test_disarm_stops_capture(self):
        env, fs = fresh_stack()
        injector = CrashInjector(fs, FaultPlan())
        db = LSMEngine.open_sync(env, fs, small_options(), "db")
        db.put_sync(b"a", b"1")
        captured = len(injector.images)
        assert captured > 0
        injector.disarm()
        db.put_sync(b"b", b"2")
        db.close_sync()
        assert len(injector.images) == captured

    def test_arm_at_times_captures_timer_site(self):
        env, fs = fresh_stack()
        injector = CrashInjector(fs, FaultPlan())
        db = LSMEngine.open_sync(env, fs, small_options(), "db")
        injector.arm_at_times(env.now + 1e-4)
        for i in range(50):
            db.put_sync(b"key%04d" % i, b"v")
        db.close_sync()
        injector.disarm()
        assert any(image.site == SITE_TIMER for image in injector.images)

    def test_site_counts_match_fs_barrier_stats(self):
        env, fs, injector = self._golden_run(FaultPlan())
        assert injector.site_counts[SITE_BARRIER] == (
            fs.stats.num_fsync + fs.stats.num_fdatasync)

    def test_image_materializes_independent_copy(self):
        _env, fs, injector = self._golden_run(FaultPlan(), oracle=None)
        image = injector.images[-1]
        env2, fs2 = image.materialize()  # no model: as-captured
        assert fs2 is not fs
        name = image.files[0].name
        assert fs2.exists(name)
        # Mutating the copy leaves the original untouched.
        env2.run_until(env2.process(fs2.unlink(name)))
        assert not fs2.exists(name)
        assert fs.exists(name)


class TestSeededBug:
    """A deliberately broken engine must be caught by the checker."""

    def test_skipping_manifest_barrier_is_caught(self):
        env, fs = fresh_stack()
        oracle = DurabilityOracle()
        injector = CrashInjector(
            fs, FaultPlan(max_images=500, max_per_site=None), oracle)
        db = LSMEngine.open_sync(env, fs, small_options(), "db")

        # Seed the bug: MANIFEST fsyncs silently do nothing, as if the
        # engine forgot the commit barrier of §2.4.
        real_fsync = fs.fsync

        def buggy_fsync(handle):
            if "MANIFEST" in handle.name:
                return iter(())
            return real_fsync(handle)

        fs.fsync = buggy_fsync
        for i in range(60):
            key, value = b"key%04d" % i, b"durable-%d" % i
            oracle.begin(key, value)
            db.put_sync(key, value)
            oracle.acked(key, value)
        # The flush unlinks the WAL; the MANIFEST record naming the new
        # table was never made durable, so the data now has no home.
        env.run_until(env.process(db.flush_all()))
        mark = len(injector.images)
        key, value = b"post-flush", b"p"
        oracle.begin(key, value)
        db.put_sync(key, value)
        oracle.acked(key, value)
        db.close_sync()
        injector.disarm()
        fs.fsync = real_fsync

        post_flush = injector.images[mark:]
        assert post_flush
        checker = CrashChecker(LSMEngine, small_options(), "db")
        all_lost = DEFAULT_MODELS[0]
        assert all_lost.survive_probability == 0.0
        violations = []
        for image in post_flush:
            violations.extend(checker.check_image(image, all_lost))
        assert any(v.kind == "durability" for v in violations), \
            "checker failed to catch the skipped MANIFEST barrier"

    def test_same_images_pass_without_the_bug(self):
        env, fs = fresh_stack()
        oracle = DurabilityOracle()
        injector = CrashInjector(fs, FaultPlan(max_per_site=None), oracle)
        db = LSMEngine.open_sync(env, fs, small_options(), "db")
        for i in range(60):
            key, value = b"key%04d" % i, b"durable-%d" % i
            oracle.begin(key, value)
            db.put_sync(key, value)
            oracle.acked(key, value)
        env.run_until(env.process(db.flush_all()))
        db.close_sync()
        injector.disarm()
        checker = CrashChecker(LSMEngine, small_options(), "db")
        for image in injector.images[-4:]:
            assert checker.check_image(image, DEFAULT_MODELS[0]) == []


    def test_close_without_wal_sync_is_caught_by_clause_4b(self):
        """Teeth for the reverse clause: writes to a recovered store that
        a clean close fails to make durable are flagged."""
        class ForgetfulClose(LSMEngine):
            def close(self):
                yield from self.wait_idle()
                self._closed = True
                self._bg_work.notify_all()  # ...and no WAL fsync

        env, fs = fresh_stack()
        injector = CrashInjector(fs, FaultPlan(sites=(SITE_WAL_APPEND,)))
        options = small_options(wal_sync=False)
        db = LSMEngine.open_sync(env, fs, options, "db")
        db.put_sync(b"key", b"value")
        injector.disarm()
        for engine_cls, kinds in ((ForgetfulClose,
                                   ["recovered-state-not-durable"]),
                                  (LSMEngine, [])):
            checker = CrashChecker(engine_cls, options, "db")
            violations = checker.check_image(injector.images[0],
                                             DEFAULT_MODELS[0])
            assert [v.kind for v in violations] == kinds


class TestSweep:
    @pytest.mark.parametrize("num_ops", (20, 40, 60, 140))
    @pytest.mark.parametrize("engine", ("bolt", "hyperbolt"))
    def test_tiered_sweep_passes_at_every_size(self, engine, num_ops):
        """ROADMAP item 1: the cells of ``make smoke``'s matrix (dbbench's
        seed) in which replay ended exactly on a MemTable overflow, so the
        only recovery-time MANIFEST edit carried a stale last_sequence."""
        report = crash_sweep(SweepConfig(
            engines=(engine,), num_ops=num_ops, seed=301, tiered=True,
            plan=FaultPlan(models=DEFAULT_MODELS[:2])))
        assert report.ok, "\n".join(report.summary_lines())

    def test_tiered_sweep_passes_at_default_seed(self):
        """Clause 3's MANIFEST walk drives the simulation, so compaction
        and demotion run under it.  Unless the walk counts as an
        in-flight read, they unlink or punch the containers it is still
        walking: SweepConfig's own seed then reported 44 corrupt-table
        and 16 dangling-table violations."""
        report = crash_sweep(SweepConfig(engines=("bolt",), num_ops=140,
                                         tiered=True))
        assert report.ok, "\n".join(report.summary_lines())

    def test_sweep_passes_all_engines(self):
        """Acceptance: the CI smoke sweep is green for all four families."""
        report = crash_sweep(smoke_config())
        assert [r.engine for r in report.results] == list(DEFAULT_ENGINES)
        for result in report.results:
            assert result.images > 0
            assert result.checks >= 2 * result.images
            assert result.barrier_spans > 0
        assert report.ok, "\n".join(report.summary_lines())

    def test_sweep_summary_mentions_every_engine(self):
        report = crash_sweep(smoke_config(engines=("leveldb",),
                                          num_ops=40))
        lines = report.summary_lines()
        assert lines[-1] == "crash sweep: PASS"
        assert any("leveldb" in line for line in lines)

    def test_misspelt_sweep_override_raises(self):
        """Overrides are dataclass fields; a typo must not be swallowed."""
        from repro.bench import run_crash_sweep
        with pytest.raises(TypeError, match="num_opz"):
            run_crash_sweep(smoke=True, num_opz=5)
        with pytest.raises(TypeError, match="num_opz"):
            run_crash_sweep(num_opz=5)

    def test_sweep_engine_resolves_extra_systems(self):
        plan = FaultPlan(max_images=4, max_per_site=1,
                         models=(FaultModel("all-lost", 0.0),))
        result = sweep_engine("rocksbolt", SweepConfig(num_ops=30, plan=plan))
        assert result.ok, "\n".join(str(v) for v in result.violations)

"""Runtime sanitizer tests: lockdep cycles, planted races, zero overhead.

Covers the issue's acceptance criteria: ``Kernel(sanitize=True)``
detects a planted lock-order cycle and a torn version update, real
engine runs are sanitizer-clean, and sanitize mode changes nothing about
the simulation's results.
"""

import pytest

from repro.analysis.sanitizer import NULL_SANITIZER, SanitizerError
from repro.lsm import LSMEngine
from repro.lsm.manifest import VersionEdit
from repro.obs import Tracer
from repro.sim import Environment, Kernel, Resource
from repro.storage import BlockDevice, PageCache, SATA_SSD, SimFS
from repro.tools.dbbench import _parser, run_benchmarks

KB = 1 << 10
MB = 1 << 20


def _silent(*_args, **_kwargs):
    pass


def sanitized_stack(small_options):
    env = Kernel(sanitize=True)
    device = BlockDevice(env, SATA_SSD)
    fs = SimFS(env, device, PageCache(32 * MB))
    db = LSMEngine.open_sync(env, fs, small_options, "db")
    return env, fs, db


class TestKernelWiring:
    def test_default_environment_has_shared_null_sanitizer(self):
        env = Environment()
        assert env.sanitizer is NULL_SANITIZER
        assert not env.sanitizer.enabled

    def test_kernel_alias_and_sanitize_flag(self):
        env = Kernel(sanitize=True)
        assert type(env) is Environment
        assert env.sanitizer.enabled
        assert env.sanitizer.reports == []

    def test_check_is_a_noop_when_clean(self):
        Kernel(sanitize=True).sanitizer.check()


class TestLockdep:
    def _ordered_acquire(self, env, first, second):
        def proc():
            yield first.acquire()
            yield second.acquire()
            second.release()
            first.release()
        env.process(proc())
        env.run()

    def test_three_mutex_cycle_is_reported(self):
        env = Kernel(sanitize=True)
        a = Resource(env, 1, name="A")
        b = Resource(env, 1, name="B")
        c = Resource(env, 1, name="C")
        self._ordered_acquire(env, a, b)
        self._ordered_acquire(env, b, c)
        assert env.sanitizer.reports == []  # A->B->C alone is acyclic
        self._ordered_acquire(env, c, a)
        kinds = [r.kind for r in env.sanitizer.reports]
        assert kinds == ["lock-cycle"]
        message = env.sanitizer.reports[0].message
        for name in ("A", "B", "C"):
            assert name in message
        with pytest.raises(SanitizerError):
            env.sanitizer.check()

    def test_consistent_order_is_clean(self):
        env = Kernel(sanitize=True)
        a = Resource(env, 1, name="A")
        b = Resource(env, 1, name="B")
        for _ in range(3):
            self._ordered_acquire(env, a, b)
        assert env.sanitizer.reports == []

    def test_two_lock_inversion_is_reported(self):
        env = Kernel(sanitize=True)
        a = Resource(env, 1, name="A")
        b = Resource(env, 1, name="B")
        self._ordered_acquire(env, a, b)
        self._ordered_acquire(env, b, a)
        assert [r.kind for r in env.sanitizer.reports] == ["lock-cycle"]

    def test_inversion_is_reported_when_both_locks_are_granted_in_place(self):
        env = Kernel(sanitize=True)
        a = Resource(env, 1, name="A")
        b = Resource(env, 1, name="B")
        fired = []

        def proc(first, second):
            for lock in (first, second):
                fired.append(lock.acquire_in_place())
                if not fired[-1]:
                    yield lock.acquire()
            yield env.timeout(1.0)
            second.release()
            first.release()

        for first, second in ((a, b), (b, a)):
            env.process(proc(first, second))
            env.run()
        assert fired == [True] * 4
        assert [r.kind for r in env.sanitizer.reports] == ["lock-cycle"]

    def test_semaphore_slots_are_not_lock_edges(self):
        # The device channel acquires several slots of ONE capacity>1
        # resource (_acquire_all); that must not look like lock nesting.
        env = Kernel(sanitize=True)
        channel = Resource(env, 4, name="channel")

        def drain():
            for _ in range(4):
                yield channel.acquire()
            for _ in range(4):
                channel.release()

        env.process(drain())
        env.run()
        assert env.sanitizer.reports == []

    def test_contended_handoff_tracks_the_new_owner(self):
        env = Kernel(sanitize=True)
        lock = Resource(env, 1, name="L")
        order = []

        def holder():
            yield lock.acquire()
            order.append("holder")
            yield env.timeout(1.0)
            lock.release()

        def waiter():
            yield lock.acquire()
            order.append("waiter")
            held = env.sanitizer.held_by(env.active_process)
            assert held == [lock]
            lock.release()

        env.process(holder(), name="holder")
        proc = env.process(waiter(), name="waiter")
        env.run_until(proc)
        assert order == ["holder", "waiter"]
        assert env.sanitizer.reports == []


class TestRaceDetector:
    def _race_env(self):
        env = Kernel(sanitize=True)

        class Shared:
            pass

        shared = Shared()
        env.sanitizer.register(shared, "shared")
        return env, shared

    def test_two_unlocked_writers_race(self):
        env, shared = self._race_env()

        def writer():
            env.sanitizer.note_write(shared, "field")
            yield env.timeout(0.01)

        env.process(writer(), name="w1")
        env.process(writer(), name="w2")
        env.run()
        reports = env.sanitizer.reports
        assert [r.kind for r in reports] == ["data-race"]
        assert reports[0].details["object"] == "shared"
        assert sorted(reports[0].details["writers"]) == ["w1", "w2"]

    def test_common_lock_suppresses_the_race(self):
        env, shared = self._race_env()
        lock = Resource(env, 1, name="guard")

        def writer():
            yield lock.acquire()
            env.sanitizer.note_write(shared, "field")
            lock.release()

        env.process(writer(), name="w1")
        env.process(writer(), name="w2")
        env.run()
        assert env.sanitizer.reports == []

    def test_barrier_separates_epochs(self):
        env, shared = self._race_env()

        def writer(delay):
            yield env.timeout(delay)
            env.sanitizer.note_write(shared, "field")

        def barrier_between():
            yield env.timeout(0.5)
            env.sanitizer.barrier("test")

        env.process(writer(0.0), name="w1")
        env.process(barrier_between())
        env.process(writer(1.0), name="w2")
        env.run()
        assert env.sanitizer.reports == []

    def test_unregistered_objects_are_ignored(self):
        env = Kernel(sanitize=True)
        env.sanitizer.note_write(object(), "field")
        assert env.sanitizer.reports == []

    def test_reports_mirrored_as_trace_instants(self):
        tracer = Tracer()
        env = Kernel(sanitize=True, tracer=tracer)

        class Shared:
            pass

        shared = Shared()
        env.sanitizer.register(shared, "versions")

        def writer():
            env.sanitizer.note_write(shared, "current")
            yield env.timeout(0.01)

        env.process(writer(), name="w1")
        env.process(writer(), name="w2")
        env.run()
        instants = [i for i in tracer.instants if i.cat == "sanitizer"]
        assert [i.name for i in instants] == ["sanitizer.data-race"]


class TestPlantedTornVersionUpdate:
    def test_concurrent_unlocked_applies_are_reported(self, small_options):
        # Two sim-threads installing versions directly — bypassing
        # log_and_apply's commit lock — is exactly the torn update the
        # write-set tracker exists to catch.
        env, _fs, db = sanitized_stack(small_options)
        assert env.sanitizer.reports == []

        def rogue_apply():
            db.versions._apply(VersionEdit())
            yield env.timeout(0.001)

        env.process(rogue_apply(), name="rogue1")
        env.process(rogue_apply(), name="rogue2")
        env.run()
        db.close_sync()
        kinds = {r.kind for r in env.sanitizer.reports}
        assert kinds == {"data-race"}
        assert env.sanitizer.reports[0].details["field"] == "current"


class TestEngineIsSanitizerClean:
    def test_write_flush_compact_read_cycle(self, small_options):
        env, _fs, db = sanitized_stack(small_options)

        def workload():
            value = b"v" * 512
            for i in range(400):
                yield from db.put(b"k%06d" % (i * 37 % 400), value)
            yield from db.flush_all()
            for i in range(0, 400, 7):
                yield from db.get(b"k%06d" % i)

        env.run_until(env.process(workload()))
        db.close_sync()
        assert env.sanitizer.reports == [], [
            r.render() for r in env.sanitizer.reports]


class TestSanitizeChangesNothing:
    def test_dbbench_rows_identical_with_and_without_sanitizer(self):
        argv = ["--engine", "bolt", "--num", "600",
                "--benchmarks", "fillrandom,readrandom,stats"]
        plain = run_benchmarks(_parser().parse_args(argv), out=_silent)
        sanitized = run_benchmarks(
            _parser().parse_args(argv + ["--sanitize"]), out=_silent)
        assert plain == sanitized

"""Unit tests for the discrete-event kernel."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import (
    Condition,
    CostModel,
    CpuMeter,
    Environment,
    Interrupt,
    Resource,
    SimulationError,
)


class TestEnvironment:
    def test_clock_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_timeout_advances_clock(self):
        env = Environment()

        def worker():
            yield env.timeout(2.5)

        env.process(worker())
        env.run()
        assert env.now == 2.5

    def test_run_until_limit_without_events(self):
        env = Environment()
        env.run(until=10.0)
        assert env.now == 10.0

    def test_events_fire_in_time_order(self):
        env = Environment()
        log = []

        def waiter(delay, tag):
            yield env.timeout(delay)
            log.append(tag)

        env.process(waiter(3.0, "late"))
        env.process(waiter(1.0, "early"))
        env.process(waiter(2.0, "middle"))
        env.run()
        assert log == ["early", "middle", "late"]

    def test_same_time_events_fire_fifo(self):
        env = Environment()
        log = []

        def waiter(tag):
            yield env.timeout(1.0)
            log.append(tag)

        for tag in ("a", "b", "c"):
            env.process(waiter(tag))
        env.run()
        assert log == ["a", "b", "c"]


class TestProcess:
    def test_return_value(self):
        env = Environment()

        def worker():
            yield env.timeout(1.0)
            return 41 + 1

        proc = env.process(worker())
        assert env.run_until(proc) == 42

    def test_yield_from_composition(self):
        env = Environment()

        def inner():
            yield env.timeout(1.0)
            return "inner-value"

        def outer():
            value = yield from inner()
            yield env.timeout(1.0)
            return value + "!"

        proc = env.process(outer())
        assert env.run_until(proc) == "inner-value!"
        assert env.now == 2.0

    def test_exception_propagates_to_run_until(self):
        env = Environment()

        def worker():
            yield env.timeout(1.0)
            raise ValueError("boom")

        proc = env.process(worker())
        with pytest.raises(ValueError, match="boom"):
            env.run_until(proc)

    def test_waiting_on_failed_event_raises_inside_process(self):
        env = Environment()
        bad = env.event()

        def worker():
            with pytest.raises(RuntimeError, match="bad news"):
                yield bad
            return "survived"

        proc = env.process(worker())
        bad.fail(RuntimeError("bad news"))
        assert env.run_until(proc) == "survived"

    def test_interrupt(self):
        env = Environment()

        def sleeper():
            try:
                yield env.timeout(100.0)
            except Interrupt as interrupt:
                return f"interrupted: {interrupt.cause}"
            return "slept"

        proc = env.process(sleeper())

        def interrupter():
            yield env.timeout(1.0)
            proc.interrupt("wake up")

        env.process(interrupter())
        assert env.run_until(proc) == "interrupted: wake up"
        assert env.now == pytest.approx(1.0)

    def test_yielding_non_event_fails_process(self):
        env = Environment()

        def worker():
            yield 42  # not an Event

        proc = env.process(worker())
        with pytest.raises(SimulationError):
            env.run_until(proc)

    def test_deadlock_detection(self):
        env = Environment()
        never = env.event()

        def worker():
            yield never

        proc = env.process(worker())
        with pytest.raises(SimulationError, match="deadlock"):
            env.run_until(proc)


class TestEvent:
    def test_double_trigger_rejected(self):
        env = Environment()
        event = env.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_late_callback_still_runs(self):
        env = Environment()
        event = env.event()
        event.succeed("v")
        env.run()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        env.run()
        assert seen == ["v"]

    def test_all_of_collects_values_in_order(self):
        env = Environment()
        events = [env.timeout(3.0, "c"), env.timeout(1.0, "a"),
                  env.timeout(2.0, "b")]

        def waiter():
            values = yield env.all_of(events)
            return values

        proc = env.process(waiter())
        assert env.run_until(proc) == ["c", "a", "b"]
        assert env.now == 3.0

    def test_all_of_empty(self):
        env = Environment()

        def waiter():
            values = yield env.all_of([])
            return values

        assert env.run_until(env.process(waiter())) == []

    def test_any_of_returns_first(self):
        env = Environment()

        def waiter():
            value = yield env.any_of([env.timeout(5.0, "slow"),
                                      env.timeout(1.0, "fast")])
            return value

        proc = env.process(waiter())
        assert env.run_until(proc) == "fast"
        assert env.now == 1.0

    def test_any_of_detaches_from_its_losers(self):
        env = Environment()
        never, slow = env.event(), env.timeout(5.0, "slow")

        def wait():
            yield never

        watcher = env.process(wait())  # an unrelated waiter stays
        first = env.any_of([never, slow, env.timeout(1.0, "fast")])
        assert env.run_until(first) == "fast"
        assert never.callbacks == [watcher._resume]
        assert slow.callbacks == []
        env.run()  # the slow loser fires late: no re-trigger, no raise
        never.succeed("late")
        env.run()
        assert first.value == "fast" and watcher.value is None

    def test_any_of_detaches_on_failure_too(self):
        env = Environment()
        never, broken = env.event(), env.event()
        first = env.any_of([never, broken, never])
        broken.fail(ValueError("boom"))

        def waiter():
            try:
                yield first
            except ValueError as error:
                return str(error)

        assert env.run_until(env.process(waiter())) == "boom"
        assert never.callbacks == []
        never.succeed()
        env.run()

    def test_any_of_over_an_already_processed_child(self):
        env = Environment()
        done, never = env.event(), env.event()
        done.succeed("early")
        env.run()
        first = env.any_of([never, done])
        assert env.run_until(first) == "early"
        assert never.callbacks == []


class TestResource:
    def test_mutex_serializes(self):
        env = Environment()
        lock = Resource(env, 1)
        log = []

        def worker(tag):
            yield lock.acquire()
            log.append(f"{tag}-in@{env.now}")
            yield env.timeout(1.0)
            log.append(f"{tag}-out@{env.now}")
            lock.release()

        env.process(worker("a"))
        env.process(worker("b"))
        env.run()
        assert log == ["a-in@0.0", "a-out@1.0", "b-in@1.0", "b-out@2.0"]

    def test_fifo_ordering(self):
        env = Environment()
        lock = Resource(env, 1)
        order = []

        def worker(tag):
            yield lock.acquire()
            order.append(tag)
            yield env.timeout(0.1)
            lock.release()

        for tag in range(5):
            env.process(worker(tag))
        env.run()
        assert order == [0, 1, 2, 3, 4]

    def test_capacity_allows_parallelism(self):
        env = Environment()
        pool = Resource(env, 2)
        done_times = []

        def worker():
            yield pool.acquire()
            yield env.timeout(1.0)
            done_times.append(env.now)
            pool.release()

        for _ in range(4):
            env.process(worker())
        env.run()
        assert done_times == [1.0, 1.0, 2.0, 2.0]

    def test_release_idle_raises(self):
        env = Environment()
        lock = Resource(env, 1)
        with pytest.raises(SimulationError):
            lock.release()

    def test_try_acquire(self):
        env = Environment()
        lock = Resource(env, 1)
        assert lock.try_acquire()
        assert not lock.try_acquire()
        lock.release()
        assert lock.try_acquire()

    def test_contention_stats(self):
        env = Environment()
        lock = Resource(env, 1)

        def worker():
            yield lock.acquire()
            yield env.timeout(1.0)
            lock.release()

        env.process(worker())
        env.process(worker())
        env.run()
        assert lock.total_acquisitions == 2
        assert lock.total_contended == 1


class TestCondition:
    def test_notify_all_wakes_everyone(self):
        env = Environment()
        cond = Condition(env)
        woken = []

        def waiter(tag):
            yield cond.wait()
            woken.append(tag)

        for tag in range(3):
            env.process(waiter(tag))

        def notifier():
            yield env.timeout(1.0)
            cond.notify_all()

        env.process(notifier())
        env.run()
        assert sorted(woken) == [0, 1, 2]

    def test_notify_one(self):
        env = Environment()
        cond = Condition(env)
        woken = []

        def waiter(tag):
            yield cond.wait()
            woken.append(tag)

        env.process(waiter("first"))
        env.process(waiter("second"))

        def notifier():
            yield env.timeout(1.0)
            cond.notify_one()

        env.process(notifier())
        env.run(until=10.0)
        assert woken == ["first"]
        assert cond.waiting == 1


class TestCpuMeter:
    def test_charges_accumulate_and_drain_once(self):
        env = Environment()
        meter = CpuMeter(env, CostModel())
        meter.charge(1.0)
        meter.charge(0.5)
        assert meter.pending == 1.5

        def worker():
            yield from meter.drain()
            return env.now

        assert env.run_until(env.process(worker())) == 1.5
        assert meter.pending == 0.0
        assert meter.total_charged == 1.5

    def test_charge_bytes_uses_model(self):
        env = Environment()
        model = CostModel(memcpy_per_byte=2.0)
        meter = CpuMeter(env, model)
        meter.charge_bytes(3)
        assert meter.pending == 6.0

    @settings(max_examples=60, deadline=None)
    @given(st.floats(1e-12, 1e-3), st.integers(0, 300),
           st.sampled_from([1.0, 0.25, 0.3]), st.floats(0.0, 1e-2))
    def test_charge_repeat_is_n_charges_bit_for_bit(self, seconds, times,
                                                     scale, already):
        # n additions and one addition of n * seconds differ in the last
        # bits; the sum becomes virtual time, so only the former will do.
        env = Environment()
        repeated = CpuMeter(env, CostModel(), scale=scale)
        looped = CpuMeter(env, CostModel(), scale=scale)
        for meter in (repeated, looped):
            meter.charge(already)
        repeated.charge_repeat(seconds, times)
        for _ in range(times):
            looped.charge(seconds)
        assert repeated.pending.hex() == looped.pending.hex()
        assert repeated.total_charged.hex() == looped.total_charged.hex()

    def test_empty_drain_takes_no_time(self):
        env = Environment()
        meter = CpuMeter(env, CostModel())

        def worker():
            yield from meter.drain()
            return env.now

        assert env.run_until(env.process(worker())) == 0.0


class TestSameTickFifoOrdering:
    """Pin the event queue's same-timestamp FIFO contract (seq order).

    The array-backed queue rewrite must preserve the exact global
    processing order: entries scheduled at the same virtual timestamp
    run in scheduling (seq) order, interleaved correctly with entries
    already sitting in the heap for that timestamp.  A silent reorder
    here would change every downstream simulation byte-for-byte.
    """

    @staticmethod
    def _dense_same_tick_run():
        env = Environment()
        log = []

        def chain(tag, fanout):
            # Spawns same-time children from inside a step: exercises
            # scheduling at the *current* tick while the tick is being
            # drained (the fast-path case).
            log.append(("start", tag, env.now))
            for i in range(fanout):
                env.call_later(0.0, lambda t=(tag, i): log.append(
                    ("call", t, env.now)))
            yield env.timeout(0.0)
            log.append(("resumed", tag, env.now))
            event = env.event()
            event.succeed(tag)
            got = yield event
            log.append(("event", got, env.now))

        # Seed a mix of future and same-time work: three ticks, each
        # densely populated, plus processes that keep adding work at the
        # tick being processed.
        for tick in (0.0, 1.0, 1.0, 2.0):
            env.process(_delayed_spawn(env, tick, chain, log))
        for tag in ("x", "y", "z"):
            env.process(chain(tag, 3))
        env.run()
        return log

    def test_same_tick_entries_fifo_by_seq(self):
        env = Environment()
        order = []
        # Schedule 50 zero-delay callbacks from outside any step: they
        # must run in exactly the order scheduled.
        for i in range(50):
            env.call_later(0.0, lambda i=i: order.append(i))
        env.run()
        assert order == list(range(50))

    def test_same_tick_mixed_heap_and_fastpath_fifo(self):
        env = Environment()
        order = []
        # Future-time entries land in the heap; once time advances to
        # 1.0, newly scheduled zero-delay entries (seq higher) must run
        # *after* the heap entries already queued for 1.0 with lower seq:
        # b's timeout (scheduled at time 0) beats a's late callback
        # (scheduled while draining tick 1.0).
        def at_one(tag):
            yield env.timeout(1.0)
            order.append(("proc", tag))
            env.call_later(0.0, lambda: order.append(("late", tag)))

        for tag in ("a", "b"):
            env.process(at_one(tag))
        env.run()
        assert order == [("proc", "a"), ("proc", "b"),
                         ("late", "a"), ("late", "b")]

    def test_dense_same_tick_schedule_is_twice_run_identical(self):
        assert self._dense_same_tick_run() == self._dense_same_tick_run()

    def test_timeout_events_keep_scheduling_order_within_tick(self):
        env = Environment()
        order = []

        def sleeper(tag, delay):
            yield env.timeout(delay)
            order.append(tag)

        # Same deadline reached via different mixes of (schedule time,
        # delay); ties must break by scheduling order, never by delay.
        env.process(sleeper("first", 2.0))
        env.process(sleeper("second", 2.0))
        env.process(sleeper("third", 2.0))
        env.run()
        assert order == ["first", "second", "third"]


def _nap(env, delay, fired=None):
    """``yield env.timeout(delay)``, in place when it can be."""
    in_place = env.sleep_in_place(delay)
    if fired is not None:
        fired.append(in_place)
    if not in_place:
        yield env.timeout(delay)


def _delayed_spawn(env, delay, chain, log):
    yield env.timeout(delay)
    yield from chain(f"t{delay}", 2)


def _event_order_mix(env, seed, log):
    """One seeded mix of every scheduling shape the kernel has; returns
    the root process, which is the last thing to finish.

    Delays come from a small set, so equal deadlines (heap ties) and
    same-tick work are common; the plans are drawn up front, so the
    schedule depends on nothing but the kernel's dispatch order.
    """
    rng = random.Random(seed)
    delays = (0.0, 0.0, 0.25, 0.5, 0.5, 1.0)

    def note(*what):
        log.append((env.now, *what))

    def failing(delay, tag):
        bad = env.event()
        env.call_later(delay, lambda: bad.fail(ValueError(tag)))
        return bad

    def sleeper(tag):
        nap = 5.0
        while True:
            try:
                yield env.timeout(nap)
                note(tag, "slept")
                return
            except Interrupt as interrupt:
                note(tag, "interrupted", interrupt.cause)
                nap = naps[tag]

    def worker(tag, plan, victim):
        for step, (action, delay, width, fails) in enumerate(plan):
            here = (tag, step)
            if action == "sleep":
                yield env.timeout(delay)
                note(here, "woke")
            elif action == "call":
                env.call_later(delay, lambda here=here: note(here, "call"))
            elif action == "event":
                event = env.event()
                env.call_later(delay, lambda event=event, here=here:
                               event.succeed(here))
                note(here, "event", (yield event))
            elif action == "all_of":
                children = [env.timeout(delay * i, value=i)
                            for i in range(width)]
                if fails and children:
                    children[-1] = failing(delay, repr(here))
                try:
                    note(here, "all_of", (yield env.all_of(children)))
                except ValueError as error:
                    note(here, "all_of failed", str(error))
            elif action == "any_of":
                first = yield env.any_of([env.timeout(delay, value="slow"),
                                          env.timeout(delay / 2, value="fast")])
                note(here, "any_of", first)
            elif action == "late":
                done = env.timeout(delay)
                yield done
                done.add_callback(lambda _e, here=here: note(here, "late"))
            elif action == "shared":
                # Several waiters and watchers on one event: the order
                # its callbacks run in is part of the schedule.
                shared.add_callback(lambda _e, here=here: note(here, "watch"))
                note(here, "shared", (yield shared))
            elif action == "interrupt" and victim.is_alive:
                yield env.timeout(delay)
                victim.interrupt(here)
            elif action == "lock":
                # One mutex for every worker: granted free or contended.
                if not mutex.acquire_in_place():
                    yield mutex.acquire()
                note(here, "locked")
                yield from _nap(env, delay)
                mutex.release()
            elif action == "slots":
                # Several slots of one semaphore at once, as a barrier
                # takes a device's channels: all free, some, or none.
                slots = width or 2
                if not channel.acquire_in_place(slots):
                    yield env.all_of([channel.acquire() for _ in range(slots)])
                note(here, "slots", slots)
                yield from _nap(env, delay)
                for _ in range(slots):
                    channel.release()
            elif action == "nap":
                yield from _nap(env, delay)
                note(here, "napped")
        note(tag, "done")

    actions = ("sleep", "call", "event", "all_of", "any_of", "late",
               "shared", "interrupt", "lock", "slots", "nap")
    mutex = Resource(env, 1, name="mutex")
    channel = Resource(env, 3, name="channel")
    shared = env.event()
    env.call_later(rng.choice(delays) + 0.5, lambda: shared.succeed("go"))
    naps = {}
    workers = []
    for index in range(8):
        victim_tag = f"sleeper{index}"
        naps[victim_tag] = rng.choice(delays)
        victim = env.process(sleeper(victim_tag))
        plan = [(rng.choice(actions), rng.choice(delays),
                 rng.choice((0, 1, 3)), rng.random() < 0.3)
                for _ in range(rng.randrange(3, 9))]
        workers += [victim, env.process(worker(f"w{index}", plan, victim))]

    def root():
        note("root", "joined", len((yield env.all_of(workers))))
        yield from _nap(env, 100.0)
        note("root", "done")

    return env.process(root())


def _pending(env):
    return bool(env._queue or env._ready)


def _drive_run(env, root):
    env.run()


def _drive_sliced(env, root):
    until = 0.0
    while _pending(env):
        until += 0.37
        env.run(until=until)


def _drive_run_until(env, root):
    env.run_until(root)


def _drive_step(env, root):
    while _pending(env):
        env.step()


def _never(_env, _at):
    return False


def _with_and_without_in_place(scenario, monkeypatch):
    """Run ``scenario(env, log, fired)`` on the reference kernel (nothing
    continues in place) and then as shipped; both logs, and ``fired``
    of the second run."""
    logs = []
    for in_place in (False, True):
        fired = []
        with monkeypatch.context() as patch:
            if not in_place:
                patch.setattr(Environment, "continues_in_place", _never)
            env = Environment()
            log = []
            scenario(env, log, fired)
        logs.append(log)
    return logs[0], logs[1], fired


class TestEventOrderEquivalence:
    """run(), run(until), run_until() and step() each carry a copy of
    event dispatch; all four must process one mix in the order the
    reference — run() with nothing continuing in place — processes it."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("drive", [_drive_run, _drive_sliced,
                                       _drive_run_until, _drive_step])
    def test_every_loop_logs_the_same_order(self, seed, drive, monkeypatch):
        runs = []
        for driver, patched in ((_drive_run, True), (drive, False)):
            with monkeypatch.context() as patch:
                if patched:
                    patch.setattr(Environment, "continues_in_place", _never)
                env = Environment()
                log = []
                root = _event_order_mix(env, seed, log)
                driver(env, root)
            assert root.value is None
            assert not _pending(env)
            runs.append((log, env._seq))
        (reference, reference_entries), (observed, entries) = runs
        assert observed == reference
        # Nothing continues in place inside step(); the unbounded loops
        # skip entries in every mix (at least the root's last nap).
        if drive is _drive_step:
            assert entries == reference_entries
        elif drive is _drive_sliced:
            assert entries <= reference_entries
        else:
            assert entries < reference_entries
        kinds = {entry[2] for entry in reference if len(entry) > 2}
        assert {"woke", "call", "event", "all_of", "late", "done",
                "interrupted", "shared", "watch", "locked", "slots",
                "napped"} <= kinds


class TestContinueInPlace:
    """The edges of ``continues_in_place``: each scenario logs the same
    under the reference kernel and as shipped, and ``fired`` shows which
    continuations ran in place."""

    def test_a_sleep_may_land_exactly_on_the_run_bound(self, monkeypatch):
        def scenario(env, log, fired):
            def sleeper():
                yield env.timeout(0.5)
                for _ in range(3):
                    yield from _nap(env, 0.5, fired)
                    log.append((env.now, "woke"))

            env.process(sleeper())
            for until in (1.0, 1.5):
                env.run(until=until)
                log.append((env.now, "returned"))
            env.run()

        reference, observed, fired = _with_and_without_in_place(
            scenario, monkeypatch)
        assert observed == reference
        assert reference[:2] == [(1.0, "woke"), (1.0, "returned")]
        assert fired == [True, False, False]

    def test_a_sleep_onto_an_equal_heap_deadline_yields(self, monkeypatch):
        def scenario(env, log, fired):
            def early():
                yield env.timeout(1.0)
                log.append((env.now, "early"))
                yield env.timeout(5.0)

            def late():
                yield env.timeout(0.5)
                yield from _nap(env, 0.5, fired)
                log.append((env.now, "late"))
                yield from _nap(env, 0.5, fired)
                log.append((env.now, "later"))

            env.process(early())
            env.process(late())
            env.run()

        reference, observed, fired = _with_and_without_in_place(
            scenario, monkeypatch)
        assert observed == reference == [
            (1.0, "early"), (1.0, "late"), (1.5, "later")]
        assert fired == [False, True]

    def test_run_until_stops_once_its_event_is_processed(self, monkeypatch):
        def scenario(env, log, fired):
            gate = env.event()

            def opener():
                yield env.timeout(1.0)
                gate.succeed("open")
                yield env.timeout(5.0)

            def waiter():
                value = yield gate
                log.append((env.now, "gate", value))
                yield from _nap(env, 0.0, fired)
                log.append((env.now, "after"))

            env.process(opener())
            env.process(waiter())
            env.run_until(gate)
            log.append((env.now, "returned"))
            env.run()

        reference, observed, fired = _with_and_without_in_place(
            scenario, monkeypatch)
        assert observed == reference == [
            (1.0, "gate", "open"), (1.0, "returned"), (1.0, "after")]
        assert fired == [False]

    def test_only_the_last_callback_of_a_shared_event_continues(
            self, monkeypatch):
        def scenario(env, log, fired):
            shared, solo = env.event(), env.event()

            def waiter(tag, event):
                value = yield event
                log.append((env.now, tag, value))
                yield from _nap(env, 0.25, fired)
                log.append((env.now, tag, "slept"))

            env.process(waiter("a", shared))
            env.process(waiter("b", shared))
            env.call_later(0.5, lambda: shared.add_callback(
                lambda _e: log.append((env.now, "watch"))))
            env.call_later(1.0, lambda: shared.succeed("go"))
            solo.add_callback(lambda _e: log.append((env.now, "first")))
            env.process(waiter("c", solo))
            env.call_later(2.0, lambda: solo.succeed("solo"))
            env.run()

        reference, observed, fired = _with_and_without_in_place(
            scenario, monkeypatch)
        assert observed == reference
        assert reference[:4] == [(1.0, "a", "go"), (1.0, "b", "go"),
                                 (1.0, "watch"), (1.25, "a", "slept")]
        # a and b each had a sibling still to run; c's was done.
        assert fired == [False, False, True]

    def test_never_in_place_inside_step_or_outside_a_loop(self):
        env = Environment()
        seen = []

        def probe():
            seen.append(env.continues_in_place(env.now))
            yield env.timeout(1.0)
            seen.append(env.continues_in_place(env.now))

        env.process(probe())
        assert not env.continues_in_place(env.now)
        env.step()
        env.run()
        assert seen == [False, True]
        assert not env.continues_in_place(env.now)

        env.call_later(0.5, lambda: 1 / 0)  # escapes the loop
        with pytest.raises(ZeroDivisionError):
            env.run()
        assert not env.continues_in_place(env.now)

    def test_acquire_in_place_takes_only_free_uncontended_slots(self):
        env = Environment()
        lock = Resource(env, 1)
        channel = Resource(env, 3)
        got = []

        def proc():
            got.append(lock.acquire_in_place())
            got.append(lock.acquire_in_place())
            got.append(channel.acquire_in_place(2))
            got.append(channel.acquire_in_place(2))
            yield env.timeout(1.0)

        env.process(proc())
        env.run()
        assert got == [True, False, True, False]
        assert (lock.in_use, lock.total_acquisitions) == (1, 1)
        assert (channel.in_use, channel.total_acquisitions) == (2, 2)
        assert lock.total_contended == channel.total_contended == 0

    def test_negative_sleep_is_rejected_like_a_negative_timeout(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.sleep_in_place(-0.5)
        with pytest.raises(ValueError):
            env.timeout(-0.5)

    def test_any_of_nothing_is_rejected_instead_of_never_firing(self):
        with pytest.raises(ValueError):
            Environment().any_of([])

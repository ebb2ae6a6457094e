"""Discrete-event simulation kernel.

This module is the foundation of the whole reproduction: every key-value
store in :mod:`repro` runs on a *virtual* clock so that performance
numbers (throughput, tail latency, barrier counts) come from an explicit
storage cost model instead of meaningless Python wall-clock time.

The kernel follows the classic process-interaction style (as popularized
by SimPy): simulated activities are plain Python generators that
``yield`` :class:`Event` objects and are resumed when those events
trigger.  A tiny example::

    env = Environment()

    def worker(env):
        yield env.timeout(1.5)      # sleep 1.5 virtual seconds
        return "done"

    proc = env.process(worker(env))
    env.run()
    assert env.now == 1.5
    assert proc.value == "done"

Generators compose with ``yield from``, so the LSM engines in this
repository write their blocking paths (device I/O, lock acquisition,
write stalls) as ordinary structured code.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Deque, Generator, Iterable, List, Optional, Tuple

from ..analysis.sanitizer import NULL_SANITIZER, Sanitizer
from ..obs.tracer import NULL_TRACER

__all__ = [
    "Environment",
    "Kernel",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "SimulationError",
]

#: Type alias for the generators the kernel drives.
Coroutine = Generator["Event", Any, Any]


class SimulationError(RuntimeError):
    """Raised for misuse of the kernel (e.g. re-triggering an event)."""


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A single occurrence a process can wait for.

    An event is *triggered* once, by :meth:`succeed` or :meth:`fail`.
    Callbacks attached before the trigger run when the environment
    processes the event; callbacks attached afterwards are scheduled
    immediately (still through the event queue, so callback execution
    never recurses).
    """

    __slots__ = ("env", "callbacks", "_value", "_exc", "_triggered", "_processed")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._triggered = False
        self._processed = False

    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._triggered and self._exc is None

    @property
    def value(self) -> Any:
        """The success value. Raises the failure exception if failed."""
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        if self._exc is not None:
            raise self._exc
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The exception this event failed with, if any."""
        return self._exc

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event as failed; waiters see ``exc`` raised."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._exc = exc
        self.env._schedule(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(self)`` when the event is processed."""
        if self._processed:
            # Late subscriber: deliver through the queue to stay iterative.
            self.env._schedule_call(callback, self)
        elif self.callbacks is not None:
            self.callbacks.append(callback)

    def _process(self) -> None:
        # The statement of event dispatch.  step() calls it; run(),
        # run(until) and run_until() inline it, counting siblings, and
        # tests/test_sim_kernel.py holds all four to one event order.
        self._processed = True
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(self)


class Timeout(Event):
    """An event that triggers ``delay`` virtual seconds in the future."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        super().__init__(env)
        self._triggered = True
        self._value = value
        env._schedule(self, delay)


class Process(Event):
    """Drives a generator; itself an event that triggers when it returns.

    The generator may yield any :class:`Event`.  When the yielded event
    succeeds, the generator is resumed with the event's value; when it
    fails, the exception is thrown into the generator.
    """

    __slots__ = ("_gen", "_send", "_throw", "_waiting_on", "name")

    def __init__(self, env: "Environment", gen: Coroutine, name: str = ""):
        super().__init__(env)
        self._gen = gen
        # Bound methods, looked up once: every event delivery resumes a
        # generator, so the per-resume attribute chain is measurable.
        self._send = gen.send
        self._throw = gen.throw
        self._waiting_on: Optional[Event] = None
        self.name = name or getattr(gen, "__name__", "process")
        if env.tracer.enabled:
            env.tracer.process_spawned(self)
        # Kick off at the current simulation time.
        env._schedule_call(self._resume, None)

    @property
    def is_alive(self) -> bool:
        """True while the process has not terminated."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._triggered:
            return
        self.env._schedule_call(self._deliver_interrupt, Interrupt(cause))

    def _deliver_interrupt(self, interrupt: Interrupt) -> None:
        if self._triggered:
            return
        # Resume as if the awaited event had failed with the interrupt.
        failed = Event(self.env)
        failed._triggered = True
        failed._exc = interrupt
        self._waiting_on = failed
        self._resume(failed)

    def _resume(self, event: Optional[Event]) -> None:
        # Every delivered event resumes a process here, which makes this
        # the kernel's hottest method: add_callback() is inlined below.
        if self._triggered:
            return
        if event is not None and self._waiting_on is not event:
            return  # stale wakeup (e.g. we were interrupted meanwhile)
        self._waiting_on = None
        # Publish which simulated process is executing so tracer spans
        # recorded during this step attach to the right track.
        env = self.env
        previous = env.active_process
        env.active_process = self
        try:
            if event is None:
                target = self._send(None)
            elif event._exc is None:
                target = self._send(event._value)
            else:
                target = self._throw(event._exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            if env.tracer.enabled:
                env.tracer.process_finished(self)
            return
        except BaseException as error:  # noqa: BLE001 - propagate to waiters
            self.fail(error)
            if env.tracer.enabled:
                env.tracer.process_finished(self)
            return
        finally:
            env.active_process = previous
        if not isinstance(target, Event):
            self._gen.close()
            self.fail(SimulationError(
                f"process {self.name!r} yielded {target!r}, expected an Event"))
            return
        self._waiting_on = target
        # add_callback() inlined (same hot path; semantics identical).
        if target._processed:
            env._schedule_call(self._resume, target)
        elif target.callbacks is not None:
            target.callbacks.append(self._resume)


class _AnyOf(Event):
    """:meth:`Environment.any_of`'s aggregate: takes the first child's
    result, then detaches from every child not yet processed.

    A loser may never fire (a shard's ``primary_down`` while its primary
    lives), so a callback left on it would stay for good, one per race.
    The callback is a bound method: ``list.remove`` finds it by ``==``,
    and no reference cycle outlives the resolution.
    """

    __slots__ = ("_children",)

    def __init__(self, env: "Environment", children: List[Event]):
        super().__init__(env)
        self._children: Optional[List[Event]] = children
        for child in children:
            child.add_callback(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self._triggered:
            return  # a child processed before the race began, delivered late
        if child._exc is not None:
            self.fail(child._exc)
        else:
            self.succeed(child._value)
        children, self._children = self._children, None
        on_child = self._on_child
        for other in children:
            if other.callbacks:  # None once processed: nothing to detach
                other.callbacks.remove(on_child)


#: One scheduled entry: ``(time, seq, target, args)``.  ``args is None``
#: means ``target`` is an Event to ``_process()``; otherwise ``target``
#: is called with ``*args``.  Flat tuples keep heap pushes allocation-
#: light and comparable without ever reaching the target (seq is unique).
_Entry = Tuple[float, int, Any, Any]


class Environment:
    """The event loop: a priority queue of events ordered by virtual time.

    Two queues back the loop: a binary heap for future-time entries and
    a FIFO deque fast path for entries scheduled at the *current* tick
    (the overwhelmingly common case — event callbacks, process resumes
    and zero-delay timeouts).  Entries are processed in exact
    ``(time, seq)`` order across both queues, so the fast path is
    invisible: the sequence of processed events is byte-for-byte the one
    a single heap would produce (pinned by the same-tick FIFO tests).
    """

    def __init__(self, initial_time: float = 0.0, tracer: Any = None,
                 sanitize: bool = False):
        #: Current virtual time, in seconds; the loops and sleep_in_place write it.
        self.now = float(initial_time)
        self._queue: List[_Entry] = []
        #: Same-tick FIFO: every entry has ``time == self.now`` and a
        #: seq greater than any earlier same-time entry, so its head
        #: competes with the heap head by plain tuple comparison.
        self._ready: Deque[_Entry] = deque()
        self._seq = 0
        # continues_in_place() state: the running loop's last dispatch time (-inf
        # outside loops), run_until()'s event, callbacks still to run this dispatch.
        self._horizon = -math.inf
        self._awaited: Optional[Event] = None
        self._siblings = 0
        #: The simulated process currently being stepped (or None).
        self.active_process: Optional[Process] = None
        #: The installed :mod:`repro.obs` tracer (NULL_TRACER when off);
        #: only a tracer's ``attach(env)`` installs one, binding its clock.
        self.tracer: Any = NULL_TRACER
        if tracer is not None:
            tracer.attach(self)
        #: Lockdep + data-race checker (:mod:`repro.analysis.sanitizer`);
        #: the shared NULL_SANITIZER when sanitize mode is off, so hot
        #: paths guard with a single ``enabled`` attribute read.
        self.sanitizer = Sanitizer(self) if sanitize else NULL_SANITIZER

    # -- scheduling ----------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        self._seq = seq = self._seq + 1
        if delay == 0.0:
            self._ready.append((self.now, seq, event, None))
        else:
            heappush(self._queue, (self.now + delay, seq, event, None))

    def _schedule_call(self, func: Callable, arg: Any, delay: float = 0.0) -> None:
        self._seq = seq = self._seq + 1
        if delay == 0.0:
            self._ready.append((self.now, seq, func, (arg,)))
        else:
            heappush(self._queue, (self.now + delay, seq, func, (arg,)))

    def continues_in_place(self, at: float) -> bool:
        """True if an entry scheduled now for ``at`` would be the running loop's next dispatch."""
        return (not self._ready and not self._siblings and at <= self._horizon
                and (not self._queue or self._queue[0][0] > at)
                and (self._awaited is None or not self._awaited._processed))

    def sleep_in_place(self, delay: float) -> bool:
        """``if not env.sleep_in_place(d): yield env.timeout(d)`` skips the queue."""
        if delay < 0:
            raise ValueError(f"negative sleep delay: {delay!r}")
        at = self.now + delay  # the expression _schedule() uses
        if self.continues_in_place(at):
            self.now = at
            return True
        return False

    def _dispatch_shared(self, event: Event, callbacks: List[Callable]) -> None:
        for left, callback in zip(range(len(callbacks) - 1, -1, -1), callbacks):
            self._siblings = left
            callback(event)

    # -- event constructors --------------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires after ``delay`` virtual seconds."""
        return Timeout(self, delay, value)

    def process(self, gen: Coroutine, name: str = "") -> Process:
        """Start a new simulated process driving ``gen``."""
        return Process(self, gen, name=name)

    def call_later(self, delay: float, func: Callable[[], None]) -> None:
        """Run ``func()`` at virtual time ``now + delay``.

        A lightweight alternative to :meth:`process` for instantaneous
        actions that need no event of their own — e.g. the fault
        injector (:mod:`repro.faults`) arming time-based crash points.
        """
        if delay < 0:
            raise ValueError(f"negative call_later delay: {delay!r}")
        self._schedule_call(lambda _arg: func(), None, delay)

    def all_of(self, events: Iterable[Event]) -> Event:
        """An event that succeeds once every event in ``events`` has.

        The value is the list of individual event values, in order.
        A failure of any child fails the aggregate immediately.
        """
        events = list(events)
        done = Event(self)
        if not events:
            done.succeed([])
            return done
        remaining = len(events)

        def on_child(child: Event) -> None:
            """Resolve the aggregate once every child has completed."""
            nonlocal remaining
            if done._triggered:
                return
            if child._exc is not None:
                done.fail(child._exc)
                return
            remaining -= 1
            if remaining == 0:
                done.succeed([event._value for event in events])

        for child in events:  # one callback serves every child
            child.add_callback(on_child)
        return done

    def any_of(self, events: Iterable[Event]) -> Event:
        """An event that succeeds as soon as any child event succeeds."""
        events = list(events)
        if not events:
            raise ValueError("any_of() needs at least one event")
        return _AnyOf(self, events)

    # -- execution -----------------------------------------------------

    def step(self) -> None:
        """Process the single next queued event, in (time, seq) order."""
        ready, queue = self._ready, self._queue
        if ready and (not queue or ready[0] <= queue[0]):
            time, _seq, target, args = ready.popleft()
        else:
            time, _seq, target, args = heappop(queue)
        self.now = time
        self._horizon = -math.inf  # nothing continues in place in step()
        if args is None:
            target._process()
        else:
            target(*args)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or virtual time passes ``until``."""
        # The loop bodies here and in run_until() are step() inlined,
        # Event._process() included, with the queue heads bound to
        # locals: this is the hottest loop in the repository, and every
        # call and attribute read per event adds up across tens of millions
        # of events in a figure-scale run (so a lone callback is unpacked).
        queue = self._queue
        ready = self._ready
        pop = heappop
        self._horizon, self._awaited = math.inf if until is None else until, None
        try:
            if until is None:
                while queue or ready:
                    if ready and (not queue or ready[0] <= queue[0]):
                        time, _seq, target, args = ready.popleft()
                    else:
                        time, _seq, target, args = pop(queue)
                    self.now = time
                    if args is None:
                        target._processed = True
                        callbacks = target.callbacks
                        target.callbacks = None
                        if callbacks:
                            try:
                                (callback,) = callbacks
                            except ValueError:
                                self._dispatch_shared(target, callbacks)
                            else:
                                callback(target)
                    else:
                        target(*args)
                return
            while True:
                if ready and (not queue or ready[0] <= queue[0]):
                    if ready[0][0] > until:
                        break
                    time, _seq, target, args = ready.popleft()
                elif queue:
                    if queue[0][0] > until:
                        break
                    time, _seq, target, args = pop(queue)
                else:
                    break
                self.now = time
                if args is None:
                    target._processed = True
                    callbacks = target.callbacks
                    target.callbacks = None
                    if callbacks:
                        try:
                            (callback,) = callbacks
                        except ValueError:
                            self._dispatch_shared(target, callbacks)
                        else:
                            callback(target)
                else:
                    target(*args)
        finally:
            self._horizon, self._awaited, self._siblings = -math.inf, None, 0
        if self.now < until:
            self.now = until

    def run_until(self, event: Event, limit: float = math.inf) -> Any:
        """Run until ``event`` is processed; return its value.

        Raises the event's exception if it failed, or
        :class:`SimulationError` if the queue drains first (deadlock).
        """
        queue = self._queue
        ready = self._ready
        pop = heappop
        no_limit = limit == math.inf
        self._horizon, self._awaited = limit, event
        try:
            while not event._processed:
                if ready and (not queue or ready[0] <= queue[0]):
                    if not no_limit and ready[0][0] > limit:
                        raise SimulationError(
                            f"virtual time limit {limit} exceeded")
                    time, _seq, target, args = ready.popleft()
                elif queue:
                    if not no_limit and queue[0][0] > limit:
                        raise SimulationError(
                            f"virtual time limit {limit} exceeded")
                    time, _seq, target, args = pop(queue)
                else:
                    raise SimulationError(
                        "event queue drained before the awaited event fired "
                        "(simulation deadlock?)")
                self.now = time
                if args is None:
                    target._processed = True
                    callbacks = target.callbacks
                    target.callbacks = None
                    if callbacks:
                        try:
                            (callback,) = callbacks
                        except ValueError:
                            self._dispatch_shared(target, callbacks)
                        else:
                            callback(target)
                else:
                    target(*args)
        finally:
            self._horizon, self._awaited, self._siblings = -math.inf, None, 0
        return event.value


#: Alias emphasizing the "simulation kernel" role, matching the analysis
#: docs' ``Kernel(sanitize=True)`` spelling.
Kernel = Environment

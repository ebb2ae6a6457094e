"""Synchronization primitives for simulated processes.

These mirror the primitives the real LevelDB code base leans on: a mutex
(:class:`Resource` with capacity 1), a semaphore (capacity > 1, used to
model device parallelism and compaction thread pools), and a condition
variable (:class:`Condition`, used for "wait until the background thread
made room" write stalls).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from .kernel import Environment, Event, SimulationError

__all__ = ["Resource", "Condition"]


class Resource:
    """A FIFO counting resource (mutex when ``capacity == 1``).

    Usage from a process::

        yield lock.acquire()
        try:
            ...critical section...
        finally:
            lock.release()
    """

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
        # Contention statistics, reported by the benchmark harness.
        self.total_acquisitions = 0
        self.total_contended = 0

    @property
    def in_use(self) -> int:
        """Number of slots currently held."""
        return self._in_use

    def acquire(self) -> Event:
        """Return an event that succeeds once a slot is granted."""
        self.total_acquisitions += 1
        grant = Event(self.env)
        sanitizer = self.env.sanitizer
        if sanitizer.enabled and self.capacity == 1:
            # Capture the acquiring process now; the grant may be
            # processed later (contended hand-off), when a different
            # process is active.  Semaphores (capacity > 1) are device
            # channels, not mutexes — no ordering discipline applies.
            owner = self.env.active_process
            grant.add_callback(
                lambda _event: sanitizer.note_acquired(self, owner))
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            grant.succeed(self)
        else:
            self.total_contended += 1
            self._waiters.append(grant)
        return grant

    def try_acquire(self, slots: int = 1) -> bool:
        """Non-blocking acquire; True if ``slots`` were granted synchronously."""
        if self._in_use + slots <= self.capacity and not self._waiters:
            self._in_use += slots
            self.total_acquisitions += slots
            sanitizer = self.env.sanitizer
            if sanitizer.enabled and self.capacity == 1:
                sanitizer.note_acquired(self, self.env.active_process)
            return True
        return False

    def acquire_in_place(self, slots: int = 1) -> bool:
        """Take ``slots`` free slots now if their grants would be dispatched
        next: ``if not lock.acquire_in_place(): yield lock.acquire()``."""
        return self.env.continues_in_place(self.env.now) and self.try_acquire(slots)

    def release(self) -> None:
        """Release a slot, waking the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        sanitizer = self.env.sanitizer
        if sanitizer.enabled and self.capacity == 1:
            sanitizer.note_released(self, self.env.active_process)
        if self._waiters:
            grant = self._waiters.popleft()
            grant.succeed(self)  # slot transfers directly to the waiter
        else:
            self._in_use -= 1


class Condition:
    """A broadcast condition variable.

    Processes ``yield cond.wait()``; :meth:`notify_all` wakes everyone.
    As with a real condition variable, waiters must re-check their
    predicate in a loop.
    """

    def __init__(self, env: Environment, name: str = ""):
        self.env = env
        self.name = name
        self._waiters: List[Event] = []

    def wait(self) -> Event:
        """An event that fires at the next notify."""
        event = Event(self.env)
        self._waiters.append(event)
        return event

    def notify_all(self) -> None:
        """Wake every waiter registered so far."""
        waiters, self._waiters = self._waiters, []
        for event in waiters:
            event.succeed()

    def notify_one(self) -> None:
        """Wake the longest-waiting waiter."""
        if self._waiters:
            self._waiters.pop(0).succeed()

    @property
    def waiting(self) -> int:
        """Number of events currently waiting on this condition."""
        return len(self._waiters)

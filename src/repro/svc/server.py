"""The serving layer: worker slots, admission queue, typed outcomes.

A :class:`Server` fronts one engine with ``num_workers`` simulated
worker processes draining a bounded admission queue.  Its job is to
make overload and degradation *explicit*:

* queue full  → shed (``POLICY_REJECT``) or apply backpressure by
  blocking the submitter (``POLICY_BLOCK``);
* engine at the L0Stop governor → writes are shed early under
  ``POLICY_REJECT`` instead of piling onto a stalled write path;
* :mod:`repro.health` read-only degradation (ENOSPC et al.) → writes
  fail fast with a ``read_only`` outcome while reads keep serving.

Behind a cluster backend, a partitioned or failing-over shard *parks*
requests rather than failing them (docs/FAULT_MODEL.md §7): the shard
retries with backoff until a replica is promoted, so clients see tail
latency, not errors.  A :class:`~repro.cluster.FencedError` from a
stale primary never reaches a client — the shard discards the fenced
attempt and retries on the new primary — but if one ever surfaced it
would classify as a typed ``error`` outcome like any other
:class:`~repro.storage.DeviceError`.

Every request resolves to a :class:`RequestOutcome` with a typed
``status`` — a degraded store produces errors, never wedged clients.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Generator, Tuple

from ..health import ReadOnlyError
from ..lsm.codec import CorruptionError
from ..sim import Condition, Environment, Event
from ..storage import DeviceError, DiskFullError

__all__ = [
    "Server",
    "ServerStats",
    "Request",
    "RequestOutcome",
    "POLICY_REJECT",
    "POLICY_BLOCK",
    "STATUS_OK",
    "STATUS_REJECTED",
    "STATUS_READ_ONLY",
    "STATUS_ERROR",
    "WRITE_KINDS",
]

#: Admission policies: shed on a full queue, or block the submitter.
POLICY_REJECT = "reject"
POLICY_BLOCK = "block"

#: Typed per-request outcome statuses.
STATUS_OK = "ok"
STATUS_REJECTED = "rejected"
STATUS_READ_ONLY = "read_only"
STATUS_ERROR = "error"

#: Operation kinds that mutate the store (admission treats these
#: specially while degraded or stalled).
WRITE_KINDS = ("insert", "update", "delete", "rmw")


@dataclass
class Request:
    """One client operation submitted to the server.

    ``intended_start`` is when the open-loop schedule *wanted* the
    operation issued (it may precede ``submitted`` when the client is
    running behind); latency is measured from it, so queueing delay is
    part of the number (the coordinated-omission fix, docs/SERVING.md).
    """

    kind: str
    key: bytes
    payload: Any = b""
    client_id: int = 0
    intended_start: float = 0.0
    #: Stamped by :meth:`Server.submit`.
    submitted: float = 0.0


@dataclass
class RequestOutcome:
    """How one request ended: typed status, value, and timing."""

    request: Request
    status: str
    value: Any = None
    #: When a worker began executing (== finished for shed requests).
    started: float = 0.0
    finished: float = 0.0
    error: str = ""

    @property
    def ok(self) -> bool:
        """True when the request completed successfully."""
        return self.status == STATUS_OK

    @property
    def latency(self) -> float:
        """Intended-start → completion time (includes queueing delay)."""
        return self.finished - self.request.intended_start

    @property
    def queue_delay(self) -> float:
        """Time between the intended start and worker pickup."""
        return self.started - self.request.intended_start


@dataclass
class ServerStats:
    """Serving-layer counters (engine counters live on the engine)."""

    submitted: int = 0
    accepted: int = 0
    completed: int = 0
    ok: int = 0
    rejected: int = 0
    #: Rejections caused by the L0-stop governor shedding writes (a
    #: subset of ``rejected``).
    shed_writes: int = 0
    read_only: int = 0
    io_errors: int = 0
    peak_queue_depth: int = 0
    #: Total submit→pickup time across completed requests.
    queue_time: float = 0.0

    def snapshot(self) -> Dict[str, float]:
        """The counters as a flat dict (the ``svc`` snapshot section)."""
        return dict(vars(self))


class Server:
    """N worker slots over one engine, with explicit admission control.

    Usage from a simulated process::

        server = Server(env, db, num_workers=4, queue_depth=64)
        done = yield from server.submit(Request("read", b"k"))
        outcome = yield done          # a RequestOutcome, never an exception
        ...
        yield from server.close()

    The completion event always *succeeds* — failures travel in the
    outcome's ``status``/``error`` fields, so one slow or failing
    request cannot crash a client's submission loop.
    """

    def __init__(self, env: Environment, db: Any, num_workers: int = 4,
                 queue_depth: int = 64, policy: str = POLICY_REJECT):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if policy not in (POLICY_REJECT, POLICY_BLOCK):
            raise ValueError(f"unknown admission policy {policy!r}")
        self.env = env
        self.db = db
        self.queue_depth = queue_depth
        self.policy = policy
        self.stats = ServerStats()
        self._queue: Deque[Tuple[Request, Event, Any]] = deque()
        self._work = Condition(env, name="svc-work")
        self._space = Condition(env, name="svc-space")
        self._idle = Condition(env, name="svc-idle")
        self._active = 0
        self._closed = False
        self._workers = [env.process(self._worker(), name=f"svc-worker-{i}")
                         for i in range(num_workers)]

    # -- admission -------------------------------------------------------

    def admission_state(self, key: Any = None) -> str:
        """The admission state machine's current node (docs diagram).

        The backend answers: one engine has one state
        (:meth:`repro.lsm.LSMEngine.admission_state`), the cluster store
        admits per *shard*, so per key.
        """
        return self.db.admission_state(key)

    def _resolved(self, request: Request, status: str,
                  error: str = "") -> Event:
        """An already-completed event for a request that never queued."""
        now = self.env.now
        done = self.env.event()
        done.succeed(RequestOutcome(request=request, status=status,
                                    started=now, finished=now, error=error))
        return done

    def submit(self, request: Request) -> Generator[Event, Any, Event]:
        """Admit ``request``; returns its completion event.

        Shed and read-only requests resolve immediately with a typed
        outcome.  Under ``POLICY_BLOCK`` this coroutine blocks while the
        queue is full (explicit backpressure on the submitter).
        """
        self.stats.submitted += 1
        request.submitted = self.env.now
        if request.intended_start == 0.0:
            request.intended_start = self.env.now
        if self._closed:
            return self._resolved(request, STATUS_REJECTED, "server closed")
        is_write = request.kind in WRITE_KINDS
        state = self.db.admission_state(request.key)
        if is_write and state == "read_only":
            self.stats.read_only += 1
            return self._resolved(request, STATUS_READ_ONLY,
                                  f"store is read-only: {self.db.health.reason}")
        if is_write and state == "shed_writes" and self.policy == POLICY_REJECT:
            self.stats.rejected += 1
            self.stats.shed_writes += 1
            return self._resolved(request, STATUS_REJECTED,
                                  "write shed: L0Stop governor active")
        while len(self._queue) >= self.queue_depth:
            if self.policy == POLICY_REJECT:
                self.stats.rejected += 1
                return self._resolved(request, STATUS_REJECTED,
                                      "admission queue full")
            yield self._space.wait()
            if self._closed:
                # The server stopped while this submitter was parked in
                # the admission queue: resolve typed instead of letting
                # the process hang on a condition nobody will notify.
                self.stats.rejected += 1
                return self._resolved(request, STATUS_REJECTED,
                                      "server closed")
        done = Event(self.env)
        record = None
        tracer = self.env.tracer
        if tracer.enabled:
            record = tracer.span("svc.enqueue", cat="svc",
                                 client=request.client_id,
                                 depth=len(self._queue)).__enter__()
        self._queue.append((request, done, record))
        self.stats.accepted += 1
        self.stats.peak_queue_depth = max(self.stats.peak_queue_depth,
                                          len(self._queue))
        self._work.notify_one()
        return done

    # -- execution -------------------------------------------------------

    def _worker(self) -> Generator[Event, Any, None]:
        while True:
            if not self._queue:
                if self._closed:
                    return
                yield self._work.wait()
                continue
            request, done, record = self._queue.popleft()
            if self.policy == POLICY_BLOCK:
                self._space.notify_one()
            tracer = self.env.tracer
            if record is not None:
                tracer.finish_span(record)
            self._active += 1
            started = self.env.now
            self.stats.queue_time += started - request.submitted
            status, value, error = STATUS_OK, None, ""
            try:
                value = yield from self._execute(request)
            except ReadOnlyError as exc:
                status, error = STATUS_READ_ONLY, str(exc)
                self.stats.read_only += 1
            except (DeviceError, DiskFullError, CorruptionError) as exc:
                status, error = STATUS_ERROR, repr(exc)
                self.stats.io_errors += 1
            self._active -= 1
            self.stats.completed += 1
            if status == STATUS_OK:
                self.stats.ok += 1
            if tracer.enabled:
                tracer.count("svc.completed")
            done.succeed(RequestOutcome(
                request=request, status=status, value=value,
                started=started, finished=self.env.now, error=error))
            if not self._queue and self._active == 0:
                self._idle.notify_all()

    def _execute(self, request: Request) -> Generator[Event, Any, Any]:
        """The engine coroutine running one operation (YCSB kinds +
        delete); handed back, not wrapped, so every resume of a request
        passes one generator frame fewer."""
        db = self.db
        kind = request.kind
        if kind == "read":
            return db.get(request.key)
        if kind == "scan":
            return db.scan(request.key, request.payload)
        if kind in ("insert", "update"):
            return db.put(request.key, request.payload)
        if kind == "delete":
            return db.delete(request.key)
        if kind == "rmw":
            return self._read_modify_write(request)
        raise ValueError(f"unknown operation kind {kind!r}")

    def _read_modify_write(self, request: Request
                           ) -> Generator[Event, Any, Any]:
        yield from self.db.get(request.key)
        return (yield from self.db.put(request.key, request.payload))

    # -- lifecycle -------------------------------------------------------

    def drain(self) -> Generator[Event, Any, None]:
        """Block until the queue is empty and no worker is mid-request."""
        while self._queue or self._active:
            yield self._idle.wait()

    def close(self) -> Generator[Event, Any, None]:
        """Drain outstanding requests, then stop every worker.

        Draining admits the queued work, so ``POLICY_BLOCK`` submitters
        parked on the space condition get slots and complete normally;
        the final notify sweeps up any submitter still parked (a burst
        larger than the queue), which then resolves typed-rejected.
        """
        yield from self.drain()
        self._closed = True
        self._work.notify_all()
        self._space.notify_all()
        yield self.env.all_of(self._workers)

    def abort(self) -> Generator[Event, Any, None]:
        """Stop *now*: queued and parked requests resolve typed-rejected.

        Workers finish the request they are executing (no mid-operation
        interrupt — the engine's write path must never be torn), every
        queued request resolves with a ``rejected`` outcome, and every
        ``POLICY_BLOCK`` submitter parked on the space condition wakes
        to a typed rejection.  No client hangs, no sim process leaks.
        """
        self._closed = True
        tracer = self.env.tracer
        while self._queue:
            request, done, record = self._queue.popleft()
            if record is not None:
                tracer.finish_span(record)
            self.stats.rejected += 1
            self.stats.completed += 1
            now = self.env.now
            done.succeed(RequestOutcome(request=request,
                                        status=STATUS_REJECTED,
                                        started=now, finished=now,
                                        error="server closed"))
        self._work.notify_all()
        self._space.notify_all()
        yield self.env.all_of(self._workers)

    def close_sync(self) -> None:
        """Blocking wrapper around :meth:`close`."""
        self.env.run_until(self.env.process(self.close()))

    def abort_sync(self) -> None:
        """Blocking wrapper around :meth:`abort`."""
        self.env.run_until(self.env.process(self.abort()))

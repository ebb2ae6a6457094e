"""The write path of :class:`~repro.lsm.engine.LSMEngine`, which holds
its state: writer queue, group commit, the §2.3 MakeRoomForWrite
governors (L0SlowDown, L0Stop, immutable-MemTable wait), WAL rotation."""

from __future__ import annotations

from itertools import islice
from typing import Any, Generator, List, Optional

from ..health import ReadOnlyError
from ..sim import CpuMeter, Event
from ..storage import DeviceError, DiskFullError
from .memtable import MemTable
from .wal import LogWriter, WriteBatch

__all__ = ["WritePath"]


class _Writer:
    """One queued :meth:`LSMEngine.write` call (LevelDB's ``Writer``).

    The front of the writer queue is the *commit leader*; everyone else
    parks on ``event`` until the leader either commits their batch for
    them (``done`` set, ``exc`` carrying any group-wide failure) or
    retires and promotes them to leader (``done`` still False).
    """

    __slots__ = ("batch", "event", "done", "exc")

    def __init__(self, batch: WriteBatch):
        self.batch = batch
        #: Where a follower parks; a writer that enqueues as leader
        #: never waits, so it gets none.
        self.event: Optional[Event] = None
        self.done = False
        self.exc: Optional[BaseException] = None


class WritePath:
    """When a write commits and when it must wait."""

    def put(self, key: bytes, value: bytes) -> Generator[Event, Any, float]:
        """Write ``key -> value`` (coroutine; durability per ``wal_sync``).

        Returns the time the write spent blocked (queue/stall wait).
        """
        batch = WriteBatch()
        batch.put(key, value)
        self.stats.puts += 1
        # Hands back write()'s coroutine rather than wrapping it: one
        # generator frame fewer on every resume of the commit path.
        return self.write(batch)

    def delete(self, key: bytes) -> Generator[Event, Any, float]:
        """Write a deletion tombstone for ``key`` (coroutine).

        Returns the time the write spent blocked (queue/stall wait).
        """
        batch = WriteBatch()
        batch.delete(key)
        self.stats.deletes += 1
        return self.write(batch)

    def write(self, batch: WriteBatch) -> Generator[Event, Any, float]:
        """Apply a write batch via the group-commit writer queue.

        LevelDB's design: every write enqueues; the front entry is the
        *commit leader*, which makes room, merges the queued batches up
        to ``options.write_group_bytes`` into one WAL record, pays one
        ``fdatasync`` barrier for the whole group (when ``wal_sync``),
        applies every batch to the MemTable and wakes the followers.
        Concurrent writers therefore pay 1/group-size barriers each —
        the serving-path twin of BoLT's one-barrier compaction file.

        Returns the time this call spent blocked before its batch was
        applied: queue wait for followers, mutex wait + §2.3 governor
        stalls for leaders.  A solitary writer is always a leader with
        a group of one, taking exactly the pre-group-commit path.
        """
        if not batch.ops:
            return 0.0
        if self.health.read_only:
            raise ReadOnlyError(
                f"{self.dbname} is read-only: {self.health.reason}")
        meter = self._meter()
        meter.charge(meter.model.write_mutex_overhead)
        writer = _Writer(batch)
        if not self._write_queue_lock.acquire_in_place():
            yield self._write_queue_lock.acquire()
        try:
            self._write_queue.append(writer)
            if self._write_queue[0] is not writer:
                writer.event = self.env.event()
        finally:
            self._write_queue_lock.release()
        enqueued = self.env.now
        if writer.event is not None:
            # Park until a leader commits this batch or promotes us.
            yield writer.event
            if writer.done:
                waited = self.env.now - enqueued
                self.stats.write_wait_time += waited
                if writer.exc is not None:
                    raise writer.exc
                yield from meter.drain()
                return waited
        return (yield from self._lead_group(writer, meter, enqueued))

    def _lead_group(self, leader: _Writer, meter: CpuMeter,
                    enqueued: float) -> Generator[Event, Any, float]:
        """Commit leader path: one WAL record + one barrier per group.

        Any failure while leading is propagated to every member of the
        group; queue retirement and promotion of the next leader run
        unconditionally (after the db mutex is dropped, so the writer-
        queue lock is never taken under it), so a failing leader can
        never strand the queue.
        """
        if not self._mutex.acquire_in_place():
            yield self._mutex.acquire()
        group = [leader]
        failure: Optional[BaseException] = None
        waited = 0.0
        try:
            if not self._has_room():
                yield from self._make_room(meter)
            waited = self.env.now - enqueued
            if len(self._write_queue) > 1:
                group = self._form_group(leader)
            # simcheck: waive[SIM007] - leader holds the mutex across the
            # commit (incl. replication backoff sleeps) on purpose: group
            # members must not observe a half-committed batch, and the
            # stall *is* the backpressure signal (§3.2).
            yield from self._commit_group(group, meter)
        except BaseException as exc:  # noqa: BLE001 - delivered to the group
            failure = exc
        finally:
            self._mutex.release()
        self.stats.write_wait_time += waited
        if not self._write_queue_lock.acquire_in_place():
            yield self._write_queue_lock.acquire()
        try:
            for _ in group:
                self._write_queue.popleft()
            promoted = self._write_queue[0] if self._write_queue else None
        finally:
            self._write_queue_lock.release()
        for member in group:
            if member is not leader:
                member.done = True
                member.exc = failure
                member.event.succeed()
        if promoted is not None:
            promoted.event.succeed()
        if failure is not None:
            raise failure
        return waited

    def _form_group(self, leader: _Writer) -> List[_Writer]:
        """The queue prefix committing together, capped by byte budget
        (called only when writers queue behind the leader).

        Reads the queue without its lock: membership only changes at
        scheduling points, and only this leader may pop the prefix.
        """
        budget = self.options.write_group_bytes
        group = [leader]
        total = leader.batch.byte_size
        for waiter in islice(self._write_queue, 1, None):
            size = waiter.batch.byte_size
            if total + size > budget:
                break
            group.append(waiter)
            total += size
        return group

    def _commit_group(self, group: List[_Writer], meter: CpuMeter
                      ) -> Generator[Event, Any, None]:
        """Append one combined WAL record, sync once, fill the MemTable.

        Called with the db mutex held, after :meth:`_make_room`.  For a
        group of one this is byte-for-byte the single-writer WAL record
        and the same event sequence, so solitary writers are unaffected.
        """
        if len(group) == 1:
            merged = group[0].batch
        else:
            merged = WriteBatch()
            for member in group:
                merged.extend(member.batch)
        prev_seq = self.versions.last_sequence
        first_seq = prev_seq + 1
        num_ops = len(merged.ops)
        self.versions.last_sequence = prev_seq + num_ops
        record = merged.encode(first_seq)
        tracer = self.env.tracer
        # A span only when tracing: the disabled path pays no no-op span.
        span = (tracer.span("svc.group_commit", cat="svc",
                            group_size=len(group)).__enter__()
                if tracer.enabled else None)
        try:
            try:
                self._wal_writer.append(record, meter)
            except DiskFullError as exc:
                # All-or-nothing: the WAL frame was never buffered, so
                # nothing of this group exists anywhere.  Un-claim the
                # sequence numbers and degrade to read-only.
                self.versions.last_sequence = prev_seq
                self.health.report("wal", exc)
                raise ReadOnlyError(
                    f"{self.dbname}: WAL append hit disk full") from exc
            # Crash site: the record is in the page cache but (if
            # wal_sync) not yet acknowledged-durable.  A multi-writer
            # record additionally announces the torn-group site.  The
            # sites' details are built only when an injector listens.
            if self.fs.faults is not None:
                wal = self._wal_name(self._wal_number)
                self.fs.fault_site("wal.append", wal=wal)
                if len(group) > 1:
                    self.fs.fault_site(
                        "wal.group_append", wal=wal,
                        group_size=len(group), first_seq=first_seq,
                        keys=tuple(key for _t, key, _v in merged.ops))
            saved = 0
            if self.options.wal_sync:
                try:
                    yield from self._wal_handle.fdatasync()
                except DeviceError as exc:
                    # The whole group is rejected (each caller sees the
                    # error) and the record's durability is
                    # indeterminate — exactly a crash-window write,
                    # which the recovery contract permits either way.
                    self.health.report("wal", exc)
                    raise
                saved = len(group) - 1
                self.stats.barriers_saved += saved
            if span is not None:
                span.set(barriers_saved=saved)
        finally:
            if span is not None:
                tracer.finish_span(span)
        seq = first_seq
        for member in group:
            for value_type, key, value in member.batch.ops:
                self._memtable.add(seq, value_type, key, value)
                meter.charge(meter.model.memtable_insert)
                seq += 1
        self.stats.group_commits += 1
        self.stats.grouped_writes += len(group)
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.count("svc.group_commits")
            tracer.count("svc.grouped_writes", len(group))
            if saved:
                tracer.count("svc.barriers_saved", saved)
        if self.wal_shipper is not None:
            # Ship the committed record to replication links.  Runs with
            # the db mutex held, so a full link backlog exerts
            # backpressure on the commit leader (bounded replication
            # lag); the links themselves never take this mutex.
            yield from self.wal_shipper.ship(first_seq, prev_seq + num_ops,
                                             record)
        yield from meter.drain()

    def _has_room(self) -> bool:
        """True when :meth:`_make_room` would return at once."""
        opts = self.options
        return (not self.health.read_only
                and not (opts.enable_l0_slowdown and self.versions.l0_unit_count()
                         >= opts.l0_slowdown_trigger)
                and self._memtable.approximate_memory_usage <= opts.memtable_size)

    def _make_room(self, meter: CpuMeter) -> Generator[Event, Any, None]:
        """LevelDB's MakeRoomForWrite: sleep/stall/rotate as required.

        Called with the mutex held; releases it around sleeps/waits.
        The leader calls it only when :meth:`_has_room` is False.
        """
        opts = self.options
        allow_delay = opts.enable_l0_slowdown
        while True:
            if self.health.read_only:
                # Degraded while stalled: bail out instead of waiting on
                # background progress that cannot come.  write()'s
                # finally releases the mutex.
                raise ReadOnlyError(
                    f"{self.dbname} is read-only: {self.health.reason}")
            l0_files = self.versions.l0_unit_count()
            if allow_delay and l0_files >= opts.l0_slowdown_trigger:
                # L0SlowDown: sleep 1 ms once, ceding the mutex (§2.3).
                allow_delay = False
                self.stats.slowdown_events += 1
                self.stats.slowdown_time += opts.slowdown_sleep
                self._mutex.release()
                with self.env.tracer.span("slowdown", cat="engine",
                                          l0_files=l0_files):
                    yield self.env.timeout(opts.slowdown_sleep)
                if not self._mutex.acquire_in_place():
                    yield self._mutex.acquire()
            elif self._memtable.approximate_memory_usage <= opts.memtable_size:
                return
            elif self._imm is not None:
                # Previous MemTable still flushing: hard stall.
                yield from self._stall("imm-wait")
            elif opts.enable_l0_stop and l0_files >= opts.l0_stop_trigger:
                # L0Stop governor: block until compaction makes room.
                yield from self._stall("l0-stop")
            else:
                yield from self._switch_memtable()

    def _switch_memtable(self) -> Generator[Event, Any, None]:
        """Rotate: the active MemTable becomes immutable, its WAL is
        retired to it and a fresh pair takes over (mutex held)."""
        self._imm = self._memtable
        self._imm_wal_name = self._wal_name(self._wal_number)
        self._imm_wal_seq = self.versions.last_sequence
        self._memtable = MemTable()
        if self.env.sanitizer.enabled:
            self.env.sanitizer.note_write(self, "memtable_switch")
        yield from self._new_wal()
        self._bg_work.notify_all()

    def _stall(self, why: str) -> Generator[Event, Any, None]:
        self.stats.stall_events += 1
        started = self.env.now
        waiter = self._bg_done.wait()
        self._bg_work.notify_all()
        self._mutex.release()
        with self.env.tracer.span("stall", cat="engine", why=why):
            yield waiter
        self.stats.stall_time += self.env.now - started
        if not self._mutex.acquire_in_place():
            yield self._mutex.acquire()

    def _new_wal(self) -> Generator[Event, Any, None]:
        self._wal_number = self.versions.new_file_number()
        name = f"{self.dbname}/{self._wal_number:06d}.log"
        self._wal_handle = yield from self.fs.create(name)
        self._wal_writer = LogWriter(self._wal_handle)

    def _wal_name(self, number: int) -> str:
        return f"{self.dbname}/{number:06d}.log"

    def admission_state(self, key: Optional[bytes] = None) -> str:
        """The admission state machine's current node (docs/SERVING.md).

        ``read_only``  — health degradation: writes fail fast, typed.
        ``shed_writes`` — the engine sits at the L0Stop governor; under
        ``POLICY_REJECT`` new writes are shed before they queue.
        ``open``       — normal admission (queue-full policy applies).

        ``key`` is ignored — one engine has one state; it is accepted so
        engines and per-key backends (the cluster store) answer the
        serving layer through the same call.
        """
        if self.health.read_only:
            return "read_only"
        options = self.options
        if (options.enable_l0_stop
                and self.versions.l0_unit_count() >= options.l0_stop_trigger):
            return "shed_writes"
        return "open"

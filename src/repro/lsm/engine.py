"""The base leveled LSM-tree engine (LevelDB architecture, §2).

All public operations (:meth:`LSMEngine.put`, :meth:`get`, :meth:`scan`,
...) are simulation coroutines; ``*_sync`` facades drive the event loop
for callers outside a simulated process.  The engine runs one or more
background compaction workers as simulated processes, and the write path
implements LevelDB's MakeRoomForWrite governors (L0SlowDown, L0Stop,
immutable-MemTable wait) so write stalls emerge from the same dynamics
the paper describes in §2.3.

BoLT (paper §3) is a configuration of this engine: each technique is an
:class:`Options` switch read here (output sink, victim picker, settled
split, FD cache, hole-punch cleanup).  Engine classes differ only in
class attributes, except PebblesDB, which overrides the ``Hook:``
methods to pick and place compactions by guards.
"""

from __future__ import annotations

import bisect
import heapq
from collections import deque
from dataclasses import dataclass
from itertools import chain, islice
from typing import Any, Deque, Dict, Generator, Iterable, List, Optional, Set, Tuple

from ..health import ErrorManager, ReadOnlyError, Scrubber
from ..sim import Condition, CpuMeter, Environment, Event, Interrupt, Resource
from ..storage import (DeviceError, DiskFullError, FileHandle,
                       FileSystemError, SimFS)
from .cache import BlockCache, FileDescriptorCache, TableCache
from .codec import MAX_SEQUENCE, VALUE_TYPE_DELETION, CorruptionError
from .iterators import collapse_versions, merge_streams
from .memtable import FOUND, NOT_FOUND, MemTable
from .manifest import VersionEdit, VersionSet
from .options import Options
from .sink import CompactionFileSink, OutputSink, PerTableFileSink
from .sstable import SSTableBuilder, read_table_extent
from .version import (FileMetaData, Version, isolated, key_range,
                      split_by_overlap, split_promotable)
from .wal import LogWriter, WriteBatch, list_wal_files, read_log_records

__all__ = ["LSMEngine", "EngineStats", "Compaction", "Snapshot"]

Entry = Tuple[bytes, int, int, bytes]


@dataclass
class EngineStats:
    """Engine-level counters (device/fs counters live on their objects)."""

    puts: int = 0
    deletes: int = 0
    gets: int = 0
    gets_found: int = 0
    scans: int = 0
    #: Time writers spent in the 1 ms L0SlowDown sleeps.
    slowdown_time: float = 0.0
    slowdown_events: int = 0
    #: Time writers spent fully blocked (imm wait / L0Stop).
    stall_time: float = 0.0
    stall_events: int = 0
    #: Group commit: WAL records written by a commit leader (== WAL
    #: record count) and the writes they carried; grouped_writes /
    #: group_commits is the mean group size.
    group_commits: int = 0
    grouped_writes: int = 0
    #: fdatasync barriers avoided by riding a leader's barrier
    #: (group_size - 1 per synced group; 0 unless ``wal_sync``).
    barriers_saved: int = 0
    #: Total time write() calls spent blocked before their batch was
    #: applied: writer-queue wait for followers, mutex + governor
    #: stalls for leaders.  The queue/stall share of write latency.
    write_wait_time: float = 0.0
    memtable_flushes: int = 0
    compactions: int = 0
    seek_compactions: int = 0
    trivial_moves: int = 0
    settled_promotions: int = 0
    group_victims: int = 0
    compaction_bytes_read: int = 0
    compaction_bytes_written: int = 0
    compaction_time: float = 0.0
    tables_probed: int = 0

    def snapshot(self) -> "EngineStats":
        """An independent copy of the current counters."""
        return EngineStats(**vars(self))


@dataclass
class Compaction:
    """A picked compaction: victims at ``level`` + overlaps at ``level+1``."""

    level: int
    victims: List[FileMetaData]
    overlaps: List[FileMetaData]
    is_seek_compaction: bool = False
    #: True for a within-level merge (PebblesDB's guard compaction).
    in_place: bool = False

    @property
    def inputs(self) -> List[FileMetaData]:
        """Every input table of this compaction (victims + overlaps)."""
        return self.victims + self.overlaps

    @property
    def output_level(self) -> int:
        """The level receiving this compaction's outputs."""
        return self.level if self.in_place else self.level + 1


class Snapshot:
    """A pinned read view (see :meth:`LSMEngine.snapshot`)."""

    __slots__ = ("_engine", "sequence", "_released")

    def __init__(self, engine: "LSMEngine", sequence: int):
        self._engine = engine
        self.sequence = sequence
        self._released = False

    def release(self) -> None:
        """Allow compaction to reclaim versions this snapshot pinned."""
        if not self._released:
            self._released = True
            self._engine._release_snapshot(self.sequence)

    @property
    def released(self) -> bool:
        """True once the snapshot has been released."""
        return self._released

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


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


class LSMEngine:
    """Leveled LSM-tree key-value store over SimFS."""

    name = "leveldb"
    #: Whether reads take the global db mutex for their in-memory phase
    #: (LevelDB family: yes; the RocksDB baseline overrides to False to
    #: model its concurrent read path, §4.3.1).
    read_lock = True
    #: Whether victims are ordered by ascending next-level overlap even
    #: without settled compaction (HyperLevelDB's picker, §2.3).
    min_overlap_victims = False

    def __init__(self, env: Environment, fs: SimFS, options: Options,
                 dbname: str = "db"):
        options.validate()
        self.env = env
        self.fs = fs
        self.options = options
        self.dbname = dbname
        self.stats = EngineStats()
        if options.tracer is not None:
            # Observability is stack-wide: installing the tracer on the
            # environment lets the device/filesystem layers see it too,
            # and attaching binds its timestamps to this clock.
            options.tracer.attach(env)

        self.versions = VersionSet(env, fs, options, dbname)
        self.table_cache = TableCache(fs, options)
        self.block_cache = BlockCache(options.block_cache_bytes)
        #: Compaction-file descriptor cache (§3.2.1), installed at the
        #: end of construction when ``options.enable_fd_cache``.
        self.fd_cache: Optional[FileDescriptorCache] = None

        self._memtable = MemTable()
        self._imm: Optional[MemTable] = None
        self._wal_handle: Optional[FileHandle] = None
        self._wal_writer: Optional[LogWriter] = None
        self._wal_number = 0
        self._imm_wal_name: Optional[str] = None
        #: Last sequence number covered by ``_imm_wal_name`` (stamped at
        #: rotation; used to decide when a retired WAL may be unlinked).
        self._imm_wal_seq = 0
        #: Retired WALs kept on disk because a replication link has not
        #: yet applied their records: ``(last_seq, name)`` pairs.
        self._retained_wals: List[Tuple[int, str]] = []
        #: Optional replication hook (installed by ``repro.cluster``).
        #: When set, every committed group's encoded WAL record is
        #: shipped via ``wal_shipper.ship(first_seq, last_seq, record)``
        #: and retired WALs are retained on disk until
        #: ``wal_shipper.applied_through()`` passes their last sequence.
        self.wal_shipper: Optional[Any] = None

        self._mutex = Resource(env, 1, name=f"{dbname}-mutex")
        #: Writer queue for group commit; the front entry is the commit
        #: leader.  The queue lock guards membership changes only and is
        #: never held across the db mutex acquire or any I/O — lock
        #: order is writer-queue -> db-mutex, watched by lockdep.
        self._write_queue: Deque[_Writer] = deque()
        self._write_queue_lock = Resource(env, 1,
                                          name=f"{dbname}-write-queue")
        self._bg_work = Condition(env, name=f"{dbname}-bg-work")
        self._bg_done = Condition(env, name=f"{dbname}-bg-done")
        if env.sanitizer.enabled:
            # Track the shared state the sanitizer's write-set pass
            # watches: the memtable switch lives on the engine itself;
            # the version set registers in its own constructor.
            env.sanitizer.register(self, f"{dbname}-engine")
        self._busy_tables: Set[int] = set()
        self._flush_in_progress = False
        self._compactions_in_progress = 0
        self._file_to_compact: Optional[Tuple[int, FileMetaData]] = None
        self._closed = False
        self._workers: List[Any] = []

        self._inflight_reads = 0
        self._deferred_cleanup: List[FileMetaData] = []
        #: Tiered object storage (:class:`repro.objstore.TieringPolicy`),
        #: installed by :meth:`open` when ``options.tiering_enabled``.
        #: ``None`` means the subsystem does not exist: no store, no
        #: cache, no extra events — outputs stay byte-identical.
        self.tiering: Optional[Any] = None
        #: Demoted containers whose local file awaits unlink (deferred
        #: until no read is in flight, like obsolete-table cleanup).
        self._deferred_demotions: List[str] = []
        #: Live read snapshots: sequence -> refcount.  Compactions keep
        #: one version per snapshot interval (LevelDB's rule).
        self._snapshots: Dict[int, int] = {}

        #: Table numbers quarantined for corruption.  Mirrors the live
        #: version's set but also covers versions pinned by snapshots,
        #: so every read path checks here.
        self._quarantined: Set[int] = set()
        self.health = ErrorManager(
            env, options, dbname,
            space_check=self._space_available,
            on_pause=self._on_health_pause,
            on_resume=self._on_health_resume)
        self.scrubber: Optional[Scrubber] = None
        if options.enable_fd_cache:
            self.fd_cache = FileDescriptorCache(fs, options.fd_cache_size)
            self.table_cache.open_container = self.fd_cache.open

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def open(cls, env: Environment, fs: SimFS, options: Options,
             dbname: str = "db") -> Generator[Event, Any, "LSMEngine"]:
        """Create a new database or recover an existing one."""
        engine = cls(env, fs, options, dbname)
        if options.tiering_enabled:
            # Installed before recovery: MANIFEST replay may reference
            # remote containers that only the tiered opener can reach.
            from ..objstore import attach_tiering
            attach_tiering(engine)
        if fs.exists(f"{dbname}/CURRENT"):
            yield from engine._recover()
        else:
            yield from engine.versions.create_new()
            yield from engine._new_wal()
        engine._start_workers()
        return engine

    @classmethod
    def open_sync(cls, env: Environment, fs: SimFS, options: Options,
                  dbname: str = "db") -> "LSMEngine":
        """Open (recovering if needed) and return the engine, synchronously."""
        return env.run_until(env.process(cls.open(env, fs, options, dbname)))

    def _start_workers(self) -> None:
        for worker_id in range(self.options.num_compaction_threads):
            proc = self.env.process(self._background_worker(),
                                    name=f"{self.dbname}-bg{worker_id}")
            proc.add_callback(self._on_worker_exit)
            self._workers.append(proc)
        if self.options.enable_scrubber:
            self.scrubber = Scrubber(self)
            proc = self.env.process(self.scrubber.run(),
                                    name=f"{self.dbname}-scrub")
            proc.add_callback(self._on_worker_exit)
            self._workers.append(proc)

    def _on_worker_exit(self, event) -> None:
        # A background worker must never die with an exception; surface
        # it loudly instead of letting the simulation deadlock silently.
        # (Interrupt is the kill() path — a deliberate unclean stop.)
        if event.exception is not None and not isinstance(
                event.exception, Interrupt):
            raise event.exception

    def kill(self) -> None:
        """Simulate unclean process death.

        Background workers stop immediately, mid-compaction; nothing is
        flushed or synced.  The on-disk image is left exactly as it was,
        so ``fs.crash()`` on top of ``kill()`` models power loss with
        whatever was in the page cache at that instant.
        """
        self._closed = True
        for worker in self._workers:
            worker.interrupt("killed")
        self._bg_work.notify_all()

    def close(self) -> Generator[Event, Any, None]:
        """Stop background workers after the tree quiesces."""
        yield from self.wait_idle()
        self._closed = True
        self._bg_work.notify_all()
        if self._wal_handle is not None:
            yield from self._wal_handle.fsync()

    def close_sync(self) -> None:
        """Flush the WAL tail, stop background workers, release the lock."""
        self.env.run_until(self.env.process(self.close()))

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _meter(self) -> CpuMeter:
        return CpuMeter(self.env, self.options.cost_model)

    def _bg_meter(self) -> CpuMeter:
        """Meter for background jobs: most CPU overlaps device I/O."""
        model = self.options.cost_model
        return CpuMeter(self.env, model, scale=model.background_cpu_residue)

    def _new_wal(self) -> Generator[Event, Any, None]:
        self._wal_number = self.versions.new_file_number()
        name = f"{self.dbname}/{self._wal_number:06d}.log"
        self._wal_handle = yield from self.fs.create(name)
        self._wal_writer = LogWriter(self._wal_handle)

    def _wal_name(self, number: int) -> str:
        return f"{self.dbname}/{number:06d}.log"

    # ------------------------------------------------------------------
    # health integration
    # ------------------------------------------------------------------

    def _space_available(self) -> bool:
        """True when the filesystem has headroom for one more memtable.

        :class:`ErrorManager` gates ENOSPC auto-resume on this so the
        store does not flap straight back into disk-full.
        """
        free = self.fs.free_bytes()
        if free is None:
            return True
        headroom = self.options.enospc_resume_headroom
        if headroom is None:
            headroom = self.options.memtable_size
        return free >= headroom

    def _on_health_pause(self) -> None:
        # Wake writers stalled in _stall() so they observe the degraded
        # state instead of waiting for background progress that will not
        # come until resume.
        self._bg_done.notify_all()

    def _on_health_resume(self) -> None:
        self._bg_work.notify_all()
        self._bg_done.notify_all()

    def _on_background_error(self, site: str, exc: BaseException) -> None:
        """Route a known background failure through the error manager.

        A failure after the MANIFEST append but before its apply leaves
        the version state in doubt: retrying could double-apply, so that
        window escalates to the fatal ``manifest_in_doubt`` site.
        """
        if self.versions.manifest_in_doubt:
            site = "manifest_in_doubt"
        self.health.report(site, exc)

    def _quarantine(self, meta: FileMetaData, reason: str) -> None:
        """Quarantine a corrupt table: reads fail fast, compaction skips
        it, and a background process persists the mark in the MANIFEST."""
        if meta.number in self._quarantined:
            return
        self._quarantined.add(meta.number)
        # Permanently busy: the pickers must never feed corrupt bytes
        # back into a compaction.
        self._busy_tables.add(meta.number)
        self.versions.quarantine_now(meta.number)
        self.table_cache.evict(meta.number)
        tracer = self.env.tracer
        tracer.count("health.quarantined_tables")
        if tracer.enabled:
            tracer.instant("quarantine", cat="health", table=meta.number,
                           container=meta.container, reason=reason)
        if not self._closed:
            proc = self.env.process(self._persist_quarantine(meta.number),
                                    name=f"{self.dbname}-quarantine")
            proc.add_callback(self._on_worker_exit)

    def _persist_quarantine(self, number: int
                            ) -> Generator[Event, Any, None]:
        edit = VersionEdit()
        edit.quarantine_file(number)
        try:
            yield from self.versions.log_and_apply(edit, None)
        except (DeviceError, DiskFullError) as exc:
            # The in-memory mark already protects reads; losing the
            # durable record only costs a re-scrub after restart.
            self._on_background_error("manifest", exc)

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------

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
        yield self._mutex.acquire()

    # -- snapshots ---------------------------------------------------------

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

    def snapshot(self) -> "Snapshot":
        """Pin the current state for repeatable reads.

        Reads through the snapshot see exactly the versions visible at
        this sequence number, surviving later writes *and* compactions;
        release it (or use it as a context manager) so compaction can
        reclaim the shadowed versions.
        """
        sequence = self.versions.last_sequence
        self._snapshots[sequence] = self._snapshots.get(sequence, 0) + 1
        return Snapshot(self, sequence)

    def _release_snapshot(self, sequence: int) -> None:
        count = self._snapshots.get(sequence, 0)
        if count <= 1:
            self._snapshots.pop(sequence, None)
        else:
            self._snapshots[sequence] = count - 1

    def live_snapshot_sequences(self) -> List[int]:
        """Sequence numbers pinned by live snapshots, ascending."""
        return sorted(self._snapshots)

    # sync facades -------------------------------------------------------

    def put_sync(self, key: bytes, value: bytes) -> None:
        """Blocking wrapper around :meth:`put`."""
        self.env.run_until(self.env.process(self.put(key, value)))

    def delete_sync(self, key: bytes) -> None:
        """Blocking wrapper around :meth:`delete`."""
        self.env.run_until(self.env.process(self.delete(key)))

    def get_sync(self, key: bytes,
                 snapshot: Optional[Snapshot] = None) -> Optional[bytes]:
        """Blocking wrapper around :meth:`get`."""
        return self.env.run_until(self.env.process(self.get(key, snapshot)))

    def scan_sync(self, start_key: bytes, count: int,
                  snapshot: Optional[Snapshot] = None
                  ) -> List[Tuple[bytes, bytes]]:
        """Blocking wrapper around :meth:`scan`."""
        return self.env.run_until(
            self.env.process(self.scan(start_key, count, snapshot)))

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def get(self, key: bytes, snapshot: Optional[Snapshot] = None
            ) -> Generator[Event, Any, Optional[bytes]]:
        """Point lookup: MemTables, then levels 0..k (§2.5).

        With ``snapshot``, reads the pinned historical view.
        """
        meter = self._meter()
        self.stats.gets += 1
        if snapshot is not None and snapshot.released:
            raise ValueError("read through a released snapshot")
        if self.read_lock and not self._mutex.acquire_in_place():
            yield self._mutex.acquire()
        try:
            snapshot = (snapshot.sequence if snapshot is not None
                        else self.versions.last_sequence)
            meter.charge(meter.model.memtable_lookup)
            state, value = self._memtable.get(key, snapshot)
            if state == NOT_FOUND and self._imm is not None:
                meter.charge(meter.model.memtable_lookup)
                state, value = self._imm.get(key, snapshot)
            version = self.versions.current
        finally:
            if self.read_lock:
                self._mutex.release()
        if state != NOT_FOUND:
            yield from meter.drain()
            if state == FOUND:
                self.stats.gets_found += 1
                return value
            return None

        self._inflight_reads += 1
        first_probed: Optional[Tuple[int, FileMetaData]] = None
        probes = 0
        try:
            for level in range(version.num_levels):
                for meta in version.tables_for_key(level, key):
                    probes += 1
                    self.stats.tables_probed += 1
                    if meta.number in self._quarantined:
                        raise CorruptionError(
                            f"table {meta.number:06d} ({meta.container}) "
                            f"is quarantined")
                    if first_probed is None:
                        first_probed = (level, meta)
                    try:
                        reader = yield from self.table_cache.find_table(
                            meta.number, meta.container, meta.offset,
                            meta.length, meter)
                        state, value = yield from reader.get(
                            key, snapshot, meter, self.block_cache)
                    except CorruptionError as exc:
                        self._quarantine(meta, f"read: {exc}")
                        self.health.report("read", exc)
                        raise
                    if state != NOT_FOUND:
                        self._maybe_seek_compact(first_probed, probes,
                                                 (level, meta))
                        yield from meter.drain()
                        if state == FOUND:
                            self.stats.gets_found += 1
                            return value
                        return None
            self._maybe_seek_compact(first_probed, probes, None)
            yield from meter.drain()
            return None
        finally:
            self._inflight_reads -= 1
            self._maybe_run_deferred_cleanup()

    def _maybe_seek_compact(self, first_probed, probes, found_at) -> None:
        """LevelDB's seek-compaction accounting: a get that had to probe
        more than one table charges the first table's seek budget."""
        if not self.options.enable_seek_compaction:
            return
        if first_probed is None or probes < 2 or found_at == first_probed:
            return
        level, meta = first_probed
        meta.allowed_seeks -= 1
        if meta.allowed_seeks <= 0 and self._file_to_compact is None:
            self._file_to_compact = (level, meta)
            self._bg_work.notify_all()

    def scan(self, start_key: bytes, count: int,
             snapshot: Optional[Snapshot] = None
             ) -> Generator[Event, Any, List[Tuple[bytes, bytes]]]:
        """Range scan of the first ``count`` live keys >= ``start_key``.

        One lazy heap merge (LevelDB's MergingIterator) over the memtable
        tails and every table of the pinned version that reaches
        ``start_key``.  A table enters the heap unopened, keyed ahead of
        every version of ``max(smallest, start_key)``; it is opened when
        the merge first reaches it and then read one data block at a
        time, so a short scan reads only the blocks its rows come from.
        Heap items are ``(user_key, MAX_SEQUENCE - seq, rank, entries,
        pos, table)``: ``rank`` (memtables first, then level and table
        number) breaks ties deterministically, and ``entries`` is None
        while ``table`` waits for its next block.
        """
        meter = self._meter()
        self.stats.scans += 1
        if snapshot is not None and snapshot.released:
            raise ValueError("read through a released snapshot")
        if self.read_lock and not self._mutex.acquire_in_place():
            yield self._mutex.acquire()
        try:
            snapshot = (snapshot.sequence if snapshot is not None
                        else self.versions.last_sequence)
            tails = [list(self._memtable.entries_from(start_key))]
            if self._imm is not None:
                tails.append(list(self._imm.entries_from(start_key)))
            version = self.versions.current
        finally:
            if self.read_lock:
                self._mutex.release()

        heap: List[tuple] = [
            (tail[0][0], MAX_SEQUENCE - tail[0][1], (-1, i), tail, 0, None)
            for i, tail in enumerate(tails) if tail]
        for level in range(version.num_levels):
            for meta in version.files[level]:
                if meta.largest >= start_key:
                    heap.append((max(meta.smallest, start_key), -1,
                                 (level, meta.number), None, 0,
                                 [meta, None, 0]))
        heapq.heapify(heap)
        results: List[Tuple[bytes, bytes]] = []
        last_key: Optional[bytes] = None
        self._inflight_reads += 1
        try:
            while heap and len(results) < count:
                user_key, inv_seq, rank, entries, pos, table = heap[0]
                if entries is None:
                    block = yield from self._scan_block(table, start_key, meter)
                    if block:
                        heapq.heapreplace(heap, (
                            block[0][0], MAX_SEQUENCE - block[0][1], rank,
                            block, 0, table))
                    else:
                        heapq.heappop(heap)
                    continue
                entry = entries[pos]
                if pos + 1 < len(entries):
                    following = entries[pos + 1]
                    heapq.heapreplace(heap, (
                        following[0], MAX_SEQUENCE - following[1], rank,
                        entries, pos + 1, table))
                elif table is not None:
                    # Block used up: the next one is fetched only if the
                    # merge gets this far again.
                    heapq.heapreplace(heap, (user_key, inv_seq, rank,
                                             None, 0, table))
                else:
                    heapq.heappop(heap)
                if (user_key < start_key or entry[1] > snapshot
                        or user_key == last_key):
                    continue
                last_key = user_key
                if entry[2] != VALUE_TYPE_DELETION:
                    results.append((user_key, entry[3]))
            yield from meter.drain()
            return results
        finally:
            self._inflight_reads -= 1
            self._maybe_run_deferred_cleanup()

    def _scan_block(self, table: list, start_key: bytes, meter: CpuMeter
                    ) -> Generator[Event, Any, List[Entry]]:
        """The next data block of a scan's ``table`` cursor
        (``[meta, reader, block index]``), opening the table on first
        use; ``[]`` once the table is exhausted."""
        meta, reader, index = table
        if reader is None and meta.number in self._quarantined:
            raise CorruptionError(f"table {meta.number:06d} ({meta.container}) "
                                  f"is quarantined")
        try:
            if reader is None:
                reader = yield from self.table_cache.find_table(
                    meta.number, meta.container, meta.offset, meta.length,
                    meter)
                index = bisect.bisect_left(reader.index_keys, start_key)
            if index >= len(reader.index):
                return []
            block = yield from reader.read_block(index, meter)
        except CorruptionError as exc:
            self._quarantine(meta, f"scan: {exc}")
            self.health.report("read", exc)
            raise
        table[1:] = reader, index + 1
        return block

    # ------------------------------------------------------------------
    # background work
    # ------------------------------------------------------------------

    def _background_worker(self) -> Generator[Event, Any, None]:
        try:
            while not self._closed:
                job = self._pick_job()
                if job is None:
                    waiter = self._bg_work.wait()
                    yield waiter
                    continue
                kind, payload = job
                try:
                    try:
                        if kind == "flush":
                            yield from self._flush_memtable()
                        else:
                            yield from self._run_compaction(payload)
                        self.health.record_success()
                    except Interrupt:
                        raise
                    except (DeviceError, DiskFullError,
                            CorruptionError) as exc:
                        # Known fault classes degrade the store instead
                        # of killing the worker; anything else is a bug
                        # and still propagates to _on_worker_exit.
                        self._on_background_error(
                            "flush" if kind == "flush" else "compaction",
                            exc)
                finally:
                    if kind == "flush":
                        self._flush_in_progress = False
                    else:
                        self._compactions_in_progress -= 1
                        for meta in payload.inputs:
                            if meta.number not in self._quarantined:
                                self._busy_tables.discard(meta.number)
                    self._bg_done.notify_all()
                    self._bg_work.notify_all()
        except Interrupt:
            return  # kill(): die on the spot, state as-is

    def _pick_job(self) -> Optional[Tuple[str, Any]]:
        """Atomically claim the next unit of background work."""
        if self.health.paused:
            return None  # degraded: shed background work until resume
        if self._imm is not None and not self._flush_in_progress:
            self._flush_in_progress = True
            return ("flush", None)
        compaction = self._pick_compaction()
        if compaction is not None:
            for meta in compaction.inputs:
                self._busy_tables.add(meta.number)
            self._compactions_in_progress += 1
            return ("compact", compaction)
        return None

    def has_pending_work(self) -> bool:
        """True while any flush or compaction is queued or running."""
        if self._imm is not None or self._flush_in_progress:
            return True
        if self._compactions_in_progress:
            return True
        if self._file_to_compact is not None:
            return True
        _level, score = self.versions.pick_compaction_level()
        return score >= 1.0

    def wait_idle(self) -> Generator[Event, Any, None]:
        """Block until no flush/compaction work remains (test helper).

        Returns early while degraded and no worker is mid-job: paused
        background work cannot progress until resume, and waiting for it
        would deadlock ``close()``.
        """
        while self.has_pending_work():
            if (self.health.paused and not self._flush_in_progress
                    and not self._compactions_in_progress):
                return
            self._bg_work.notify_all()
            waiter = self._bg_done.wait()
            yield waiter

    def flush_all(self) -> Generator[Event, Any, None]:
        """Force the active MemTable to disk and quiesce (bench helper)."""
        if self.health.read_only:
            raise ReadOnlyError(
                f"{self.dbname} is read-only: {self.health.reason}")
        yield self._mutex.acquire()
        try:
            while self._imm is not None:
                if self.health.read_only:
                    raise ReadOnlyError(
                        f"{self.dbname} is read-only: {self.health.reason}")
                yield from self._stall("flush-all")
            if len(self._memtable):
                yield from self._switch_memtable()
        finally:
            self._mutex.release()
        yield from self.wait_idle()

    # -- flush ------------------------------------------------------------

    def _flush_memtable(self) -> Generator[Event, Any, None]:
        """Write the immutable MemTable as level-0 table(s)."""
        imm = self._imm
        meter = self._bg_meter()
        started = self.env.now
        with self.env.tracer.span("flush", cat="engine",
                                  memtable_bytes=imm.approximate_memory_usage
                                  ) as span:
            entries = collapse_versions(imm.entries(), drop_tombstones=False,
                                        snapshots=self.live_snapshot_sequences())
            sink = self._make_sink()
            # Stock LevelDB writes the whole MemTable as ONE level-0 table
            # (sstable_size governs compaction outputs only); BoLT cuts the
            # flush into fine-grained logical SSTables inside one compaction
            # file (§3.2) — same barrier count either way for BoLT's sink.
            max_bytes = (self.options.sstable_size
                         if self.options.use_compaction_file else None)
            metas = yield from self._build_tables(entries, sink, meter,
                                                  max_table_bytes=max_bytes)
            edit = VersionEdit()
            for meta in metas:
                edit.add_file(0, meta)
            yield from self.versions.log_and_apply(edit, meter)
            # The memtable switch is shared with writers rotating in
            # _switch_memtable (under the mutex): retire the immutable
            # MemTable under it too, as LevelDB does.
            yield self._mutex.acquire()
            try:
                self._imm = None
                old_wal = self._imm_wal_name
                old_wal_seq = self._imm_wal_seq
                self._imm_wal_name = None
                if self.env.sanitizer.enabled:
                    self.env.sanitizer.note_write(self, "memtable_switch")
            finally:
                self._mutex.release()
            self.stats.memtable_flushes += 1
            self.stats.compaction_time += self.env.now - started
            if old_wal and self.fs.exists(old_wal):
                if self._wal_releasable(old_wal_seq):
                    yield from self.fs.unlink(old_wal)
                else:
                    # A replication link still needs this WAL's records
                    # for failover tail replay; keep it on disk until
                    # every link has applied past its last sequence.
                    self._retained_wals.append((old_wal_seq, old_wal))
            yield from self._release_retained_wals()
            span.set(tables=len(metas))
        self._maybe_schedule_more()

    def _wal_releasable(self, last_seq: int) -> bool:
        """True when no replication link still needs this retired WAL."""
        shipper = self.wal_shipper
        return shipper is None or shipper.applied_through() >= last_seq

    def _release_retained_wals(self) -> Generator[Event, Any, None]:
        """Unlink retained WALs whose records every replica has applied."""
        still: List[Tuple[int, str]] = []
        for last_seq, name in self._retained_wals:
            if not self.fs.exists(name):
                continue
            if self._wal_releasable(last_seq):
                yield from self.fs.unlink(name)
            else:
                still.append((last_seq, name))
        self._retained_wals = still

    def _maybe_schedule_more(self) -> None:
        if self.has_pending_work():
            self._bg_work.notify_all()

    # -- compaction picking -------------------------------------------------

    def _pick_compaction(self) -> Optional[Compaction]:
        version = self.versions.current
        is_seek = False
        if self._file_to_compact is not None:
            level, meta = self._file_to_compact
            self._file_to_compact = None
            # A busy or already-compacted victim is stale: score path instead.
            is_seek = (meta.number not in self._busy_tables
                       and version.has_file(level, meta.number))
        if is_seek:
            if level + 1 >= version.num_levels:
                return None
            victims = [meta]
        else:
            level, score = self.versions.pick_compaction_level()
            if score < 1.0 or level < 0 or level + 1 >= version.num_levels:
                return None
            victims = self._pick_victims(version, level)
            if not victims:
                return None
        if level == 0:
            lo, hi = key_range(victims)
            victims = version.overlapping_files(0, lo, hi)
        if any(v.number in self._busy_tables for v in victims):
            return None
        lo, hi = key_range(victims)
        overlaps = version.overlapping_files(level + 1, lo, hi)
        if any(o.number in self._busy_tables for o in overlaps):
            return None
        compaction = Compaction(level, victims, overlaps, is_seek)
        if is_seek:
            self.stats.seek_compactions += 1
        return compaction

    def _pick_victims(self, version: Version, level: int) -> List[FileMetaData]:
        """Victims: the level's idle tables in one order, taken from the
        front up to a byte budget.

        Order: ascending next-level overlap under settled compaction
        (§3.4: zero-overlap tables settle) or with ``min_overlap_victims``
        and no group budget; else round-robin after the compact pointer.
        Budget: ``group_compaction_bytes``; else one logical SSTable when
        settled; else one table.  So HyperBoLT's +GC stage picks
        round-robin, and Fig 12(b)'s +GC bar is measured that way.
        """
        opts = self.options
        candidates = [f for f in version.files[level]
                      if f.number not in self._busy_tables]
        if not candidates:
            return []
        group_bytes = opts.group_compaction_bytes
        if opts.enable_settled_compaction or (self.min_overlap_victims
                                              and not group_bytes):
            overlap_bytes = version.overlap_bytes
            below = level + 1
            ordered = sorted(candidates, key=lambda f: (overlap_bytes(
                below, f.smallest, f.largest), f.number))
        else:
            pointer = self.versions.compact_pointers.get(level)
            start = 0 if pointer is None else next(
                (i for i, f in enumerate(candidates) if f.smallest > pointer), 0)
            ordered = candidates[start:] + candidates[:start]
        # A zero budget is met by the first table: exactly one victim.
        budget = group_bytes or (opts.sstable_size
                                 if opts.enable_settled_compaction else 0)
        victims: List[FileMetaData] = []
        total = 0
        for meta in ordered:
            victims.append(meta)
            total += meta.length
            if total >= budget:
                break
        return victims

    # -- compaction execution ----------------------------------------------

    def _make_sink(self) -> OutputSink:
        """The output sink: one compaction file per job with
        ``use_compaction_file`` (§3.1), else a file per table."""
        if self.options.use_compaction_file:
            return CompactionFileSink(self.fs, self.dbname,
                                      self.versions.new_file_number())
        return PerTableFileSink(self.fs, self.dbname,
                                ordered_only=self.options.use_barrierfs)

    def _run_compaction(self, compaction: Compaction
                        ) -> Generator[Event, Any, None]:
        started = self.env.now
        self.stats.compactions += 1
        self.stats.group_victims += len(compaction.victims)
        version = self.versions.current
        meter = self._bg_meter()
        span_ctx = self.env.tracer.span(
            "compaction", cat="engine", level=compaction.level,
            victims=len(compaction.victims), overlaps=len(compaction.overlaps),
            seek=compaction.is_seek_compaction)
        with span_ctx as span:
            yield from self._run_compaction_traced(compaction, version,
                                                   meter, span)
        self.stats.compaction_time += self.env.now - started
        self._maybe_schedule_more()

    def _run_compaction_traced(self, compaction: Compaction, version: Version,
                               meter: CpuMeter, span: Any
                               ) -> Generator[Event, Any, None]:
        # Settled / trivial-move classification (hook; stock engines only
        # promote the classic single-victim trivial move).
        settled, merge_victims = self._split_settled(compaction)
        # With scattered (group/settled) victims, the combined key range
        # may span next-level files that overlap no merge victim at all;
        # those stay untouched.  Output tables are cut at their smallest
        # keys so the level's disjointness survives.
        merge_overlaps, untouched = split_by_overlap(compaction.overlaps, merge_victims)

        edit = VersionEdit()
        output_metas: List[FileMetaData] = []
        if merge_victims:
            inputs = merge_victims + merge_overlaps
            streams = yield from self._read_inputs(inputs, meter)
            drop_tombstones = self._may_drop_tombstones(
                version, compaction, *key_range(inputs))
            merged = collapse_versions(
                merge_streams(streams), drop_tombstones,
                snapshots=self.live_snapshot_sequences())
            output_metas = yield from self._build_tables(
                merged, self._make_sink(), meter,
                cut_keys=self._output_cut_keys(compaction, untouched))

        # Verify settled victims still promote safely next to the outputs;
        # unsafe ones fall back to staying at their level untouched.
        promoted, fallback = split_promotable(settled, output_metas)

        for meta in compaction.victims:
            if meta in fallback:
                continue  # stays at its level, untouched
            edit.delete_file(compaction.level, meta.number)
        for meta in merge_overlaps:
            edit.delete_file(compaction.output_level, meta.number)
        for meta in output_metas:
            edit.add_file(compaction.output_level, meta)
        for meta in promoted:
            edit.add_file(compaction.output_level, FileMetaData(
                number=meta.number, container=meta.container,
                offset=meta.offset, length=meta.length,
                smallest=meta.smallest, largest=meta.largest,
                num_entries=meta.num_entries))
            self.stats.settled_promotions += 1
        self._finish_edit(edit, compaction, output_metas)

        yield from self.versions.log_and_apply(edit, meter)
        yield from meter.drain()

        discarded = list(merge_victims) + merge_overlaps
        self._schedule_cleanup(discarded)
        if self.tiering is not None:
            # §tiering: containers left fully cold by this compaction
            # move to the object store (pointer-swap in the MANIFEST).
            yield from self.tiering.maybe_demote(meter)
        span.set(outputs=len(output_metas), settled=len(promoted))
        tracer = self.env.tracer
        if tracer.enabled and promoted:
            tracer.count("engine.settled_promotions", len(promoted))
            for meta in promoted:
                tracer.instant("settled-promotion", cat="engine",
                               table=meta.number,
                               to_level=compaction.output_level)

    def _read_whole_table(self, meta: FileMetaData, meter: CpuMeter
                          ) -> Generator[Event, Any, List[Entry]]:
        """Every entry of one table, for a consumer that reads it once
        (compaction, scrub, the crash checker): the container's handle
        and a sequential read of the table's extent, all CRCs checked,
        around the table and block caches, which serve ``get``/``scan``."""
        handle = yield from self.table_cache.open_handle(meta.container)
        return (yield from read_table_extent(
            handle, self.options.table_format, meta.offset, meta.length, meter))

    def _read_inputs(self, metas: List[FileMetaData], meter: CpuMeter
                     ) -> Generator[Event, Any, List[List[Entry]]]:
        """A compaction's input tables, one sorted run each.  A corrupt
        one is quarantined and the job aborts; the table stays busy
        forever so the picker routes around it."""
        streams: List[List[Entry]] = []
        for meta in metas:
            try:
                entries = yield from self._read_whole_table(meta, meter)
            except CorruptionError as exc:
                self._quarantine(meta, f"compaction input: {exc}")
                raise
            streams.append(entries)
            self.stats.compaction_bytes_read += meta.length
            meter.charge(meter.model.merge_per_record * len(entries))
        return streams

    def _split_settled(self, compaction: Compaction
                       ) -> Tuple[List[FileMetaData], List[FileMetaData]]:
        """Split victims into (settled/promoted, to-merge).

        Settled compaction (§3.4) promotes every victim that overlaps
        nothing at the next level.  Without it, only LevelDB's trivial
        move: a single victim with no next-level overlap moves without
        rewrite.
        """
        if self.options.enable_settled_compaction:
            merge, settled = split_by_overlap(compaction.victims,
                                              compaction.overlaps)
            if settled and compaction.level == 0:
                # Level-0 victims may share keys; a victim can only
                # settle if it overlaps no *other* victim, or a newer
                # version of one of its keys could end up below it.
                alone = set(isolated(compaction.victims))
                settled = [v for v in settled if v in alone]
                kept = set(settled)
                merge = [v for v in compaction.victims if v not in kept]
            return settled, merge
        if (len(compaction.victims) == 1 and not compaction.overlaps
                and not compaction.is_seek_compaction
                and not compaction.in_place):
            self.stats.trivial_moves += 1
            return list(compaction.victims), []
        return [], list(compaction.victims)

    def _may_drop_tombstones(self, version: Version, compaction: Compaction,
                             smallest: bytes, largest: bytes) -> bool:
        """Hook: True when no older version of a key in the range can
        outlive this compaction.  A leveled merge consumes everything
        that overlaps at the output level, so only deeper levels count."""
        return not any(version.overlapping_files(level, smallest, largest)
                       for level in range(compaction.output_level + 1,
                                          version.num_levels))

    def _output_cut_keys(self, compaction: Compaction,
                         untouched: List[FileMetaData]) -> List[bytes]:
        """Hook: sorted keys the outputs are cut at besides the size
        bound — here the untouched next-level tables' smallest keys, so
        the output level stays disjoint."""
        return sorted(o.smallest for o in untouched)

    def _finish_edit(self, edit: VersionEdit, compaction: Compaction,
                     outputs: List[FileMetaData]) -> None:
        """Hook: the engine-specific tail of a compaction's edit — here
        LevelDB's round-robin compact pointer for the victim level."""
        if compaction.victims and compaction.level > 0:
            _lo, hi = key_range(compaction.victims)
            edit.set_compact_pointer(compaction.level, hi)

    def _build_tables(self, entries: Iterable[Entry], sink: OutputSink,
                      meter: CpuMeter,
                      max_table_bytes: Optional[int] = -1,
                      cut_keys: Optional[List[bytes]] = None
                      ) -> Generator[Event, Any, List[FileMetaData]]:
        """Partition a sorted entry stream into size-bounded tables.

        ``max_table_bytes``: table cut size (-1 = options.sstable_size,
        None = never cut on size).  ``cut_keys``: additional sorted
        boundary keys to cut at (used by the PebblesDB engine to align
        outputs with guards, and by settled compaction to keep outputs
        clear of promoted victims).
        """
        opts = self.options
        if max_table_bytes == -1:
            max_table_bytes = opts.sstable_size
        table_format = opts.table_format
        bloom_bits = opts.bloom_bits_per_key
        new_file_number = self.versions.new_file_number
        cut_keys = cut_keys or []
        metas: List[FileMetaData] = []
        rest = iter(entries)
        pending = next(rest, None)
        while pending is not None:
            # A table's only cut key is the first one past its first key:
            # until a key reaches it, none lies between two of its keys.
            cut_at = bisect.bisect_right(cut_keys, pending[0])
            number = new_file_number()
            handle, container = yield from sink.next_handle(number)
            builder = SSTableBuilder(handle, table_format, bloom_bits, meter)
            # No yield between a builder's first entry and its finish:
            # the builder's single append relies on it (see SSTableBuilder).
            pending = builder.add_run(
                chain((pending,), rest), max_table_bytes,
                cut_keys[cut_at] if cut_at < len(cut_keys) else None)
            metas.append(self._finish_builder(builder, number, container))
        yield from sink.seal()
        for meta in metas:
            self.stats.compaction_bytes_written += meta.length
        yield from meter.drain()
        return metas

    def _finish_builder(self, builder: SSTableBuilder, number: int,
                        container: str) -> FileMetaData:
        info = builder.finish()
        # Crash site: the table's bytes are complete but the output set
        # is not sealed yet (mid-compaction, between LSST cuts).
        self.fs.fault_site("compaction.table_sealed",
                           table=number, container=container)
        return FileMetaData(
            number=number, container=container, offset=info.base_offset,
            length=info.length, smallest=info.smallest, largest=info.largest,
            num_entries=info.num_entries,
            allowed_seeks=max(100, info.length // self.options.seek_compaction_divisor))

    # -- obsolete-table cleanup -------------------------------------------

    def _schedule_cleanup(self, metas: List[FileMetaData]) -> None:
        for meta in metas:
            self.table_cache.evict(meta.number)
        self._deferred_cleanup.extend(metas)
        self._maybe_run_deferred_cleanup()

    def _schedule_demotion_unlink(self, container: str) -> None:
        """Queue a demoted container's local file for deferred unlink."""
        self._deferred_demotions.append(container)
        self._maybe_run_deferred_cleanup()

    def _maybe_run_deferred_cleanup(self) -> None:
        if self._inflight_reads:
            return
        if not self._deferred_cleanup and not self._deferred_demotions:
            return
        batch, self._deferred_cleanup = self._deferred_cleanup, []
        demoted, self._deferred_demotions = self._deferred_demotions, []
        proc = self.env.process(self._cleanup_and_poke(batch, demoted),
                                name=f"{self.dbname}-cleanup")
        proc.add_callback(self._on_worker_exit)

    def _cleanup_and_poke(self, metas: List[FileMetaData],
                          demoted: Optional[List[str]] = None
                          ) -> Generator[Event, Any, None]:
        """Run cleanup, downgrading its faults to soft, then re-check
        ENOSPC degradation: reclaimed space may end read-only mode."""
        try:
            yield from self._cleanup_tables(metas)
            if demoted and self.tiering is not None:
                yield from self.tiering.unlink_locals(demoted)
        except (DeviceError, DiskFullError) as exc:
            self._on_background_error("cleanup", exc)
        self.health.poke()

    def _cleanup_tables(self, metas: List[FileMetaData]
                        ) -> Generator[Event, Any, None]:
        """Reclaim dead tables' space: unlink a container once no live
        table references it, else punch a hole over the dead logical
        SSTable (§3.2).  A per-table file holds one table, so it is
        always unlinked."""
        version = self.versions.current
        tracer = self.env.tracer
        for meta in metas:
            if self.tiering is not None and version.is_remote(meta.container):
                # Remote container: when its last table dies the tier
                # pointer is removed *first*, then the object deleted
                # (never the reverse — the pointer must not dangle).
                # While tables remain live the whole object stays; its
                # dead spans are reclaimed only wholesale.
                yield from self.tiering.maybe_release(meta.container,
                                                      self._bg_meter())
                continue
            if not self.fs.exists(meta.container):
                continue
            try:
                if not version.tables_in(meta.container):
                    if self.fd_cache is not None:
                        yield from self.fd_cache.evict(meta.container)
                    if tracer.enabled:
                        tracer.count("engine.containers_unlinked")
                    yield from self.fs.unlink(meta.container)
                else:
                    # Not ``table_cache.open_handle``: on a tiered engine
                    # that falls back to fetching the object from the
                    # remote tier, and a container that vanished under us
                    # is a lost race (below), not a reason to GET it back.
                    opener = (self.fd_cache.open if self.fd_cache is not None
                              else self.fs.open)
                    handle = yield from opener(meta.container)
                    # §3.2: no fsync/fdatasync when punching holes — the
                    # lazy metadata sync is deliberately free of barriers.
                    handle.punch_hole(meta.offset, meta.length)
                    if tracer.enabled:
                        tracer.count("bolt.tables_punched")
                        tracer.count("bolt.bytes_punched", meta.length)
            except FileSystemError:
                # Concurrent cleanup batches may reference the same
                # container; whoever loses the unlink race has nothing
                # left to reclaim.
                continue

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def _recover(self) -> Generator[Event, Any, None]:
        yield from self.versions.recover()
        # Quarantine marks survive restarts via the MANIFEST; keep the
        # pickers clear of the poisoned tables from the first moment.
        self._quarantined = set(self.versions.current.quarantined)
        self._busy_tables.update(self._quarantined)
        # The WAL invariant: a WAL on disk is replayed; a flushed WAL is
        # unlinked, or retained for a replica and replays idempotently.
        wals = list_wal_files(self.fs, self.dbname)
        for number, name in wals:
            # The MANIFEST never recorded a WAL rotated in after its last
            # edit.  _new_wal reissuing that number would truncate this
            # file unflushed, then see its own log unlinked as replayed.
            self.versions.mark_file_number_used(number)
            handle = yield from self.fs.open(name)
            data = yield from handle.read(0, handle.size, sequential=True)
            for record in read_log_records(data):
                first_seq, batch = WriteBatch.decode(record)
                seq = first_seq
                for value_type, key, value in batch.ops:
                    self._memtable.add(seq, value_type, key, value)
                    seq += 1
                # Advance before any flush: log_and_apply stamps this
                # value into the edit, and the next reopen reads at it.
                self.versions.last_sequence = max(
                    self.versions.last_sequence, seq - 1)
                if (self._memtable.approximate_memory_usage
                        > self.options.memtable_size):
                    yield from self._flush_replayed()
        yield from self._new_wal()
        if len(self._memtable):
            # Persist replayed residue promptly, as LevelDB does.
            yield from self._flush_replayed()
        yield from self._delete_obsolete_files([name for _number, name in wals])
        if self.tiering is not None:
            # Remote orphans: PUTs whose demotion pointer never
            # committed.  (Post-crash local cache files were purged
            # above — objcache files are never fsynced, so any copy
            # surviving a crash is suspect and refetched on demand.)
            yield from self.tiering.recover_gc()

    def _flush_replayed(self) -> Generator[Event, Any, None]:
        """Flush what replay put in the MemTable, inline: no worker runs
        yet, and the replayed WALs stay until :meth:`_delete_obsolete_files`."""
        self._imm = self._memtable
        self._imm_wal_name = None
        self._memtable = MemTable()
        yield from self._flush_memtable()

    def _delete_obsolete_files(self, replayed: List[str]
                               ) -> Generator[Event, Any, None]:
        """Remove the replayed WALs (all flushed by now) and every data
        or MANIFEST file the recovered version does not reference."""
        live_containers = self.versions.current.live_containers()
        manifest = f"{self.dbname}/MANIFEST-{self.versions.manifest_file_number:06d}"
        for name in list(self.fs.listdir(f"{self.dbname}/")):
            if name in live_containers or name == manifest:
                continue
            if (name.endswith(".ldb") or name.endswith(".cf") or name in replayed
                    or name.startswith(f"{self.dbname}/MANIFEST-")):
                yield from self.fs.unlink(name)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def level_table_counts(self) -> List[int]:
        """Number of tables at each level, shallowest first."""
        return [len(level) for level in self.versions.current.files]

    def level_byte_sizes(self) -> List[int]:
        """Total table bytes at each level, shallowest first."""
        version = self.versions.current
        return [version.level_bytes(level) for level in range(version.num_levels)]

    def describe(self) -> Dict[str, Any]:
        """A structured status snapshot for examples and debugging."""
        return {
            "engine": self.name,
            "levels": self.level_table_counts(),
            "level_bytes": self.level_byte_sizes(),
            "memtable_bytes": self._memtable.approximate_memory_usage,
            "last_sequence": self.versions.last_sequence,
            "stats": vars(self.stats.snapshot()),
            "health": self.health.snapshot(),
            "quarantined_tables": sorted(self._quarantined),
        }

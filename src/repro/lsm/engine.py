"""The leveled LSM-tree engine (LevelDB architecture, §2).

All public operations (:meth:`LSMEngine.put`, :meth:`get`, :meth:`scan`,
...) are simulation coroutines; ``*_sync`` facades drive the event loop
for callers outside a simulated process.  :class:`LSMEngine` owns the
state (version set, MemTables, WAL, caches, health), the lifecycle and
the scheduling of background work; each of its four seams lives in its
own module:

* :mod:`~repro.lsm.write_path` — writer queue, group commit, the §2.3
  MakeRoomForWrite governors and MemTable/WAL rotation;
* :mod:`~repro.lsm.read_path` — ``get``, ``scan`` and snapshots;
* :mod:`~repro.lsm.compactor` — flush and compaction, from picking
  victims to cleaning up dead tables;
* :mod:`~repro.lsm.recovery` — WAL replay and the orphan sweep.

BoLT (paper §3) is a configuration of this engine: each technique is an
:class:`Options` switch the compactor reads.  Engine classes differ only
in class attributes, except PebblesDB, which overrides the compactor's
``Hook:`` methods to pick and place compactions by guards.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Generator, List, Optional, Set, Tuple

from ..health import ErrorManager, ReadOnlyError, Scrubber
from ..sim import Condition, CpuMeter, Environment, Event, Interrupt, Resource
from ..storage import DeviceError, DiskFullError, FileHandle, SimFS
from .cache import BlockCache, FileDescriptorCache, TableCache
from .codec import CorruptionError
from .compactor import Compactor
from .manifest import VersionEdit, VersionSet
from .memtable import MemTable
from .options import Options
from .read_path import ReadPath, Snapshot
from .recovery import Recovery
from .version import FileMetaData
from .wal import LogWriter
from .write_path import WritePath, _Writer

__all__ = ["LSMEngine", "EngineStats"]


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


class LSMEngine(WritePath, ReadPath, Compactor, Recovery):
    """Leveled LSM-tree key-value store over SimFS: stock LevelDB as it
    stands, and BoLT when opened with BoLT's options."""

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

    # -- lifecycle -----------------------------------------------------

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

    # -- helpers -------------------------------------------------------

    def _meter(self) -> CpuMeter:
        return CpuMeter(self.env, self.options.cost_model)

    def _bg_meter(self) -> CpuMeter:
        """Meter for background jobs: most CPU overlaps device I/O."""
        model = self.options.cost_model
        return CpuMeter(self.env, model, scale=model.background_cpu_residue)

    # -- health integration --------------------------------------------

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

    # -- sync facades --------------------------------------------------

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

    # -- background work -----------------------------------------------

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
        if not self._mutex.acquire_in_place():
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

    def _maybe_schedule_more(self) -> None:
        if self.has_pending_work():
            self._bg_work.notify_all()

    # -- introspection -------------------------------------------------

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

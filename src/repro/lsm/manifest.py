"""MANIFEST: the transactional log of table-tree changes (§2.4).

Each compaction appends one :class:`VersionEdit` record and fsyncs — the
MANIFEST is the *commit mark*: new tables are flushed first, then the
edit validates them atomically.  Lose the edit and the compaction never
happened; lose table pages after the edit was durable and recovery
detects corruption via table CRCs.

``CURRENT`` names the live manifest file, updated by the classic
write-temp / fsync / rename dance.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from ..sim import CpuMeter, Environment, Event, Resource
from ..storage import FileHandle, SimFS
from .codec import (
    CorruptionError,
    decode_fixed64,
    decode_length_prefixed,
    decode_varint,
    encode_fixed64,
    encode_varint,
)
from .options import Options
from .version import FileMetaData, Version
from .wal import LogWriter, read_log_records

__all__ = ["VersionEdit", "VersionSet"]

_TAG_LOG_NUMBER = 1
_TAG_NEXT_FILE = 2
_TAG_LAST_SEQUENCE = 3
_TAG_COMPACT_POINTER = 4
_TAG_DELETED_FILE = 5
_TAG_NEW_FILE = 6
_TAG_GUARD = 7  # used by the PebblesDB engine
_TAG_QUARANTINE = 8  # corruption quarantine (repro.health scrubber)
_TAG_TIER = 9  # container tier pointer (repro.objstore demotion)


class VersionEdit:
    """A delta applied to the current version and logged to MANIFEST."""

    def __init__(self) -> None:
        self.log_number: Optional[int] = None
        self.next_file_number: Optional[int] = None
        self.last_sequence: Optional[int] = None
        self.compact_pointers: List[Tuple[int, bytes]] = []
        self.deleted_files: List[Tuple[int, int]] = []
        self.new_files: List[Tuple[int, FileMetaData]] = []
        self.new_guards: List[Tuple[int, bytes]] = []
        self.quarantined_files: List[int] = []
        #: ``(container, tier, length, crc32)`` — tier 1 records the
        #: container as living in the remote object tier (the pointer
        #: swap of a demotion); tier 0 removes the pointer (the last
        #: table of a remote container died and the object was deleted).
        self.tier_changes: List[Tuple[str, int, int, int]] = []

    def delete_file(self, level: int, number: int) -> None:
        """Record the removal of table ``number`` from ``level``."""
        self.deleted_files.append((level, number))

    def add_file(self, level: int, meta: FileMetaData) -> None:
        """Record the addition of table ``meta`` at ``level``."""
        self.new_files.append((level, meta))

    def add_guard(self, level: int, key: bytes) -> None:
        """Record a new guard key at ``level`` (PebblesDB)."""
        self.new_guards.append((level, key))

    def set_compact_pointer(self, level: int, key: bytes) -> None:
        """Record where the next compaction of ``level`` should start."""
        self.compact_pointers.append((level, key))

    def quarantine_file(self, number: int) -> None:
        """Record that table ``number`` failed checksum verification."""
        self.quarantined_files.append(number)

    def set_tier(self, container: str, tier: int, length: int = 0,
                 crc: int = 0) -> None:
        """Record a tier change for ``container``.

        ``tier=1`` points the container at the object store (``length``
        and ``crc`` describe the remote object, for the durability
        oracle's pointer-never-dangles clause); ``tier=0`` removes the
        pointer.
        """
        self.tier_changes.append((container, tier, length, crc))

    # -- codec ---------------------------------------------------------------

    def encode(self) -> bytes:
        """Serialize this edit as one MANIFEST record payload."""
        v = encode_varint
        out: List[bytes] = []
        if self.log_number is not None:
            out += (v(_TAG_LOG_NUMBER), v(self.log_number))
        if self.next_file_number is not None:
            out += (v(_TAG_NEXT_FILE), v(self.next_file_number))
        if self.last_sequence is not None:
            out += (v(_TAG_LAST_SEQUENCE), encode_fixed64(self.last_sequence))
        for level, key in self.compact_pointers:
            out += (v(_TAG_COMPACT_POINTER), v(level), v(len(key)), key)
        tag = v(_TAG_DELETED_FILE)
        for level, number in self.deleted_files:
            out += (tag, v(level), v(number))
        tag = v(_TAG_NEW_FILE)
        for level, meta in self.new_files:
            container = meta.container.encode()
            out += (tag, v(level), v(meta.number),
                    v(len(container)), container, v(meta.offset), v(meta.length),
                    v(meta.num_entries), v(len(meta.smallest)), meta.smallest,
                    v(len(meta.largest)), meta.largest)
        for level, key in self.new_guards:
            out += (v(_TAG_GUARD), v(level), v(len(key)), key)
        for number in self.quarantined_files:
            out += (v(_TAG_QUARANTINE), v(number))
        for container_name, tier, length, crc in self.tier_changes:
            container = container_name.encode()
            out += (v(_TAG_TIER), v(len(container)), container, v(tier),
                    v(length), v(crc))
        return b"".join(out)

    @classmethod
    def decode(cls, data: bytes) -> "VersionEdit":
        """Parse a MANIFEST record payload back into an edit."""
        edit = cls()
        pos = 0
        while pos < len(data):
            tag, pos = decode_varint(data, pos)
            if tag == _TAG_LOG_NUMBER:
                edit.log_number, pos = decode_varint(data, pos)
            elif tag == _TAG_NEXT_FILE:
                edit.next_file_number, pos = decode_varint(data, pos)
            elif tag == _TAG_LAST_SEQUENCE:
                edit.last_sequence = decode_fixed64(data, pos)
                pos += 8
            elif tag == _TAG_COMPACT_POINTER:
                level, pos = decode_varint(data, pos)
                key, pos = decode_length_prefixed(data, pos)
                edit.compact_pointers.append((level, key))
            elif tag == _TAG_DELETED_FILE:
                level, pos = decode_varint(data, pos)
                number, pos = decode_varint(data, pos)
                edit.deleted_files.append((level, number))
            elif tag == _TAG_NEW_FILE:
                level, pos = decode_varint(data, pos)
                number, pos = decode_varint(data, pos)
                container, pos = decode_length_prefixed(data, pos)
                offset, pos = decode_varint(data, pos)
                length, pos = decode_varint(data, pos)
                num_entries, pos = decode_varint(data, pos)
                smallest, pos = decode_length_prefixed(data, pos)
                largest, pos = decode_length_prefixed(data, pos)
                edit.new_files.append((level, FileMetaData(
                    number=number, container=container.decode(), offset=offset,
                    length=length, smallest=smallest, largest=largest,
                    num_entries=num_entries)))
            elif tag == _TAG_GUARD:
                level, pos = decode_varint(data, pos)
                key, pos = decode_length_prefixed(data, pos)
                edit.new_guards.append((level, key))
            elif tag == _TAG_QUARANTINE:
                number, pos = decode_varint(data, pos)
                edit.quarantined_files.append(number)
            elif tag == _TAG_TIER:
                container, pos = decode_length_prefixed(data, pos)
                tier, pos = decode_varint(data, pos)
                length, pos = decode_varint(data, pos)
                crc, pos = decode_varint(data, pos)
                edit.tier_changes.append((container.decode(), tier,
                                          length, crc))
            else:
                raise CorruptionError(f"unknown VersionEdit tag {tag}")
        return edit


class VersionSet:
    """Owns the current :class:`Version` and the MANIFEST machinery."""

    def __init__(self, env: Environment, fs: SimFS, options: Options, dbname: str):
        self.env = env
        self.fs = fs
        self.options = options
        self.dbname = dbname
        self.current = Version(options.max_levels)
        self.last_sequence = 0
        self.next_file_number = 2  # 1 is reserved for the first manifest
        self.log_number = 0
        self.compact_pointers: Dict[int, bytes] = {}
        #: Guard keys per level (PebblesDB engine only).
        self.guards: Dict[int, List[bytes]] = {}
        self.manifest_file_number = 0
        self._manifest_handle: Optional[FileHandle] = None
        self._manifest_writer: Optional[LogWriter] = None
        self.manifest_writes = 0
        #: True while a MANIFEST record is appended but not yet applied.
        #: An error escaping this window means the on-disk log and the
        #: in-memory state may disagree — the engine escalates it to a
        #: fatal background error (RocksDB's rule: a failed MANIFEST
        #: write requires a reopen).
        self.manifest_in_doubt = False
        #: Serializes log_and_apply: with multiple compaction workers,
        #: two commits interleaving across the fsync yield would corrupt
        #: the in_doubt accounting and install versions out of append
        #: order (LevelDB serializes this under mutex_ + a writer queue).
        self._commit_lock = Resource(env, 1, name=f"{dbname}-manifest-lock")
        if env.sanitizer.enabled:
            env.sanitizer.register(self, f"{dbname}-versions")

    # -- names ------------------------------------------------------------

    def _manifest_name(self, number: int) -> str:
        return f"{self.dbname}/MANIFEST-{number:06d}"

    def _current_name(self) -> str:
        return f"{self.dbname}/CURRENT"

    def new_file_number(self) -> int:
        """Allocate the next unused file number."""
        number = self.next_file_number
        self.next_file_number += 1
        return number

    def mark_file_number_used(self, number: int) -> None:
        """Never reissue ``number``: recovery saw it in the log or on disk."""
        self.next_file_number = max(self.next_file_number, number + 1)

    # -- scoring (used by compaction pickers) --------------------------------

    def l0_unit_count(self) -> int:
        """Level-0 occupancy in governor units.

        Stock engines count level-0 *files*.  BoLT stores one flush as
        many logical SSTables inside one compaction file, so its
        governors and the L0 compaction trigger count distinct
        compaction files (flush units) — otherwise a single flush would
        instantly trip L0SlowDown/L0Stop.
        """
        if self.options.use_compaction_file:
            return self.current.container_count(0)
        return self.current.num_files(0)

    def level_score(self, level: int) -> float:
        """> 1.0 means the level needs compaction (LevelDB's scoring)."""
        if level == 0:
            return self.l0_unit_count() / self.options.l0_compaction_trigger
        return self.current.level_bytes(level) / self.options.max_bytes_for_level(level)

    def pick_compaction_level(self) -> Tuple[int, float]:
        """The level with the highest score, searching top-down."""
        best_level, best_score = -1, 0.0
        for level in range(self.current.num_levels - 1):
            score = self.level_score(level)
            if score > best_score:
                best_level, best_score = level, score
        return best_level, best_score

    # -- edit application ------------------------------------------------------

    def _apply(self, edit: VersionEdit) -> None:
        if edit.log_number is not None:
            self.log_number = edit.log_number
        if edit.next_file_number is not None:
            self.next_file_number = max(self.next_file_number,
                                        edit.next_file_number)
        if edit.last_sequence is not None:
            self.last_sequence = max(self.last_sequence, edit.last_sequence)
        for level, key in edit.compact_pointers:
            self.compact_pointers[level] = key
        version = self.current.clone()
        for level, number in edit.deleted_files:
            version.remove_file(level, number)
            version.quarantined.discard(number)  # gone = no longer suspect
        for level, meta in edit.new_files:
            version.add_file(level, meta)
            self.mark_file_number_used(meta.number)
        for number in edit.quarantined_files:
            version.quarantined.add(number)
        for container, tier, length, crc in edit.tier_changes:
            if tier:
                version.remote_containers[container] = (length, crc)
            else:
                version.remote_containers.pop(container, None)
        for level, key in edit.new_guards:
            keys = self.guards.setdefault(level, [])
            if key not in keys:
                keys.append(key)
                keys.sort()
        self.current = version
        if self.env.sanitizer.enabled:
            self.env.sanitizer.note_write(self, "current")

    def quarantine_now(self, number: int) -> None:
        """Mark table ``number`` quarantined in the live version at once.

        The in-memory mark takes effect immediately (reads fail fast
        from the next probe on); the durable MANIFEST record follows via
        a normal :meth:`log_and_apply` with ``quarantine_file`` set.
        """
        self.current.quarantined.add(number)

    def log_and_apply(self, edit: VersionEdit,
                      meter: Optional[CpuMeter] = None
                      ) -> Generator[Event, Any, None]:
        """Append the edit to MANIFEST, fsync (the commit barrier), apply.

        This is the second of the two barriers a BoLT compaction pays
        (§1: "one for the compaction file and the other for MANIFEST").
        """
        if not self._commit_lock.acquire_in_place():
            yield self._commit_lock.acquire()
        try:
            edit.next_file_number = self.next_file_number
            edit.last_sequence = self.last_sequence
            edit.log_number = self.log_number
            with self.env.tracer.span("manifest.commit", cat="engine",
                                      new_files=len(edit.new_files),
                                      deleted=len(edit.deleted_files)):
                # SimFS appends are all-or-nothing (a DiskFullError leaves
                # the file untouched), so the record is either fully in the
                # log or absent — in-doubt starts only once it is appended.
                self._manifest_writer.append(edit.encode(), meter)
                self.manifest_in_doubt = True
                # Crash site: the edit is appended but not yet committed.
                self.fs.fault_site("manifest.append",
                                   manifest=self._manifest_handle.name)
                yield from self._manifest_handle.fsync()
                # Crash site: the commit mark is durable; cleanup of the
                # superseded tables has not run yet.
                self.fs.fault_site("manifest.commit",
                                   manifest=self._manifest_handle.name)
            self.manifest_writes += 1
            self._apply(edit)
            self.manifest_in_doubt = False
        finally:
            self._commit_lock.release()

    # -- lifecycle ----------------------------------------------------------------

    def create_new(self) -> Generator[Event, Any, None]:
        """Initialize a brand-new database directory."""
        self.manifest_file_number = 1
        yield from self._start_manifest(write_snapshot=False)
        yield from self._write_current()

    def recover(self) -> Generator[Event, Any, None]:
        """Rebuild state from CURRENT + MANIFEST, then roll the manifest.

        Rolling (writing a fresh manifest holding a snapshot of the
        recovered state) matches LevelDB's recovery and keeps the log
        bounded.
        """
        current_handle = yield from self.fs.open(self._current_name())
        raw = yield from current_handle.read(0, 1 << 16)
        manifest_name = raw.decode().strip()
        manifest_handle = yield from self.fs.open(f"{self.dbname}/{manifest_name}")
        data = yield from manifest_handle.read(
            0, manifest_handle.size, sequential=True)
        for record in read_log_records(data):
            self._apply(VersionEdit.decode(record))
        # Roll to a fresh manifest with a snapshot of the current state.
        self.manifest_file_number = self.new_file_number()
        yield from self._start_manifest(write_snapshot=True)
        yield from self._write_current()
        old = f"{self.dbname}/{manifest_name}"
        if self.fs.exists(old):
            yield from self.fs.unlink(old)

    def _start_manifest(self, write_snapshot: bool) -> Generator[Event, Any, None]:
        name = self._manifest_name(self.manifest_file_number)
        self._manifest_handle = yield from self.fs.create(name)
        self._manifest_writer = LogWriter(self._manifest_handle)
        if write_snapshot:
            snapshot = VersionEdit()
            snapshot.log_number = self.log_number
            snapshot.next_file_number = self.next_file_number
            snapshot.last_sequence = self.last_sequence
            for level, key in self.compact_pointers.items():
                snapshot.set_compact_pointer(level, key)
            for level in range(self.current.num_levels):
                for meta in self.current.files[level]:
                    snapshot.add_file(level, meta)
            for level, keys in self.guards.items():
                for key in keys:
                    snapshot.add_guard(level, key)
            for number in sorted(self.current.quarantined):
                snapshot.quarantine_file(number)
            for container in sorted(self.current.remote_containers):
                length, crc = self.current.remote_containers[container]
                snapshot.set_tier(container, 1, length, crc)
            self._manifest_writer.append(snapshot.encode())
        yield from self._manifest_handle.fsync()

    def _write_current(self) -> Generator[Event, Any, None]:
        """Point CURRENT at the live manifest: temp + fsync + rename."""
        tmp_name = f"{self.dbname}/CURRENT.tmp"
        tmp = yield from self.fs.create(tmp_name)
        tmp.append(f"MANIFEST-{self.manifest_file_number:06d}".encode())
        yield from tmp.fsync()
        yield from self.fs.rename(tmp_name, self._current_name())
        # Crash site: CURRENT now names the new manifest; the old one
        # still exists (manifest-roll window).
        self.fs.fault_site("manifest.current_rename",
                           manifest=self._manifest_name(self.manifest_file_number))

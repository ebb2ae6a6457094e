"""Recovery of :class:`~repro.lsm.engine.LSMEngine`, run by ``open``
before any worker starts: MANIFEST and WAL replay, the orphan sweep."""

from __future__ import annotations

from typing import Any, Generator, List

from ..sim import Event
from .memtable import MemTable
from .wal import WriteBatch, list_wal_files, read_log_records

__all__ = ["Recovery"]


class Recovery:
    """What survives a restart."""

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

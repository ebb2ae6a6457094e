"""The read path of :class:`~repro.lsm.engine.LSMEngine` (§2.5), which
holds its state: ``get`` with seek-compaction accounting, ``scan`` as
one lazy heap merge, and the snapshots both read through."""

from __future__ import annotations

import bisect
import heapq
from typing import Any, Generator, List, Optional, Tuple

from ..sim import CpuMeter, Event
from .codec import MAX_SEQUENCE, VALUE_TYPE_DELETION, CorruptionError
from .iterators import Entry
from .memtable import FOUND, NOT_FOUND
from .version import FileMetaData

__all__ = ["ReadPath", "Snapshot"]


class Snapshot:
    """A pinned read view (see :meth:`LSMEngine.snapshot`)."""

    __slots__ = ("_engine", "sequence", "_released")

    def __init__(self, engine: "ReadPath", sequence: int):
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


class ReadPath:
    """Where a read looks, and what a snapshot pins."""

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

"""The compactor of :class:`~repro.lsm.engine.LSMEngine`, which holds its
state and schedules its jobs: flush, then pick → read inputs → merge →
build → install → cleanup.  BoLT's techniques (§3) are :class:`Options`
switches read here; PebblesDB overrides the ``Hook:`` methods."""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import chain
from typing import Any, Generator, Iterable, List, Optional, Tuple

from ..sim import CpuMeter, Event
from ..storage import DeviceError, DiskFullError, FileSystemError
from .codec import CorruptionError
from .iterators import Entry, collapse_versions, merge_streams
from .manifest import VersionEdit
from .sink import CompactionFileSink, OutputSink, PerTableFileSink
from .sstable import SSTableBuilder, read_table_extent
from .version import (FileMetaData, Version, isolated, key_range,
                      split_by_overlap, split_promotable)

__all__ = ["Compaction", "Compactor"]


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


class Compactor:
    """What a flush or compaction rewrites, and how."""

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
            if not self._mutex.acquire_in_place():
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
        with self.env.tracer.span(
                "compaction", cat="engine", level=compaction.level,
                victims=len(compaction.victims), overlaps=len(compaction.overlaps),
                seek=compaction.is_seek_compaction) as span:
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
            if tracer.enabled:
                for meta in promoted:
                    tracer.instant("settled-promotion", cat="engine",
                                   table=meta.number,
                                   to_level=compaction.output_level)
        self.stats.compaction_time += self.env.now - started
        self._maybe_schedule_more()

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
        for meta in batch:  # no read in flight can reach these any more
            self.table_cache.forget(meta.number)
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
            except FileSystemError:
                # Concurrent cleanup batches may reference the same
                # container; whoever loses the unlink race has nothing
                # left to reclaim.
                continue

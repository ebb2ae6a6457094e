"""RepairDB: rebuild a database whose MANIFEST is lost or corrupt.

Mirrors LevelDB's ``RepairDB``: every data file (``.ldb`` tables and
BoLT ``.cf`` compaction files) is scavenged for intact (logical)
SSTables, WALs are salvaged into a fresh table, and a new MANIFEST +
CURRENT is written with everything placed at level 0 so normal
compaction re-sorts the tree.

Scavenging a BoLT compaction file is the interesting part: logical
SSTable boundaries are not recorded anywhere outside the (lost)
MANIFEST, so the scanner searches the raw bytes for table footers —
the fixed magic number, CRC-validated — and derives each table's base
offset from the footer's own section offsets.  Tables whose pages were
lost (zeroed) simply fail their CRCs and are skipped; hole-punched
regions never match the magic.

Probe-order correctness: recovered tables are renumbered in ascending
order of their newest sequence number, so level 0's newest-first read
order still returns the latest version of every key.
"""

from __future__ import annotations

from typing import Any, Generator, List, Tuple

from ..lsm.codec import CorruptionError, encode_fixed64
from ..lsm.manifest import VersionEdit, VersionSet
from ..lsm.memtable import MemTable
from ..lsm.options import Options
from ..lsm.sstable import (FOOTER_SIZE, Entry, SSTableBuilder, _MAGIC,
                           _parse_footer, read_table_extent)
from ..lsm.version import FileMetaData
from ..lsm.wal import WriteBatch, list_wal_files, read_log_records
from ..sim import Environment, Event
from ..storage import SimFS

__all__ = ["repair_database", "scan_container_for_tables",
           "read_quarantine_intent", "RepairReport"]

_MAGIC_BYTES = encode_fixed64(_MAGIC)


class RepairReport:
    """What a repair run found and rebuilt."""

    def __init__(self) -> None:
        self.tables_recovered = 0
        self.tables_corrupt = 0
        self.tables_quarantined = 0
        self.wal_records_salvaged = 0
        self.files_scanned = 0
        self.max_sequence = 0

    def __repr__(self) -> str:
        return (f"RepairReport(tables={self.tables_recovered}, "
                f"corrupt={self.tables_corrupt}, "
                f"quarantined={self.tables_quarantined}, "
                f"wal_records={self.wal_records_salvaged})")


def read_quarantine_intent(fs: SimFS, dbname: str
                           ) -> Generator[Event, Any, List[Tuple[str, int]]]:
    """Best-effort scan of the old MANIFEST chain for quarantine marks.

    The scrubber records corrupt tables in the MANIFEST (tag 8) so reads
    fail fast instead of returning garbage.  Repair honours that intent:
    a quarantined table must not be resurrected even when its bytes
    happen to verify during the scavenge (intermittent media faults).
    Returns the ``(container, base_offset)`` pairs to exclude; decode
    stops silently at the first corrupt manifest record, because repair
    runs precisely when the MANIFEST is suspect.
    """
    bases: List[Tuple[str, int]] = []
    by_number: dict = {}
    quarantined: set = set()
    for name in fs.listdir(f"{dbname}/"):
        if "MANIFEST" not in name:
            continue
        handle = yield from fs.open(name)
        data = yield from handle.read(0, handle.size, sequential=True)
        for record in read_log_records(data):
            try:
                edit = VersionEdit.decode(record)
            except CorruptionError:
                break
            for _level, meta in edit.new_files:
                by_number[meta.number] = (meta.container, meta.offset)
            quarantined.update(edit.quarantined_files)
    for number in sorted(quarantined):
        if number in by_number:
            bases.append(by_number[number])
    return bases


def scan_container_for_tables(fs: SimFS, name: str, options: Options
                              ) -> Generator[Event, Any,
                                             List[Tuple[int, int, List[Entry]]]]:
    """Find every intact (logical) SSTable inside one data file.

    Returns ``(base_offset, length, entries)`` triples, in file order.
    """
    handle = yield from fs.open(name)
    raw = yield from handle.read(0, handle.size, sequential=True)
    found: List[Tuple[int, int, List[Entry]]] = []
    search_from = 0
    while True:
        magic_at = raw.find(_MAGIC_BYTES, search_from)
        if magic_at < 0:
            break
        search_from = magic_at + 1
        footer_end = magic_at + 8 + 4
        if not FOOTER_SIZE <= footer_end <= len(raw):
            continue
        try:
            _ioff, _ilen, bloom_off, bloom_len, _count = _parse_footer(
                raw[footer_end - FOOTER_SIZE:footer_end], footer_end)
            length = bloom_off + bloom_len + FOOTER_SIZE
            # Deep check: every block must decode (lost pages -> CRC).
            entries = yield from read_table_extent(
                handle, options.table_format, footer_end - length, length)
        except CorruptionError:
            continue
        found.append((footer_end - length, length, entries))
        search_from = footer_end
    return found


def repair_database(env: Environment, fs: SimFS, options: Options,
                    dbname: str = "db"
                    ) -> Generator[Event, Any, RepairReport]:
    """Rebuild ``dbname``'s MANIFEST/CURRENT from its data files."""
    report = RepairReport()
    options.validate()

    # 0. Read quarantine intent from the old MANIFEST before it is
    #    deleted: scrubbed-bad tables stay excluded from the rebuild.
    quarantined_bases = set()
    try:
        quarantined_bases = set(
            (yield from read_quarantine_intent(fs, dbname)))
    except OSError:
        pass  # manifest unreadable: nothing to honour

    # 1. Scavenge tables from every data file.
    recovered: List[Tuple[int, FileMetaData]] = []  # (max_seq, meta)
    for name in fs.listdir(f"{dbname}/"):
        if not (name.endswith(".ldb") or name.endswith(".cf")):
            continue
        report.files_scanned += 1
        tables = yield from scan_container_for_tables(fs, name, options)
        for base, length, entries in tables:
            if (name, base) in quarantined_bases:
                report.tables_quarantined += 1
                continue
            if not entries:
                report.tables_corrupt += 1
                continue
            max_seq = max(seq for _k, seq, _t, _v in entries)
            report.max_sequence = max(report.max_sequence, max_seq)
            meta = FileMetaData(
                number=0,  # assigned below, in recency order
                container=name, offset=base, length=length,
                smallest=min(k for k, _s, _t, _v in entries),
                largest=max(k for k, _s, _t, _v in entries),
                num_entries=len(entries))
            recovered.append((max_seq, meta))
            report.tables_recovered += 1

    # 2. Salvage WAL records into a fresh memtable -> one more table.
    salvage = MemTable()
    wals = [name for _number, name in list_wal_files(fs, dbname)]
    for name in wals:
        handle = yield from fs.open(name)
        data = yield from handle.read(0, handle.size, sequential=True)
        for record in read_log_records(data):
            first_seq, batch = WriteBatch.decode(record)
            seq = first_seq
            for value_type, key, value in batch.ops:
                try:
                    salvage.add(seq, value_type, key, value)
                except KeyError:
                    pass  # duplicate (overlapping logs); keep the first
                report.wal_records_salvaged += 1
                report.max_sequence = max(report.max_sequence, seq)
                seq += 1

    # 3. Write a fresh MANIFEST: drop old metadata, renumber tables in
    #    recency order so level-0 probe order stays newest-first.
    for name in list(fs.listdir(f"{dbname}/")):
        if name in wals or "MANIFEST" in name or name.endswith("CURRENT"):
            if fs.exists(name):
                yield from fs.unlink(name)

    versions = VersionSet(env, fs, options, dbname)
    versions.last_sequence = report.max_sequence
    yield from versions.create_new()

    edit = VersionEdit()
    recovered.sort(key=lambda item: item[0])  # oldest first
    for max_seq, meta in recovered:
        meta.number = versions.new_file_number()
        edit.add_file(0, meta)
    if len(salvage):
        number = versions.new_file_number()
        name = f"{dbname}/{number:06d}.ldb"
        handle = yield from fs.create(name)
        builder = SSTableBuilder(handle, options.table_format,
                                 options.bloom_bits_per_key)
        for key, seq, value_type, value in salvage.entries():
            builder.add(key, seq, value_type, value)
        info = builder.finish()
        yield from handle.fsync()
        edit.add_file(0, FileMetaData(
            number=number, container=name, offset=info.base_offset,
            length=info.length, smallest=info.smallest,
            largest=info.largest, num_entries=info.num_entries))
    edit.last_sequence = report.max_sequence
    yield from versions.log_and_apply(edit)
    return report

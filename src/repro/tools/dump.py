"""Inspection utilities: human-readable views of on-disk structures.

The analog of LevelDB's ``ldb dump`` / ``sst_dump``: everything works
from the raw bytes in SimFS, so these are also handy when debugging
crash-recovery states in tests.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from ..lsm.codec import VALUE_TYPE_DELETION
from ..lsm.manifest import VersionEdit
from ..lsm.options import Options
from ..lsm.sstable import SSTableReader, read_table_extent
from ..lsm.wal import WriteBatch, read_log_records
from ..sim import Event
from ..storage import SimFS

__all__ = ["dump_manifest", "dump_wal", "dump_table", "describe_database"]


def dump_manifest(fs: SimFS, name: str) -> Generator[Event, Any, List[str]]:
    """Render each VersionEdit record of a MANIFEST file."""
    handle = yield from fs.open(name)
    data = yield from handle.read(0, handle.size, sequential=True)
    lines: List[str] = []
    for index, record in enumerate(read_log_records(data)):
        edit = VersionEdit.decode(record)
        parts = [f"edit #{index}:"]
        if edit.log_number is not None:
            parts.append(f"log={edit.log_number}")
        if edit.last_sequence is not None:
            parts.append(f"last_seq={edit.last_sequence}")
        if edit.next_file_number is not None:
            parts.append(f"next_file={edit.next_file_number}")
        for level, number in edit.deleted_files:
            parts.append(f"del(L{level},#{number})")
        for level, meta in edit.new_files:
            parts.append(
                f"add(L{level},#{meta.number},{meta.container}"
                f"@{meta.offset}+{meta.length},"
                f"[{meta.smallest!r}..{meta.largest!r}])")
        for level, key in edit.new_guards:
            parts.append(f"guard(L{level},{key!r})")
        lines.append(" ".join(parts))
    return lines


def dump_wal(fs: SimFS, name: str) -> Generator[Event, Any, List[str]]:
    """Render each write batch of a WAL file."""
    handle = yield from fs.open(name)
    data = yield from handle.read(0, handle.size, sequential=True)
    lines: List[str] = []
    for record in read_log_records(data):
        first_seq, batch = WriteBatch.decode(record)
        ops = ", ".join(
            (f"del {key!r}" if vt == VALUE_TYPE_DELETION
             else f"put {key!r}={len(value)}B")
            for vt, key, value in batch.ops)
        lines.append(f"batch@seq={first_seq}: {ops}")
    return lines


def dump_table(fs: SimFS, container: str, offset: int, length: int,
               options: Optional[Options] = None,
               include_entries: bool = False
               ) -> Generator[Event, Any, Dict[str, Any]]:
    """Summarize one (logical) SSTable; optionally list its entries."""
    options = options or Options()
    handle = yield from fs.open(container)
    reader = yield from SSTableReader.open(
        0, handle, options.table_format, offset, length)
    summary: Dict[str, Any] = {
        "container": container,
        "offset": offset,
        "length": length,
        "num_entries": reader.num_entries,
        "num_blocks": len(reader.index),
        "index_bytes": reader.index_size,
        # The index records each block's LAST key; the table's true
        # smallest key is inside the first block.
        "first_block_last_key": reader.index[0][0] if reader.index else None,
        "largest": reader.index[-1][0] if reader.index else None,
    }
    if include_entries:
        entries = yield from read_table_extent(
            handle, options.table_format, offset, length)
        summary["entries"] = [
            (key, seq, "del" if vt == VALUE_TYPE_DELETION else "put",
             len(value))
            for key, seq, vt, value in entries]
    return summary


def describe_database(fs: SimFS, dbname: str = "db",
                      options: Optional[Options] = None
                      ) -> Generator[Event, Any, List[str]]:
    """A tree-level report: manifest chain, levels, files on disk."""
    from ..lsm.manifest import VersionSet

    options = options or Options()
    lines: List[str] = [f"database: {dbname}/"]
    if not fs.exists(f"{dbname}/CURRENT"):
        lines.append("  (no CURRENT file: not a database, or repair needed)")
        return lines
    # Read-only fold of the manifest (never rolls it, unlike recover()).
    versions = VersionSet(fs.env, fs, options, dbname)
    current = yield from fs.open(f"{dbname}/CURRENT")
    manifest_name = (yield from current.read(0, 1 << 16)).decode().strip()
    manifest = yield from fs.open(f"{dbname}/{manifest_name}")
    data = yield from manifest.read(0, manifest.size, sequential=True)
    for record in read_log_records(data):
        versions._apply(VersionEdit.decode(record))
    version = versions.current
    lines.append(f"  last_sequence: {versions.last_sequence}")
    lines.append(f"  next_file:     {versions.next_file_number}")
    for level in range(version.num_levels):
        files = version.files[level]
        if not files:
            continue
        total = sum(f.length for f in files)
        lines.append(f"  L{level}: {len(files)} tables, {total} bytes")
        for meta in files[:8]:
            lines.append(
                f"      #{meta.number} {meta.container}@{meta.offset}"
                f"+{meta.length} [{meta.smallest!r}..{meta.largest!r}]")
        if len(files) > 8:
            lines.append(f"      ... and {len(files) - 8} more")
    on_disk = fs.listdir(f"{dbname}/")
    lines.append(f"  files on disk: {len(on_disk)}")
    return lines

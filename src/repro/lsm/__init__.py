"""Generic LSM-tree substrate: everything LevelDB-shaped that BoLT and
the baseline engines are built from.

Module map:

* :mod:`~repro.lsm.codec` — varints, CRC framing, value-type tags.
* :mod:`~repro.lsm.memtable` — write buffer.
* :mod:`~repro.lsm.wal` — write-ahead log and :class:`WriteBatch`.
* :mod:`~repro.lsm.bloom` / :mod:`~repro.lsm.sstable` — table format.
* :mod:`~repro.lsm.cache` — TableCache / BlockCache (§2.5–2.6) and
  BoLT's per-compaction-file descriptor cache (§3.2.1).
* :mod:`~repro.lsm.sink` — output sinks: a file per table, or BoLT's
  one compaction file per job (§3.1).
* :mod:`~repro.lsm.version` / :mod:`~repro.lsm.manifest` — the table
  tree and its commit-mark log (§2.4).
* :mod:`~repro.lsm.engine` — the full leveled engine, BoLT's
  techniques included as options (§3), over its four seams:
  :mod:`~repro.lsm.write_path`, :mod:`~repro.lsm.read_path`,
  :mod:`~repro.lsm.compactor` and :mod:`~repro.lsm.recovery`.
"""

from .bloom import BloomFilter
from .cache import BlockCache, LRUCache, TableCache
from .codec import CorruptionError, MAX_SEQUENCE, VALUE_TYPE_DELETION, VALUE_TYPE_VALUE
from .compactor import Compaction
from .engine import EngineStats, LSMEngine
from .manifest import VersionEdit, VersionSet
from .memtable import DELETED, FOUND, MemTable, NOT_FOUND
from .options import LEVELDB_FORMAT, Options, ROCKSDB_FORMAT, TableFormat
from .read_path import Snapshot
from .sink import OutputSink, PerTableFileSink
from .sstable import DataBlock, SSTableBuilder, SSTableReader, TableInfo
from .version import FileMetaData, Version
from .wal import LogWriter, WriteBatch, read_log_records

__all__ = [
    "BloomFilter",
    "BlockCache",
    "LRUCache",
    "TableCache",
    "CorruptionError",
    "MAX_SEQUENCE",
    "VALUE_TYPE_DELETION",
    "VALUE_TYPE_VALUE",
    "Compaction",
    "EngineStats",
    "LSMEngine",
    "OutputSink",
    "PerTableFileSink",
    "Snapshot",
    "VersionEdit",
    "VersionSet",
    "DELETED",
    "FOUND",
    "NOT_FOUND",
    "MemTable",
    "Options",
    "TableFormat",
    "LEVELDB_FORMAT",
    "ROCKSDB_FORMAT",
    "DataBlock",
    "SSTableBuilder",
    "SSTableReader",
    "TableInfo",
    "FileMetaData",
    "Version",
    "LogWriter",
    "WriteBatch",
    "read_log_records",
]

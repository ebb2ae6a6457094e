"""BoLT and HyperBoLT engines (paper §3).

BoLT layers four techniques onto a base LSM engine:

1. **Compaction file** (§3.1): one physical file and one data fsync per
   compaction (``CompactionFileSink``), plus the MANIFEST barrier.
2. **Logical SSTables** (§3.2): fine-grained (default 1 MB) tables at
   offsets inside compaction files, addressed by the
   ``(container, offset, length)`` triple in FileMetaData; dead logical
   SSTables are reclaimed with ``fallocate`` hole punching, and a whole
   compaction file is unlinked once none of its tables are live.
3. **Group compaction** (§3.3): many victim logical SSTables (up to
   ``group_compaction_bytes``, paper default 64 MB) merge in a single
   compaction, amortizing barriers and restoring long sequential writes.
4. **Settled compaction** (§3.4): victims are chosen by *minimal*
   next-level overlap; victims with no overlap at all are promoted with
   a MANIFEST-only level change — zero data I/O (inspired by VT-tree
   stitching).

Plus the per-compaction-file descriptor cache (§3.2.1).  Each feature is
independently switchable through :class:`~repro.lsm.Options`, which is
how the Fig 12 ablation (+LS/+GC/+STL/+FC) is produced.

``BoLTEngine`` applies these to the LevelDB base; ``HyperBoLTEngine`` to
the HyperLevelDB base, as the paper's two integrations.
"""

from __future__ import annotations

from typing import Any, Generator, List, Tuple

from ..engines.hyperleveldb import HyperLevelDBEngine, hyperleveldb_options
from ..engines.leveldb import LevelDBEngine, leveldb_options
from ..engines.rocksdb import RocksDBEngine, rocksdb_options
from ..lsm import Options
from ..lsm.engine import Compaction, Event, OutputSink
from ..lsm.version import FileMetaData, Version, isolated, split_by_overlap
from ..storage import FileSystemError, SimFS
from ..sim import Environment
from .compaction_file import CompactionFileSink
from .fd_cache import FileDescriptorCache

__all__ = [
    "BoLTMixin",
    "BoLTEngine",
    "HyperBoLTEngine",
    "RocksBoLTEngine",
    "bolt_options",
    "hyperbolt_options",
    "rocksbolt_options",
    "bolt_ablation_options",
    "ABLATION_STAGES",
]

MB = 1 << 20
KB = 1 << 10


class BoLTMixin:
    """The four BoLT techniques, as overrides of the base engine hooks."""

    def __init__(self, env: Environment, fs: SimFS, options: Options,
                 dbname: str = "db"):
        super().__init__(env, fs, options, dbname)
        if options.enable_fd_cache:
            self.fd_cache = FileDescriptorCache(fs, options.fd_cache_size)
            self.table_cache.open_container = self.fd_cache.open

    # -- §3.1: one compaction file per compaction ---------------------------

    def _make_sink(self) -> OutputSink:
        if not self.options.use_compaction_file:
            return super()._make_sink()
        return CompactionFileSink(self.fs, self.dbname,
                                  self.versions.new_file_number())

    # -- §3.3/§3.4: group + settled victim selection ---------------------------

    def _pick_victims(self, version: Version, level: int) -> List[FileMetaData]:
        opts = self.options
        group_bytes = opts.group_compaction_bytes
        if not group_bytes and not opts.enable_settled_compaction:
            return super()._pick_victims(version, level)
        candidates = [f for f in version.files[level]
                      if f.number not in self._busy_tables]
        if not candidates:
            return []
        budget = group_bytes if group_bytes else opts.sstable_size

        if opts.enable_settled_compaction:
            # §3.4: victims need not be contiguous — order candidates by
            # ascending next-level overlap so zero-overlap tables settle.
            overlap_bytes = version.overlap_bytes
            below = level + 1
            ordered = sorted(candidates, key=lambda f: (overlap_bytes(
                below, f.smallest, f.largest), f.number))
        else:
            # §3.3: contiguous run after the round-robin pointer.
            pointer = self.versions.compact_pointers.get(level)
            start = 0
            if pointer is not None:
                for index, meta in enumerate(candidates):
                    if meta.smallest > pointer:
                        start = index
                        break
            ordered = candidates[start:] + candidates[:start]

        victims: List[FileMetaData] = []
        total = 0
        for meta in ordered:
            victims.append(meta)
            total += meta.length
            if total >= budget:
                break
        return victims

    def _split_settled(self, compaction: Compaction
                       ) -> Tuple[List[FileMetaData], List[FileMetaData]]:
        if not self.options.enable_settled_compaction:
            return super()._split_settled(compaction)
        merge, settled = split_by_overlap(compaction.victims, compaction.overlaps)
        if settled and compaction.level == 0:
            # Level-0 victims may share keys; a victim can only settle
            # if it overlaps no *other* victim, or a newer version of
            # one of its keys could end up below it.
            alone = set(isolated(compaction.victims))
            settled = [v for v in settled if v in alone]
            kept = set(settled)
            merge = [v for v in compaction.victims if v not in kept]
        return settled, merge

    # -- §3.2: hole punching instead of unlink ---------------------------------

    def _cleanup_tables(self, metas: List[FileMetaData]
                        ) -> Generator[Event, Any, None]:
        """Punch holes over dead logical SSTables; unlink a compaction
        file only once no live table references it."""
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
                        tracer.count("bolt.containers_unlinked")
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


class BoLTEngine(BoLTMixin, LevelDBEngine):
    """BoLT integrated into LevelDB (the paper's primary build)."""

    name = "bolt"


class HyperBoLTEngine(BoLTMixin, HyperLevelDBEngine):
    """BoLT integrated into HyperLevelDB (the paper's HyperBoLT)."""

    name = "hyperbolt"


class RocksBoLTEngine(BoLTMixin, RocksDBEngine):
    """BoLT integrated into RocksDB — the paper's stated future work.

    §4.1: "Since these [RocksDB] optimizations are independent of BoLT
    designs, we can replace the LSM-tree implementation of RocksDB with
    BoLT to improve its performance.  We leave the application of BoLT
    in RocksDB as our future work."  Here it is: RocksDB's compact
    record format, multi-threaded compaction, lock-free read path and
    governors, with BoLT's compaction files, logical SSTables, group/
    settled compaction and FD cache layered on top.
    """

    name = "rocksbolt"


def _with_bolt(base: Options, scale: int, logical_sstable: int = 1 * MB,
               group_bytes: int = 64 * MB, settled: bool = True,
               fd_cache: bool = True, **overrides) -> Options:
    """``base`` with the BoLT features laid over it (byte sizes divided
    by ``scale``); ``overrides`` win."""
    overlay = dict(
        sstable_size=max(1, logical_sstable // scale),
        use_compaction_file=True,
        group_compaction_bytes=max(1, group_bytes // scale) if group_bytes else 0,
        enable_settled_compaction=settled,
        enable_fd_cache=fd_cache,
    )
    overlay.update(overrides)
    return base.copy(**overlay)


def bolt_options(scale: int = 1, logical_sstable: int = 1 * MB,
                 group_bytes: int = 64 * MB, settled: bool = True,
                 fd_cache: bool = True, **overrides) -> Options:
    """Full BoLT configuration (§4.1: 1 MB logical SSTables; §4.2.1:
    64 MB group compaction performed best)."""
    return _with_bolt(leveldb_options(scale), scale, logical_sstable,
                      group_bytes, settled, fd_cache, **overrides)


def hyperbolt_options(scale: int = 1, logical_sstable: int = 1 * MB,
                      group_bytes: int = 64 * MB, settled: bool = True,
                      fd_cache: bool = True, **overrides) -> Options:
    """Full HyperBoLT configuration (HyperLevelDB base + BoLT features)."""
    return _with_bolt(hyperleveldb_options(scale), scale, logical_sstable,
                      group_bytes, settled, fd_cache, **overrides)


#: Fig 12 ablation stages, cumulative left to right.
ABLATION_STAGES = ("stock", "+LS", "+GC", "+STL", "+FC")


def rocksbolt_options(scale: int = 1, logical_sstable: int = 1 * MB,
                      group_bytes: int = 64 * MB, settled: bool = True,
                      fd_cache: bool = True, **overrides) -> Options:
    """BoLT-in-RocksDB configuration (the paper's future work): RocksDB
    defaults with the BoLT features enabled."""
    return _with_bolt(rocksdb_options(scale), scale, logical_sstable,
                      group_bytes, settled, fd_cache, **overrides)


def bolt_ablation_options(stage: str, scale: int = 1, base: str = "leveldb",
                          **overrides) -> Options:
    """Options for one Fig 12 ablation stage.

    ``stock`` is the unmodified base engine; ``+LS`` adds compaction
    files with 1 MB logical SSTables; ``+GC`` adds 64 MB group
    compaction; ``+STL`` adds settled compaction; ``+FC`` adds the
    file-descriptor cache.
    """
    if stage not in ABLATION_STAGES:
        raise ValueError(f"unknown ablation stage {stage!r}")
    base_factory = {"leveldb": leveldb_options,
                    "hyperleveldb": hyperleveldb_options}[base]
    options = base_factory(scale)
    if stage == "stock":
        return options.copy(**overrides) if overrides else options
    index = ABLATION_STAGES.index(stage)
    return _with_bolt(options, scale, group_bytes=64 * MB if index >= 2 else 0,
                      settled=index >= 3, fd_cache=index >= 4, **overrides)

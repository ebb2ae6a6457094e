"""BoLT's option factories (paper §3), Fig 12's ablation stages included.

BoLT layers four techniques onto a base LSM engine:

1. **Compaction file** (§3.1): one physical file and one data fsync per
   compaction (:class:`~repro.lsm.sink.CompactionFileSink`), plus the
   MANIFEST barrier.
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
an :class:`~repro.lsm.Options` switch that :class:`~repro.lsm.LSMEngine`
reads, which is how the Fig 12 ablation (+LS/+GC/+STL/+FC) is produced.
BoLT, HyperBoLT and RocksBoLT are their base engines opened with these
options; their ``SYSTEMS`` rows name the engine after the integration
(:attr:`~repro.bench.SystemSpec.engine_name`).  RocksBoLT is the paper's
stated future work (§4.1).
"""

from __future__ import annotations

from ..lsm import Options
from .hyperleveldb import hyperleveldb_options
from .leveldb import leveldb_options
from .rocksdb import rocksdb_options

__all__ = [
    "bolt_options",
    "hyperbolt_options",
    "rocksbolt_options",
    "bolt_ablation_options",
    "ABLATION_STAGES",
]

MB = 1 << 20


def _with_bolt(base: Options, scale: int, logical_sstable: int = 1 * MB,
               group_bytes: int = 64 * MB, settled: bool = True,
               fd_cache: bool = True, **overrides) -> Options:
    """``base`` with the BoLT features laid over it: full-scale
    ``logical_sstable`` and ``group_bytes`` (0: no group compaction)
    divided by ``scale``, ``settled`` compaction and the ``fd_cache``
    switched; ``overrides`` win.  The public factories take these
    keywords too."""
    overlay = dict(
        sstable_size=max(1, logical_sstable // scale),
        use_compaction_file=True,
        group_compaction_bytes=max(1, group_bytes // scale) if group_bytes else 0,
        enable_settled_compaction=settled,
        enable_fd_cache=fd_cache,
    )
    overlay.update(overrides)
    return base.copy(**overlay)


def bolt_options(scale: int = 1, **knobs) -> Options:
    """Full BoLT configuration (§4.1: 1 MB logical SSTables; §4.2.1:
    64 MB group compaction performed best)."""
    return _with_bolt(leveldb_options(scale), scale, **knobs)


def hyperbolt_options(scale: int = 1, **knobs) -> Options:
    """Full HyperBoLT configuration (HyperLevelDB base + BoLT features)."""
    return _with_bolt(hyperleveldb_options(scale), scale, **knobs)


def rocksbolt_options(scale: int = 1, **knobs) -> Options:
    """BoLT-in-RocksDB configuration (the paper's future work): RocksDB
    defaults with the BoLT features enabled."""
    return _with_bolt(rocksdb_options(scale), scale, **knobs)


#: Fig 12 ablation stages, cumulative left to right.
ABLATION_STAGES = ("stock", "+LS", "+GC", "+STL", "+FC")


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

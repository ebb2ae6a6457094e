"""The stock LevelDB v1.20 baseline.

This is simply the base :class:`~repro.lsm.engine.LSMEngine`, whose
class defaults are LevelDB's, opened with LevelDB's defaults plus the
paper's §4.1 configuration: 2 MB SSTables, 64 MB MemTable, bloom
filters at 10 bits/key, compression off, the L0SlowDown(8)/L0Stop(12)
governors and seek compaction enabled, and a single global writer mutex.

``LVL64MB`` — LevelDB reconfigured with 64 MB SSTables — is the variant
Figure 13 calls out (2.75× faster writes than stock at the cost of ~9 %
more bytes written and far worse read tail latency).
"""

from __future__ import annotations

from ..lsm import Options

__all__ = ["leveldb_options", "leveldb_64mb_options"]

MB = 1 << 20


def leveldb_options(scale: int = 1, **overrides) -> Options:
    """Paper §4.1 LevelDB configuration, optionally scaled down."""
    options = Options(
        memtable_size=64 * MB,
        sstable_size=2 * MB,
        level1_max_bytes=10 * MB,
        l0_compaction_trigger=4,
        l0_slowdown_trigger=8,
        l0_stop_trigger=12,
        enable_seek_compaction=True,
        num_compaction_threads=1,
        # Stock LevelDB latches bg_error_ until reopen; we keep
        # auto-resume on (the point of repro.health) but model its
        # crude recovery with a slow, cautious retry cadence.
        bg_error_backoff=5.0e-3,
        bg_error_max_retries=8,
    ).scaled(scale)
    return options.copy(**overrides) if overrides else options


def leveldb_64mb_options(scale: int = 1, **overrides) -> Options:
    """LVL64MB: stock LevelDB with 64 MB SSTables (Fig 13)."""
    return leveldb_options(scale, **overrides).copy(
        sstable_size=max(1, 64 * MB // scale))

"""Engine configuration.

Every knob the paper varies — SSTable size (Fig 4, 6), group compaction
size (Fig 11), governors (§2.3), feature toggles for the BoLT ablation
(+LS/+GC/+STL/+FC, Fig 12) — is a field of :class:`Options`, and
:meth:`Options.scaled` shrinks all byte-denominated fields together so
experiments keep the paper's ratios at laptop scale (DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional

from ..sim import CostModel

__all__ = ["TableFormat", "LEVELDB_FORMAT", "ROCKSDB_FORMAT", "Options"]

KB = 1 << 10
MB = 1 << 20


@dataclass(frozen=True)
class TableFormat:
    """On-disk SSTable encoding parameters.

    ``per_record_overhead`` captures the paper's §4.3.3 observation:
    LevelDB's format spends ~100 extra bytes per record while RocksDB
    spends ~24, which is why RocksDB writes far fewer bytes for 100-byte
    records (58% difference) but nearly the same for 1 KB records (7%).
    """

    name: str = "leveldb"
    #: Fixed on-disk overhead per record (headers, padding, trailers).
    per_record_overhead: int = 100
    #: Target uncompressed size of one data block.
    block_size: int = 4 * KB
    #: Bytes per index entry beyond the key itself.
    index_entry_overhead: int = 24


LEVELDB_FORMAT = TableFormat(name="leveldb", per_record_overhead=100)
ROCKSDB_FORMAT = TableFormat(name="rocksdb", per_record_overhead=24)

# Byte-denominated Options fields shrunk together by Options.scaled().
_SCALED_FIELDS = (
    "memtable_size",
    "sstable_size",
    "level1_max_bytes",
    "group_compaction_bytes",
    "block_cache_bytes",
    "write_group_bytes",
    "tier_cache_bytes",
)


@dataclass
class Options:
    """Configuration for an LSM engine instance.

    Defaults mirror stock LevelDB v1.20 plus the paper's §4.1 choices
    (bloom filters at 10 bits/key, compression off, 64 MB MemTable in
    the paper's full-scale runs).
    """

    # -- structure sizes ---------------------------------------------------
    memtable_size: int = 4 * MB
    sstable_size: int = 2 * MB
    level1_max_bytes: int = 10 * MB
    level_size_multiplier: int = 10
    max_levels: int = 7

    # -- write-stall governors (§2.3) ---------------------------------------
    l0_compaction_trigger: int = 4
    l0_slowdown_trigger: int = 8
    l0_stop_trigger: int = 12
    slowdown_sleep: float = 1.0e-3
    enable_l0_slowdown: bool = True
    enable_l0_stop: bool = True

    # -- compaction ---------------------------------------------------------
    enable_seek_compaction: bool = True
    #: Seek-compaction budget divisor: allowed_seeks = size / this.
    seek_compaction_divisor: int = 16 * KB
    num_compaction_threads: int = 1

    # -- table format & caches ----------------------------------------------
    table_format: TableFormat = field(default_factory=lambda: LEVELDB_FORMAT)
    bloom_bits_per_key: int = 10
    #: TableCache capacity, counted in tables (max_open_files), as the
    #: paper stresses in §2.6/§4.3.1.
    max_open_files: int = 1000
    block_cache_bytes: int = 8 * MB

    # -- write-ahead log ------------------------------------------------------
    #: Sync the WAL on every write (YCSB-style runs leave this off).
    wal_sync: bool = False
    #: Group-commit byte budget: how many queued writers' batches the
    #: commit leader may merge into one WAL record (LevelDB's max
    #: write-batch group size).  The leader always commits its own
    #: batch, so 0 disables merging without disabling the queue.
    write_group_bytes: int = 1 * MB
    #: Run on BarrierFS (paper §5): compaction outputs are made *ordered*
    #: with cheap fdatabarrier() calls instead of per-file fsync(); the
    #: MANIFEST commit remains a real fsync (the durability point), whose
    #: FLUSH also makes the ordered data durable.
    use_barrierfs: bool = False

    # -- BoLT features (paper §3) ---------------------------------------------
    #: +LS: store logical SSTables inside one compaction file per
    #: compaction; ``sstable_size`` then means the *logical* SSTable size.
    use_compaction_file: bool = False
    #: +GC: total victim bytes picked per compaction (0 disables group
    #: compaction: one victim table per compaction, as stock LevelDB).
    group_compaction_bytes: int = 0
    #: +STL: promote non-overlapping victims via a MANIFEST-only level
    #: change instead of rewriting them.
    enable_settled_compaction: bool = False
    #: +FC: cache file descriptors per compaction file.
    enable_fd_cache: bool = False
    fd_cache_size: int = 1000

    # -- runtime error handling (repro.health) -------------------------------
    #: Auto-resume background work after a hard error (exponential
    #: backoff with jitter on the virtual clock).  Off = stay degraded
    #: until :meth:`repro.health.ErrorManager.poke` (manual resume).
    enable_auto_resume: bool = True
    #: Initial resume backoff, virtual seconds (doubles per failure).
    bg_error_backoff: float = 2.0e-3
    #: Backoff ceiling, virtual seconds.
    bg_error_backoff_max: float = 0.5
    #: Proportional jitter added to each backoff (0.25 = up to +25 %).
    bg_error_jitter: float = 0.25
    #: Consecutive hard failures tolerated before escalating to fatal
    #: (read-only until manual intervention).  A success resets the count.
    bg_error_max_retries: int = 12
    #: Free space required before leaving ENOSPC read-only mode.
    #: ``None`` means one MemTable's worth (enough to flush and rotate).
    enospc_resume_headroom: Optional[int] = None
    #: Run the background corruption scrubber (walks live tables on an
    #: idle-time budget, quarantining any that fail deep CRC checks).
    enable_scrubber: bool = False
    #: Virtual seconds between scrub rounds.
    scrub_interval: float = 0.25
    #: Tables deep-verified per scrub round (the idle-time budget).
    scrub_tables_per_round: int = 2

    # -- tiered object storage (repro.objstore) ------------------------------
    #: Demote cold, fully-compacted compaction files wholesale to the
    #: simulated object store after compaction.  Off by default: with
    #: tiering disabled no objstore object is created, no event is
    #: scheduled, and every output is byte-identical to a build without
    #: the subsystem.
    tiering_enabled: bool = False
    #: A container is demotion-cold once *all* of its live tables sit at
    #: or below this level (fully compacted out of the hot path).
    tier_cold_level: int = 2
    #: Local LSST cache budget for fetched remote containers.
    tier_cache_bytes: int = 4 * MB
    #: Remote request round-trip latency, virtual seconds per operation.
    tier_remote_latency: float = 0.012
    #: Remote bandwidth ceiling, bytes per virtual second (shared pipe).
    tier_remote_bandwidth: float = 100.0e6

    # -- observability ------------------------------------------------------
    #: A :class:`repro.obs.Tracer` to install on the engine's simulation
    #: environment at construction time.  ``None`` (the default) leaves
    #: the zero-overhead null tracer in place, so tracing costs nothing
    #: and changes nothing unless explicitly requested.
    tracer: Optional[Any] = None

    # -- misc --------------------------------------------------------------------
    cost_model: CostModel = field(default_factory=CostModel)
    seed: int = 0

    def validate(self) -> None:
        """Raise :class:`ValueError` on inconsistent settings."""
        if self.memtable_size <= 0 or self.sstable_size <= 0:
            raise ValueError("memtable_size and sstable_size must be positive")
        if self.l0_slowdown_trigger > self.l0_stop_trigger:
            raise ValueError("l0_slowdown_trigger must be <= l0_stop_trigger")
        if self.enable_l0_stop and self.l0_stop_trigger < self.l0_compaction_trigger:
            # A writer blocked by L0Stop needs compaction work to exist,
            # which requires the compaction trigger to fire first.
            raise ValueError(
                "l0_stop_trigger must be >= l0_compaction_trigger")
        if self.write_group_bytes < 0:
            raise ValueError("write_group_bytes must be >= 0")
        if self.max_levels < 2:
            raise ValueError("need at least two levels")
        if self.level_size_multiplier < 2:
            raise ValueError("level_size_multiplier must be >= 2")
        if self.bg_error_backoff <= 0 or self.bg_error_backoff_max <= 0:
            raise ValueError("bg_error backoffs must be positive")
        if self.bg_error_max_retries < 1:
            raise ValueError("bg_error_max_retries must be >= 1")
        if self.scrub_interval <= 0 or self.scrub_tables_per_round < 1:
            raise ValueError("scrubber interval/budget must be positive")
        if self.use_barrierfs and self.use_compaction_file:
            # The compaction-file sink always seals with one fsync; an
            # ordering-only BarrierFS sink exists only per table.
            raise ValueError(
                "use_barrierfs does not apply to use_compaction_file")
        if self.tiering_enabled:
            if not self.use_compaction_file:
                # Demotion moves whole compaction files; per-table engines
                # have no coarse immutable unit worth a PUT each.
                raise ValueError("tiering requires use_compaction_file")
            if self.tier_cache_bytes <= 0:
                raise ValueError("tier_cache_bytes must be positive")
            if self.tier_cold_level < 1:
                raise ValueError("tier_cold_level must be >= 1")
            if (self.tier_remote_latency < 0
                    or self.tier_remote_bandwidth <= 0):
                raise ValueError("remote latency/bandwidth must be positive")

    def max_bytes_for_level(self, level: int) -> float:
        """Size limit of ``level`` (level 0 is governed by file count)."""
        if level <= 0:
            return float("inf")
        return self.level1_max_bytes * (self.level_size_multiplier ** (level - 1))

    def scaled(self, factor: int) -> "Options":
        """A copy with all byte-denominated sizes divided by ``factor``.

        Used to shrink the paper's 50–100 GB experiments to laptop scale
        while preserving every structural ratio; block size is kept at
        4 KB because the page-cache granularity does not scale.
        """
        if factor < 1:
            raise ValueError("scale factor must be >= 1")
        updates = {}
        for name in _SCALED_FIELDS:
            value = getattr(self, name)
            if value:
                updates[name] = max(1, value // factor)
        # The 1 ms L0SlowDown sleep waits for compaction progress, which
        # at 1/factor structure sizes completes factor-times sooner.
        updates["slowdown_sleep"] = self.slowdown_sleep / factor
        # Resume backoffs and scrub pacing wait for device work, which
        # also completes factor-times sooner at 1/factor sizes.
        updates["bg_error_backoff"] = self.bg_error_backoff / factor
        updates["bg_error_backoff_max"] = self.bg_error_backoff_max / factor
        updates["scrub_interval"] = self.scrub_interval / factor
        if self.enospc_resume_headroom:
            updates["enospc_resume_headroom"] = max(
                1, self.enospc_resume_headroom // factor)
        return replace(self, **updates)

    def copy(self, **updates) -> "Options":
        """A copy of these options with ``updates`` applied."""
        return replace(self, **updates)

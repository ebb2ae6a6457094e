"""The HyperLevelDB baseline.

HyperDex's fork of LevelDB, which the paper characterizes by (§2.3,
§4.2.3, §4.3.1/§4.3.2):

* much larger, dynamically-sized SSTables (16–64 MB; we use 32 MB);
* weakened write-stall governors — L0Stop removed, L0SlowDown rarely
  triggered;
* an improved write path that admits concurrent writers (modelled as a
  much cheaper writer-mutex critical section);
* smarter victim selection that minimizes compaction overlap.

Together these give it ~4× LevelDB's write throughput on Load A, while
the unbounded level 0 hurts read-heavy workloads — both shapes the
reproduction must preserve.
"""

from __future__ import annotations

from ..lsm import LSMEngine, Options
from ..sim import CostModel

__all__ = ["HyperLevelDBEngine", "hyperleveldb_options"]

MB = 1 << 20


class HyperLevelDBEngine(LSMEngine):
    """HyperLevelDB: parallel writers, lazy governors, min-overlap picks."""

    name = "hyperleveldb"
    #: Smarter victim selection: the table whose next-level overlap is
    #: cheapest, one per compaction (see ``LSMEngine._pick_victims``).
    min_overlap_victims = True


def hyperleveldb_options(scale: int = 1, **overrides) -> Options:
    """Paper §4.1 HyperLevelDB configuration, optionally scaled down."""
    options = Options(
        memtable_size=64 * MB,
        sstable_size=32 * MB,
        level1_max_bytes=10 * MB,
        l0_compaction_trigger=4,
        l0_slowdown_trigger=20,
        l0_stop_trigger=1 << 30,   # effectively removed
        enable_l0_stop=False,
        enable_seek_compaction=True,
        num_compaction_threads=1,
        cost_model=CostModel(write_mutex_overhead=0.2e-6),
        # HyperLevelDB's lean background machinery retries quickly.
        bg_error_backoff=1.0e-3,
    ).scaled(scale)
    return options.copy(**overrides) if overrides else options

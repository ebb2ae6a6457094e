"""repro — a full reproduction of *BoLT: Barrier-optimized LSM-Tree*
(Kim, Park, Lee, Nam — ACM/IFIP MIDDLEWARE 2020).

The package builds, from scratch, every system the paper touches:

* a discrete-event simulated storage substrate (:mod:`repro.sim`,
  :mod:`repro.storage`) standing in for the paper's SSD testbed;
* a complete leveled LSM-tree engine (:mod:`repro.lsm`) and the four
  baselines — LevelDB, HyperLevelDB, RocksDB, PebblesDB
  (:mod:`repro.engines`);
* BoLT itself — compaction files, logical SSTables, group compaction,
  settled compaction, FD cache — as options the engine reads, with
  their factories beside the baselines' in :mod:`repro.engines`;
* the YCSB workload generator (:mod:`repro.ycsb`) and a benchmark
  harness regenerating every figure of the evaluation
  (:mod:`repro.bench`);
* a multi-client serving layer — server worker slots, admission
  control, WAL group commit, open-loop load generation
  (:mod:`repro.svc`);
* span tracing, counters and Chrome-trace export for the whole
  simulated stack (:mod:`repro.obs`).

Quickstart::

    from repro import open_database

    db, stack = open_database("bolt")
    db.put_sync(b"key", b"value")
    assert db.get_sync(b"key") == b"value"
    print(stack.fs.stats.num_barrier_calls, "fsync calls so far")

See README.md for the full tour and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .bench import BenchConfig, SYSTEMS, Stack, new_stack, open_engine
from .engines import (
    HyperLevelDBEngine,
    PebblesDBEngine,
    RocksDBEngine,
    bolt_ablation_options,
    bolt_options,
    hyperbolt_options,
    hyperleveldb_options,
    leveldb_64mb_options,
    leveldb_options,
    pebblesdb_options,
    rocksdb_options,
)
from .lsm import LSMEngine, Options, WriteBatch
from .obs import (MetricsRegistry, NULL_TRACER, Tracer, phase_summary,
                  write_chrome_trace)
from .sim import Environment
from .storage import BlockDevice, DeviceProfile, PageCache, SATA_SSD, SimFS

__version__ = "1.0.0"

__all__ = [
    "open_database",
    "BenchConfig",
    "SYSTEMS",
    "Stack",
    "new_stack",
    "bolt_options",
    "hyperbolt_options",
    "bolt_ablation_options",
    "HyperLevelDBEngine",
    "RocksDBEngine",
    "PebblesDBEngine",
    "leveldb_options",
    "leveldb_64mb_options",
    "hyperleveldb_options",
    "rocksdb_options",
    "pebblesdb_options",
    "LSMEngine",
    "Options",
    "WriteBatch",
    "Tracer",
    "NULL_TRACER",
    "MetricsRegistry",
    "phase_summary",
    "write_chrome_trace",
    "Environment",
    "BlockDevice",
    "DeviceProfile",
    "SATA_SSD",
    "PageCache",
    "SimFS",
]


def open_database(system: str = "bolt", scale: int = 256,
                  config: Optional[BenchConfig] = None,
                  options: Optional[Options] = None,
                  dbname: str = "db") -> Tuple[LSMEngine, Stack]:
    """Open a fresh key-value store on a fresh simulated machine.

    ``system`` is one of :data:`repro.bench.SYSTEMS`'s keys ("leveldb",
    "lvl64mb", "hyperleveldb", "pebblesdb", "rocksdb", "bolt",
    "hyperbolt").  Returns ``(engine, stack)``; use the engine's
    ``*_sync`` methods from ordinary code, or its coroutine API from
    simulated processes on ``stack.env``.
    """
    spec = SYSTEMS[system]
    cfg = config or BenchConfig(scale=scale)
    stack = new_stack(cfg)
    return open_engine(stack, spec, cfg, options, dbname), stack

"""One function per paper figure — the reproduction's benchmark core.

Every function returns a list of row dicts (ready for
:func:`repro.bench.report.format_table`), so the pytest benchmarks under
``benchmarks/`` and the EXPERIMENTS.md generator share one code path.

Figure index (see DESIGN.md §4 for workload details):

* :func:`fig4_sstable_size_sweep`  — fsync count & insert tail latency
  vs SSTable size, stock LevelDB.
* :func:`fig6_table_cache_overhead` — point-query tail latency, RocksDB
  with 2 MB vs 64 MB SSTables.
* :func:`fig11_group_compaction_sweep` — fsync count vs group size.
* :func:`fig12_ablation` — +LS/+GC/+STL/+FC stages over the full suite.
* :func:`fig13_throughput` — all seven systems, zipfian or uniform.
* :func:`fig14_tail_latency` — insert (Load A) and read (C) CDFs.
* :func:`fig15_large_db` — BoLT vs RocksDB, doubled dataset / 100 B recs.
* :func:`fig16_latency_cdfs` — BoLT vs RocksDB CDFs on workloads A–F.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..engines import ABLATION_STAGES, bolt_ablation_options, bolt_options
from ..engines import leveldb_options, rocksdb_options
from ..lsm import Options
from ..ycsb import WORKLOADS
from .harness import (
    BenchConfig,
    SYSTEMS,
    SystemSpec,
    load_database,
    new_stack,
    open_engine,
    run_suite,
)
from .metrics import PhaseResult

__all__ = [
    "fig4_sstable_size_sweep",
    "fig6_table_cache_overhead",
    "fig11_group_compaction_sweep",
    "fig12_ablation",
    "fig13_throughput",
    "fig14_tail_latency",
    "fig15_large_db",
    "fig16_latency_cdfs",
]

MB = 1 << 20

#: Workload phases shown on the Fig 12/13 x-axis (the §4.1 order).
FIGURE_WORKLOADS = ("load_a", "a", "b", "c", "f", "d", "delete", "load_e", "e")


def _scaled(size_bytes: int, scale: int) -> int:
    return max(4096, size_bytes // scale)


def _load_only(system: SystemSpec, config: BenchConfig,
               options: Options) -> PhaseResult:
    """Run just Load A for one configuration."""
    stack = new_stack(config)
    db = open_engine(stack, system, config, options)
    proc = stack.env.process(load_database(stack, db, config))
    result, _counter = stack.env.run_until(proc)
    db.close_sync()
    return result


# ---------------------------------------------------------------------------
# Figure 4 — insertion performance vs SSTable size (stock LevelDB)
# ---------------------------------------------------------------------------

def fig4_sstable_size_sweep(config: Optional[BenchConfig] = None,
                            sizes_mb: Sequence[int] = (2, 4, 8, 16, 32, 64)
                            ) -> List[Dict[str, object]]:
    """Fig 4(a): #fsync falls ~linearly as SSTables grow; Fig 4(b): the
    insertion tail latency improves correspondingly."""
    config = config or BenchConfig()
    system = SYSTEMS["leveldb"]
    rows: List[Dict[str, object]] = []
    for size_mb in sizes_mb:
        options = leveldb_options(config.scale).copy(
            sstable_size=_scaled(size_mb * MB, config.scale))
        result = _load_only(system, config, options)
        rows.append({
            "sstable_mb": size_mb,
            "fsync_calls": result.fsync_calls,
            "kops": round(result.throughput / 1e3, 2),
            "p99_us": round(result.latencies.percentile(99.0) * 1e6, 1),
            "p999_us": round(result.latencies.percentile(99.9) * 1e6, 1),
            "stall_s": round(result.stall_time + result.slowdown_time, 3),
        })
    return rows


# ---------------------------------------------------------------------------
# Figure 6 — TableCache eviction overhead (RocksDB, point queries)
# ---------------------------------------------------------------------------

def fig6_table_cache_overhead(config: Optional[BenchConfig] = None,
                              sizes_mb: Sequence[int] = (2, 64),
                              num_queries: Optional[int] = None
                              ) -> List[Dict[str, object]]:
    """Fig 6: with large SSTables a TableCache miss re-reads an index
    block proportional to the table size, inflating read tail latency
    even though fewer tables exist."""
    config = config or BenchConfig()
    system = SYSTEMS["rocksdb"]
    num_queries = num_queries or config.ops_per_phase
    rows: List[Dict[str, object]] = []
    for size_mb in sizes_mb:
        # A deliberately tiny TableCache forces the eviction behaviour
        # the paper shows with a 92 GB database against max_open_files.
        options = rocksdb_options(config.scale).copy(
            sstable_size=_scaled(size_mb * MB, config.scale),
            max_open_files=4,
            block_cache_bytes=max(4096, config.dataset_bytes // 64))
        stack = new_stack(config)
        db = open_engine(stack, system, config, options)
        proc = stack.env.process(load_database(stack, db, config))
        _load, counter = stack.env.run_until(proc)

        from ..ycsb import run_phase  # local to avoid cycle at import
        spec = WORKLOADS["c"].with_distribution("uniform")
        read_proc = stack.env.process(run_phase(
            stack.env, db, spec, num_queries, counter.count,
            value_size=config.value_size, num_clients=config.num_clients,
            seed=config.seed, insert_counter=counter))
        recorder = stack.env.run_until(read_proc)
        rows.append({
            "sstable_mb": size_mb,
            "p50_us": round(recorder.percentile(50.0) * 1e6, 1),
            "p95_us": round(recorder.percentile(95.0) * 1e6, 1),
            "p99_us": round(recorder.percentile(99.0) * 1e6, 1),
            "p999_us": round(recorder.percentile(99.9) * 1e6, 1),
            "index_mb_loaded": round(db.table_cache.index_bytes_loaded / 1e6, 3),
            "tcache_hit": round(db.table_cache.hit_ratio, 3),
        })
        db.close_sync()
    return rows


# ---------------------------------------------------------------------------
# Figure 11 — #fsync vs group compaction size
# ---------------------------------------------------------------------------

def fig11_group_compaction_sweep(config: Optional[BenchConfig] = None,
                                 group_sizes_mb: Sequence[int] = (2, 4, 8, 16, 32, 64)
                                 ) -> List[Dict[str, object]]:
    """Fig 11: stock LevelDB calls ~2x the fsyncs of BoLT GC2MB, and the
    count keeps falling as the group compaction size grows."""
    config = config or BenchConfig()
    rows: List[Dict[str, object]] = []
    stock = _load_only(SYSTEMS["leveldb"], config,
                       leveldb_options(config.scale))
    rows.append({
        "config": "LevelDB",
        "fsync_calls": stock.fsync_calls,
        "kops": round(stock.throughput / 1e3, 2),
        "gb_written": round(stock.bytes_written / 1e9, 4),
    })
    for group_mb in group_sizes_mb:
        options = bolt_options(
            config.scale, group_bytes=0, settled=False, fd_cache=False).copy(
            group_compaction_bytes=_scaled(group_mb * MB, config.scale))
        result = _load_only(SYSTEMS["bolt"], config, options)
        rows.append({
            "config": f"GC{group_mb}MB",
            "fsync_calls": result.fsync_calls,
            "kops": round(result.throughput / 1e3, 2),
            "gb_written": round(result.bytes_written / 1e9, 4),
        })
    return rows


# ---------------------------------------------------------------------------
# Figure 12 — quantifying the BoLT designs (+LS/+GC/+STL/+FC)
# ---------------------------------------------------------------------------

def fig12_ablation(config: Optional[BenchConfig] = None,
                   base: str = "leveldb",
                   stages: Sequence[str] = ABLATION_STAGES,
                   workloads: Tuple[str, ...] = FIGURE_WORKLOADS
                   ) -> List[Dict[str, object]]:
    """Fig 12(a)/(b): per-workload throughput for each cumulative BoLT
    feature stage, plus the total-bytes-written inset."""
    config = config or BenchConfig()
    rows: List[Dict[str, object]] = []
    for stage in stages:
        options = bolt_ablation_options(stage, config.scale, base=base)
        results = run_suite(SYSTEMS[base], config, workloads, options=options)
        row: Dict[str, object] = {"stage": stage}
        total_written = 0
        for phase, result in results.items():
            row[f"{phase}_kops"] = round(result.throughput / 1e3, 2)
            total_written += result.bytes_written
        row["gb_written"] = round(total_written / 1e9, 4)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Figure 13 — YCSB throughput, all systems
# ---------------------------------------------------------------------------

def fig13_throughput(config: Optional[BenchConfig] = None,
                     request_dist: str = "zipfian",
                     systems: Sequence[str] = ("leveldb", "lvl64mb",
                                               "hyperleveldb", "pebblesdb",
                                               "rocksdb", "bolt", "hyperbolt"),
                     workloads: Tuple[str, ...] = FIGURE_WORKLOADS
                     ) -> List[Dict[str, object]]:
    """Fig 13(a) zipfian / Fig 13(b) uniform: throughput of every system
    on every workload, in the paper's order."""
    config = config or BenchConfig()
    rows: List[Dict[str, object]] = []
    for key in systems:
        system = SYSTEMS[key]
        results = run_suite(system, config, workloads,
                            request_dist=request_dist)
        row: Dict[str, object] = {"system": system.label}
        for phase, result in results.items():
            row[f"{phase}_kops"] = round(result.throughput / 1e3, 2)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Figure 14 — tail latency of writes (Load A) and reads (C)
# ---------------------------------------------------------------------------

def fig14_tail_latency(config: Optional[BenchConfig] = None,
                       systems: Sequence[str] = ("leveldb", "hyperleveldb",
                                                 "pebblesdb", "rocksdb",
                                                 "bolt", "hyperbolt")
                       ) -> List[Dict[str, object]]:
    """Fig 14(a)/(b): latency CDF points for inserts during Load A and
    reads during workload C."""
    config = config or BenchConfig()
    rows: List[Dict[str, object]] = []
    for key in systems:
        system = SYSTEMS[key]
        results = run_suite(system, config,
                            ("load_a", "a", "b", "c"))
        insert_cdf = results["load_a"].latencies.cdf("insert")
        read_cdf = results["c"].latencies.cdf("read")
        row: Dict[str, object] = {"system": system.label}
        for p, latency in insert_cdf:
            row[f"w_p{p:g}_us"] = round(latency * 1e6, 1)
        for p, latency in read_cdf:
            row[f"r_p{p:g}_us"] = round(latency * 1e6, 1)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Figure 15 — large database: BoLT vs RocksDB
# ---------------------------------------------------------------------------

def _bolt_rocksdb_parity_options(config: BenchConfig) -> Options:
    """§4.3.3: for the big-DB runs BoLT adopts RocksDB's governors,
    TableCache size and level-1 limit for a fair comparison."""
    rocks = rocksdb_options(config.scale)
    return bolt_options(config.scale).copy(
        l0_slowdown_trigger=20,
        l0_stop_trigger=36,
        level1_max_bytes=rocks.level1_max_bytes,
        max_open_files=rocks.max_open_files,
        block_cache_bytes=rocks.block_cache_bytes,
    )


def fig15_large_db(config: Optional[BenchConfig] = None
                   ) -> List[Dict[str, object]]:
    """Fig 15(a)–(c): doubled dataset; (a) 1 KB zipfian, (b) 1 KB
    uniform, (c) small 100-byte records where RocksDB's compact record
    format wins on bytes written.

    Per-case byte scales keep logical-table record counts realistic
    (records are never scaled, DESIGN.md §2): the 1 KB cases run at 1/64
    so a scaled 1 MB logical SSTable still holds ~14 records; the 100 B
    case runs at 1/256 (~33 records per logical table)."""
    config = config or BenchConfig()
    big = config.copy(scale=64, record_count=config.record_count * 2)
    small_records = config.copy(scale=256,
                                record_count=int(config.record_count * 2.5),
                                value_size=100)
    rows: List[Dict[str, object]] = []
    cases = [
        ("a-1kb-zipfian", big, "zipfian"),
        ("b-1kb-uniform", big, "uniform"),
        ("c-100b-zipfian", small_records, "zipfian"),
    ]
    for case, case_config, dist in cases:
        for key in ("bolt", "rocksdb"):
            system = SYSTEMS[key]
            options = (_bolt_rocksdb_parity_options(case_config)
                       if key == "bolt" else None)
            results = run_suite(system, case_config,
                                ("load_a", "a", "b", "c", "d",
                                 "delete", "load_e", "e"),
                                request_dist=dist, options=options)
            row: Dict[str, object] = {"case": case, "system": system.label}
            total = 0
            for phase, result in results.items():
                row[f"{phase}_kops"] = round(result.throughput / 1e3, 2)
                total += result.bytes_written
            row["gb_written"] = round(total / 1e9, 4)
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Figure 16 — latency CDFs per workload: BoLT vs RocksDB
# ---------------------------------------------------------------------------

def fig16_latency_cdfs(config: Optional[BenchConfig] = None,
                       workloads: Sequence[str] = ("a", "b", "c", "d", "e", "f")
                       ) -> List[Dict[str, object]]:
    """Fig 16(a)–(f): operation latency CDF points for BoLT vs RocksDB
    on each YCSB workload over the big database.

    As fig15, run at 1/128 scale so logical tables hold enough records.
    Both systems get the same, deliberately tight TableCache — the
    paper's 92 GB database overwhelms max_open_files, and the figure's
    story is the per-miss index penalty (1 MB for RocksDB vs 30 KB for
    BoLT), which needs misses to exist on both sides.
    """
    config = (config or BenchConfig()).copy(scale=128)
    big = config.copy(record_count=config.record_count * 2)
    rows: List[Dict[str, object]] = []
    suite = ("load_a",) + tuple(workloads)
    table_cache_tables = 24
    for key in ("bolt", "rocksdb"):
        system = SYSTEMS[key]
        if key == "bolt":
            options = _bolt_rocksdb_parity_options(big).copy(
                max_open_files=table_cache_tables)
        else:
            options = rocksdb_options(big.scale).copy(
                max_open_files=table_cache_tables)
        results = run_suite(system, big, suite, options=options)
        for workload in workloads:
            result = results[workload]
            row: Dict[str, object] = {"workload": workload,
                                      "system": system.label}
            for p, latency in result.latencies.cdf():
                row[f"p{p:g}_us"] = round(latency * 1e6, 1)
            rows.append(row)
    return rows

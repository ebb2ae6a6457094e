"""Extra ablations beyond the paper's figures (DESIGN.md §5).

1. Logical SSTable granularity: the paper fixes 1 MB; sweeping it shows
   the §3.2 trade-off — coarser logical tables approach the LVL64MB
   behaviour (fewer, bigger overlaps), finer ones increase per-table
   overheads without barrier cost (the compaction file already
   amortizes those).
2. Barrier-cost sensitivity: BoLT's speedup over stock LevelDB as a
   function of the device's barrier latency — the paper's premise made
   quantitative (cf. the BarrierFS discussion in §5).
"""

from dataclasses import replace

from conftest import run_once

from repro.bench import SYSTEMS, new_stack, open_engine
from repro.bench.harness import load_database
from repro.bench.report import format_table
from repro.engines import bolt_options
from repro.engines import leveldb_options
from repro.storage import SATA_SSD

MB = 1 << 20


def _load(system_key, config, options):
    stack = new_stack(config)
    db = open_engine(stack, SYSTEMS[system_key], config, options)
    proc = stack.env.process(load_database(stack, db, config))
    result, _counter = stack.env.run_until(proc)
    db.close_sync()
    return result


def lsst_size_sweep(config, sizes_kb=(512, 1024, 4096)):
    rows = []
    for size_kb in sizes_kb:
        options = bolt_options(config.scale,
                               logical_sstable=size_kb * 1024)
        result = _load("bolt", config, options)
        rows.append({
            "lsst_kb": size_kb,
            "kops": round(result.throughput / 1e3, 2),
            "fsync": result.fsync_calls,
            "gb_written": round(result.bytes_written / 1e9, 4),
        })
    return rows


def barrier_sensitivity(config, barrier_ms=(0.0, 0.5, 2.0, 8.0)):
    rows = []
    for latency_ms in barrier_ms:
        profile = replace(SATA_SSD, barrier_latency=latency_ms * 1e-3)
        case = config.copy(device=profile.scaled(config.scale))
        stock = _load("leveldb", case, leveldb_options(config.scale))
        bolt = _load("bolt", case, bolt_options(config.scale))
        rows.append({
            "barrier_ms": latency_ms,
            "leveldb_kops": round(stock.throughput / 1e3, 2),
            "bolt_kops": round(bolt.throughput / 1e3, 2),
            "speedup": round(bolt.throughput / stock.throughput, 2),
        })
    return rows


def test_logical_sstable_size_sweep(benchmark, bench_config):
    config = bench_config.copy(record_count=max(
        8_000, bench_config.record_count // 2))
    rows = run_once(benchmark, lsst_size_sweep, config)
    print()
    print(format_table(rows, "Ablation — logical SSTable size (Load A)"))
    benchmark.extra_info["rows"] = rows
    # The compaction file keeps barriers roughly flat across sizes.
    fsyncs = [row["fsync"] for row in rows]
    assert max(fsyncs) < 3 * max(1, min(fsyncs))


def test_barrier_cost_sensitivity(benchmark, bench_config):
    config = bench_config.copy(record_count=max(
        8_000, bench_config.record_count // 2))
    rows = run_once(benchmark, barrier_sensitivity, config)
    print()
    print(format_table(rows, "Ablation — BoLT speedup vs barrier latency"))
    benchmark.extra_info["rows"] = rows
    speedups = [row["speedup"] for row in rows]
    # The paper's premise: the costlier the barrier, the bigger the win.
    assert speedups[-1] > speedups[0]

"""perfbench: seeded wall-clock microbenchmarks for the simulator's fast paths.

Where :mod:`repro.tools.dbbench` reports **virtual** time (the modelled
device), this tool reports **wall-clock** time: how fast the simulator
itself runs on the host.  It pins the hot paths that
``docs/PERFORMANCE.md`` documents — kernel event churn, SSTable block
encode/decode, MemTable add/get/seek, histogram recording, the Version
index, the pick / edit / retire bookkeeping of logical SSTables, the
merge + table-build data path of flush and compaction, the
extent read of compaction inputs, a point read's block decode + lookup,
the synced WAL commit path, open-loop serving over a sharded cluster,
and an end-to-end YCSB-A suite slice — so a regression shows up as a
number, not as a mysteriously slower CI run.

Usage::

    python -m repro.tools.perfbench --json BENCH_perf.json
    python -m repro.tools.perfbench --digest            # fingerprints only
    python -m repro.tools.perfbench --assert-floor BENCH_perf.json

Every benchmark is seeded and returns, besides its wall-clock seconds, a
**fingerprint**: a sha256 over the benchmark's complete observable
output (event orders, decoded entries, histogram state, suite metrics).
Fingerprints are a pure function of the code — they must be
byte-identical run over run and machine over machine, which is how CI
verifies that performance work never changes simulation results
(``--digest`` twice, ``diff``).  Wall-clock seconds naturally vary; the
``--assert-floor`` gate therefore only fails when the *slowest*
benchmark of the committed baseline regresses by more than
``--tolerance`` (default 20%), while fingerprints must always match.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["main", "run_benchmarks", "BENCHMARKS"]

#: Benchmark registry, filled by :func:`_benchmark` below.
BENCHMARKS: Dict[str, Callable[[], Tuple[float, str]]] = {}


def _fingerprint(obj: Any) -> str:
    """sha256 over a canonical JSON encoding of ``obj``."""
    blob = json.dumps(obj, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()


def _benchmark(func: Callable[[], Tuple[float, str]]) -> Callable[[], Tuple[float, str]]:
    """Register ``func`` under its name (sans ``bench_`` prefix)."""
    BENCHMARKS[func.__name__.replace("bench_", "", 1)] = func
    return func


# Each benchmark measures *host* wall-clock time around simulator work;
# that is this tool's entire purpose, so the SIM001 wall-clock rule is
# waived at each read site with that justification.


@_benchmark
def bench_kernel() -> Tuple[float, str]:
    """Event churn: 30k processes through timeouts, callbacks, call_later."""
    from ..sim import Environment
    env = Environment()
    log: List[int] = []

    def worker(i: int):
        """One churn process: two timeouts around a same-tick callback."""
        yield env.timeout(0.001 * (i % 7))
        env.call_later(0.0, lambda: log.append(i))
        yield env.timeout(0.001)

    for i in range(30_000):
        env.process(worker(i))
    started = time.perf_counter()  # simcheck: waive[SIM001] host-time harness
    env.run()
    elapsed = time.perf_counter() - started  # simcheck: waive[SIM001] host-time harness
    digest = _fingerprint({"now": env.now, "order": log})
    return elapsed, digest


@_benchmark
def bench_codec() -> Tuple[float, str]:
    """Block encode + decode: 2000 decodes of a 200-entry data block."""
    import random

    from ..engines import bolt_options
    from ..lsm.sstable import _decode_block, _encode_block, _entry_parts

    fmt = bolt_options(1024).table_format
    rng = random.Random(7)
    payload = bytearray()
    for i in range(200):
        payload.extend(b"".join(_entry_parts(
            fmt.per_record_overhead, b"user%019d" % rng.randrange(10 ** 18),
            i + 1, 1, bytes(100))[0]))
    raw = _encode_block(bytes(payload), 200)
    started = time.perf_counter()  # simcheck: waive[SIM001] host-time harness
    for _ in range(2000):
        entries = _decode_block(fmt, raw)
    elapsed = time.perf_counter() - started  # simcheck: waive[SIM001] host-time harness
    digest = _fingerprint({"raw": raw.hex(), "entries": entries})
    return elapsed, digest


@_benchmark
def bench_skiplist() -> Tuple[float, str]:
    """MemTable index: 40k seeded adds plus a lookup and seek sweep.

    Keeps the name of the skip list it replaced, which the ledger's
    ``lsm.probe_skiplist_s`` probe reads."""
    from ..lsm.codec import VALUE_TYPE_VALUE
    from ..lsm.memtable import MemTable
    mem = MemTable()
    keys = [(b"user%019d" % ((i * 2654435761) % 10 ** 18 % 30_011), i + 1)
            for i in range(40_000)]
    started = time.perf_counter()  # simcheck: waive[SIM001] host-time harness
    for key, seq in keys:
        mem.add(seq, VALUE_TYPE_VALUE, key, b"v%d" % seq)
    gets = [mem.get(key, seq) for key, seq in keys[::7]]
    seeks = [next(mem.entries_from(key, seq)) for key, seq in keys[::7]]
    elapsed = time.perf_counter() - started  # simcheck: waive[SIM001] host-time harness
    digest = _fingerprint({"size": len(mem), "first": next(mem.entries()),
                           "gets": gets[:64], "seeks": seeks[:64],
                           "nseeks": len(seeks)})
    return elapsed, digest


@_benchmark
def bench_histogram() -> Tuple[float, str]:
    """Histogram: 300k seeded latency samples through record_all."""
    import random

    from ..bench.histogram import LatencyHistogram
    hist = LatencyHistogram()
    rng = random.Random(3)
    samples = [rng.random() * 0.01 for _ in range(300_000)]
    started = time.perf_counter()  # simcheck: waive[SIM001] host-time harness
    hist.record_all(samples)
    elapsed = time.perf_counter() - started  # simcheck: waive[SIM001] host-time harness
    digest = _fingerprint({
        "count": len(hist), "mean": hist.mean, "min": hist.min,
        "max": hist.max, "p50": hist.percentile(50.0),
        "p99": hist.percentile(99.0), "p999": hist.percentile(99.9),
    })
    return elapsed, digest


@_benchmark
def bench_objstore_cache() -> Tuple[float, str]:
    """Tiered reads: one cold LSST-cache fill pass, then a hit sweep."""
    from ..objstore import LsstCache, ObjectStore
    from ..sim import Environment
    from ..storage import BlockDevice, PageCache, SimFS
    env = Environment()
    fs = SimFS(env, BlockDevice(env), PageCache(16 << 20))
    objects = {"db/%06d.cf" % i: bytes(8192) for i in range(32)}
    store = ObjectStore(env, seed=9, objects=objects)
    cache = LsstCache(fs, store, "db", 48 * 8192)

    def sweep():
        """32 misses (remote GETs), then 600 all-hit passes."""
        for _ in range(600):
            for i in range(32):
                handle = yield from cache.ensure("db/%06d.cf" % i)
                yield from handle.read(0, 64)

    started = time.perf_counter()  # simcheck: waive[SIM001] host-time harness
    env.run_until(env.process(sweep()))
    elapsed = time.perf_counter() - started  # simcheck: waive[SIM001] host-time harness
    digest = _fingerprint({
        "now": env.now, "hits": cache.hits, "misses": cache.misses,
        "gets": store.stats.gets, "bytes_out": store.stats.bytes_out,
        "resident": cache.snapshot()["resident_bytes"],
        "miss_p999_ms": cache.snapshot()["miss_p999_ms"],
    })
    return elapsed, digest


@_benchmark
def bench_version() -> Tuple[float, str]:
    """Version index: the add / remove / overlap / classify mix of a BoLT
    fill's settled group compactions, on a 4.5k-table tree."""
    import random
    from itertools import count

    from ..lsm.version import FileMetaData, Version, key_range, split_by_overlap
    rng = random.Random(13)
    numbers = count(1)

    def table(lo: int, width: int) -> FileMetaData:
        """A fresh table over the ``width`` keys starting at ``lo``."""
        return FileMetaData(next(numbers), "v.cf", 0, 1000 + lo % 97,
                            b"user%012d" % lo, b"user%012d" % (lo + width))

    version = Version(3)
    for i in range(4096):  # level 2 disjoint with gaps; level 1 overlapping
        version.add_file(2, table(i * 100, 60))
    answers: List[Any] = []
    started = time.perf_counter()  # simcheck: waive[SIM001] host-time harness
    for step in range(60):
        version = version.clone()
        for _ in range(24 if step else 512):
            version.add_file(1, table(rng.randrange(400_000), rng.randrange(300)))
        victims = sorted(version.files[1], key=lambda f: (version.overlap_bytes(
            2, f.smallest, f.largest), f.number))[:24]
        overlaps = version.overlapping_files(2, *key_range(victims))
        merge, settled = split_by_overlap(victims, overlaps)
        rewritten, untouched = split_by_overlap(overlaps, merge)
        for level, metas in ((1, victims), (2, rewritten)):
            for meta in metas:
                version.remove_file(level, meta.number)
        for meta in settled + [table(int(m.smallest[4:]), 60) for m in rewritten]:
            version.add_file(2, meta)  # settled: promoted as is; the rest re-cut
        answers.append([[f.number for f in group] for group in
                        (victims, settled, rewritten, untouched)])
    elapsed = time.perf_counter() - started  # simcheck: waive[SIM001] host-time harness
    answers.append([[f.number for f in level] for level in version.files])
    return elapsed, _fingerprint(answers)


@_benchmark
def bench_lsst_meta() -> Tuple[float, str]:
    """LSST bookkeeping at a BoLT fill's shape: 700 level-1 LSSTs in 35
    compaction files under 200 level-0 candidates in 10.  Each of 40
    rounds orders the candidates as settled compaction does (next-level
    overlap bytes, then number), applies a 225-delete / 225-add edit
    through the MANIFEST encoder and ``VersionSet._apply``, and counts
    the live tables left in each deleted table's container, as cleanup
    does before it punches or unlinks."""
    import random
    from itertools import count

    from ..engines import bolt_options
    from ..lsm.manifest import VersionEdit, VersionSet
    from ..lsm.version import FileMetaData
    from ..sim import Environment

    rng = random.Random(31)
    numbers = count(1)
    containers = count(1)

    def tables(n: int, los: List[int], width: int) -> List[FileMetaData]:
        """Fresh LSSTs over ``[lo, lo + width]``, ``n`` to a container."""
        out: List[FileMetaData] = []
        for i, lo in enumerate(los):
            if i % n == 0:
                container = "db/%06d.cf" % next(containers)
            out.append(FileMetaData(next(numbers), container, 4100 * (i % n),
                                    4000 + lo % 97, b"user%012d" % lo,
                                    b"user%012d" % (lo + width)))
        return out

    versions = VersionSet(Environment(), None, bolt_options(256), "db")
    edit = VersionEdit()
    for meta in tables(20, [i * 100 for i in range(700)], 60):
        edit.add_file(1, meta)
    for meta in tables(20, [rng.randrange(70_000) for _ in range(200)], 40):
        edit.add_file(0, meta)
    versions._apply(edit)
    answers: List[Any] = []
    started = time.perf_counter()  # simcheck: waive[SIM001] host-time harness
    for _ in range(40):
        version = versions.current
        overlap_bytes = version.overlap_bytes
        ordered = sorted(version.files[0], key=lambda f: (overlap_bytes(
            1, f.smallest, f.largest), f.number))
        at = rng.randrange(500)
        dead = [(0, meta) for meta in ordered[:25]] + [
            (1, meta) for meta in version.files[1][at:at + 200]]
        edit = VersionEdit()
        for level, meta in dead:
            edit.delete_file(level, meta.number)
        for meta in tables(20, [int(m.smallest[4:]) for _l, m in dead[25:]], 60):
            edit.add_file(1, meta)
        for meta in tables(25, [rng.randrange(70_000) for _ in range(25)], 40):
            edit.add_file(0, meta)
        record = edit.encode()
        versions._apply(edit)
        live = versions.current.tables_in
        answers.append([[meta.number for meta in ordered[:25]], len(record),
                        hashlib.sha256(record).hexdigest(),
                        [live(meta.container) for _level, meta in dead]])
    elapsed = time.perf_counter() - started  # simcheck: waive[SIM001] host-time harness
    answers.append([[f.number for f in level] for level in versions.current.files])
    return elapsed, _fingerprint(answers)


@_benchmark
def bench_build() -> Tuple[float, str]:
    """Flush/compaction data path at a BoLT fill's shape: an 8-run merge +
    collapse, its output cut into ~600 logical SSTables of 11 records
    (23 B keys, 256 B values), each handed to the builder as one run,
    inside one SimFS file."""
    import random

    from ..engines import bolt_options
    from ..lsm.codec import VALUE_TYPE_DELETION, VALUE_TYPE_VALUE
    from ..lsm.iterators import collapse_versions, merge_streams
    from ..lsm.sstable import SSTableBuilder
    from ..sim import CostModel, CpuMeter, Environment
    from ..storage import BlockDevice, PageCache, SimFS

    rng = random.Random(17)
    keys = [b"user%019d" % rng.randrange(10 ** 18) for _ in range(6600)]
    runs: List[List[Any]] = [[] for _ in range(8)]
    for seq, key in enumerate(keys + rng.sample(keys, 600), start=1):
        dead = seq > len(keys) and seq % 3 == 0  # rewrites; a third delete
        runs[rng.randrange(8)].append(
            (key, seq, VALUE_TYPE_DELETION, b"") if dead else
            (key, seq, VALUE_TYPE_VALUE, rng.randbytes(8) * 32))
    for run in runs:
        run.sort(key=lambda entry: (entry[0], -entry[1]))
    env = Environment()
    fs = SimFS(env, BlockDevice(env), PageCache(1 << 20))
    fmt = bolt_options(1024).table_format
    meter = CpuMeter(env, CostModel(), scale=0.25)
    handle = env.run_until(env.process(fs.create("build.cf")))
    infos: List[Any] = []

    started = time.perf_counter()  # simcheck: waive[SIM001] host-time harness
    merged = list(collapse_versions(merge_streams(runs), drop_tombstones=True))
    for first in range(0, len(merged), 11):
        builder = SSTableBuilder(handle, fmt, 10, meter)
        builder.add_run(iter(merged[first:first + 11]))
        infos.append(builder.finish())
    elapsed = time.perf_counter() - started  # simcheck: waive[SIM001] host-time harness

    data = env.run_until(env.process(handle.read(0, handle.size)))
    digest = _fingerprint({
        "file": hashlib.sha256(data).hexdigest(),
        "merged": hashlib.sha256(repr(merged).encode()).hexdigest(),
        "tables": [(info.base_offset, info.length) for info in infos],
        "charged": meter.total_charged.hex(),
        "written": fs.stats.logical_bytes_written,
    })
    return elapsed, digest


@_benchmark
def bench_compact_read() -> Tuple[float, str]:
    """Compaction input at a BoLT fill's shape: 256 logical SSTables of 15
    records in one compaction file, page cache dropped, each read back
    whole through ``read_table_extent``."""
    import random

    from ..engines import bolt_options
    from ..lsm.codec import VALUE_TYPE_VALUE
    from ..lsm.sstable import SSTableBuilder, read_table_extent
    from ..sim import CostModel, CpuMeter, Environment
    from ..storage import BlockDevice, PageCache, SimFS

    rng = random.Random(19)
    keys = sorted(b"user%019d" % rng.randrange(10 ** 18) for _ in range(256 * 15))
    env = Environment()
    fs = SimFS(env, BlockDevice(env), PageCache(4 << 20))
    fmt = bolt_options(1024).table_format
    meter = CpuMeter(env, CostModel(), scale=0.25)
    handle = env.run_until(env.process(fs.create("read.cf")))
    infos: List[Any] = []
    for first in range(0, len(keys), 15):
        builder = SSTableBuilder(handle, fmt)
        for seq, key in enumerate(keys[first:first + 15], start=first + 1):
            builder.add(key, seq, VALUE_TYPE_VALUE, rng.randbytes(8) * 32)
        infos.append(builder.finish())
    env.run_until(env.process(handle.fsync()))  # clean pages can be dropped
    fs.page_cache.drop_all()

    def read_back():
        """Every table as one extent, in file order, on one meter."""
        tables = []
        for info in infos:
            tables.append((yield from read_table_extent(
                handle, fmt, info.base_offset, info.length, meter)))
        yield from meter.drain()
        return tables

    started = time.perf_counter()  # simcheck: waive[SIM001] host-time harness
    tables = env.run_until(env.process(read_back()))
    elapsed = time.perf_counter() - started  # simcheck: waive[SIM001] host-time harness
    digest = _fingerprint({
        "entries": hashlib.sha256(repr(tables).encode()).hexdigest(),
        "now": env.now.hex(), "num_reads": fs.device.stats.num_reads})
    return elapsed, digest


@_benchmark
def bench_point_read() -> Tuple[float, str]:
    """Point-read block work at ``read-uniform``'s shape, where nearly
    every get loads its block: 256 blocks of 11 BoLT-format records
    (23 B keys, 256 B values, one key in two versions), each decoded and
    asked one key — present, absent, the older version under a snapshot
    between the two, nothing under a snapshot before both — four sweeps
    over."""
    import random

    from ..engines import bolt_options
    from ..lsm.codec import MAX_SEQUENCE, VALUE_TYPE_VALUE
    from ..lsm.sstable import DataBlock, _encode_block, _entry_parts

    fmt = bolt_options(256).table_format
    rng = random.Random(23)
    loads: List[Tuple[bytes, bytes, int]] = []  # (raw block, probe, snapshot)
    for number in range(256):
        keys = sorted(b"user%019d" % rng.randrange(10 ** 18) for _ in range(10))
        twice = keys[number % 10]
        parts: List[bytes] = []
        for key in keys:
            for seq in (30, 15) if key == twice else (15,):
                parts += _entry_parts(fmt.per_record_overhead, key, seq,
                                      VALUE_TYPE_VALUE, rng.randbytes(8) * 32)[0]
        raw = _encode_block(b"".join(parts), 11)
        loads += [(raw, keys[rng.randrange(10)], MAX_SEQUENCE),
                  (raw, keys[rng.randrange(10)] + b"+", MAX_SEQUENCE),
                  (raw, twice, 20), (raw, twice, 10)]
    started = time.perf_counter()  # simcheck: waive[SIM001] host-time harness
    for _ in range(4):
        answers = [DataBlock.decode(fmt, raw).lookup(probe, snapshot)
                   for raw, probe, snapshot in loads]
    elapsed = time.perf_counter() - started  # simcheck: waive[SIM001] host-time harness
    digest = _fingerprint({
        "raw": hashlib.sha256(b"".join(load[0] for load in loads)).hexdigest(),
        "answers": hashlib.sha256(repr(answers).encode()).hexdigest()})
    return elapsed, digest


@_benchmark
def bench_commit() -> Tuple[float, str]:
    """The WAL commit path at ``serve-mixed``'s shape: puts through
    ``LSMEngine.write`` with ``wal_sync`` on a SATA_SSD stack — 1 500 from
    one writer (every commit group a group of one), then 1 500 from four
    concurrent writers (groups form).  The MemTable never fills, so
    nothing but the commit path runs."""
    import random

    from ..lsm import LSMEngine, Options
    from ..sim import Environment
    from ..storage import SATA_SSD, BlockDevice, PageCache, SimFS

    rng = random.Random(29)
    keys = [b"user%019d" % rng.randrange(10 ** 18) for _ in range(3000)]
    value = rng.randbytes(256)
    env = Environment()
    fs = SimFS(env, BlockDevice(env, SATA_SSD), PageCache(4 << 20))
    db = LSMEngine.open_sync(env, fs, Options(wal_sync=True), "db")
    latencies: List[float] = []

    def writer(first: int, stop: int, stride: int):
        """Put keys[first:stop:stride], timing each put."""
        for key in keys[first:stop:stride]:
            started = env.now
            yield from db.put(key, value)
            latencies.append(env.now - started)

    started = time.perf_counter()  # simcheck: waive[SIM001] host-time harness
    env.run_until(env.process(writer(0, 1500, 1)))
    env.run_until(env.all_of([env.process(writer(1500 + i, 3000, 4))
                              for i in range(4)]))
    elapsed = time.perf_counter() - started  # simcheck: waive[SIM001] host-time harness

    def wal_bytes():
        """Every WAL file's bytes, in name order."""
        blobs = []
        for name in fs.listdir("db/"):
            if name.endswith(".log"):
                handle = yield from fs.open(name)
                blobs.append((yield from handle.read(0, handle.size)))
        return b"".join(blobs)

    digest = _fingerprint({
        "wal": hashlib.sha256(env.run_until(env.process(wal_bytes()))).hexdigest(),
        "last_sequence": db.versions.last_sequence,
        "group_commits": db.stats.group_commits,
        "latencies": [latency.hex() for latency in latencies]})
    return elapsed, digest


@_benchmark
def bench_serve_cluster() -> Tuple[float, str]:
    """2 000 open-loop YCSB-A requests through ``svc.Server`` over a 2-shard
    x 1-replica ``ClusterStore`` (``wal_sync``) holding 1 000 records."""
    from ..bench.report import unified_snapshot
    from ..cluster import ClusterConfig, ClusterStore
    from ..lsm import LSMEngine, Options
    from ..sim import Environment
    from ..svc import Server, run_open_loop
    from ..ycsb import WORKLOADS, build_key

    env = Environment()
    cluster = ClusterStore(env, LSMEngine, Options(wal_sync=True),
                           ClusterConfig(num_shards=2, replicas_per_shard=1))
    for i in range(1000):
        cluster.put_sync(build_key(i), bytes(100))
    server = Server(env, cluster, num_workers=4)
    started = time.perf_counter()  # simcheck: waive[SIM001] host-time harness
    report = run_open_loop(env, server, WORKLOADS["a"], num_clients=2,
                           requests_per_client=1000, rate=5000.0,
                           record_count=1000, seed=31)
    elapsed = time.perf_counter() - started  # simcheck: waive[SIM001] host-time harness
    rows = [dict(c.summary(), mean=c.latency.mean, max=c.latency.max,
                 queue_mean=c.queue_delay.mean) for c in report.clients]
    return elapsed, _fingerprint({"clients": rows, "counters": unified_snapshot(
        None, db=cluster, server=server)})


@_benchmark
def bench_ycsb_a() -> Tuple[float, str]:
    """End-to-end: a small YCSB load_a + A/B/D suite on the BoLT engine."""
    from ..bench import BenchConfig, SYSTEMS, run_suite
    config = BenchConfig(record_count=4000, ops_per_phase=1500)
    started = time.perf_counter()  # simcheck: waive[SIM001] host-time harness
    results = run_suite(SYSTEMS["bolt"], config,
                        workloads=("load_a", "a", "b", "d"))
    elapsed = time.perf_counter() - started  # simcheck: waive[SIM001] host-time harness
    rows = {}
    for phase, res in results.items():
        rows[phase] = {
            "ops": res.operations, "elapsed": res.elapsed,
            "fsync": res.fsync_calls, "bytes_written": res.bytes_written,
            "bytes_read": res.bytes_read, "stall": res.stall_time,
            "compactions": res.compactions,
            "p99": res.latencies.percentile(99.0),
            "mean": res.latencies.mean(),
        }
    return elapsed, _fingerprint(rows)


def calibrate(repeat: int = 3) -> float:
    """Wall-clock seconds for a fixed pure-Python spin loop (best-of).

    A committed ``BENCH_perf.json`` records the baseline machine's
    calibration; :func:`_assert_floor` scales its floor by the ratio of
    the two calibrations, so the gate compares *simulator* speed rather
    than host speed.  The loop shape (integer LCG) is deliberately dull:
    no allocation, no C-library leverage, just interpreter dispatch —
    the same resource the simulator burns.
    """
    best: Optional[float] = None
    for _ in range(max(1, repeat)):
        started = time.perf_counter()  # simcheck: waive[SIM001] host-time harness
        x = 1
        for _ in range(2_000_000):
            x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        elapsed = time.perf_counter() - started  # simcheck: waive[SIM001] host-time harness
        if best is None or elapsed < best:
            best = elapsed
    return round(best, 4)


def run_benchmarks(names: List[str], repeat: int = 3,
                   out=print) -> Dict[str, Dict[str, Any]]:
    """Run ``names`` ``repeat`` times each; best-of wall time per benchmark.

    Returns ``{name: {"seconds": float, "fingerprint": str}}``.  The
    fingerprint must be identical across repeats — a mismatch means the
    benchmark (and so possibly the simulator) is nondeterministic, which
    is reported and fails the run.
    """
    results: Dict[str, Dict[str, Any]] = {}
    for name in names:
        func = BENCHMARKS[name]
        best: Optional[float] = None
        fingerprint: Optional[str] = None
        for _ in range(max(1, repeat)):
            # Time the benchmark, not the cyclic collector: each run
            # starts from a collected heap with the collector paused.
            gc.collect()
            gc.disable()
            try:
                seconds, digest = func()
            finally:
                gc.enable()
            if fingerprint is None:
                fingerprint = digest
            elif digest != fingerprint:
                raise SystemExit(
                    f"perfbench: {name} fingerprint changed between repeats "
                    f"({fingerprint[:12]} vs {digest[:12]}): "
                    f"nondeterministic benchmark")
            if best is None or seconds < best:
                best = seconds
        results[name] = {"seconds": round(best, 4), "fingerprint": fingerprint}
        out(f"{name:12s} : {best:8.4f} s   {fingerprint[:16]}")
    return results


def _assert_floor(results: Dict[str, Dict[str, Any]], baseline_path: str,
                  tolerance: float, calibration: float, out=print) -> None:
    """Fail if fingerprints drift or the slowest baseline benchmark regresses.

    All fingerprints must match the committed baseline exactly (results
    are a pure function of the code).  Wall-clock time is gated only on
    the benchmark with the largest baseline ``seconds`` — the one whose
    regression would actually move tier-1 suite time — scaled by the
    host-speed calibration ratio, and only beyond ``tolerance``
    (CI machines are noisy; small deltas are meaningless).
    """
    with open(baseline_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    base_rows = baseline.get("benchmarks", baseline)
    failures: List[str] = []
    for name, row in sorted(base_rows.items()):
        current = results.get(name)
        if current is None:
            failures.append(f"{name}: missing from this run")
            continue
        if current["fingerprint"] != row["fingerprint"]:
            failures.append(
                f"{name}: fingerprint {current['fingerprint'][:12]} != "
                f"baseline {row['fingerprint'][:12]} (results changed)")
    slowest = max(base_rows, key=lambda name: base_rows[name]["seconds"])
    if slowest in results:
        base_calibration = baseline.get("calibration_seconds") or calibration
        scale = calibration / base_calibration if base_calibration else 1.0
        limit = base_rows[slowest]["seconds"] * scale * (1.0 + tolerance)
        seconds = results[slowest]["seconds"]
        if seconds > limit:
            failures.append(
                f"{slowest}: {seconds:.4f} s exceeds floor {limit:.4f} s "
                f"(baseline {base_rows[slowest]['seconds']:.4f} s x "
                f"host scale {scale:.2f} + {tolerance:.0%})")
        else:
            out(f"floor ok: {slowest} {seconds:.4f} s <= {limit:.4f} s "
                f"(host scale {scale:.2f})")
    if failures:
        for failure in failures:
            out(f"perfbench FAIL: {failure}")
        raise SystemExit(1)
    out("perfbench: floor + fingerprints ok")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.perfbench",
        description="seeded wall-clock benchmarks of the simulator fast paths")
    parser.add_argument("--benchmarks", default=",".join(BENCHMARKS),
                        help="comma-separated subset (default: all: %s)"
                             % ",".join(BENCHMARKS))
    parser.add_argument("--repeat", type=int, default=3,
                        help="runs per benchmark, best-of (default 3)")
    parser.add_argument("--json", metavar="FILE", default=None,
                        help="write {schema, benchmarks} JSON to FILE")
    parser.add_argument("--digest", action="store_true",
                        help="print only {name: fingerprint} JSON on stdout "
                             "(byte-identical across runs; for CI diffing)")
    parser.add_argument("--assert-floor", metavar="FILE", default=None,
                        help="compare against a committed BENCH_perf.json: "
                             "fail on fingerprint drift or if the slowest "
                             "baseline benchmark regresses beyond --tolerance")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed wall-clock regression for "
                             "--assert-floor (default 0.20 = 20%%)")
    return parser


def main(argv: Optional[List[str]] = None) -> Dict[str, Dict[str, Any]]:
    """CLI entry point: run the requested benchmarks and gates."""
    args = _parser().parse_args(argv)
    names = [name.strip() for name in args.benchmarks.split(",") if name.strip()]
    for name in names:
        if name not in BENCHMARKS:
            raise SystemExit(f"unknown benchmark {name!r} "
                             f"(choose from {', '.join(BENCHMARKS)})")
    quiet = args.digest
    out = (lambda *a, **k: None) if quiet else print
    repeat = 1 if args.digest else args.repeat
    results = run_benchmarks(names, repeat=repeat, out=out)
    if args.digest:
        digests = {name: row["fingerprint"] for name, row in results.items()}
        json.dump(digests, sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
        return results
    calibration = calibrate(repeat=args.repeat)
    out(f"{'calibration':12s} : {calibration:8.4f} s   (host spin loop)")
    if args.json:
        payload = {"schema": "perfbench-v1",
                   "calibration_seconds": calibration,
                   "benchmarks": results}
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
        out(f"wrote {args.json}")
    if args.assert_floor:
        _assert_floor(results, args.assert_floor, args.tolerance,
                      calibration, out=out)
    return results


if __name__ == "__main__":
    main()

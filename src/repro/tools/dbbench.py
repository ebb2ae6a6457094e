"""db_bench: LevelDB's micro-benchmark CLI over the simulated stack.

Usage::

    python -m repro.tools.dbbench --engine bolt --num 20000 \\
        --value-size 256 --benchmarks fillrandom,readrandom,readseq,stats

Reported times are **virtual** (modelled SATA SSD); see DESIGN.md §2.
Benchmarks, as in the original tool:

* ``fillseq``      sequential-key inserts
* ``fillrandom``   random-key inserts
* ``overwrite``    re-insert over existing keys
* ``readrandom``   point lookups of existing keys
* ``readmissing``  point lookups of absent keys (bloom filter path)
* ``readseq``      forward range scans
* ``deleterandom`` random deletes
* ``compact``      force a full quiesce (flush + drain compactions)
* ``stats``        print the engine/fs/device counters

The mode switches (``--server``, ``--cluster``, ``--chaos``, ...) run
something else instead; :data:`MODES` lists what selects each mode, the
flags it reads (any other flag set is an error) and what runs it.
"""

from __future__ import annotations

import argparse
import random
from typing import (Any, Callable, Generator, List, NamedTuple, Optional,
                    Tuple)

from ..bench import (BenchConfig, SYSTEMS, new_stack, open_engine,
                     unified_snapshot)
from ..bench.histogram import LatencyHistogram
from ..bench.metrics import LatencyRecorder
from ..faults import (ChaosConfig, ClusterChaosConfig, NemesisConfig,
                      SweepConfig, chaos_sweep, cluster_chaos, crash_sweep,
                      nemesis_chaos)
from ..faults.transient import NEMESIS_CLIENTS
from ..cluster import ClusterConfig, ClusterStore
from ..obs import Tracer, phase_summary, write_chrome_trace
from ..sim import Environment, Event
from ..svc import POLICY_REJECT, Server
from ..svc.loadgen import run_open_loop
from ..ycsb.distributions import build_key
from ..ycsb.workload import WORKLOADS

__all__ = ["main", "run_benchmarks"]

BENCHMARKS = ("fillseq", "fillrandom", "overwrite", "readrandom",
              "readmissing", "readseq", "deleterandom", "compact", "stats")

# The serving shape of --server / --cluster: parameters of svc.Server
# and svc.loadgen.run_open_loop that the CLI pins rather than exposes.
#: Server worker slots and admission queue depth.
WORKERS = 4
QUEUE_DEPTH = 64
#: Queue-full policy: shed with a typed rejection, don't block.
ADMISSION = POLICY_REJECT
#: Arrival process of the open-loop clients.
ARRIVAL = "poisson"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.dbbench",
        description="LevelDB-style db_bench over the simulated device")
    parser.add_argument("--engine", default="bolt", choices=sorted(SYSTEMS),
                        help="system under test (default: bolt)")
    parser.add_argument("--num", type=int, default=10_000,
                        help="operations per benchmark (default 10000)")
    parser.add_argument("--value-size", type=int, default=256)
    parser.add_argument("--scale", type=int, default=256,
                        help="1/N of the paper's structure sizes")
    parser.add_argument("--seed", type=int, default=301)
    parser.add_argument("--benchmarks",
                        default="fillrandom,readrandom,readseq,stats",
                        help="comma-separated list: %s" % ",".join(BENCHMARKS))
    parser.add_argument("--histogram", action="store_true",
                        help="print a latency histogram per benchmark")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="write a Chrome trace-event JSON of the run "
                             "(open in Perfetto) and print a phase summary")
    parser.add_argument("--sanitize", action="store_true",
                        help="run with the lockdep/race sanitizer enabled "
                             "(repro.analysis.sanitizer); exit non-zero if "
                             "it reports anything")
    parser.add_argument("--tiered", action="store_true",
                        help="enable tiered object storage: cold LSSTs are "
                             "demoted wholesale to a simulated object store "
                             "and read back through a bounded local cache "
                             "(compaction-file engines only); with "
                             "--crash-sweep, sweeps the tiered store's "
                             "crash points instead")
    parser.add_argument("--cache-mb", type=float, default=4.0,
                        help="--tiered: local LSST cache budget in MB "
                             "(actual bytes, not /scale; default 4)")
    parser.add_argument("--remote-latency", type=float, default=0.012,
                        help="--tiered: per-request object-store latency in "
                             "seconds (default 0.012)")
    parser.add_argument("--remote-bandwidth", type=float, default=100e6,
                        help="--tiered: object-store bandwidth in bytes/s "
                             "(default 100e6)")
    parser.add_argument("--tier-report", action="store_true",
                        help="instead of benchmarking, run the tiered "
                             "fill+read workload at several cache sizes and "
                             "print the $/GB-vs-read-p99 trade-off table")
    parser.add_argument("--crash-sweep", action="store_true",
                        help="instead of benchmarking, run the repro.faults "
                             "crash-consistency sweep for --engine and exit "
                             "non-zero on any durability violation")
    parser.add_argument("--chaos", action="store_true",
                        help="instead of benchmarking, run the transient-"
                             "fault chaos schedule (transient EIO plus one "
                             "disk-full episode) for every engine family "
                             "and exit non-zero if any store drops a read, "
                             "loses an acked write, or fails to re-enter the "
                             "healthy state")
    parser.add_argument("--server", action="store_true",
                        help="instead of the closed-loop benchmarks, run the "
                             "repro.svc serving layer: preload --num records, "
                             "then drive --clients open-loop clients at "
                             "--arrival-rate over --workload, printing "
                             "per-client p50/p99/p999 and the group-commit "
                             "counters")
    parser.add_argument("--clients", type=int, default=2,
                        help="open-loop clients for --server (default 2)")
    parser.add_argument("--arrival-rate", type=float, default=2000.0,
                        help="per-client intended arrivals/sec (default 2000)")
    parser.add_argument("--workload", default="a",
                        help="YCSB workload for --server (default a)")
    parser.add_argument("--cluster", action="store_true",
                        help="run against a repro.cluster sharded store "
                             "(N primaries, each with replicas and WAL "
                             "shipping) behind the serving layer; combine "
                             "with --chaos for the kill-whole-shard "
                             "availability run")
    parser.add_argument("--shards", type=int, default=4,
                        help="--cluster: number of shards (default 4)")
    parser.add_argument("--replicas", type=int, default=1,
                        help="--cluster: replicas per shard (default 1)")
    parser.add_argument("--replication-lag", type=float, default=0.002,
                        help="--cluster: ship->apply delay per WAL record "
                             "in seconds (default 0.002)")
    parser.add_argument("--nemesis", action="store_true",
                        help="--cluster: run the network nemesis schedule "
                             "(partition a primary over the simulated "
                             "fabric, fence its late writes after "
                             "promotion, heal, then kill another shard) "
                             "and check the full operation history for "
                             "linearizability violations; exit non-zero "
                             "on any")
    parser.add_argument("--partition", type=int, default=None,
                        metavar="SHARD",
                        help="--nemesis: shard whose primary gets "
                             "partitioned (default: seeded pick)")
    parser.add_argument("--net-loss", type=float,
                        default=NemesisConfig.net_loss,
                        help="--nemesis: per-message loss probability on "
                             "the fabric (default 0.02)")
    parser.add_argument("--net-delay", type=float,
                        default=NemesisConfig.net_delay,
                        help="--nemesis: one-way fabric delay in seconds "
                             "(default 0.0003)")
    return parser


Out = Callable[[str], None]


def _open_stack(args: argparse.Namespace, options: Any,
                tracer: Optional[Tracer] = None, sanitize: bool = False):
    """One machine sized for ``args`` with ``--engine`` open on it."""
    config = BenchConfig(scale=args.scale, record_count=args.num,
                         value_size=args.value_size, seed=args.seed)
    stack = new_stack(config, tracer=tracer, sanitize=sanitize)
    return stack, open_engine(stack, SYSTEMS[args.engine], config, options)


def _sanitizer_epilogue(env: Environment, out: Out) -> None:
    """Print the ``--sanitize`` verdict; exit 1 on any report."""
    reports = env.sanitizer.reports
    if reports:
        for report in reports:
            out(f"sanitizer: {report.render()}")
        raise SystemExit(1)
    out("sanitizer: clean (no lock-order cycles, no data races)")


# -- the repro.faults harnesses: config -> run -> result ------------------


def _harness(build: Callable[[argparse.Namespace], Tuple[Any, Callable]]):
    """Adapt a :mod:`repro.faults` harness to a mode: ``build(args)``
    gives its config and run function; exit 1 unless the result is ok."""
    def run(args: argparse.Namespace, out: Out) -> List[dict]:
        config, harness = build(args)
        out(config.header())
        result = harness(config)
        for line in result.summary_lines():
            out(line)
        rows = result.rows()
        if not result.ok:
            raise SystemExit(1)
        return rows
    return run


def _crash_sweep(args: argparse.Namespace):
    """``--crash-sweep``: sweep crash points for one engine."""
    return SweepConfig(engines=(args.engine,), num_ops=min(args.num, 400),
                       seed=args.seed, tiered=args.tiered), crash_sweep


def _chaos(args: argparse.Namespace):
    """``--chaos``: transient-fault runs across all engine families."""
    return ChaosConfig(num_ops=min(args.num, 600), seed=args.seed), chaos_sweep


def _cluster_chaos(args: argparse.Namespace):
    """``--cluster --chaos``: kill-whole-shard availability run."""
    return ClusterChaosConfig(
        engine=args.engine, num_shards=args.shards,
        replicas_per_shard=args.replicas, num_ops=min(args.num, 600),
        seed=args.seed, replication_lag=args.replication_lag), cluster_chaos


def _nemesis(args: argparse.Namespace):
    """``--cluster --nemesis``: partition/fence/heal/kill run."""
    return NemesisConfig(
        engine=args.engine, num_shards=args.shards,
        replicas_per_shard=args.replicas,
        ops_per_client=max(10, min(args.num, 600) // NEMESIS_CLIENTS),
        seed=args.seed, replication_lag=args.replication_lag,
        partition_shard=args.partition, net_loss=args.net_loss,
        net_delay=args.net_delay), nemesis_chaos


# -- serving: open-loop clients against one engine or a cluster -----------


def _run_serving(args: argparse.Namespace, out: Out) -> List[dict]:
    """Handle ``--server`` and ``--cluster``: open-loop serving run.

    Builds the backend — one engine, or an N-shard
    :class:`~repro.cluster.ClusterStore` (every node a complete simulated
    machine) — preloads ``--num`` records, then splits ``--num`` requests
    of the chosen workload across ``--clients`` open-loop clients behind
    a :class:`repro.svc.Server`; the backend swap is invisible to them.
    Output is a pure function of the arguments (virtual clock + seeded
    RNGs), so CI can diff two runs byte-for-byte.
    """
    spec = WORKLOADS.get(args.workload)
    if spec is None or spec.is_load:
        raise SystemExit(f"unknown --workload {args.workload!r} "
                         f"(choose a run phase: a, b, c, d, e, f)")
    system = SYSTEMS[args.engine]
    # The per-group WAL barrier is what the serving numbers measure, and
    # the cluster's acked-write-survives-failover contract needs it.
    options = system.options(args.scale).copy(wal_sync=True)
    if args.cluster:
        mode, stack, suffix = "cluster", None, ""
        env = Environment(sanitize=args.sanitize)
        config = ClusterConfig(
            num_shards=args.shards, replicas_per_shard=args.replicas,
            replication_lag=args.replication_lag, scale=args.scale)
        backend = ClusterStore(env, system.engine_cls, options, config)
        topology = (f"{args.shards} shards x {args.replicas} replicas "
                    f"({config.partitioner}), replication lag "
                    f"{args.replication_lag * 1000:g} ms, ")
    else:
        mode, topology, suffix = "server", "", ", wal_sync=True"
        stack, backend = _open_stack(args, options, sanitize=args.sanitize)
        env = stack.env
    value = b"p" * args.value_size
    for i in range(args.num):
        backend.put_sync(build_key(i), value)
    server = Server(env, backend, num_workers=WORKERS,
                    queue_depth=QUEUE_DEPTH, policy=ADMISSION)
    per_client = max(1, args.num // args.clients)
    out(f"{mode}: engine {system.label}, {topology}"
        f"workload {args.workload}, "
        f"{args.clients} clients x {per_client} requests, "
        f"{ARRIVAL} arrivals at {args.arrival_rate:g}/s/client, "
        f"{WORKERS} workers, queue {QUEUE_DEPTH} ({ADMISSION}){suffix}")
    report = run_open_loop(
        env, server, spec, num_clients=args.clients,
        requests_per_client=per_client, rate=args.arrival_rate,
        record_count=args.num, value_size=args.value_size, seed=args.seed,
        arrival=ARRIVAL)
    server.close_sync()
    rows: List[dict] = []
    for summary in report.summary_rows():
        row = {
            "benchmark": mode,
            "client": summary["client"],
            "requests": summary["submitted"],
            "ok": summary["ok"],
            "rejected": summary["rejected"],
            "read_only": summary["read_only"],
            "p50_ms": round(summary["p50"] * 1e3, 4),
            "p99_ms": round(summary["p99"] * 1e3, 4),
            "p999_ms": round(summary["p999"] * 1e3, 4),
        }
        rows.append(row)
        out(f"client {row['client']}: {row['requests']:5d} requests, "
            f"{row['ok']:5d} ok, {row['rejected']:4d} rejected, "
            f"{row['read_only']:3d} read-only; p50 {row['p50_ms']} ms, "
            f"p99 {row['p99_ms']} ms, p999 {row['p999_ms']} ms")
    totals = report.totals()
    snap = unified_snapshot(stack, db=backend, server=server)
    engine = snap["engine"]
    out(f"totals: {totals['ok']}/{totals['submitted']} ok; merged "
        f"p99 {round(totals['p99'] * 1e3, 4)} ms, "
        f"p999 {round(totals['p999'] * 1e3, 4)} ms")
    out(f"group_commits: {engine['group_commits']}  "
        f"grouped_writes: {engine['grouped_writes']}")
    out(f"barriers_saved: {engine['barriers_saved']}")
    out(f"peak queue depth: {snap['svc']['peak_queue_depth']}  "
        f"shed writes: {snap['svc']['shed_writes']}")
    totals_row = {"benchmark": f"{mode}-totals",
                  "ok": totals["ok"], "submitted": totals["submitted"],
                  "group_commits": engine["group_commits"]}
    if args.cluster:
        totals_row.update(_print_cluster_sections(snap, backend, out))
    else:
        totals_row.update(grouped_writes=engine["grouped_writes"],
                          barriers_saved=engine["barriers_saved"])
    rows.append(totals_row)
    backend.close_sync()
    if args.sanitize:
        _sanitizer_epilogue(env, out)
    return rows


def _print_cluster_sections(snap: dict, cluster: Any, out: Out) -> dict:
    """The cluster-only lines of a serving run; returns their row keys."""
    replication = snap["replication"]
    out(f"replication: {replication['records_applied']:.0f} records "
        f"applied on {replication['replicas']:.0f} replicas, max lag "
        f"{replication['max_lag'] * 1000:.3f} ms, backlog "
        f"{replication['backlog']:.0f}, failovers "
        f"{replication['failovers']:.0f}")
    net = snap["net"]
    out(f"net: messages_accepted {net['messages_accepted']:.0f}  "
        f"sends_refused {net['sends_refused']:.0f}  "
        f"retransmits {net['retransmits']:.0f}  "
        f"duplicates {net['duplicates']:.0f}  "
        f"probes_lost {net['probes_lost']:.0f}")
    for shard in cluster.shards:
        status = shard.describe()
        out(f"shard {status['shard']}: state {status['state']}, primary "
            f"{status['primary']}, replicas "
            f"{','.join(status['replicas']) or '-'}, "
            f"{status['records_applied']} records applied, max lag "
            f"{status['replication_max_lag'] * 1000:.3f} ms")
    return {"records_applied": replication["records_applied"],
            "max_lag_ms": round(replication["max_lag"] * 1e3, 4),
            "failovers": replication["failovers"]}


# -- tiered object storage -------------------------------------------------


def _tiered_options(options: Any, args: argparse.Namespace,
                    cache_mb: Optional[float] = None) -> Any:
    """Turn on tiered object storage with the CLI's remote knobs.

    ``--cache-mb`` is an *actual* byte budget, not a pre-scale one:
    the cache holds demoted data bytes, and data does not shrink with
    ``--scale`` the way structure sizes do.
    """
    if not options.use_compaction_file:
        raise SystemExit(
            f"--tiered demotes whole compaction files; engine "
            f"{args.engine!r} does not write them (pick a "
            f"compaction-file engine such as bolt)")
    budget = args.cache_mb if cache_mb is None else cache_mb
    return options.copy(
        tiering_enabled=True, tier_cold_level=1,
        tier_cache_bytes=max(1, int(budget * (1 << 20))),
        tier_remote_latency=args.remote_latency,
        tier_remote_bandwidth=args.remote_bandwidth)


def _print_tier_stats(tiering: Any, out: Out) -> dict:
    """Print the tier section after a tiered run; returns the snapshot."""
    snap = tiering.snapshot()
    out(f"tier demotions:   {snap['demotions']} "
        f"({snap['demoted_bytes']} bytes), releases {snap['releases']}, "
        f"remote containers {snap['remote_containers']}")
    out(f"tier cache:       hit rate {snap['cache_hit_rate']:.4f} "
        f"({snap['cache_hits']} hits / {snap['cache_misses']} misses), "
        f"{snap['cache_evictions']} evictions, "
        f"miss p999 {snap['cache_miss_p999_ms']:.3f} ms")
    out(f"tier remote:      {snap['remote_gets']} GETs / "
        f"{snap['remote_puts']} PUTs, {snap['remote_bytes_out']} bytes "
        f"fetched, ${snap['remote_dollars_spent']:.9f} spent "
        f"(${snap['dollars_per_gb']:.6f}/GB)")
    return snap


def _run_tier_report(args: argparse.Namespace, out: Out) -> List[dict]:
    """Handle ``--tier-report``: the $/GB vs read-p99 trade-off frontier.

    Runs the same fill + quiesce + random-read workload at three LSST
    cache budgets (``--cache-mb`` /4, x1, x4).  A bigger cache turns
    remote GETs into local hits — lower read tail, but more local bytes
    held; a smaller one serves colder data straight off the object
    store's request latency.  Output is deterministic for fixed
    arguments, so CI diffs two runs byte-for-byte.
    """
    system = SYSTEMS[args.engine]
    budgets = sorted({max(0.25, args.cache_mb / 4), args.cache_mb,
                      args.cache_mb * 4})
    out(f"tier report: engine {system.label}, {args.num} ops, "
        f"scale 1/{args.scale}, remote latency "
        f"{args.remote_latency * 1000:g} ms at "
        f"{args.remote_bandwidth / 1e6:g} MB/s, cache budgets "
        f"{', '.join('%g MB' % b for b in budgets)}")
    rows: List[dict] = []
    for cache_mb in budgets:
        stack, db = _open_stack(args, _tiered_options(
            system.options(args.scale), args, cache_mb=cache_mb))
        value = b"v" * args.value_size
        keys = [b"%016d" % i for i in range(args.num)]
        rng = random.Random(args.seed)
        recorder = LatencyRecorder()

        def driver():
            """Fill, quiesce (demotions run), then random reads."""
            for key in keys:
                yield from db.put(key, value)
            yield from db.flush_all()
            yield from db.wait_idle()
            for _ in range(args.num):
                started = stack.env.now
                yield from db.get(rng.choice(keys))
                recorder.record("read", stack.env.now - started)

        stack.env.run_until(stack.env.process(driver()))
        snap = db.tiering.snapshot()
        row = {
            "benchmark": "tier-report",
            "cache_mb": cache_mb,
            "demotions": snap["demotions"],
            "hit_rate": snap["cache_hit_rate"],
            "read_p99_ms": round(recorder.percentile(99.0, "read") * 1e3, 4),
            "miss_p999_ms": snap["cache_miss_p999_ms"],
            "remote_gets": snap["remote_gets"],
            "dollars_per_gb": snap["dollars_per_gb"],
        }
        rows.append(row)
        out(f"cache {cache_mb:6g} MB: {row['demotions']:3d} demotions, "
            f"hit rate {row['hit_rate']:.4f}, read p99 "
            f"{row['read_p99_ms']:.4f} ms, miss p999 "
            f"{row['miss_p999_ms']:.3f} ms, {row['remote_gets']:4d} GETs, "
            f"${row['dollars_per_gb']:.6f}/GB")
        db.close_sync()
    return rows


# -- the default mode: LevelDB's db_bench benchmark list -------------------


def _run_db_bench(args: argparse.Namespace, out: Out) -> List[dict]:
    """Run the requested benchmark list; returns one row per benchmark."""
    tracer = Tracer() if args.trace else None
    system = SYSTEMS[args.engine]
    options = system.options(args.scale)
    if args.tiered:
        options = _tiered_options(options, args)
    stack, db = _open_stack(args, options, tracer=tracer,
                            sanitize=args.sanitize)
    rng = random.Random(args.seed)
    value = b"v" * args.value_size
    written_keys: List[bytes] = []
    rows: List[dict] = []

    def key_of(index: int) -> bytes:
        """The fixed-width key for ``index``."""
        return b"%016d" % index

    def timed(name: str, operation_gen) -> Generator[Event, Any, None]:
        """Drive the operations, recording latency, and print one row."""
        recorder = LatencyRecorder()
        histogram = LatencyHistogram()
        started = stack.env.now
        count = 0
        for op in operation_gen:
            op_started = stack.env.now
            yield from op
            latency = stack.env.now - op_started
            recorder.record(name, latency)
            histogram.record(latency)
            count += 1
        elapsed = stack.env.now - started
        micros = (elapsed / count * 1e6) if count else 0.0
        row = {
            "benchmark": name,
            "ops": count,
            "micros_per_op": round(micros, 3),
            "kops_per_s": round(count / elapsed / 1e3, 2) if elapsed else 0.0,
            "p99_us": round(recorder.percentile(99.0) * 1e6, 1),
        }
        rows.append(row)
        out(f"{name:12s} : {micros:10.3f} micros/op; "
            f"{row['kops_per_s']:9.2f} Kops/s; p99 {row['p99_us']} us")
        if args.histogram and count:
            out(histogram.render())

    def bench(name: str) -> Generator[Event, Any, None]:
        """Run one named benchmark."""
        if name == "fillseq":
            written_keys.extend(key_of(i) for i in range(args.num))
            yield from timed(name, (db.put(key_of(i), value)
                                    for i in range(args.num)))
        elif name in ("fillrandom", "overwrite"):
            keys = [key_of(rng.randrange(args.num)) for _ in range(args.num)]
            written_keys.extend(keys)
            yield from timed(name, (db.put(k, value) for k in keys))
        elif name == "readrandom":
            pool = written_keys or [key_of(i) for i in range(args.num)]
            yield from timed(name, (db.get(rng.choice(pool))
                                    for _ in range(args.num)))
        elif name == "readmissing":
            yield from timed(name, (db.get(b"missing-%016d" % i)
                                    for i in range(args.num)))
        elif name == "readseq":
            scans = max(1, args.num // 100)
            yield from timed(name, (db.scan(key_of(rng.randrange(args.num)), 100)
                                    for _ in range(scans)))
        elif name == "deleterandom":
            yield from timed(name, (db.delete(key_of(rng.randrange(args.num)))
                                    for _ in range(args.num)))
        elif name == "compact":
            yield from timed(name, iter([db.flush_all()]))
        elif name == "stats":
            status = db.describe()
            snap = unified_snapshot(stack, db)
            out("levels (tables):  %s" % status["levels"])
            out("compactions:      %s" % snap["engine"]["compactions"])
            out("settled:          %s" % snap["engine"]["settled_promotions"])
            out("fsync calls:      %s" % snap["fs"]["num_barrier_calls"])
            out("device MB written:%10.2f"
                % (snap["device"]["bytes_written"] / 1e6))
            out("device MB read:   %10.2f"
                % (snap["device"]["bytes_read"] / 1e6))
            out("virtual seconds:  %10.4f" % snap["clock"]["virtual_seconds"])
            rows.append({"benchmark": "stats",
                         "fsync": snap["fs"]["num_barrier_calls"],
                         "mb_written": snap["device"]["bytes_written"] / 1e6})

    requested = [name.strip() for name in args.benchmarks.split(",") if name.strip()]
    for name in requested:
        if name not in BENCHMARKS:
            raise SystemExit(f"unknown benchmark {name!r} "
                             f"(choose from {', '.join(BENCHMARKS)})")

    def driver():
        """Run every requested benchmark in order."""
        for name in requested:
            yield from bench(name)

    out(f"engine: {system.label}  num: {args.num}  "
        f"value: {args.value_size} B  scale: 1/{args.scale}")
    stack.env.run_until(stack.env.process(driver()))
    if db.tiering is not None:
        # Quiesce first so in-flight compactions/demotions settle and
        # the tier counters are stable run-to-run (CI diffs the output).
        stack.env.run_until(stack.env.process(db.wait_idle()))
        snap = _print_tier_stats(db.tiering, out)
        rows.append({"benchmark": "tier-stats",
                     "demotions": snap["demotions"],
                     "cache_hit_rate": snap["cache_hit_rate"],
                     "miss_p999_ms": snap["cache_miss_p999_ms"],
                     "dollars_per_gb": snap["dollars_per_gb"]})
    db.close_sync()
    if tracer is not None:
        write_chrome_trace(tracer, args.trace)
        out(phase_summary(tracer))
        out(f"trace written to {args.trace} (load in https://ui.perfetto.dev)")
    if args.sanitize:
        _sanitizer_epilogue(stack.env, out)
    return rows


# -- mode table --------------------------------------------------------------


class Mode(NamedTuple):
    """One dbbench mode, by argparse ``dest`` names."""

    #: The ``store_true`` switches that select the mode (all required).
    switches: Tuple[str, ...]
    #: Every other flag the mode reads.
    reads: Tuple[str, ...]
    run: Callable[[argparse.Namespace, Out], List[dict]]


_SIZING = ("engine", "num", "seed")
_STACK = _SIZING + ("value_size", "scale")
_SERVING = _STACK + ("sanitize", "clients", "arrival_rate", "workload")
_TOPOLOGY = ("shards", "replicas", "replication_lag")
_TIER_KNOBS = ("cache_mb", "remote_latency", "remote_bandwidth")

#: First match wins: two-switch modes first, the db_bench default last.
MODES = (
    Mode(("cluster", "nemesis"),
         _SIZING + _TOPOLOGY + ("partition", "net_loss", "net_delay"),
         _harness(_nemesis)),
    Mode(("cluster", "chaos"), _SIZING + _TOPOLOGY, _harness(_cluster_chaos)),
    Mode(("cluster",), _SERVING + _TOPOLOGY, _run_serving),
    Mode(("crash_sweep",), _SIZING + ("tiered",), _harness(_crash_sweep)),
    Mode(("chaos",), ("num", "seed"), _harness(_chaos)),
    Mode(("tier_report",), _STACK + _TIER_KNOBS, _run_tier_report),
    Mode(("server",), _SERVING, _run_serving),
    Mode((), _STACK + _TIER_KNOBS + (
        "benchmarks", "histogram", "trace", "sanitize", "tiered"),
         _run_db_bench),
)


def _flags(dests: Tuple[str, ...]) -> str:
    return " ".join("--" + dest.replace("_", "-") for dest in dests)


def _mode_for(args: argparse.Namespace) -> Mode:
    """Select the mode; reject any flag set that the mode never reads."""
    parser = _parser()
    values = vars(args)
    mode = next(m for m in MODES if all(values[s] for s in m.switches))
    for dest, value in values.items():
        if (value != parser.get_default(dest)
                and dest not in mode.switches + mode.reads):
            parser.error(f"{_flags((dest,))} is not read by the "
                         f"{_flags(mode.switches) or 'db_bench'} mode "
                         f"(it reads: {_flags(mode.reads)})")
    return mode


def run_benchmarks(args: argparse.Namespace, out: Out = print) -> List[dict]:
    """Run the mode ``args`` selects; returns its machine-readable rows."""
    return _mode_for(args).run(args, out)


def main(argv: Optional[List[str]] = None) -> List[dict]:
    """CLI entry point: parse ``argv`` and run the selected mode."""
    return run_benchmarks(_parser().parse_args(argv))


if __name__ == "__main__":
    main()

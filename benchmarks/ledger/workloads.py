"""The five ledger workloads: inputs from the seed, stack build, timed section.

Everything here goes through the stack's public entry points
(``repro.bench``, ``repro.ycsb``, ``repro.svc``, ``repro.cluster``); the
program under test receives only materialised inputs, never a seed.
Sizes and the reason each workload exists are in README.md.
"""

import hashlib
import random
from dataclasses import dataclass, field

from repro.bench import BenchConfig, SYSTEMS, new_stack, open_engine, unified_snapshot
from repro.bench.metrics import LatencyRecorder
from repro.bench.report import aggregate_engine_stats
from repro.cluster import ClusterConfig, ClusterStore
from repro.sim import Environment
from repro.svc import PoissonArrivals, Request, Server
from repro.ycsb import KEY_SIZE, InsertCounter, WorkloadRunner, run_operations
from repro.ycsb import WORKLOADS as YCSB

VALUE_SIZE = 256
RECORD_BYTES = KEY_SIZE + VALUE_SIZE
#: Byte scale of the paper's set-up (DESIGN.md §2); device = SATA_SSD.scaled(SCALE).
SCALE = 256
WORKERS = 4
#: ISSUE 11 names 64.  Measured at 64 over seeds 1-12 of ``serve-mixed``: the queue peaks
#: at 57-64 and seed 5 has 2 of 30 000 requests rejected (it peaks at 66 in a deeper
#: queue).  The contract wants workloads on which no operation fails under any seed, so
#: the depth is twice the measured peak.  Depth changes nothing until the queue is full:
#: peak depth and every latency of seeds 1, 2 and 10 are bit-identical at 64 and 128.
QUEUE_DEPTH = 128
REPLICATION_LAG = 0.002
#: ``--smoke`` divides every operation count by this.
SMOKE_DIVISOR = 20


@dataclass(frozen=True)
class Spec:
    """One workload: what is loaded in set-up and what the timed section runs."""

    name: str
    system: str          # key of repro.bench.SYSTEMS
    preload: int         # records inserted and quiesced in set-up
    ops: int             # operations of the timed section
    mix: str             # YCSB workload of the timed section
    dist: str            # request distribution of the timed section
    wal_sync: bool       # flush policy: fdatasync the WAL before each ack
    clients: int
    rate: float = 0.0    # offered requests/s per client; 0 = closed loop
    shards: int = 0      # > 0: ClusterStore (shards x 1 replica) behind the server

    def scaled(self, smoke):
        """Operation counts after ``--smoke``."""
        if not smoke:
            return self.preload, self.ops
        return self.preload // SMOKE_DIVISOR, self.ops // SMOKE_DIVISOR


SPECS = {spec.name: spec for spec in (
    Spec("fill-bolt", "bolt", 0, 16_000, "load_a", "zipfian", False, 4),
    Spec("fill-stock", "leveldb", 0, 16_000, "load_a", "zipfian", False, 4),
    Spec("read-uniform", "bolt", 16_000, 30_000, "c", "uniform", False, 4),
    Spec("serve-mixed", "bolt", 10_000, 30_000, "a", "zipfian", True, 2, rate=10_000.0),
    Spec("cluster-repl", "bolt", 10_000, 16_000, "a", "zipfian", True, 2, rate=5_000.0,
         shards=4),
)}


@dataclass
class Inputs:
    """Materialised operations; ``timed`` is per client for an open loop."""

    preload: list
    timed: list
    writes: int     # write operations in ``timed``
    sha256: str


def _load_ops(count, seed):
    """``count`` YCSB Load A inserts in a seeded order (hashed keys, so any
    order is a legal load; the shuffle makes the input depend on the seed)."""
    runner = WorkloadRunner(YCSB["load_a"], count, value_size=VALUE_SIZE, seed=seed,
                            insert_counter=InsertCounter(0))
    ops = list(runner.operations(count))
    random.Random(seed).shuffle(ops)
    return ops


def build_inputs(spec, seed, smoke=False):
    """Generate and hash every input of one run from ``seed``."""
    preload_count, op_count = spec.scaled(smoke)
    preload = _load_ops(preload_count, seed)
    if spec.mix == "load_a":
        timed, writes = _load_ops(op_count, seed), op_count
    else:
        mix = YCSB[spec.mix].with_distribution(spec.dist)
        counter = InsertCounter(preload_count)
        per_client = op_count // spec.clients if spec.rate else op_count
        streams, writes = [], 0
        for client in range(spec.clients if spec.rate else 1):
            runner = WorkloadRunner(mix, preload_count, value_size=VALUE_SIZE,
                                    seed=seed + 1000 * client + 17, insert_counter=counter)
            ops = list(runner.operations(per_client))
            writes += sum(1 for kind, _key, _value in ops if kind != "read")
            if spec.rate:
                arrivals = PoissonArrivals(spec.rate, random.Random(seed * 10007 + client))
                offset, plan = 0.0, []
                for op in ops:
                    offset += arrivals.next_interval()
                    plan.append((offset, op))
                ops = plan
            streams.append(ops)
        timed = streams if spec.rate else streams[0]
    digest = hashlib.sha256(repr((preload, timed)).encode()).hexdigest()
    return Inputs(preload, timed, writes, digest)


@dataclass
class Rig:
    """The stack one workload runs on, as the driver sees it."""

    env: object
    stack: object                   # repro.bench Stack; None for a cluster
    db: object                      # engine or ClusterStore: the operation surface
    nodes: list                     # (fs, engine) of every simulated machine
    server: object = None
    cluster: object = None


def build_rig(spec, smoke=False):
    """Build the simulated machine(s), open the store and, if served, the server."""
    preload_count, op_count = spec.scaled(smoke)
    system = SYSTEMS[spec.system]
    options = system.options(SCALE).copy(wal_sync=spec.wal_sync)
    dataset = (preload_count or op_count) * RECORD_BYTES
    if spec.shards:
        env = Environment()
        cluster = ClusterStore(env, system.engine_cls, options, ClusterConfig(
            num_shards=spec.shards, replicas_per_shard=1, partitioner="hash",
            replication_lag=REPLICATION_LAG, scale=SCALE,
            page_cache_bytes=dataset // spec.shards // 6))
        rig = Rig(env, None, cluster, [(n.fs, n.db) for n in cluster.nodes()],
                  cluster=cluster)
    else:
        config = BenchConfig(scale=SCALE, record_count=preload_count or op_count,
                             value_size=VALUE_SIZE, page_cache_bytes=dataset // 6)
        stack = new_stack(config)
        db = open_engine(stack, system, config, options)
        rig = Rig(stack.env, stack, db, [(stack.fs, db)])
    if spec.rate:
        rig.server = Server(rig.env, rig.db, num_workers=WORKERS,
                            queue_depth=QUEUE_DEPTH, policy="reject")
    return rig


def drive(env, generator):
    """Run one driver coroutine to completion on the rig's event loop."""
    return env.run_until(env.process(generator))


def preload(rig, inputs):
    """Insert the preload records and wait for background work to finish."""
    if inputs.preload:
        drive(rig.env, run_operations(rig.env, rig.db, inputs.preload, WORKERS))
    drive(rig.env, quiesce(rig))


def quiesce(rig):
    """Drain replication, flush every memtable and let compaction settle."""
    if rig.cluster is not None:
        while any(shard.replication.backlog for shard in rig.cluster.shards):
            yield rig.env.timeout(REPLICATION_LAG)
    for _fs, engine in rig.nodes:
        yield from engine.flush_all()


@dataclass
class Timed:
    """What the driver observed in the timed section (virtual clock)."""

    latencies: list = field(default_factory=list)   # seconds, acked ops only
    submitted: int = 0
    failed: int = 0                                  # rejected + read-only + errors
    lateness: list = field(default_factory=list)     # submit - intended start
    elapsed: float = 0.0


def _open_client(env, server, plan, client_id, base, timed, on_request):
    pending = []
    for offset, (kind, key, payload) in plan:
        due = base + offset
        if env.now < due:
            yield env.timeout(due - env.now)
        timed.lateness.append(env.now - due)
        request = Request(kind=kind, key=key, payload=payload, client_id=client_id,
                          intended_start=due)
        done = yield from server.submit(request)
        if on_request is not None:
            on_request(request, done)
        pending.append(done)
    for outcome in (yield env.all_of(pending)):
        timed.submitted += 1
        if outcome.ok:
            timed.latencies.append(outcome.latency)
        else:
            timed.failed += 1


def run_timed(rig, spec, inputs, db=None, on_request=None):
    """The timed section.  ``db``/``on_request`` let the traced pass observe
    requests from outside; the untraced pass leaves both unset."""
    env = rig.env
    timed = Timed()
    started = env.now
    if spec.rate:
        clients = [env.process(_open_client(env, rig.server, plan, i, started, timed,
                                            on_request))
                   for i, plan in enumerate(inputs.timed)]
        env.run_until(env.all_of(clients))
    else:
        recorder = LatencyRecorder()
        target = rig.db if db is None else db

        def closed_loop():
            yield from run_operations(env, target, inputs.timed, spec.clients, recorder)
            if spec.mix == "load_a":
                yield from rig.db.flush_all()

        drive(env, closed_loop())
        timed.latencies = recorder.samples()
        timed.submitted = len(inputs.timed)
    timed.elapsed = env.now - started
    return timed


def counters(rig):
    """Every public counter of the rig as one flat ``section.name`` dict.

    The device, fs, engine, svc and replication sections are
    ``unified_snapshot``'s; the cache hit and miss counts and the allocated
    bytes, which it lacks, are added here, summed over machines.
    """
    snap = unified_snapshot(rig.stack, rig.db, server=rig.server)
    if rig.cluster is not None:
        # The cluster snapshot's engine section covers shard primaries only, its device
        # and fs sections every node; ratios between them need the replicas' engines too.
        snap["engine"] = aggregate_engine_stats(engine for _fs, engine in rig.nodes)
    out = {f"{section}.{key}": value
           for section in ("clock", "device", "fs", "engine", "svc", "replication")
           for key, value in snap.get(section, {}).items() if isinstance(value, (int, float))}
    extra = dict.fromkeys(("fs.allocated", "pc.hits", "pc.misses", "pc.evictions", "tc.hits",
                           "tc.misses", "bc.hits", "bc.misses", "fd.hits", "fd.misses"), 0)
    for fs, engine in rig.nodes:
        extra["fs.allocated"] += fs.total_allocated_bytes()
        caches = {"pc": fs.page_cache, "tc": engine.table_cache, "bc": engine.block_cache,
                  "fd": getattr(engine, "fd_cache", None)}   # stock LevelDB has no fd cache
        for prefix, cache in caches.items():
            if cache is not None:
                extra[prefix + ".hits"] += cache.hits
                extra[prefix + ".misses"] += cache.misses
        extra["pc.evictions"] += fs.page_cache.evictions
    out.update(extra)
    return out


def read_back(rig, inputs, spec, every=1):
    """Untimed check: every ``every``-th written key returns ``VALUE_SIZE`` bytes."""
    keys = [key for _kind, key, _value in inputs.preload]
    if spec.mix == "load_a":
        keys += [key for _kind, key, _value in inputs.timed]
    keys = keys[::every]
    bad = 0
    for key in keys:
        value = rig.db.get_sync(key)
        if value is None or len(value) != VALUE_SIZE:
            bad += 1
    return len(keys), bad


def close(rig):
    """Stop the server's workers and close every engine."""
    if rig.server is not None:
        rig.server.close_sync()
    rig.db.close_sync()

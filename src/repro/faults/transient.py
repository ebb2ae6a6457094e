"""Transient-fault chaos runs: the store must stay *available*.

The crash sweep (:mod:`repro.faults.sweep`) proves the durability
contract after power loss; this module proves the availability contract
during non-crash runtime faults, one engine or a whole cluster at a
time:

* **chaos** (:func:`chaos_engine`, :func:`chaos_sweep`): transient EIO
  at a fixed per-request rate — absorbed by the device driver's in-slot
  retries and, when a request exhausts them, by the engine's
  :class:`~repro.health.ErrorManager` — plus one disk-full episode, in
  which the engine must degrade to read-only (writes rejected with
  :class:`~repro.health.ReadOnlyError`, reads still served) and return
  to healthy once capacity is restored; then a crash + reopen;
* **cluster chaos** (:func:`cluster_chaos`): one shard's primary killed
  outright mid-run;
* **nemesis** (:func:`nemesis_chaos`): a primary partitioned away and
  fenced by a promotion, the network healed, a different primary
  killed.

All three run on one loop, :func:`_drive`, with a different **target**
(a stress-sized engine or cluster) and **schedule** (one process beside
the clients that injects the faults).  Seeded clients issue a 50/50
read/update mix through the one recorded op, :meth:`_Run.client_op`;
afterwards every written key is read back once more through it, the
target is scanned for keys no write put there, and the whole history is
judged by :func:`repro.faults.history.check_history` — no acked write
lost, no refused write ever visible, no stale read.  Each harness then
adds the evidence checks that prove its schedule actually bit (the
engine went read-only, a failover replayed the WAL tail, fencing
rejected a late write).

Every harness has one shape — a config with a ``header()``, a run
function, a result with ``ok``, ``summary_lines()`` and ``rows()`` —
which is all ``python -m repro.tools.dbbench --chaos`` / ``--cluster
--chaos`` / ``--cluster --nemesis`` rely on.  A config holds only what
callers set; the rest of each schedule is the named constants beside it.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..bench.harness import ALL_SYSTEMS
from ..health import ReadOnlyError
from ..sim import Condition, Environment, Event
from ..storage import SATA_SSD, BlockDevice, PageCache, SimFS
from .history import FAIL, HistoryRecorder, check_history
from .plan import TransientEIO
from .sweep import DEFAULT_ENGINES

__all__ = ["ChaosConfig", "ChaosResult", "ChaosReport",
           "chaos_engine", "chaos_sweep",
           "ClusterChaosConfig", "ClusterChaosResult", "cluster_chaos",
           "NemesisConfig", "NemesisResult", "nemesis_chaos"]

# ---------------------------------------------------------------------------
# one run loop: seeded recorded clients + one schedule, judged by the history
# ---------------------------------------------------------------------------

#: Structure-size divisor of every chaos store (the bench harness scale).
STRESS_SCALE = 1024
#: Per-machine page cache.  Deliberately tiny, like the memtable and
#: block cache in :func:`_stress_options`: the workload must actually
#: flush, compact and read from the device, so injected faults land in
#: the retry/absorption machinery and in background paths, not only in
#: the WAL.
STRESS_PAGE_CACHE_BYTES = 16 << 10
#: Key partitioning of the cluster harnesses (printed in their headers).
PARTITIONER = "hash"


def _stress_options(spec: Any) -> Any:
    """``spec``'s options shrunk so a few hundred ops reach every path."""
    return spec.options(STRESS_SCALE).copy(
        wal_sync=True, memtable_size=4096, block_cache_bytes=4096)


def _key(index: int) -> bytes:
    return b"user%06d" % index


@dataclass
class RunResult:
    """What every harness run counts, and how it is scored.

    Each recorded op lands in exactly one of ``reads``,
    ``writes_acked``, ``writes_rejected`` and ``reads_failed`` (the last
    two: typed refusals).
    """

    engine: str
    ops: int = 0
    reads: int = 0
    writes_acked: int = 0
    writes_rejected: int = 0
    reads_failed: int = 0
    history_ops: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def failed_ops(self) -> int:
        """Client ops the target refused."""
        return self.writes_rejected + self.reads_failed

    @property
    def availability(self) -> float:
        """Fraction of requests that completed successfully."""
        served = self.reads + self.writes_acked
        return served / self.ops if self.ops else 0.0

    @property
    def ok(self) -> bool:
        """True when the run upheld its contract end to end."""
        return not self.violations


class _Run:
    """One driven run: its target, its recorded history, and the client
    progress a schedule waits on."""

    def __init__(self, env: Environment, target: Any, result: RunResult,
                 seed: int, keyspace: int, value_size: int):
        # Imported here: repro.cluster sits above the fault layer.
        from ..cluster import ShardDownError
        self.env = env
        #: What the clients call ``get``/``put`` on; a schedule may swap
        #: it (the chaos schedule reopens the engine after its crash).
        self.target = target
        self.result = result
        self.seed = seed
        self.keyspace = keyspace
        self.value_size = value_size
        self.recorder = HistoryRecorder(env)
        #: Typed refusals: the op definitely did not happen.
        self.refusals = (ReadOnlyError, ShardDownError)
        #: Client ops begun so far, counted across clients.
        self.started = 0
        self.clients_done = False
        self.progress = Condition(env)

    def client_op(self, client: int, key: bytes,
                  value: Optional[bytes] = None
                  ) -> Generator[Event, Any, None]:
        """The one recorded client op: a write of ``value``, else a read.

        Invoked in the history, then ``put``/``get`` on the target, then
        ``ok`` — or ``fail`` when the target refused it with a typed
        error, which promises the write is never visible.
        """
        is_read = value is None
        op = self.recorder.invoke(client, "r" if is_read else "w", key, value)
        result = self.result
        result.ops += 1
        got = None
        try:
            if is_read:
                got = yield from self.target.get(key)
            else:
                yield from self.target.put(key, value)
        except self.refusals as exc:
            self.recorder.fail(op, repr(exc))
            if is_read:
                result.reads_failed += 1
            else:
                result.writes_rejected += 1
            return
        self.recorder.ok(op, got)
        if is_read:
            result.reads += 1
        else:
            result.writes_acked += 1

    def reach(self, index: float) -> Generator[Event, Any, None]:
        """Wait until the clients have begun op ``index`` (counted across
        clients) or are all done; ``math.inf`` waits for the latter."""
        while self.started <= index and not self.clients_done:
            yield self.progress.wait()


def _client(run: _Run, client: int, num_ops: int, think_time: float
            ) -> Generator[Event, Any, None]:
    """One seeded client: ``num_ops`` ops of the 50/50 read/update mix."""
    env = run.env
    rng = random.Random(run.seed * 1009 + client)
    for j in range(num_ops):
        if think_time:
            yield env.timeout(think_time * (0.5 + rng.random()))
        run.started += 1
        run.progress.notify_all()
        key = _key(rng.randrange(run.keyspace))
        if rng.random() < 0.5:
            # Unique payload, so the history tells every write apart
            # (a refused one included) by the value a read returns.
            value = b"c%02d-%05d-" % (client, j) + b"x" * run.value_size
            yield from run.client_op(client, key, value)
        else:
            yield from run.client_op(client, key)


def _drive(run: _Run, schedule: Callable[[_Run], Generator],
           clients: int, ops_per_client: int, think_time: float = 0.0
           ) -> None:
    """Run ``clients`` seeded clients beside ``schedule(run)``, then judge.

    Once the clients and the schedule are done, every key any write
    targeted is read back through :meth:`_Run.client_op` (so a lost acked
    write or a visible refused one cannot hide from the checker), the
    target is scanned for keys no unrefused write put there, and the
    history is checked.  Violations land in ``run.result``.
    """
    env = run.env

    def main() -> Generator[Event, Any, None]:
        faults = env.process(schedule(run), name="chaos-schedule")
        yield env.all_of([
            env.process(_client(run, c, ops_per_client, think_time),
                        name=f"chaos-client{c}") for c in range(clients)])
        run.clients_done = True
        run.progress.notify_all()
        yield faults
        ops = run.recorder.ops
        for key in sorted({op.key for op in ops if op.kind == "w"}):
            yield from run.client_op(-1, key)
        live = {op.key for op in ops if op.kind == "w" and op.outcome != FAIL}
        rows = yield from run.target.scan(b"", run.keyspace + 64)
        for key, _value in rows:
            if key not in live:
                run.result.violations.append(f"[phantom-key] {key!r}")

    env.run_until(env.process(main(), name="chaos-drive"))
    run.result.violations.extend(check_history(run.recorder.ops))
    run.result.history_ops = len(run.recorder.ops)


# ---------------------------------------------------------------------------
# single-engine chaos: transient EIO + one disk-full episode
# ---------------------------------------------------------------------------

CHAOS_KEYSPACE = 64
CHAOS_VALUE_SIZE = 64
#: Per-request probability a device attempt fails with EIO.
EIO_FAULT_RATE = 0.05
#: Cap on injected EIO faults (keeps runs bounded).
MAX_EIO_FAULTS = 200
#: Fractions of the run at which the disk fills / capacity is restored.
#: Filling clamps capacity to the allocation at that instant: a flush
#: that then unlinks an obsolete WAL already hands back up to a
#: MemTable's worth of room, so any slack on top could let a short
#: episode end before a single write is refused.
DISK_FULL_AT = 0.5
DISK_FULL_UNTIL = 0.75


@dataclass
class ChaosConfig:
    """Sizing of a chaos run over :data:`~.sweep.DEFAULT_ENGINES`."""

    num_ops: int = 400
    seed: int = 11

    def header(self) -> str:
        """The line a run of this config is announced with."""
        return (f"chaos: engines {', '.join(DEFAULT_ENGINES)}, "
                f"{self.num_ops} ops, EIO rate {EIO_FAULT_RATE}, disk full "
                f"at {DISK_FULL_AT:.0%} of the run")


@dataclass
class ChaosResult(RunResult):
    """Outcome of one engine's chaos run."""

    recovered: bool = False
    eio_retries: int = 0
    bg_errors: int = 0
    resume_attempts: int = 0

    @property
    def entered_read_only(self) -> bool:
        """True when the disk-full episode made the engine refuse writes."""
        return self.writes_rejected > 0


@dataclass
class ChaosReport:
    """Aggregated chaos results for all engines."""

    results: List[ChaosResult]

    @property
    def ok(self) -> bool:
        """True when every engine's run passed."""
        return all(r.ok for r in self.results)

    def summary_lines(self) -> List[str]:
        """Human-readable per-engine summary (what dbbench prints)."""
        lines = []
        for r in self.results:
            status = "ok" if r.ok else f"{len(r.violations)} VIOLATIONS"
            lines.append(
                f"{r.engine:12s}: {r.ops:5d} ops ({r.reads} reads, "
                f"{r.writes_acked} acked, {r.writes_rejected} rejected), "
                f"{r.eio_retries} EIO retries, {r.bg_errors} bg errors, "
                f"{r.resume_attempts} resumes, "
                f"read-only={'yes' if r.entered_read_only else 'no'}: "
                f"{status}")
            for violation in r.violations[:8]:
                lines.append(f"    {violation}")
        lines.append("chaos: " + ("PASS" if self.ok else "FAIL"))
        return lines

    def rows(self) -> List[dict]:
        """One machine-readable row per engine (what dbbench returns)."""
        return [{"benchmark": "chaos", "engine": r.engine, "ops": r.ops,
                 "rejected": r.writes_rejected, "eio_retries": r.eio_retries,
                 "resumes": r.resume_attempts,
                 "violations": len(r.violations)} for r in self.results]


def chaos_engine(engine_key: str, config: ChaosConfig) -> ChaosResult:
    """Run one engine through the transient-fault chaos schedule.

    One client; the disk fills over the middle quarter of its ops; once
    it is done the store must settle back to healthy on its own clock,
    and is then flushed, closed, power-cut with every unsynced page
    lost and reopened — so the closing read-back checks the recovered
    image.
    """
    spec = ALL_SYSTEMS[engine_key]
    env = Environment()
    device = BlockDevice(env, SATA_SSD.scaled(STRESS_SCALE))
    fs = SimFS(env, device, PageCache(STRESS_PAGE_CACHE_BYTES))
    options = _stress_options(spec)
    result = ChaosResult(engine=engine_key)

    db = spec.engine_cls.open_sync(env, fs, options, "db")
    # Arm EIO injection only after open: recovery-path availability is
    # the crash sweep's subject, steady-state availability is ours.
    device.fault_hook = TransientEIO(
        EIO_FAULT_RATE,
        random.Random(config.seed ^ zlib.crc32(engine_key.encode())),
        max_failures=MAX_EIO_FAULTS)

    def schedule(run: _Run) -> Generator[Event, Any, None]:
        yield from run.reach(int(config.num_ops * DISK_FULL_AT))
        # The disk fills: the next byte a write needs is not there.
        fs.set_capacity(fs.total_allocated_bytes())
        yield from run.reach(int(config.num_ops * DISK_FULL_UNTIL))
        fs.set_capacity(None)
        db.health.poke()
        yield from run.reach(math.inf)
        # Settle: capacity is unbounded again, cleanup/auto-resume must
        # bring the store back to healthy on their own clock.
        db.health.poke()
        for _ in range(200):
            if not db.health.degraded:
                break
            yield env.timeout(0.01)
        result.recovered = not db.health.degraded
        if not result.recovered:
            return
        # Post-chaos durability: crash with everything unsynced lost and
        # reopen; the acknowledged state must still be intact.
        device.fault_hook = None
        yield from db.flush_all()
        yield from db.close()
        fs.crash(survive_probability=0.0)
        run.target = yield from spec.engine_cls.open(
            env, fs, options.copy(), "db")

    run = _Run(env, db, result, config.seed, CHAOS_KEYSPACE,
               CHAOS_VALUE_SIZE)
    _drive(run, schedule, clients=1, ops_per_client=config.num_ops)

    result.eio_retries = device.stats.num_eio_retries
    result.bg_errors = db.health.bg_error_count
    result.resume_attempts = db.health.resume_attempts
    if not result.recovered:
        result.violations.append(
            f"[not-recovered] still degraded at end: {db.health.reason}")
    else:
        run.target.close_sync()
    if not result.entered_read_only:
        result.violations.append(
            "[no-degradation] disk-full episode never entered read-only")
    return result


def chaos_sweep(config: Optional[ChaosConfig] = None) -> ChaosReport:
    """Run :func:`chaos_engine` for every engine family."""
    config = config or ChaosConfig()
    return ChaosReport([chaos_engine(key, config) for key in DEFAULT_ENGINES])


# ---------------------------------------------------------------------------
# shared by the cluster harnesses: config, result, build, kill, verdict
# ---------------------------------------------------------------------------


@dataclass
class ClusterRunConfig:
    """What both cluster harnesses let a caller size."""

    engine: str = "bolt"
    num_shards: int = 4
    replicas_per_shard: int = 1
    seed: int = 23
    replication_lag: float = 0.002

    def topology(self) -> str:
        """The ``engine, N shards x M replicas (…)`` header fragment."""
        return (f"engine {self.engine}, {self.num_shards} shards x "
                f"{self.replicas_per_shard} replicas ({PARTITIONER})")


@dataclass
class ClusterRunResult(RunResult):
    """What every cluster harness run reports.

    Subclasses add their own counters plus ``benchmark`` (the row name),
    ``verdict`` (the PASS/FAIL line's name) and ``_report_lines()``.
    """

    shards: int = 0
    killed_shard: int = -1
    failovers: int = 0
    failed_shards: int = 0
    wal_tail_records_replayed: int = 0

    def summary_lines(self) -> List[str]:
        """Human-readable summary (what ``dbbench --cluster`` prints)."""
        lines = self._report_lines()
        lines.append(f"history: {self.history_ops} ops checked, "
                     f"{len(self.violations)} violations")
        for violation in self.violations[:10]:
            lines.append(f"    {violation}")
        lines.append(f"{self.verdict}: " + ("PASS" if self.ok else "FAIL"))
        return lines

    def rows(self) -> List[dict]:
        """The run as one machine-readable row (what dbbench returns)."""
        return [{"benchmark": self.benchmark, "engine": self.engine,
                 "shards": self.shards, "ops": self.ops,
                 "availability": round(self.availability, 6),
                 "failovers": self.failovers,
                 "wal_tail_records_replayed": self.wal_tail_records_replayed,
                 "violations": len(self.violations)}]


def _stress_cluster(config: ClusterRunConfig, heartbeat_interval: float,
                    **knobs: Any) -> Any:
    """An N-shard store of stress-sized machines on a fresh clock."""
    # Imported here: repro.cluster sits above the fault layer, and this
    # keeps the module dependency graph acyclic for everything that
    # imports transient chaos without a cluster.
    from ..cluster import ClusterConfig, ClusterStore
    spec = ALL_SYSTEMS[config.engine]
    return ClusterStore(
        Environment(), spec.engine_cls, _stress_options(spec),
        ClusterConfig(num_shards=config.num_shards,
                      replicas_per_shard=config.replicas_per_shard,
                      partitioner=PARTITIONER,
                      replication_lag=config.replication_lag,
                      heartbeat_interval=heartbeat_interval,
                      scale=STRESS_SCALE,
                      page_cache_bytes=STRESS_PAGE_CACHE_BYTES, **knobs))


def _owned_writes(run: _Run, shard_id: int, count: int, tag: bytes
                  ) -> List[Tuple[bytes, bytes]]:
    """``count`` tagged writes to keys shard ``shard_id`` owns."""
    cluster = run.target
    victim = cluster.shards[shard_id]
    keys = [k for k in map(_key, range(run.keyspace))
            if cluster.router.shard_for(k) is victim]
    return [(key, tag % j + b"x" * run.value_size)
            for j, key in enumerate(keys[:count])]


def _kill_after_burst(run: _Run, shard_id: int, count: int
                      ) -> Generator[Event, Any, None]:
    """Ack ``count`` writes aimed at ``shard_id``, then kill its primary.

    Acked with their records still in the replication backlog, the only
    copy a replica can recover them from is the dead node's WAL tail —
    so failover *must* replay it.
    """
    for idx, (key, value) in enumerate(
            _owned_writes(run, shard_id, count, b"burst%02d-")):
        yield from run.client_op(200 + idx, key, value)
    run.result.killed_shard = shard_id
    run.target.shards[shard_id].kill_primary()


def _failover_verdict(cluster: Any, result: ClusterRunResult
                      ) -> Dict[str, Any]:
    """Fill the failover counters, check what a kill owes; returns the
    store's ``describe()`` status for the caller's own counters."""
    status = cluster.describe()
    result.failovers = status["failovers"]
    result.failed_shards = sum(
        1 for s in cluster.shards if s.state == "failed")
    result.wal_tail_records_replayed = status["wal_tail_records_replayed"]
    if result.wal_tail_records_replayed < 1:
        result.violations.append(
            "[no-tail-replay] pre-kill burst was acked but failover "
            "replayed no WAL tail records")
    if result.failed_shards:
        result.violations.append(
            f"[shard-lost] {result.failed_shards} shard(s) ended with no "
            f"primary")
    if result.failed_ops:
        result.violations.append(
            f"[unavailable] {result.failed_ops} client ops failed — "
            f"park-don't-fail was violated")
    return status


# ---------------------------------------------------------------------------
# cluster chaos: kill a whole shard mid-run
# ---------------------------------------------------------------------------

CLUSTER_KEYSPACE = 96
CLUSTER_VALUE_SIZE = 48
CLUSTER_HEARTBEAT = 0.005
#: Fraction of the run at which one shard's primary node is killed
#: (engine death + power loss on its device + connections dropped).
#: The victim is the owner of a seeded key draw.
KILL_AT = 0.5
#: Acked writes aimed at the victim shard right before the kill.
KILL_BURST = 8
#: Asserted ceiling on observed ship→apply replication lag.
MAX_LAG_BOUND = 0.25


@dataclass
class ClusterChaosConfig(ClusterRunConfig):
    """Sizing of a cluster kill-whole-shard chaos run (CI defaults)."""

    num_ops: int = 600

    def header(self) -> str:
        """The line a run of this config is announced with."""
        return (f"cluster chaos: {self.topology()}, {self.num_ops} ops, "
                f"kill at {KILL_AT:.0%} of the run, replication lag "
                f"{self.replication_lag * 1000:g} ms")


@dataclass
class ClusterChaosResult(ClusterRunResult):
    """Outcome of one cluster chaos run; checked against the history.

    Reads must return a value the history allows even while the killed
    shard fails over (they park and retry on the promoted replica), and
    every acked write must read back after the failover — the §6 clause
    "an acked write survives single-shard failover".
    """

    max_replication_lag: float = 0.0
    benchmark = "cluster-chaos"
    verdict = "cluster chaos"

    def _report_lines(self) -> List[str]:
        return [
            f"cluster[{self.engine} x{self.shards}]: {self.ops:5d} ops "
            f"({self.reads} reads, {self.writes_acked} acked, "
            f"{self.writes_rejected} rejected), "
            f"killed shard {self.killed_shard}, "
            f"{self.failovers} failovers, "
            f"{self.wal_tail_records_replayed} WAL tail records replayed, "
            f"max replication lag {self.max_replication_lag * 1000:.3f} ms, "
            f"availability {self.availability:.6f}"]


def cluster_chaos(config: Optional[ClusterChaosConfig] = None
                  ) -> ClusterChaosResult:
    """Kill a whole shard's primary mid-run; score every request.

    One client drives an N-shard :class:`~repro.cluster.ClusterStore`
    (one device + filesystem + engine per node).  At the configured
    point the schedule acks a burst of writes to the owner of a seeded
    key draw and kills that shard's primary outright: engine death,
    power loss on its device, connections dropped.  Requests to the
    dead shard park until the :class:`~repro.cluster.FailoverController`
    promotes the freshest replica and replays the WAL tail; the history
    must then show zero violations and zero failed ops, not "mostly
    available".
    """
    config = config or ClusterChaosConfig()
    cluster = _stress_cluster(config, CLUSTER_HEARTBEAT)
    result = ClusterChaosResult(engine=config.engine,
                                shards=config.num_shards)

    def schedule(run: _Run) -> Generator[Event, Any, None]:
        rng = random.Random(config.seed * 31 + 7)
        yield from run.reach(int(config.num_ops * KILL_AT))
        # The owner of a seeded key draw: guaranteed to be a shard that
        # actually serves traffic (under range partitioning some shards
        # may own none of the keyspace).
        yield from _kill_after_burst(
            run, cluster.router.partitioner.shard_of(
                _key(rng.randrange(CLUSTER_KEYSPACE))), KILL_BURST)

    _drive(_Run(cluster.env, cluster, result, config.seed,
                CLUSTER_KEYSPACE, CLUSTER_VALUE_SIZE),
           schedule, clients=1, ops_per_client=config.num_ops)

    status = _failover_verdict(cluster, result)
    result.max_replication_lag = status["max_replication_lag"]
    if result.failovers < 1:
        result.violations.append(
            "[no-failover] primary killed but no replica was promoted")
    if result.max_replication_lag > MAX_LAG_BOUND:
        result.violations.append(
            f"[lag-bound] observed replication lag "
            f"{result.max_replication_lag:.6f}s exceeds configured bound "
            f"{MAX_LAG_BOUND:.6f}s")
    cluster.close_sync()
    return result


# ---------------------------------------------------------------------------
# nemesis chaos: partitions + fencing + kill
# ---------------------------------------------------------------------------

NEMESIS_CLIENTS = 4
NEMESIS_KEYSPACE = 64
NEMESIS_VALUE_SIZE = 32
NEMESIS_HEARTBEAT = 0.004
#: Consecutive probe misses before the failure detector promotes.
GRACE_MISSES = 3
#: Fabric fault intensities beside the configurable delay and loss (see
#: :class:`repro.cluster.NetConfig`).
NET_JITTER = 0.2
NET_DUPLICATE = 0.02
NET_REORDER = 0.0005
#: Virtual time the partition begins, and how long it lasts.
PARTITION_AT = 0.05
PARTITION_DURATION = 0.2
#: Replication links are cut this long before full isolation: the
#: realistic staggered onset, and what guarantees in-flight writes
#: are mid-ship (backing off) when the cut completes — they will be
#: fenced at promotion no matter the device's micro-timing.
PARTITION_ONSET = 0.004
#: Writes to the partitioned shard dispatched at the onset.
INFLIGHT_WRITES = 4
#: Virtual time a different shard's primary (a seeded pick) is killed
#: outright.
NEMESIS_KILL_AT = 0.4
#: Acked writes aimed at the kill victim right before the kill, so
#: WAL-tail salvage is provably exercised (as in cluster_chaos).
NEMESIS_KILL_BURST = 4
#: Mean think time between one client's operations.
THINK_TIME = 0.0015
#: Quiet period after the schedule before the final read-back.
SETTLE = 0.1


@dataclass
class NemesisConfig(ClusterRunConfig):
    """One seeded nemesis schedule over a fabric-backed cluster.

    The schedule is: run concurrent seeded clients; at ``PARTITION_AT``
    cut the victim primary's replication links (in-flight writes start
    backing off), shortly after isolate it completely; the failure
    detector misses its grace window and promotes a replica **with an
    epoch bump**, fencing the still-alive ex-primary; heal; later kill a
    *different* shard's primary outright, as cluster chaos does, now
    over the fabric; settle; read every written key back.
    """

    num_shards: int = 3
    seed: int = 41
    ops_per_client: int = 150
    #: One-way fabric delay and per-message loss probability.
    net_delay: float = 0.0003
    net_loss: float = 0.02
    #: Shard whose primary is partitioned; None draws the owner of a
    #: seeded key.
    partition_shard: Optional[int] = None

    def header(self) -> str:
        """The line a run of this config is announced with."""
        return (f"nemesis: {self.topology()}, {NEMESIS_CLIENTS} clients x "
                f"{self.ops_per_client} ops, net delay "
                f"{self.net_delay * 1000:g} ms, loss {self.net_loss:g}, "
                f"partition at {PARTITION_AT * 1000:g} ms for "
                f"{PARTITION_DURATION * 1000:g} ms, kill at "
                f"{NEMESIS_KILL_AT * 1000:g} ms")


@dataclass
class NemesisResult(ClusterRunResult):
    """Outcome of one nemesis run; checked against the history."""

    partitioned_shard: int = -1
    partition_promotions: int = 0
    fenced_writes: int = 0
    fenced_ships: int = 0
    net: Dict[str, int] = field(default_factory=dict)
    benchmark = "cluster-nemesis"
    verdict = "nemesis"

    def _report_lines(self) -> List[str]:
        return [
            (f"nemesis[{self.engine} x{self.shards}]: {self.ops:5d} ops "
             f"({self.reads} reads, {self.writes_acked} acked, "
             f"{self.failed_ops} failed), "
             f"partitioned shard {self.partitioned_shard}, "
             f"killed shard {self.killed_shard}, "
             f"{self.failovers} failovers "
             f"({self.partition_promotions} fenced promotions), "
             f"fenced_writes {self.fenced_writes}, "
             f"fenced_ships {self.fenced_ships}, "
             f"{self.wal_tail_records_replayed} WAL tail records replayed, "
             f"availability {self.availability:.6f}"),
            (f"net: {self.net.get('messages_accepted', 0)} accepted, "
             f"{self.net.get('sends_refused', 0)} refused, "
             f"{self.net.get('retransmits', 0)} retransmits, "
             f"{self.net.get('duplicates', 0)} duplicates, "
             f"{self.net.get('probes', 0)} probes "
             f"({self.net.get('probes_lost', 0)} lost), "
             f"{self.net.get('partitions', 0)} partitions, "
             f"{self.net.get('heals', 0)} heals"),
        ]

    def rows(self) -> List[dict]:
        """The shared row plus the fencing and history counters."""
        rows = super().rows()
        rows[0].update(partition_promotions=self.partition_promotions,
                       fenced_writes=self.fenced_writes,
                       fenced_ships=self.fenced_ships,
                       history_ops=self.history_ops)
        return rows


def nemesis_chaos(config: Optional[NemesisConfig] = None) -> NemesisResult:
    """Partition + fence + heal + kill, checked against the op history.

    The acceptance claim this run machine-checks (FAULT_MODEL.md §7):
    with a primary partitioned away — not dead — and healed only after
    a replica was promoted, **no acked write is lost, no fenced-away
    value is ever read, and every late write from the stale ex-primary
    is rejected with a typed FencedError** (``fenced_writes > 0``), all
    while availability stays 1.0 outside the detection+promotion
    window (parked ops complete; none fail).
    """
    from ..cluster import NetConfig

    config = config or NemesisConfig()
    net = NetConfig(delay=config.net_delay, jitter=NET_JITTER,
                    loss=config.net_loss, duplicate=NET_DUPLICATE,
                    reorder=NET_REORDER, seed=config.seed * 7919 + 13)
    cluster = _stress_cluster(config, NEMESIS_HEARTBEAT,
                              grace_misses=GRACE_MISSES, net=net)
    env = cluster.env
    result = NemesisResult(engine=config.engine, shards=config.num_shards)

    def schedule(run: _Run) -> Generator[Event, Any, None]:
        rng = random.Random(config.seed * 31 + 7)
        yield env.timeout(PARTITION_AT)
        if config.partition_shard is not None:
            pshard = config.partition_shard
        else:
            pshard = cluster.router.partitioner.shard_of(
                _key(rng.randrange(NEMESIS_KEYSPACE)))
        result.partitioned_shard = pshard
        victim = cluster.shards[pshard].primary
        # Stage 1: the partition onset cuts the replication edges
        # first.  Writes already dispatched to the victim commit
        # locally, then their ship is refused and enters backoff —
        # guaranteed to still be in flight when promotion fences them.
        cluster.fabric.partition(
            [victim.node_id],
            [r.node_id for r in cluster.shards[pshard].replicas])
        for idx, (key, value) in enumerate(_owned_writes(
                run, pshard, INFLIGHT_WRITES, b"inflight%02d-")):
            env.process(run.client_op(100 + idx, key, value),
                        name=f"nemesis-inflight{idx}")
        yield env.timeout(PARTITION_ONSET)
        # Stage 2: full isolation — control plane included.  The
        # failure detector now misses its grace window and promotes.
        cluster.partition_primary(pshard)
        yield env.timeout(PARTITION_DURATION)
        cluster.heal_network()
        # Phase 2: kill a different shard's primary outright.
        yield env.timeout(max(0.0, NEMESIS_KILL_AT - env.now))
        candidates = [s for s in range(config.num_shards) if s != pshard]
        yield from _kill_after_burst(
            run, candidates[rng.randrange(len(candidates))],
            NEMESIS_KILL_BURST)
        yield from run.reach(math.inf)
        yield env.timeout(SETTLE)

    _drive(_Run(env, cluster, result, config.seed, NEMESIS_KEYSPACE,
                NEMESIS_VALUE_SIZE),
           schedule, clients=NEMESIS_CLIENTS,
           ops_per_client=config.ops_per_client, think_time=THINK_TIME)

    status = _failover_verdict(cluster, result)
    result.partition_promotions = status["partition_promotions"]
    result.fenced_writes = status["fenced_writes"]
    result.fenced_ships = status["fenced_ships"]
    result.net = status["net"]
    if result.partition_promotions < 1:
        result.violations.append(
            "[no-fenced-promotion] the partitioned primary was never "
            "promoted away")
    if result.fenced_writes < 1:
        result.violations.append(
            "[no-fencing] no late write from the stale primary was "
            "rejected")
    if result.failovers < 2:
        result.violations.append(
            f"[missing-failover] expected >=2 failovers "
            f"(fence + kill), saw {result.failovers}")
    cluster.close_sync()
    return result

"""Transient-fault chaos runs: the store must stay *available*.

The crash sweep (:mod:`repro.faults.sweep`) proves the durability
contract after power loss; this module proves the availability contract
during non-crash runtime faults — the territory of
:mod:`repro.health`:

* **transient EIO** at a fixed per-request rate, absorbed by the
  device driver's in-slot retries and, when a request exhausts them, by
  the engine's :class:`~repro.health.ErrorManager` (pause + backoff +
  auto-resume);
* **one disk-full episode**: mid-run the filesystem capacity is clamped
  to the current allocation plus a small slack, the engine must degrade
  to read-only (writes rejected with
  :class:`~repro.health.ReadOnlyError`, reads still served), and once
  capacity is restored it must return to healthy and accept writes
  again.

Throughout, a :class:`~repro.faults.checker.DurabilityOracle` tracks
acknowledgements.  Because no crash happens, the check is *exact*:
every acknowledged write reads back its last acknowledged value, and no
rejected write is ever visible.  A final crash + reopen then re-checks
the durability contract on the post-chaos image.

Every harness here (also :func:`cluster_chaos` and :func:`nemesis_chaos`)
is one shape — a config with a ``header()``, a run function, a result
with ``ok``, ``summary_lines()`` and ``rows()`` — which is all ``python
-m repro.tools.dbbench --chaos`` / ``--cluster --chaos`` / ``--cluster
--nemesis`` rely on.  A config holds only what callers set; the rest of
each schedule is the named constants beside it.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from ..health import ReadOnlyError
from ..sim import Environment
from ..storage import SATA_SSD, BlockDevice, PageCache, SimFS
from .checker import DurabilityOracle
from .plan import TransientEIO
from .sweep import DEFAULT_ENGINES, _system

__all__ = ["ChaosConfig", "ChaosResult", "ChaosReport",
           "chaos_engine", "chaos_sweep",
           "ClusterChaosConfig", "ClusterChaosResult", "cluster_chaos",
           "NemesisConfig", "NemesisResult", "nemesis_chaos"]

# ---------------------------------------------------------------------------
# shared: the stress store and the seeded, oracle-checked op mix
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


def _mixed_op(store: Any, oracle: DurabilityOracle, rng: random.Random,
              i: int, result: Any, keyspace: int, value_size: int,
              rejections: Tuple[type, ...]
              ) -> Optional[Tuple[bytes, bytes, Exception]]:
    """Op ``i`` of the seeded 50/50 read/update mix, scored by the oracle.

    Returns ``(key, value, error)`` when the store refused the write with
    one of ``rejections``; whether that is expected is the caller's call.
    """
    result.ops += 1
    key = _key(rng.randrange(keyspace))
    if rng.random() < 0.5:
        # YCSB-A style update; unique value so a rejected write can
        # be told apart from any acknowledged one.
        value = b"v%08d-" % i + b"x" * value_size
        oracle.begin(key, value)
        try:
            store.put_sync(key, value)
        except rejections as exc:
            result.writes_rejected += 1
            # Rejected before the WAL: guaranteed to never surface,
            # so it is not a legitimate pending value either.
            pending = oracle.pending.get(key)
            if pending is not None:
                pending.remove(value)
                if not pending:
                    del oracle.pending[key]
            return key, value, exc
        result.writes_acked += 1
        oracle.acked(key, value)
        return None
    result.reads += 1
    try:
        got = store.get_sync(key)
    except Exception as exc:  # noqa: BLE001 - reads must not fail
        result.violations.append(
            f"[read-failed] op {i} key={key!r}: {exc!r}")
        return None
    if got not in oracle.snapshot().allowed(key):
        result.violations.append(
            f"[stale-read] op {i} key={key!r}: got {got!r}")
    return None


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
DISK_FULL_AT = 0.5
DISK_FULL_UNTIL = 0.75
#: Extra allocatable bytes left when the disk "fills" — small enough
#: that the WAL exhausts it within the episode's write stream.
DISK_FULL_SLACK = 2048


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
class ChaosResult:
    """Outcome of one engine's chaos run."""

    engine: str
    ops: int = 0
    reads: int = 0
    writes_acked: int = 0
    writes_rejected: int = 0
    entered_read_only: bool = False
    recovered: bool = False
    eio_retries: int = 0
    bg_errors: int = 0
    resume_attempts: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the run upheld the availability contract."""
        return not self.violations and self.recovered


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
            status = "ok" if r.ok else (
                f"{len(r.violations)} VIOLATIONS" if r.violations
                else "NOT RECOVERED")
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


def _sleep(env: Environment, delay: float) -> Generator[Any, Any, None]:
    yield env.timeout(delay)


def chaos_engine(engine_key: str, config: ChaosConfig) -> ChaosResult:
    """Run one engine through the transient-fault chaos schedule."""
    spec = _system(engine_key)
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

    oracle = DurabilityOracle()
    rejected: List[Tuple[bytes, bytes]] = []
    rng = random.Random(config.seed)
    full_at = int(config.num_ops * DISK_FULL_AT)
    full_until = int(config.num_ops * DISK_FULL_UNTIL)

    for i in range(config.num_ops):
        if i == full_at:
            fs.set_capacity(fs.total_allocated_bytes() + DISK_FULL_SLACK)
        if i == full_until:
            fs.set_capacity(None)
            db.health.poke()
        if db.health.read_only:
            result.entered_read_only = True
        refused = _mixed_op(db, oracle, rng, i, result, CHAOS_KEYSPACE,
                            CHAOS_VALUE_SIZE, (ReadOnlyError,))
        if refused is not None:
            key, value, _error = refused
            result.entered_read_only = True
            rejected.append((key, value))

    # Settle: capacity is unbounded again, cleanup/auto-resume must
    # bring the store back to healthy on their own clock.
    if fs.capacity_bytes is not None:
        fs.set_capacity(None)
    db.health.poke()
    for _ in range(200):
        if not db.health.degraded:
            break
        env.run_until(env.process(_sleep(env, 0.01)))
    result.recovered = not db.health.degraded
    if not result.recovered:
        result.violations.append(
            f"[not-recovered] still degraded at end: {db.health.reason}")

    # Exact no-crash check: every ack readable, no rejected write visible.
    state = oracle.snapshot()
    if result.recovered:
        for key in sorted(state.durable):
            try:
                got = db.get_sync(key)
            except Exception as exc:  # noqa: BLE001
                result.violations.append(
                    f"[final-read-failed] key={key!r}: {exc!r}")
                continue
            if got not in state.allowed(key):
                result.violations.append(
                    f"[durability] key={key!r}: read {got!r}")
        for key, value in rejected:
            if db.get_sync(key) == value:
                result.violations.append(
                    f"[rejected-write-visible] key={key!r} value={value!r}")

        # Post-chaos durability: crash with everything unsynced lost,
        # reopen, and the acknowledged state must still be intact.
        device.fault_hook = None
        env.run_until(env.process(db.flush_all()))
        db.close_sync()
        fs.crash(survive_probability=0.0)
        db2 = spec.engine_cls.open_sync(env, fs, options.copy(), "db")
        for key in sorted(state.keys()):
            got = db2.get_sync(key)
            if got not in state.allowed(key):
                result.violations.append(
                    f"[post-crash-durability] key={key!r}: read {got!r}")
        for row_key, _row_value in db2.scan_sync(b"", CHAOS_KEYSPACE + 64):
            if row_key not in state.keys():
                result.violations.append(
                    f"[phantom-key] {row_key!r} after reopen")
        db2.close_sync()

    result.eio_retries = device.stats.num_eio_retries
    result.bg_errors = db.health.bg_error_count
    result.resume_attempts = db.health.resume_attempts
    if not result.entered_read_only:
        result.violations.append(
            "[no-degradation] disk-full episode never entered read-only "
            "(slack too large for this workload?)")
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
class ClusterRunResult:
    """What every cluster harness run reports, and how it is scored.

    Subclasses add their own counters plus ``benchmark`` (the row name),
    ``verdict`` (the PASS/FAIL line's name) and ``_report_lines()``.
    """

    engine: str
    shards: int = 0
    ops: int = 0
    reads: int = 0
    writes_acked: int = 0
    killed_shard: int = -1
    failovers: int = 0
    failed_shards: int = 0
    wal_tail_records_replayed: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def availability(self) -> float:
        """Fraction of requests that completed successfully."""
        served = self.reads + self.writes_acked
        return served / self.ops if self.ops else 0.0

    @property
    def ok(self) -> bool:
        """True when the run upheld its contract end to end."""
        return not self.violations

    def summary_lines(self) -> List[str]:
        """Human-readable summary (what ``dbbench --cluster`` prints)."""
        lines = self._report_lines()
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


def _stress_cluster(spec: Any, config: ClusterRunConfig,
                    heartbeat_interval: float, **knobs: Any) -> Any:
    """An N-shard store of stress-sized machines on a fresh clock."""
    # Imported here: repro.cluster sits above the fault layer, and this
    # keeps the module dependency graph acyclic for everything that
    # imports transient chaos without a cluster.
    from ..cluster import ClusterConfig, ClusterStore
    return ClusterStore(
        Environment(), spec.engine_cls, _stress_options(spec),
        ClusterConfig(num_shards=config.num_shards,
                      replicas_per_shard=config.replicas_per_shard,
                      partitioner=PARTITIONER,
                      replication_lag=config.replication_lag,
                      heartbeat_interval=heartbeat_interval,
                      scale=STRESS_SCALE,
                      page_cache_bytes=STRESS_PAGE_CACHE_BYTES, **knobs))


def _owned_writes(cluster: Any, shard_id: int, keyspace: int, count: int,
                  tag: bytes, value_size: int) -> List[Tuple[bytes, bytes]]:
    """``count`` tagged writes to keys ``shard_id`` owns.

    Aimed at a victim right before its primary is cut off or killed:
    acked with their records still in the replication backlog, the only
    copy a replica can recover them from is the dead node's WAL tail —
    so failover *must* replay it.
    """
    victim = cluster.shards[shard_id]
    keys = [k for k in map(_key, range(keyspace))
            if cluster.router.shard_for(k) is victim]
    return [(key, tag % j + b"x" * value_size)
            for j, key in enumerate(keys[:count])]


def _failover_verdict(cluster: Any, result: ClusterRunResult,
                      burst_acked: bool) -> Dict[str, Any]:
    """Fill the failover counters, check what a kill owes; returns the
    store's ``describe()`` status for the caller's own counters."""
    status = cluster.describe()
    result.failovers = status["failovers"]
    result.failed_shards = sum(
        1 for s in cluster.shards if s.state == "failed")
    result.wal_tail_records_replayed = status["wal_tail_records_replayed"]
    if burst_acked and result.wal_tail_records_replayed < 1:
        result.violations.append(
            "[no-tail-replay] pre-kill burst was acked but failover "
            "replayed no WAL tail records")
    if result.failed_shards:
        result.violations.append(
            f"[shard-lost] {result.failed_shards} shard(s) ended with no "
            f"primary")
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
    """Outcome of one cluster chaos run; the oracle check is *exact*.

    Every request is scored: reads must return an
    oracle-allowed value even while the killed shard fails over (they
    park and retry on the promoted replica), and every acked write must
    read back after the failover — the §6 clause "an acked write
    survives single-shard failover".
    """

    writes_rejected: int = 0
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

    Builds an N-shard :class:`~repro.cluster.ClusterStore` (one device +
    filesystem + engine per node), drives a seeded read/write mix
    against it, and at the configured point kills one shard's primary
    outright: engine death, power loss on its device, connections
    dropped.  Requests to the dead shard park until the
    :class:`~repro.cluster.FailoverController` promotes the freshest
    replica and replays the WAL tail; the oracle then requires every
    acked write to read back and every read to see an allowed value —
    zero violations, not "mostly available".
    """
    from ..cluster import ShardDownError

    config = config or ClusterChaosConfig()
    cluster = _stress_cluster(_system(config.engine), config,
                              CLUSTER_HEARTBEAT)
    result = ClusterChaosResult(engine=config.engine,
                                shards=config.num_shards)

    oracle = DurabilityOracle()
    rng = random.Random(config.seed)
    kill_index = int(config.num_ops * KILL_AT)
    killed = False
    burst_acked = False

    for i in range(config.num_ops):
        if not killed and i >= kill_index:
            # Kill the owner of a seeded key draw: guaranteed to be a
            # shard that actually serves traffic (under range
            # partitioning some shards may own none of the keyspace).
            shard_id = cluster.router.partitioner.shard_of(
                _key(rng.randrange(CLUSTER_KEYSPACE)))
            result.killed_shard = shard_id
            for key, value in _owned_writes(
                    cluster, shard_id, CLUSTER_KEYSPACE, KILL_BURST,
                    b"burst%04d-", CLUSTER_VALUE_SIZE):
                oracle.begin(key, value)
                cluster.put_sync(key, value)
                oracle.acked(key, value)
                result.writes_acked += 1
                result.ops += 1
                burst_acked = True
            cluster.shards[shard_id].kill_primary()
            killed = True

        refused = _mixed_op(cluster, oracle, rng, i, result,
                            CLUSTER_KEYSPACE, CLUSTER_VALUE_SIZE,
                            (ReadOnlyError, ShardDownError))
        if refused is not None:
            key, _value, exc = refused
            result.violations.append(
                f"[write-rejected] op {i} key={key!r}: {exc!r}")

    # Final exact check: every acked write must read back an allowed
    # value from the post-failover cluster, and no phantom keys appear.
    state = oracle.snapshot()
    for key in sorted(state.durable):
        got = cluster.get_sync(key)
        if got not in state.allowed(key):
            result.violations.append(
                f"[failover-durability] key={key!r}: read {got!r}")
    for row_key, _row_value in cluster.scan_sync(b"", CLUSTER_KEYSPACE + 64):
        if row_key not in state.keys():
            result.violations.append(f"[phantom-key] {row_key!r}")

    status = _failover_verdict(cluster, result,
                               burst_acked=killed and burst_acked)
    result.max_replication_lag = status["max_replication_lag"]
    if killed and result.failovers < 1:
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
# nemesis chaos: partitions + fencing + kill, checked against the history
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
    *different* shard's primary outright (the PR-6 scenario, now over
    the fabric); settle; read every written key back.  The whole run is
    recorded as a Jepsen-style history and checked by
    :func:`repro.faults.history.check_history`.
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

    failed_ops: int = 0
    partitioned_shard: int = -1
    partition_promotions: int = 0
    fenced_writes: int = 0
    fenced_ships: int = 0
    history_ops: int = 0
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
            (f"history: {self.history_ops} ops checked, "
             f"{len(self.violations)} violations"),
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
    from ..cluster import NetConfig, ShardDownError
    from .history import HistoryRecorder, check_history

    config = config or NemesisConfig()
    net = NetConfig(delay=config.net_delay, jitter=NET_JITTER,
                    loss=config.net_loss, duplicate=NET_DUPLICATE,
                    reorder=NET_REORDER, seed=config.seed * 7919 + 13)
    cluster = _stress_cluster(_system(config.engine), config,
                              NEMESIS_HEARTBEAT, grace_misses=GRACE_MISSES,
                              net=net)
    env = cluster.env
    result = NemesisResult(engine=config.engine, shards=config.num_shards)
    recorder = HistoryRecorder(env)
    written: set = set()

    def perform(client_id: int, key: bytes, value: Optional[bytes] = None):
        """One recorded client op: a write of ``value``, else a read."""
        is_read = value is None
        op = recorder.invoke(client_id, "r" if is_read else "w", key, value)
        result.ops += 1
        got = None
        try:
            if is_read:
                got = yield from cluster.get(key)
            else:
                yield from cluster.put(key, value)
        except (ReadOnlyError, ShardDownError) as exc:
            recorder.fail(op, repr(exc))
            result.failed_ops += 1
            return
        recorder.ok(op, got)
        if is_read:
            result.reads += 1
        else:
            written.add(key)
            result.writes_acked += 1

    def client(client_id: int):
        rng = random.Random(config.seed * 1009 + client_id)
        for j in range(config.ops_per_client):
            yield env.timeout(THINK_TIME * (0.5 + rng.random()))
            key = _key(rng.randrange(NEMESIS_KEYSPACE))
            if rng.random() < 0.5:
                value = (b"c%02d-%05d-" % (client_id, j)
                         + b"x" * NEMESIS_VALUE_SIZE)
                yield from perform(client_id, key, value)
            else:
                yield from perform(client_id, key)

    def nemesis():
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
                cluster, pshard, NEMESIS_KEYSPACE, 4, b"inflight%02d-",
                NEMESIS_VALUE_SIZE)):
            env.process(perform(100 + idx, key, value),
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
        kshard = candidates[rng.randrange(len(candidates))]
        result.killed_shard = kshard
        for idx, (key, value) in enumerate(_owned_writes(
                cluster, kshard, NEMESIS_KEYSPACE, NEMESIS_KILL_BURST,
                b"killburst%02d-", NEMESIS_VALUE_SIZE)):
            yield from perform(200 + idx, key, value)
        cluster.shards[kshard].kill_primary()

    def drive():
        procs = [env.process(client(c), name=f"nemesis-client{c}")
                 for c in range(NEMESIS_CLIENTS)]
        procs.append(env.process(nemesis(), name="nemesis"))
        yield env.all_of(procs)
        yield env.timeout(SETTLE)
        # Final read-back: every written key is read once more so lost
        # acked writes cannot hide from the history checker.
        for key in sorted(written):
            yield from perform(-1, key)

    env.run_until(env.process(drive(), name="nemesis-drive"))

    result.violations.extend(check_history(recorder.ops))
    status = _failover_verdict(cluster, result, burst_acked=True)
    result.partition_promotions = status["partition_promotions"]
    result.fenced_writes = status["fenced_writes"]
    result.fenced_ships = status["fenced_ships"]
    result.net = status["net"]
    result.history_ops = len(recorder.ops)
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
    if result.failed_ops:
        result.violations.append(
            f"[unavailable] {result.failed_ops} client ops failed — "
            f"park-don't-fail was violated")
    cluster.close_sync()
    return result

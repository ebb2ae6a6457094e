"""Transient-fault chaos runs: the store must stay *available*.

The crash sweep (:mod:`repro.faults.sweep`) proves the durability
contract after power loss; this module proves the availability contract
during non-crash runtime faults — the territory of
:mod:`repro.health`:

* **transient EIO** at a configurable per-request rate, absorbed by the
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

Reachable via ``python -m repro.tools.dbbench --chaos``.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from ..health import ReadOnlyError
from ..obs import Tracer
from ..sim import Environment
from ..storage import SATA_SSD, BlockDevice, PageCache, SimFS
from .checker import DurabilityOracle
from .plan import TransientEIO
from .sweep import DEFAULT_ENGINES, _system

__all__ = ["ChaosConfig", "ChaosResult", "ChaosReport",
           "chaos_engine", "chaos_sweep",
           "ClusterChaosConfig", "ClusterChaosResult", "cluster_chaos",
           "NemesisConfig", "NemesisResult", "nemesis_chaos"]


@dataclass
class ChaosConfig:
    """Sizing and fault intensity of a chaos run (CI-smoke defaults)."""

    engines: Tuple[str, ...] = DEFAULT_ENGINES
    num_ops: int = 400
    keyspace: int = 64
    value_size: int = 64
    scale: int = 1024
    seed: int = 11
    #: Per-request probability a device attempt fails with EIO.
    fault_rate: float = 0.05
    #: Cap on injected EIO faults (keeps runs bounded).
    max_eio_faults: int = 200
    #: Fraction of the run at which the disk fills (0 disables).
    disk_full_at: float = 0.5
    #: Fraction of the run at which capacity is restored.
    disk_full_until: float = 0.75
    #: Extra allocatable bytes left when the disk "fills" — small enough
    #: that the WAL exhausts it within the episode's write stream.
    disk_full_slack: int = 2048


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
    time_in_degraded: float = 0.0
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


def _sleep(env: Environment, delay: float) -> Generator[Any, Any, None]:
    yield env.timeout(delay)


def chaos_engine(engine_key: str, config: ChaosConfig) -> ChaosResult:
    """Run one engine through the transient-fault chaos schedule."""
    spec = _system(engine_key)
    tracer = Tracer()
    env = Environment(tracer=tracer)
    device = BlockDevice(env, SATA_SSD.scaled(config.scale))
    # Deliberately tiny caches and memtable: the workload must actually
    # flush, compact and read from the device, so the EIO hook exercises
    # the retry/absorption machinery and the disk-full episode lands in
    # background paths too, not only the WAL.
    fs = SimFS(env, device, PageCache(16 << 10))
    options = spec.options(config.scale).copy(
        wal_sync=True, memtable_size=4096, block_cache_bytes=4096)
    result = ChaosResult(engine=engine_key)

    db = spec.engine_cls.open_sync(env, fs, options, "db")
    # Arm EIO injection only after open: recovery-path availability is
    # the crash sweep's subject, steady-state availability is ours.
    eio = TransientEIO(
        config.fault_rate,
        random.Random(config.seed ^ zlib.crc32(engine_key.encode())),
        max_failures=config.max_eio_faults)
    device.fault_hook = eio

    oracle = DurabilityOracle()
    rejected: List[Tuple[bytes, bytes]] = []
    rng = random.Random(config.seed)
    full_at = (int(config.num_ops * config.disk_full_at)
               if config.disk_full_at else None)
    full_until = int(config.num_ops * config.disk_full_until)

    for i in range(config.num_ops):
        if full_at is not None and i == full_at:
            fs.set_capacity(fs.total_allocated_bytes()
                            + config.disk_full_slack)
        if full_at is not None and i == full_until:
            fs.set_capacity(None)
            db.health.poke()
        if db.health.read_only:
            result.entered_read_only = True

        result.ops += 1
        key = b"user%06d" % rng.randrange(config.keyspace)
        if rng.random() < 0.5:
            # YCSB-A style update; unique value so a rejected write can
            # be told apart from any acknowledged one.
            value = b"v%08d-" % i + b"x" * config.value_size
            oracle.begin(key, value)
            try:
                db.put_sync(key, value)
            except ReadOnlyError:
                result.entered_read_only = True
                result.writes_rejected += 1
                rejected.append((key, value))
                # Rejected before the WAL: guaranteed to never surface,
                # so it is not a legitimate pending value either.
                pending = oracle.pending.get(key)
                if pending is not None:
                    pending.remove(value)
                    if not pending:
                        del oracle.pending[key]
            else:
                result.writes_acked += 1
                oracle.acked(key, value)
        else:
            result.reads += 1
            try:
                got = db.get_sync(key)
            except Exception as exc:  # noqa: BLE001 - reads must not fail
                result.violations.append(
                    f"[read-failed] op {i} key={key!r}: {exc!r}")
                continue
            allowed = oracle.snapshot().allowed(key)
            if got not in allowed:
                result.violations.append(
                    f"[stale-read] op {i} key={key!r}: got {got!r}")

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
        for row_key, _row_value in db2.scan_sync(b"", config.keyspace + 64):
            if row_key not in state.keys():
                result.violations.append(
                    f"[phantom-key] {row_key!r} after reopen")
        db2.close_sync()

    result.eio_retries = device.stats.num_eio_retries
    result.bg_errors = db.health.bg_error_count
    result.resume_attempts = db.health.resume_attempts
    result.time_in_degraded = db.health.current_degraded_time()
    if full_at is not None and not result.entered_read_only:
        result.violations.append(
            "[no-degradation] disk-full episode never entered read-only "
            "(slack too large for this workload?)")
    return result


def chaos_sweep(config: Optional[ChaosConfig] = None) -> ChaosReport:
    """Run :func:`chaos_engine` for every engine in the config."""
    config = config or ChaosConfig()
    return ChaosReport([chaos_engine(key, config) for key in config.engines])


# ---------------------------------------------------------------------------
# cluster chaos: kill a whole shard mid-run
# ---------------------------------------------------------------------------


@dataclass
class ClusterChaosConfig:
    """Sizing of a cluster kill-whole-shard chaos run (CI defaults)."""

    engine: str = "bolt"
    num_shards: int = 4
    replicas_per_shard: int = 1
    partitioner: str = "hash"
    num_ops: int = 600
    keyspace: int = 96
    value_size: int = 48
    scale: int = 1024
    seed: int = 23
    replication_lag: float = 0.002
    heartbeat_interval: float = 0.005
    #: Fraction of the run at which one shard's primary node is killed
    #: (engine death + power loss on its device + connections dropped).
    kill_at: float = 0.5
    #: Which shard dies; None draws one from the run seed.
    kill_shard: Optional[int] = None
    #: Acked writes aimed at the victim shard right before the kill —
    #: their records are still in the replication backlog when the
    #: primary dies, so failover *must* recover them from the WAL tail.
    kill_burst: int = 8
    #: Asserted ceiling on observed ship→apply replication lag.
    max_lag_bound: float = 0.25


@dataclass
class ClusterChaosResult:
    """Outcome of one cluster chaos run; the oracle check is *exact*.

    Every request is scored: reads must return an
    oracle-allowed value even while the killed shard fails over (they
    park and retry on the promoted replica), and every acked write must
    read back after the failover — the §6 clause "an acked write
    survives single-shard failover".
    """

    engine: str
    shards: int = 0
    ops: int = 0
    reads: int = 0
    writes_acked: int = 0
    writes_rejected: int = 0
    killed_shard: int = -1
    failovers: int = 0
    failed_shards: int = 0
    wal_tail_records_replayed: int = 0
    max_replication_lag: float = 0.0
    violations: List[str] = field(default_factory=list)

    @property
    def availability(self) -> float:
        """Fraction of requests that completed successfully."""
        served = self.reads + self.writes_acked
        return served / self.ops if self.ops else 0.0

    @property
    def ok(self) -> bool:
        """True when the run upheld the §6 contract end to end."""
        return not self.violations

    def summary_lines(self) -> List[str]:
        """Human-readable summary (what ``dbbench --cluster`` prints)."""
        lines = [
            (f"cluster[{self.engine} x{self.shards}]: {self.ops:5d} ops "
             f"({self.reads} reads, {self.writes_acked} acked, "
             f"{self.writes_rejected} rejected), "
             f"killed shard {self.killed_shard}, "
             f"{self.failovers} failovers, "
             f"{self.wal_tail_records_replayed} WAL tail records replayed, "
             f"max replication lag {self.max_replication_lag * 1000:.3f} ms, "
             f"availability {self.availability:.6f}")]
        for violation in self.violations[:10]:
            lines.append(f"    {violation}")
        lines.append("cluster chaos: " + ("PASS" if self.ok else "FAIL"))
        return lines


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
    # Imported here: repro.cluster sits above the fault layer, and this
    # keeps the module dependency graph acyclic for everything that
    # imports transient chaos without a cluster.
    from ..cluster import ClusterConfig, ClusterStore, ShardDownError

    config = config or ClusterChaosConfig()
    spec = _system(config.engine)
    env = Environment()
    options = spec.options(config.scale).copy(
        wal_sync=True, memtable_size=4096, block_cache_bytes=4096)
    cluster = ClusterStore(
        env, spec.engine_cls, options,
        ClusterConfig(num_shards=config.num_shards,
                      replicas_per_shard=config.replicas_per_shard,
                      partitioner=config.partitioner,
                      replication_lag=config.replication_lag,
                      heartbeat_interval=config.heartbeat_interval,
                      scale=config.scale,
                      page_cache_bytes=16 << 10))
    result = ClusterChaosResult(engine=config.engine,
                                shards=config.num_shards)

    oracle = DurabilityOracle()
    rng = random.Random(config.seed)
    kill_index = int(config.num_ops * config.kill_at)
    killed = False
    burst_written = False

    for i in range(config.num_ops):
        if not killed and i >= kill_index:
            if config.kill_shard is not None:
                shard_id = config.kill_shard
            else:
                # Kill the owner of a seeded key draw: guaranteed to be
                # a shard that actually serves traffic (under range
                # partitioning some shards may own none of the
                # keyspace).
                shard_id = cluster.router.partitioner.shard_of(
                    b"user%06d" % rng.randrange(config.keyspace))
            result.killed_shard = shard_id
            victim = cluster.shards[shard_id]
            # Acked burst straight into the victim, then kill with the
            # records still in the replication backlog: the only copy a
            # replica can recover them from is the dead node's WAL tail.
            burst_keys = [k for k in
                          (b"user%06d" % n for n in range(config.keyspace))
                          if cluster.router.shard_for(k) is victim]
            burst_written = bool(burst_keys[:config.kill_burst])
            for j, key in enumerate(burst_keys[:config.kill_burst]):
                value = b"burst%04d-" % j + b"x" * config.value_size
                oracle.begin(key, value)
                cluster.put_sync(key, value)
                oracle.acked(key, value)
                result.writes_acked += 1
                result.ops += 1
            victim.kill_primary()
            killed = True

        result.ops += 1
        key = b"user%06d" % rng.randrange(config.keyspace)
        if rng.random() < 0.5:
            value = b"v%08d-" % i + b"x" * config.value_size
            oracle.begin(key, value)
            try:
                cluster.put_sync(key, value)
            except (ReadOnlyError, ShardDownError) as exc:
                result.writes_rejected += 1
                result.violations.append(
                    f"[write-rejected] op {i} key={key!r}: {exc!r}")
                pending = oracle.pending.get(key)
                if pending is not None:
                    pending.remove(value)
                    if not pending:
                        del oracle.pending[key]
            else:
                result.writes_acked += 1
                oracle.acked(key, value)
        else:
            result.reads += 1
            try:
                got = cluster.get_sync(key)
            except Exception as exc:  # noqa: BLE001 - reads must not fail
                result.violations.append(
                    f"[read-failed] op {i} key={key!r}: {exc!r}")
                continue
            allowed = oracle.snapshot().allowed(key)
            if got not in allowed:
                result.violations.append(
                    f"[stale-read] op {i} key={key!r}: got {got!r}")

    # Final exact check: every acked write must read back an allowed
    # value from the post-failover cluster, and no phantom keys appear.
    state = oracle.snapshot()
    for key in sorted(state.durable):
        got = cluster.get_sync(key)
        if got not in state.allowed(key):
            result.violations.append(
                f"[failover-durability] key={key!r}: read {got!r}")
    for row_key, _row_value in cluster.scan_sync(b"", config.keyspace + 64):
        if row_key not in state.keys():
            result.violations.append(f"[phantom-key] {row_key!r}")

    describe = cluster.describe()
    result.failovers = describe["failovers"]
    result.failed_shards = sum(
        1 for s in cluster.shards if s.state == "failed")
    result.wal_tail_records_replayed = describe["wal_tail_records_replayed"]
    result.max_replication_lag = describe["max_replication_lag"]
    if killed and result.failovers < 1:
        result.violations.append(
            "[no-failover] primary killed but no replica was promoted")
    if (killed and burst_written
            and result.wal_tail_records_replayed < 1):
        result.violations.append(
            "[no-tail-replay] pre-kill burst was acked but failover "
            "replayed no WAL tail records")
    if result.failed_shards:
        result.violations.append(
            f"[shard-lost] {result.failed_shards} shard(s) ended with no "
            f"primary")
    if result.max_replication_lag > config.max_lag_bound:
        result.violations.append(
            f"[lag-bound] observed replication lag "
            f"{result.max_replication_lag:.6f}s exceeds configured bound "
            f"{config.max_lag_bound:.6f}s")
    cluster.close_sync()
    return result


# ---------------------------------------------------------------------------
# nemesis chaos: partitions + fencing + kill, checked against the history
# ---------------------------------------------------------------------------


@dataclass
class NemesisConfig:
    """One seeded nemesis schedule over a fabric-backed cluster.

    The schedule is: run concurrent seeded clients; at ``partition_at``
    cut the victim primary's replication links (in-flight writes start
    backing off), shortly after isolate it completely; the failure
    detector misses its grace window and promotes a replica **with an
    epoch bump**, fencing the still-alive ex-primary; heal; later kill a
    *different* shard's primary outright (the PR-6 scenario, now over
    the fabric); settle; read every written key back.  The whole run is
    recorded as a Jepsen-style history and checked by
    :func:`repro.faults.history.check_history`.
    """

    engine: str = "bolt"
    num_shards: int = 3
    replicas_per_shard: int = 1
    partitioner: str = "hash"
    num_clients: int = 4
    ops_per_client: int = 150
    keyspace: int = 64
    value_size: int = 32
    scale: int = 1024
    seed: int = 41
    heartbeat_interval: float = 0.004
    grace_misses: int = 3
    replication_lag: float = 0.002
    #: Fabric fault intensities (see :class:`repro.cluster.NetConfig`).
    net_delay: float = 0.0003
    net_jitter: float = 0.2
    net_loss: float = 0.02
    net_duplicate: float = 0.02
    net_reorder: float = 0.0005
    #: Virtual time the partition begins.
    partition_at: float = 0.05
    #: Replication links are cut this long before full isolation: the
    #: realistic staggered onset, and what guarantees in-flight writes
    #: are mid-ship (backing off) when the cut completes — they will be
    #: fenced at promotion no matter the device's micro-timing.
    partition_onset: float = 0.004
    partition_duration: float = 0.2
    #: Victim shard; None draws the owner of a seeded key.
    partition_shard: Optional[int] = None
    #: Virtual time a different shard's primary is killed outright.
    kill_at: float = 0.4
    kill_shard: Optional[int] = None
    #: Acked writes aimed at the kill victim right before the kill, so
    #: WAL-tail salvage is provably exercised (as in cluster_chaos).
    kill_burst: int = 4
    #: Mean think time between one client's operations.
    think_time: float = 0.0015
    #: Quiet period after the schedule before the final read-back.
    settle: float = 0.1


@dataclass
class NemesisResult:
    """Outcome of one nemesis run; checked against the history."""

    engine: str
    shards: int = 0
    ops: int = 0
    reads: int = 0
    writes_acked: int = 0
    failed_ops: int = 0
    partitioned_shard: int = -1
    killed_shard: int = -1
    failovers: int = 0
    partition_promotions: int = 0
    fenced_writes: int = 0
    fenced_ships: int = 0
    wal_tail_records_replayed: int = 0
    failed_shards: int = 0
    history_ops: int = 0
    net: Dict[str, int] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)

    @property
    def availability(self) -> float:
        """Fraction of client requests that completed successfully."""
        served = self.reads + self.writes_acked
        return served / self.ops if self.ops else 0.0

    @property
    def ok(self) -> bool:
        """True when fencing engaged and the history checker is clean."""
        return not self.violations

    def summary_lines(self) -> List[str]:
        """Human-readable summary (what ``dbbench --nemesis`` prints)."""
        lines = [
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
        for violation in self.violations[:10]:
            lines.append(f"    {violation}")
        lines.append("nemesis: " + ("PASS" if self.ok else "FAIL"))
        return lines


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
    # Imported here: repro.cluster sits above the fault layer (see
    # cluster_chaos for the same pattern).
    from ..cluster import (ClusterConfig, ClusterStore, NetConfig,
                           ShardDownError)
    from .history import HistoryRecorder, check_history

    config = config or NemesisConfig()
    spec = _system(config.engine)
    env = Environment()
    options = spec.options(config.scale).copy(
        wal_sync=True, memtable_size=4096, block_cache_bytes=4096)
    net = NetConfig(delay=config.net_delay, jitter=config.net_jitter,
                    loss=config.net_loss, duplicate=config.net_duplicate,
                    reorder=config.net_reorder,
                    seed=config.seed * 7919 + 13)
    cluster = ClusterStore(
        env, spec.engine_cls, options,
        ClusterConfig(num_shards=config.num_shards,
                      replicas_per_shard=config.replicas_per_shard,
                      partitioner=config.partitioner,
                      replication_lag=config.replication_lag,
                      heartbeat_interval=config.heartbeat_interval,
                      grace_misses=config.grace_misses,
                      scale=config.scale,
                      net=net,
                      page_cache_bytes=16 << 10))
    result = NemesisResult(engine=config.engine, shards=config.num_shards)
    recorder = HistoryRecorder(env)
    written: set = set()

    def do_write(client_id: int, key: bytes, value: bytes):
        op = recorder.invoke(client_id, "w", key, value)
        result.ops += 1
        try:
            yield from cluster.put(key, value)
        except (ReadOnlyError, ShardDownError) as exc:
            recorder.fail(op, repr(exc))
            result.failed_ops += 1
            return False
        recorder.ok(op)
        written.add(key)
        result.writes_acked += 1
        return True

    def do_read(client_id: int, key: bytes):
        op = recorder.invoke(client_id, "r", key)
        result.ops += 1
        try:
            got = yield from cluster.get(key)
        except (ReadOnlyError, ShardDownError) as exc:
            recorder.fail(op, repr(exc))
            result.failed_ops += 1
            return None
        recorder.ok(op, got)
        result.reads += 1
        return got

    def client(client_id: int):
        rng = random.Random(config.seed * 1009 + client_id)
        for j in range(config.ops_per_client):
            yield env.timeout(config.think_time * (0.5 + rng.random()))
            key = b"user%06d" % rng.randrange(config.keyspace)
            if rng.random() < 0.5:
                value = (b"c%02d-%05d-" % (client_id, j)
                         + b"x" * config.value_size)
                yield from do_write(client_id, key, value)
            else:
                yield from do_read(client_id, key)

    def shard_keys(shard_id: int, count: int) -> List[bytes]:
        victim = cluster.shards[shard_id]
        keys = [k for k in (b"user%06d" % n for n in range(config.keyspace))
                if cluster.router.shard_for(k) is victim]
        return keys[:count]

    def nemesis():
        rng = random.Random(config.seed * 31 + 7)
        yield env.timeout(config.partition_at)
        if config.partition_shard is not None:
            pshard = config.partition_shard
        else:
            pshard = cluster.router.partitioner.shard_of(
                b"user%06d" % rng.randrange(config.keyspace))
        result.partitioned_shard = pshard
        victim = cluster.shards[pshard].primary
        # Stage 1: the partition onset cuts the replication edges
        # first.  Writes already dispatched to the victim commit
        # locally, then their ship is refused and enters backoff —
        # guaranteed to still be in flight when promotion fences them.
        cluster.fabric.partition(
            [victim.node_id],
            [r.node_id for r in cluster.shards[pshard].replicas])
        for idx, key in enumerate(shard_keys(pshard, 4)):
            value = b"inflight%02d-" % idx + b"x" * config.value_size
            env.process(do_write(100 + idx, key, value),
                        name=f"nemesis-inflight{idx}")
        yield env.timeout(config.partition_onset)
        # Stage 2: full isolation — control plane included.  The
        # failure detector now misses its grace window and promotes.
        cluster.partition_primary(pshard)
        yield env.timeout(config.partition_duration)
        cluster.heal_network()
        # Phase 2: kill a different shard's primary outright.
        yield env.timeout(max(0.0, config.kill_at - env.now))
        if config.kill_shard is not None:
            kshard = config.kill_shard
        else:
            candidates = [s for s in range(config.num_shards) if s != pshard]
            kshard = candidates[rng.randrange(len(candidates))]
        result.killed_shard = kshard
        for idx, key in enumerate(shard_keys(kshard, config.kill_burst)):
            value = b"killburst%02d-" % idx + b"x" * config.value_size
            yield from do_write(200 + idx, key, value)
        cluster.shards[kshard].kill_primary()

    def drive():
        procs = [env.process(client(c), name=f"nemesis-client{c}")
                 for c in range(config.num_clients)]
        procs.append(env.process(nemesis(), name="nemesis"))
        yield env.all_of(procs)
        yield env.timeout(config.settle)
        # Final read-back: every written key is read once more so lost
        # acked writes cannot hide from the history checker.
        for key in sorted(written):
            yield from do_read(-1, key)

    env.run_until(env.process(drive(), name="nemesis-drive"))

    describe = cluster.describe()
    result.failovers = describe["failovers"]
    result.partition_promotions = describe["partition_promotions"]
    result.fenced_writes = describe["fenced_writes"]
    result.fenced_ships = describe["fenced_ships"]
    result.wal_tail_records_replayed = describe["wal_tail_records_replayed"]
    result.failed_shards = sum(
        1 for s in cluster.shards if s.state == "failed")
    result.net = describe["net"]
    result.history_ops = len(recorder.ops)

    result.violations.extend(check_history(recorder.ops))
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
    if result.wal_tail_records_replayed < 1:
        result.violations.append(
            "[no-tail-replay] kill burst was acked but failover replayed "
            "no WAL tail records")
    if result.failed_shards:
        result.violations.append(
            f"[shard-lost] {result.failed_shards} shard(s) ended with no "
            f"primary")
    if result.failed_ops:
        result.violations.append(
            f"[unavailable] {result.failed_ops} client ops failed — "
            f"park-don't-fail was violated")
    cluster.close_sync()
    return result

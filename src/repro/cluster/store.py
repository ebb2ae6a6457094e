"""The sharded multi-engine store: nodes, shards, and the router facade.

A :class:`ClusterStore` runs N shards on one simulated clock.  Each
shard is a primary engine plus R replicas; **every node is a complete
machine** — its own :class:`~repro.storage.BlockDevice`, its own
:class:`~repro.storage.SimFS` (so its own page cache and crash surface),
and its own engine with WAL + MANIFEST.  The router hashes or
range-maps keys onto shards and proxies the engine operation surface
(``get``/``put``/``delete``/``scan``), so :class:`repro.svc.Server`
fronts a cluster exactly as it fronts one engine and the open-loop
loadgen drives it unchanged.

Consistency contract (docs/FAULT_MODEL.md §6): linearizable per key —
every operation on a key executes on that key's shard primary, acked
writes are on the primary's synced WAL before the ack, and failover
replays that WAL tail before readmitting traffic.  Scans are
snapshot-consistent *per shard* only; the merged result is not a
cross-shard atomic snapshot.

Requests that land on a shard whose primary just died are not failed:
they park on the shard's ready-condition, and the in-flight ones racing
the kill are abandoned and retried after failover.  Availability is
preserved; the failover window is charged to tail latency, exactly how
the open-loop loadgen wants it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..lsm import LSMEngine, Options
from ..sim import Condition, Environment, Event
from ..storage import (BlockDevice, DeviceError, DeviceProfile, PageCache,
                       SATA_SSD, SimFS)
from .failover import FailoverController
from .net import (CONTROL_PLANE, FencedError, NetConfig, NetworkFabric,
                  PERFECT_WIRE)
from .partition import make_partitioner
from .replication import ReplicationLink, ShardReplication

__all__ = ["ClusterConfig", "ClusterNode", "Shard", "ShardRouter",
           "ClusterStore", "ShardDownError",
           "SHARD_ACTIVE", "SHARD_FAILING_OVER", "SHARD_FAILED"]

#: Shard lifecycle states.
SHARD_ACTIVE = "active"
SHARD_FAILING_OVER = "failing_over"
SHARD_FAILED = "failed"


class ShardDownError(DeviceError):
    """A shard has no live primary and no replica left to promote."""


@dataclass
class ClusterConfig:
    """Sizing and behavior knobs for a :class:`ClusterStore`."""

    num_shards: int = 4
    replicas_per_shard: int = 1
    partitioner: str = "hash"
    #: Ship→apply delivery delay per record, seconds (the fabric's own
    #: delay comes on top).
    replication_lag: float = 0.002
    #: Records in flight per link before ship() backpressures.
    max_backlog: int = 64
    #: Primary liveness poll interval of the failover controller.
    heartbeat_interval: float = 0.005
    #: Per-node page cache budget, bytes.
    page_cache_bytes: int = 4 << 20
    #: None -> the scaled SATA SSD profile at ``scale``.
    device: Optional[DeviceProfile] = None
    scale: int = 1024
    #: Configuration of the :class:`~repro.cluster.net.NetworkFabric`
    #: every inter-node message routes through; None -> the fault-free
    #: :data:`~repro.cluster.net.PERFECT_WIRE`.
    net: Optional[NetConfig] = None
    #: Consecutive heartbeat probe misses tolerated before failover
    #: (an isolated lost probe is not a dead primary).
    grace_misses: int = 3
    #: Probe round trips slower than this count as a miss (gray
    #: failure).  None -> the heartbeat interval.
    probe_timeout: Optional[float] = None
    #: Retry/backoff envelope for ships refused by a partition.
    retry_initial: float = 0.001
    retry_cap: float = 0.05

    def resolved_device(self) -> DeviceProfile:
        """The device profile every node runs on."""
        if self.device is not None:
            return self.device
        return SATA_SSD.scaled(self.scale)


class ClusterNode:
    """One machine: device + filesystem + engine, with a role."""

    def __init__(self, node_id: str, env: Environment, device: BlockDevice,
                 fs: SimFS, db: LSMEngine, role: str):
        self.node_id = node_id
        self.env = env
        self.device = device
        self.fs = fs
        self.db = db
        self.role = role
        #: Highest *primary* sequence number this node has applied
        #: (replica bookkeeping; rebased at failover).
        self.applied_primary_seq = 0
        #: Shard epoch this node last served under.
        self.epoch = 1
        #: True once fencing decommissioned this node (stale ex-primary
        #: that was partitioned, not dead, when a newer epoch began).
        self.fenced = False

    @property
    def alive(self) -> bool:
        """True while the node's engine has not been killed or closed."""
        return not self.db._closed


class Shard:
    """One key range's replica group: a primary plus R replicas."""

    def __init__(self, env: Environment, shard_id: int, primary: ClusterNode,
                 replicas: List[ClusterNode], config: ClusterConfig,
                 fabric: NetworkFabric):
        self.env = env
        self.shard_id = shard_id
        self.primary = primary
        self.replicas = list(replicas)
        self.config = config
        #: All shard traffic is routed (and fault-injected) through it.
        self.fabric = fabric
        self.state = SHARD_ACTIVE
        #: Fencing epoch: bumped at every promotion.  Replication links
        #: carry the epoch they were wired under; a stale link's sends
        #: and late deliveries are rejected with FencedError.
        self.epoch = 1
        #: Client-visible late writes rejected by fencing (op count).
        self.fenced_writes = 0
        #: Stale-epoch shipped records rejected at the replica (op count).
        self.fenced_ships = 0
        #: Ex-primaries decommissioned by fencing (for close()).
        self.fenced_nodes: List[ClusterNode] = []
        #: Notified whenever the shard becomes ACTIVE or FAILED; parked
        #: requests re-check and proceed or fail typed.
        self.ready = Condition(env, name=f"shard{shard_id}-ready")
        #: Triggered the instant the current primary dies (the sim's
        #: "connection reset"); re-armed for each new primary.
        self.primary_down: Event = env.event()
        self.failovers = 0
        self.partition_promotions = 0
        self.wal_tail_records_replayed = 0
        self.last_failover_seconds = 0.0
        self._wire_replication()

    # -- replication wiring ---------------------------------------------

    def _wire_replication(self) -> None:
        """(Re)install the primary's fan-out shipper over its replicas.

        Links are stamped with the current epoch: after the next
        promotion bumps it, anything still flowing over them fences.
        """
        if self.replicas:
            links = [ReplicationLink(self.env, self.shard_id, replica,
                                     self.fabric,
                                     lag=self.config.replication_lag,
                                     max_backlog=self.config.max_backlog,
                                     src=self.primary.node_id,
                                     shard=self, epoch=self.epoch,
                                     retry_initial=self.config.retry_initial,
                                     retry_cap=self.config.retry_cap)
                     for replica in self.replicas]
            self.primary.db.wal_shipper = ShardReplication(links)
        else:
            self.primary.db.wal_shipper = None
        self.primary.epoch = self.epoch

    def note_fenced_write(self, num_ops: int) -> None:
        """Count client-visible writes rejected by fencing."""
        self.fenced_writes += num_ops

    def note_fenced_ship(self, num_ops: int) -> None:
        """Count stale-epoch shipped ops rejected at a replica."""
        self.fenced_ships += num_ops

    @property
    def replication(self) -> Optional[ShardReplication]:
        """The primary's current fan-out shipper (None when R=0)."""
        return self.primary.db.wal_shipper

    # -- liveness --------------------------------------------------------

    @property
    def primary_alive(self) -> bool:
        """True while the serving primary is up and not marked down."""
        return (self.state == SHARD_ACTIVE and self.primary.alive
                and not self.primary_down.triggered)

    @property
    def primary_reachable(self) -> bool:
        """True while clients (control plane) can reach the primary.

        A partition between the control plane and the primary parks new
        requests instead of letting them execute on a primary whose
        answers could not have crossed the cut.
        """
        return self.fabric.reachable(CONTROL_PLANE, self.primary.node_id)

    def mark_primary_down(self) -> None:
        """Drop connections to the primary (kill/fault injection path).

        Severs the replication links too: shipped-but-undelivered
        records were in flight on the wire and are lost with the
        connections — failover's WAL-tail replay is what brings them
        back.
        """
        if not self.primary_down.triggered:
            self.primary_down.succeed("down")
        if self.replication is not None:
            self.replication.sever()

    def kill_primary(self, survive_probability: float = 0.0,
                     rng: Any = None) -> None:
        """Kill the whole primary node: process death + power loss.

        The engine dies mid-flight (``kill()``), the node's filesystem
        takes a crash (synced WAL bytes survive; ``survive_probability``
        governs unsynced page-cache pages), and in-flight connections
        drop.  The failover controller notices on its next heartbeat.
        """
        self.primary.db.kill()
        self.primary.fs.crash(survive_probability=survive_probability,
                              rng=rng)
        self.mark_primary_down()

    # -- operations ------------------------------------------------------

    def perform(self, make_op: Callable[[ClusterNode], Any]
                ) -> Generator[Event, Any, Any]:
        """Run ``make_op(primary)`` with failover-aware retry.

        The operation races the primary-down event: if the primary dies
        mid-operation the in-flight coroutine is abandoned (its engine
        is dead; any exception it later raises is discarded with it) and
        the request parks on ``ready`` until failover promotes a new
        primary, then retries there.  A shard with nobody left to
        promote fails the request with :class:`ShardDownError`.

        The network adds three rules.  An unreachable primary parks the
        request too (a heal notifies ``ready``, as a promotion does).
        An operation that completes under a *different* epoch than it
        was dispatched under is discarded and retried — its response
        could not have crossed the cut before the promotion, so
        returning it could leak a fenced-away value.  And a write
        rejected with :class:`~repro.cluster.net.FencedError` is not a
        client-visible failure: it was never acked, so it retries
        freshly on the new primary (park-don't-fail).
        """
        while True:
            while (self.state == SHARD_FAILING_OVER
                   or (self.state == SHARD_ACTIVE
                       and (not self.primary_alive
                            or not self.primary_reachable))):
                yield self.ready.wait()
            if self.state == SHARD_FAILED:
                raise ShardDownError(
                    f"shard {self.shard_id} has no live primary")
            node = self.primary
            epoch = self.epoch
            down = self.primary_down
            proc = self.env.process(make_op(node),
                                    name=f"shard{self.shard_id}-op")
            done = self.env.any_of([proc, down])
            try:
                yield done
            except FencedError:
                # Late write rejected by fencing — never acked, so
                # retrying on the new primary is a fresh attempt.
                continue
            if proc.triggered:
                if proc.ok:
                    if epoch == self.epoch and node is self.primary:
                        return proc.value
                    # Completed on a primary that was fenced away while
                    # the op was in flight: the result never made it
                    # back across the cut.  Discard and retry.
                    continue
                if not down.triggered:
                    return proc.value
            # Primary died under the operation: abandon it (a failure
            # raised out of the dying node is collateral, not a result)
            # and retry on the promoted primary once failover readmits
            # traffic.  The op was not acked, so the retry is a fresh
            # linearizable attempt.

    def describe(self) -> Dict[str, Any]:
        """Structured status: state, nodes, replication, failovers."""
        replication = self.replication
        return {
            "shard": self.shard_id,
            "state": self.state,
            "primary": self.primary.node_id,
            "replicas": [r.node_id for r in self.replicas],
            "epoch": self.epoch,
            "fenced_writes": self.fenced_writes,
            "fenced_ships": self.fenced_ships,
            "partition_promotions": self.partition_promotions,
            "failovers": self.failovers,
            "wal_tail_records_replayed": self.wal_tail_records_replayed,
            "last_failover_seconds": self.last_failover_seconds,
            "replication_max_lag": replication.max_lag if replication else 0.0,
            "records_applied": (replication.records_applied
                                if replication else 0),
            "backlog": replication.backlog if replication else 0,
        }


class ShardRouter:
    """Maps keys onto shards via a pluggable partitioner."""

    def __init__(self, shards: List[Shard], partitioner: Any):
        self.shards = list(shards)
        self.partitioner = partitioner
        if partitioner.num_shards != len(self.shards):
            raise ValueError("partitioner arity != shard count")

    def shard_for(self, key: bytes) -> Shard:
        """The shard owning ``key``."""
        return self.shards[self.partitioner.shard_of(key)]


@dataclass
class _ClusterHealth:
    """Aggregated health facade matching the engine's surface."""

    store: "ClusterStore" = field(repr=False, default=None)

    @property
    def read_only(self) -> bool:
        """True when every shard primary is read-only degraded."""
        shards = self.store.shards
        return bool(shards) and all(
            s.primary.db.health.read_only for s in shards)

    @property
    def reason(self) -> str:
        """First degraded primary's reason (empty when healthy)."""
        for shard in self.store.shards:
            if shard.primary.db.health.read_only:
                return (f"shard {shard.shard_id}: "
                        f"{shard.primary.db.health.reason}")
        return ""


class ClusterStore:
    """N-shard store behind the single-engine operation surface.

    Exposes coroutine ``get``/``put``/``delete``/``scan`` plus ``*_sync``
    facades, a ``health`` facade, and per-key ``admission_state`` — the
    full surface :class:`repro.svc.Server` expects from a backend — so
    one :class:`Server` + loadgen stack drives 1 engine or N shards
    identically.
    """

    def __init__(self, env: Environment, engine_cls: type, options: Options,
                 config: Optional[ClusterConfig] = None, name: str = "shard"):
        config = config or ClusterConfig()
        if not options.wal_sync:
            # The §6 contract hinges on acked == on the primary's synced
            # WAL; an async-WAL cluster cannot honor "acked writes
            # survive failover".
            raise ValueError("ClusterStore requires options.wal_sync=True")
        self.env = env
        self.engine_cls = engine_cls
        self.options = options
        self.config = config
        self.name = name
        self.health = _ClusterHealth(store=self)
        #: The simulated network every inter-node message routes through.
        self.fabric = NetworkFabric(env, config.net or PERFECT_WIRE)
        self.shards: List[Shard] = []
        for shard_id in range(config.num_shards):
            primary = self._new_node(f"{name}{shard_id}p", "primary")
            replicas = [self._new_node(f"{name}{shard_id}r{i}", "replica")
                        for i in range(config.replicas_per_shard)]
            self.shards.append(Shard(env, shard_id, primary, replicas,
                                     config, self.fabric))
        partitioner = make_partitioner(config.partitioner, config.num_shards)
        self.router = ShardRouter(self.shards, partitioner)
        self.failover = FailoverController(
            env, self.shards, self.fabric,
            heartbeat_interval=config.heartbeat_interval,
            grace_misses=config.grace_misses,
            probe_timeout=config.probe_timeout)
        # A heal can restore reachability without any promotion to
        # notify ready-parked requests: wake them to re-check.
        for shard in self.shards:
            self.fabric.on_heal(shard.ready.notify_all)

    def _new_node(self, node_id: str, role: str) -> ClusterNode:
        device = BlockDevice(self.env, self.config.resolved_device())
        fs = SimFS(self.env, device,
                   PageCache(self.config.page_cache_bytes))
        db = self.engine_cls.open_sync(self.env, fs, self.options.copy(),
                                       node_id)
        return ClusterNode(node_id, self.env, device, fs, db, role)

    # -- node/shard iteration -------------------------------------------

    def nodes(self) -> List[ClusterNode]:
        """Every node in the cluster, primaries first per shard."""
        out: List[ClusterNode] = []
        for shard in self.shards:
            out.append(shard.primary)
            out.extend(shard.replicas)
        return out

    def primaries(self) -> List[ClusterNode]:
        """The current primary of each shard, in shard order."""
        return [shard.primary for shard in self.shards]

    # -- nemesis surface ---------------------------------------------------

    def partition_primary(self, shard_id: int) -> ClusterNode:
        """Symmetrically cut one shard's primary off from everything.

        The victim keeps running — it is partitioned, not dead — which
        is exactly the scenario epoch fencing exists for.  Returns the
        victim node so a nemesis can track it.
        """
        victim = self.shards[shard_id].primary
        others = [CONTROL_PLANE] + [node.node_id for node in self.nodes()
                                    if node is not victim]
        self.fabric.isolate(victim.node_id, others)
        return victim

    def heal_network(self) -> None:
        """Remove every partition and wake parked requests."""
        self.fabric.heal()

    # -- operation surface (Server backend) ------------------------------

    def get(self, key: bytes, snapshot: Any = None
            ) -> Generator[Event, Any, Optional[bytes]]:
        """Point lookup on the owning shard's primary."""
        shard = self.router.shard_for(key)
        return shard.perform(lambda node: node.db.get(key))

    def put(self, key: bytes, value: bytes) -> Generator[Event, Any, float]:
        """Write through the owning shard's primary (synced WAL ack)."""
        shard = self.router.shard_for(key)
        return shard.perform(lambda node: node.db.put(key, value))

    def delete(self, key: bytes) -> Generator[Event, Any, float]:
        """Tombstone ``key`` on its owning shard's primary."""
        shard = self.router.shard_for(key)
        return shard.perform(lambda node: node.db.delete(key))

    def scan(self, start_key: bytes, count: int
             ) -> Generator[Event, Any, List[Tuple[bytes, bytes]]]:
        """Merged scan: per-shard snapshot scans, not cross-shard atomic.

        Each shard contributes its first ``count`` keys ≥ ``start_key``
        from its own snapshot; results merge by key.  See
        docs/FAULT_MODEL.md §6 for what this does and does not promise.
        """
        collected: List[Tuple[bytes, bytes]] = []
        for shard in self.shards:
            part = yield from shard.perform(
                lambda node: node.db.scan(start_key, count))
            collected.extend(part)
        collected.sort(key=lambda kv: kv[0])
        return collected[:count]

    # -- admission -------------------------------------------------------

    def admission_state(self, key: Optional[bytes] = None) -> str:
        """Per-key admission: the owning shard primary's state.

        A shard mid-failover reports ``open`` — its requests park on the
        ready-condition rather than being shed, preserving availability
        at the price of tail latency.  With no key (scan), reports
        ``read_only`` only when every shard is.
        """
        if key is None:
            return "read_only" if self.health.read_only else "open"
        shard = self.router.shard_for(key)
        if not shard.primary_alive or not shard.primary_reachable:
            return "open"
        return shard.primary.db.admission_state(key)

    # -- sync facades ----------------------------------------------------

    def put_sync(self, key: bytes, value: bytes) -> None:
        """Blocking wrapper around :meth:`put`."""
        self.env.run_until(self.env.process(self.put(key, value)))

    def get_sync(self, key: bytes) -> Optional[bytes]:
        """Blocking wrapper around :meth:`get`."""
        return self.env.run_until(self.env.process(self.get(key)))

    def delete_sync(self, key: bytes) -> None:
        """Blocking wrapper around :meth:`delete`."""
        self.env.run_until(self.env.process(self.delete(key)))

    def scan_sync(self, start_key: bytes, count: int
                  ) -> List[Tuple[bytes, bytes]]:
        """Blocking wrapper around :meth:`scan`."""
        return self.env.run_until(
            self.env.process(self.scan(start_key, count)))

    # -- lifecycle -------------------------------------------------------

    def close(self) -> Generator[Event, Any, None]:
        """Stop failover monitoring, replication links, and live engines.

        Dead nodes (killed primaries) are skipped — their on-disk image
        stays exactly as the crash left it.
        """
        yield from self.failover.stop()
        for shard in self.shards:
            replication = shard.replication
            if replication is not None and shard.primary.alive:
                yield from replication.stop()
            for node in shard.fenced_nodes:
                # Decommissioned ex-primaries: stop their stale shippers
                # (everything left on them fences) and close the engine.
                stale = node.db.wal_shipper
                if stale is not None and node.alive:
                    yield from stale.stop()
                    node.db.wal_shipper = None
                if node.alive:
                    yield from node.db.close()
            for node in [shard.primary] + shard.replicas:
                if node.alive:
                    yield from node.db.close()

    def close_sync(self) -> None:
        """Blocking wrapper around :meth:`close`."""
        self.env.run_until(self.env.process(self.close()))

    # -- introspection ---------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        """Structured status of every shard plus cluster totals."""
        shards = [shard.describe() for shard in self.shards]
        return {
            "num_shards": len(self.shards),
            "partitioner": self.router.partitioner.kind,
            "failovers": sum(s["failovers"] for s in shards),
            "wal_tail_records_replayed": sum(
                s["wal_tail_records_replayed"] for s in shards),
            "max_replication_lag": max(
                (s["replication_max_lag"] for s in shards), default=0.0),
            "fenced_writes": sum(s["fenced_writes"] for s in shards),
            "fenced_ships": sum(s["fenced_ships"] for s in shards),
            "partition_promotions": sum(
                s["partition_promotions"] for s in shards),
            "shards": shards,
            "net": self.fabric.snapshot(),
        }

"""Failure detection, replica promotion, and WAL-tail replay.

The :class:`FailoverController` polls every shard on a heartbeat.  When
a primary is dead (its engine killed, or its connections dropped) the
shard enters ``failing_over`` and the controller runs the promotion
protocol:

1. **Stop shipping.**  The dead primary's replication links are torn
   down; whatever was still on the wire is discarded (it will be
   re-read from disk, which is the authoritative copy).
2. **Replay the WAL tail.**  The dead node's *surviving* on-disk WAL
   files are read back — acked writes are there, because an ack implies
   the record was fdatasync'd before :meth:`~repro.lsm.LSMEngine.write`
   returned — and every record past a replica's applied point is
   applied to that replica through its normal write path.  After replay
   all replicas of the shard have identical logical content.
3. **Promote the freshest replica.**  Highest applied primary sequence
   wins; ties break to the lowest replica index (determinism).  The
   survivors' replication bookkeeping is rebased into the new primary's
   sequence space and fresh links are wired up.
4. **Readmit traffic.**  The shard returns to ``active`` and parked
   requests retry on the new primary.  A shard with no replica left
   becomes ``failed`` and its requests get a typed
   :class:`~repro.cluster.store.ShardDownError`.

Detection latency is one heartbeat interval; promotion cost is the tail
read + replay, all in virtual time — both land in the open-loop tail
percentiles rather than disappearing.

Everything crosses the cluster's
:class:`~repro.cluster.net.NetworkFabric`, which shapes both detection
and promotion:

* Detection runs over the fabric's datagram channel: a heartbeat probe
  can be lost or slowed without the primary being dead, so the
  controller requires ``grace_misses`` *consecutive* misses before
  acting — a slow-but-alive primary is not promoted away on one unlucky
  probe.  A confirmed death (the connection-reset event) fails over
  immediately.
* A primary that misses its grace window while **alive** is partitioned
  or gray, not dead: its disk is unreachable, so there is no tail to
  replay.  Instead the controller waits for the replica side of the cut
  to drain every *accepted* replication record (the reliable channel
  guarantees accepted ⇒ delivered), bumps the shard **epoch**, and
  promotes the freshest replica.  The ex-primary is fenced: its next
  ship attempt — and any of its records still in flight — is rejected
  with a typed :class:`~repro.cluster.net.FencedError`, so a healed
  stale primary can never diverge the replica set or ack a doomed
  write.
* Tail salvage for a *dead* primary is charged as a bulk transfer over
  the fabric (reading a dead machine's disk still crosses the network).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from ..lsm.wal import WriteBatch, list_wal_files, read_log_records
from ..sim import Environment, Event
from ..storage import SimFS
from .net import CONTROL_PLANE, NetworkFabric

__all__ = ["FailoverController", "read_wal_tail"]


def read_wal_tail(fs: SimFS, dbname: str
                  ) -> Generator[Event, Any,
                                 List[Tuple[int, int, WriteBatch]]]:
    """Read every decodable WAL record from ``dbname``'s log files.

    Returns ``(first_seq, last_seq, batch)`` triples in sequence order.
    Reading stops per file at the first corrupt or torn record —
    everything before the tear is intact (the log-format contract), and
    an acked record can never be past a tear because acks follow the
    sync barrier.

    The files come from :func:`repro.lsm.wal.list_wal_files`, so a
    foreign ``.log`` file in the db dir is skipped (and counted) instead
    of aborting the failover mid-promotion.
    """
    records: List[Tuple[int, int, WriteBatch]] = []
    for _number, name in list_wal_files(fs, dbname):
        handle = yield from fs.open(name)
        data = yield from handle.read(0, handle.size, sequential=True)
        for payload in read_log_records(data):
            first_seq, batch = WriteBatch.decode(payload)
            records.append((first_seq, first_seq + len(batch) - 1, batch))
    records.sort(key=lambda rec: rec[0])
    return records


class FailoverController:
    """Detects dead (or fenced-away) primaries and promotes replicas."""

    def __init__(self, env: Environment, shards: List[Any],
                 fabric: NetworkFabric,
                 heartbeat_interval: float = 0.005,
                 grace_misses: int = 3,
                 probe_timeout: Optional[float] = None):
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be > 0")
        if grace_misses < 1:
            raise ValueError("grace_misses must be >= 1")
        self.env = env
        self.shards = list(shards)
        self.heartbeat_interval = heartbeat_interval
        self.fabric = fabric
        self.grace_misses = grace_misses
        self.probe_timeout = (probe_timeout if probe_timeout is not None
                              else heartbeat_interval)
        self._misses: Dict[int, int] = {}
        self._stopped = False
        self._proc = env.process(self._monitor(), name="cluster-failover")

    def stop(self) -> Generator[Event, Any, None]:
        """Stop monitoring; an in-flight failover completes first."""
        self._stopped = True
        yield self._proc

    def _monitor(self) -> Generator[Event, Any, None]:
        from .store import SHARD_ACTIVE  # local import to avoid a cycle
        while not self._stopped:
            yield self.env.timeout(self.heartbeat_interval)
            for shard in self.shards:
                if shard.state != SHARD_ACTIVE:
                    continue
                if not shard.primary_alive:
                    # Confirmed death (connection reset / engine kill):
                    # no grace needed, the node is gone.
                    yield from self._failover(shard, primary_dead=True)
                    continue
                rtt = self.fabric.probe(CONTROL_PLANE,
                                        shard.primary.node_id)
                if rtt is not None and rtt <= self.probe_timeout:
                    self._misses[shard.shard_id] = 0
                    continue
                # Lost or slow probe: partitioned, gray, or just
                # unlucky.  The grace window decides.
                misses = self._misses.get(shard.shard_id, 0) + 1
                self._misses[shard.shard_id] = misses
                if misses >= self.grace_misses:
                    self._misses[shard.shard_id] = 0
                    yield from self._failover(shard, primary_dead=False)

    # -- promotion protocol ---------------------------------------------

    def _failover(self, shard: Any, primary_dead: bool = True
                  ) -> Generator[Event, Any, None]:
        from .store import SHARD_ACTIVE, SHARD_FAILED, SHARD_FAILING_OVER
        shard.state = SHARD_FAILING_OVER
        started = self.env.now
        tracer = self.env.tracer
        with tracer.span("cluster.failover", cat="cluster",
                         shard=shard.shard_id,
                         primary=shard.primary.node_id) as span:
            old_primary = shard.primary
            replication = old_primary.db.wal_shipper
            if primary_dead:
                if replication is not None:
                    yield from replication.stop()
                    old_primary.db.wal_shipper = None
            elif replication is not None:
                # The primary is alive but unreachable: we cannot tear
                # its shipper down, but the reliable channel guarantees
                # every *accepted* record will be delivered — wait for
                # the replica side to drain them so no acked write is
                # left behind, then fence the rest via the epoch bump.
                deadline = (self.env.now + shard.config.replication_lag
                            + max(4 * self.heartbeat_interval,
                                  8 * self.fabric.config.delay))
                while (replication.backlog > 0
                       and self.env.now < deadline):
                    yield self.env.timeout(self.heartbeat_interval / 4)
            if not shard.replicas:
                shard.state = SHARD_FAILED
                shard.ready.notify_all()
                span.set(outcome="failed")
                return

            replayed = 0
            if primary_dead:
                # Replay the dead primary's WAL tail onto every replica
                # so the whole replica group converges before
                # promotion.  Salvaging a dead machine's disk is a bulk
                # network transfer and is charged as one.
                tail = yield from read_wal_tail(old_primary.fs,
                                                old_primary.db.dbname)
                if tail:
                    tail_bytes = sum(batch.byte_size for _f, _l, batch
                                     in tail)
                    yield self.env.timeout(
                        self.fabric.transfer_delay(tail_bytes))
                for node in shard.replicas:
                    for first_seq, last_seq, batch in tail:
                        if first_seq <= node.applied_primary_seq:
                            continue
                        yield from node.db.write(batch)
                        node.applied_primary_seq = last_seq
                        replayed += 1
            else:
                # Partitioned-not-dead: the old primary's disk is on
                # the wrong side of the cut — there is no tail to read.
                # Every acked write is covered by the drain above; the
                # ex-primary itself is fenced out for good.
                old_primary.fenced = True
                shard.fenced_nodes.append(old_primary)
                shard.partition_promotions += 1

            # Freshest replica wins; lowest index breaks ties (after a
            # full replay they are all equal, so index 0 is promoted).
            best = max(range(len(shard.replicas)),
                       key=lambda i: (shard.replicas[i].applied_primary_seq,
                                      -i))
            promoted = shard.replicas.pop(best)
            promoted.role = "primary"
            shard.primary = promoted
            # Rebase the survivors into the new primary's sequence
            # space: they hold identical content, so they are "applied
            # through" everything the new primary has.
            base = promoted.db.versions.last_sequence
            for node in shard.replicas:
                node.applied_primary_seq = base
            promoted.applied_primary_seq = 0
            # The epoch bump IS the fence: links wired before this point
            # reject all further traffic with FencedError.
            shard.epoch += 1
            shard._wire_replication()
            shard.primary_down = self.env.event()
            shard.state = SHARD_ACTIVE
            shard.failovers += 1
            shard.wal_tail_records_replayed += replayed
            shard.last_failover_seconds = self.env.now - started
            shard.ready.notify_all()
            span.set(outcome="promoted" if primary_dead else "fenced",
                     promoted=promoted.node_id, tail_records=replayed,
                     epoch=shard.epoch)
        if tracer.enabled:
            tracer.instant("failover", cat="cluster", shard=shard.shard_id,
                           promoted=shard.primary.node_id,
                           tail_records=replayed,
                           seconds=shard.last_failover_seconds)

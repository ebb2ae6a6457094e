"""Primary → replica WAL shipping over the network fabric.

A :class:`ReplicationLink` carries one primary's committed group-commit
records to one replica.  The primary's commit leader calls
:meth:`ReplicationLink.ship` (via the engine's ``wal_shipper`` hook)
right after its WAL barrier; the link sends each record through the
shard's :class:`~repro.cluster.net.NetworkFabric` and the replica
applies it through ``db.write`` — i.e. through the replica's **own**
group-commit path (``wal.group_append``), so replica state is as
crash-consistent as any primary's.

There is one wire.  A record accepted at time ``t`` is delivered at
``t + replication_lag + fabric delay``: the configured apply lag plus
whatever the fabric's :class:`~repro.cluster.net.NetConfig` adds (zero
on the fault-free :data:`~repro.cluster.net.PERFECT_WIRE`).  A
partitioned link refuses the send *synchronously* (before any
scheduling point), the shipper retries with seeded
exponential-backoff-with-jitter, and a promotion that bumps the shard
epoch turns the next retry into a typed
:class:`~repro.cluster.net.FencedError` — the late write is rejected
instead of silently diverging the replica set.  Accepted messages are
never lost (loss = retransmit delay, TCP-like); delivery may be delayed,
duplicated, or reordered, and the replica side resequences so records
always apply in the order they were shipped — which is primary-sequence
order, gaps included (a group whose WAL barrier failed claimed sequence
numbers it never shipped).

The backlog is bounded: when ``max_backlog`` records are accepted but
not yet applied, ``ship`` blocks the primary's commit leader until the
replica catches up — explicit backpressure that keeps replication lag
within a configured bound instead of letting a slow replica fall
arbitrarily behind.

The link is deliberately *asynchronous*: an ack does not wait for the
replica.  The durability story for acked writes therefore rests on the
primary's own synced WAL plus failover tail replay
(:mod:`repro.cluster.failover`), not on shipping winning a race.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Tuple

from ..lsm.wal import WriteBatch
from ..sim import Condition, Environment, Event
from .net import FencedError, NetworkFabric

__all__ = ["ReplicationLink", "ShardReplication"]


class ReplicationLink:
    """Ships committed WAL records from one primary to one replica."""

    def __init__(self, env: Environment, shard_id: int, replica: Any,
                 fabric: NetworkFabric, lag: float = 0.002,
                 max_backlog: int = 64, src: str = "", shard: Any = None,
                 epoch: int = 1, retry_initial: float = 0.001,
                 retry_cap: float = 0.05):
        if lag < 0:
            raise ValueError("replication lag must be >= 0")
        if max_backlog < 1:
            raise ValueError("max_backlog must be >= 1")
        self.env = env
        self.shard_id = shard_id
        self.replica = replica
        self.fabric = fabric
        self.lag = lag
        self.max_backlog = max_backlog
        self.src = src
        self.shard = shard
        #: Shard epoch this link was wired under; a bumped shard epoch
        #: fences every send and every late delivery on this link.
        self.epoch = epoch
        self.retry_initial = retry_initial
        self.retry_cap = retry_cap
        #: Accepted-but-unhandled messages ``(arrival, first_seq,
        #: last_seq, record, sent_at)`` keyed by ship order (a dense
        #: per-link counter, NOT the engine sequence, which has gaps):
        #: on the wire until their arrival time, then buffered at the
        #: replica until every predecessor has been handled (the
        #: resequencing buffer).
        self._pending: Dict[int, Tuple[float, int, int, bytes, float]] = {}
        self._shipped = 0
        self._work = Condition(env, name=f"repl-s{shard_id}-work")
        self._space = Condition(env, name=f"repl-s{shard_id}-space")
        self._stopped = False
        #: Records applied on the replica / observed lag high-water mark.
        self.records_applied = 0
        self.max_lag = 0.0
        #: Redundant deliveries the replica discarded.
        self.duplicates_dropped = 0
        self._proc = env.process(
            self._run(), name=f"repl-s{shard_id}-{replica.node_id}")

    # -- primary side ---------------------------------------------------

    def ship(self, first_seq: int, last_seq: int, record: bytes
             ) -> Generator[Event, Any, None]:
        """Send one committed record (blocks on a full backlog).

        Fail-fast on partition, retry with backoff, fence.  The epoch
        check and the accept/refuse verdict both happen with no
        scheduling point in between the commit path's memtable insert
        and the first refusal — so a write that is going to be fenced is
        never observable by a read on the old primary (reads snapshot
        the engine sequence at entry, and the commit leader holds the
        engine mutex until ship returns or raises).
        """
        while len(self._pending) >= self.max_backlog and not self._stopped:
            yield self._space.wait()
        if self._stopped:
            # Link torn down (failover in progress): drop the record.
            # Tail replay reads it back from the primary's synced WAL.
            return
        fabric = self.fabric
        attempt = 0
        while True:
            self._check_fence(first_seq, last_seq)
            delay = fabric.try_send(self.src, self.replica.node_id)
            if delay is not None:
                break
            # Connection refused (partition): back off and retry.  The
            # bounded budget is the fence itself — promotion bumps the
            # epoch, and the next retry raises FencedError, degrading
            # to the park-don't-fail retry in Shard.perform.
            attempt += 1
            yield self.env.timeout(
                fabric.backoff(attempt, self.retry_initial, self.retry_cap))
        now = self.env.now
        # A duplicating wire delivers the record twice: the copy trails
        # the original, holds a backlog slot until it lands, and the
        # receive loop drops it as already applied.
        for delay in (delay, fabric.duplicate_delay(delay)):
            if delay is not None:
                self._pending[self._shipped] = (
                    now + (self.lag + delay), first_seq, last_seq, record,
                    now)
                self._shipped += 1
        self._work.notify_all()

    def _stale_epoch(self) -> bool:
        """True once the shard has moved past the epoch we were wired under."""
        return self.shard is not None and self.shard.epoch > self.epoch

    def _check_fence(self, first_seq: int, last_seq: int) -> None:
        """Raise FencedError when the shard has moved past our epoch."""
        if self._stale_epoch():
            self.shard.note_fenced_write(last_seq - first_seq + 1)
            raise FencedError(
                f"shard {self.shard_id} epoch {self.shard.epoch} fences "
                f"link epoch {self.epoch}: write seq {first_seq}.."
                f"{last_seq} rejected")

    @property
    def backlog(self) -> int:
        """Accepted-but-unapplied records: on the wire or buffered."""
        return len(self._pending)

    # -- replica side ---------------------------------------------------

    def _run(self) -> Generator[Event, Any, None]:
        """Receive loop: handle messages in the order they were shipped.

        Records apply strictly in ship order, so the only arrival that
        matters is the next message's: the loop sleeps until it lands
        (successors that overtake it on a reordering wire just wait in
        ``_pending``), and idles on ``_work`` when nothing is pending at
        all.  A message the replica is already past — a duplicate
        delivery, or a record failover replayed from the WAL tail — is
        dropped on arrival.
        """
        env, pending, replica = self.env, self._pending, self.replica
        turn = 0  # ship-order index of the next message to handle
        while True:
            if pending and self._stale_epoch():
                # Stale-primary traffic (gray failure: the old primary
                # could still reach this replica after promotion):
                # reject everything this link still carries.
                for _arrival, first, last, _record, _sent in pending.values():
                    self.shard.note_fenced_ship(last - first + 1)
                pending.clear()
                self._space.notify_all()
            message = pending.get(turn)
            if message is None:
                if self._stopped:
                    # A sever can drop a record's predecessor off the
                    # wire and leave an unappliable gap behind; failover
                    # tail replay supersedes whatever is left.
                    pending.clear()
                    self._space.notify_all()
                    return
                yield self._work.wait()
                continue
            arrival, _first, last, record, sent = message
            if arrival > env.now:
                yield env.timeout(arrival - env.now)
                if pending.get(turn) is not message or self._stale_epoch():
                    continue  # severed off the wire, or fenced meanwhile
            if last <= replica.applied_primary_seq:
                self.duplicates_dropped += 1
            else:
                _first, batch = WriteBatch.decode(record)
                yield from replica.db.write(batch)
                replica.applied_primary_seq = last
                self.records_applied += 1
                lag = env.now - sent
                if lag > self.max_lag:
                    self.max_lag = lag
                tracer = env.tracer
                if tracer.enabled:
                    tracer.gauge(
                        f"cluster.shard{self.shard_id}.replication_lag", lag)
                    tracer.count("cluster.records_shipped")
            del pending[turn]
            turn += 1
            self._space.notify_all()

    def sever(self) -> None:
        """Primary death: lose everything not yet *delivered*.

        Accepted-but-undelivered records are bytes in flight on the
        wire — a dead primary's connection reset drops them, and only
        the WAL tail can bring them back.  Records that already arrived
        at the replica survive and drain; one mid-apply is allowed to
        finish (never torn).
        """
        self._stopped = True
        now = self.env.now
        for turn in [turn for turn, message in self._pending.items()
                     if message[0] > now]:
            del self._pending[turn]
        self._work.notify_all()
        self._space.notify_all()

    def stop(self) -> Generator[Event, Any, None]:
        """Tear the link down; an in-flight apply finishes first.

        Never interrupts the apply coroutine: a half-delivered group on a
        live replica would corrupt its write path.  Accepted records
        still on the wire are delivered and applied first (the
        reliable-channel guarantee), unless a sever already dropped
        them.
        """
        self._stopped = True
        self._work.notify_all()
        self._space.notify_all()
        yield self._proc


class ShardReplication:
    """Fan-out shipper over one shard's replication links.

    Installed as the primary engine's ``wal_shipper``: ships every
    committed record to each link in replica order and reports the
    minimum applied sequence, which gates WAL-file retention on the
    primary (a WAL may only be unlinked once *every* replica has applied
    past its last record).
    """

    def __init__(self, links: List[ReplicationLink]):
        if not links:
            raise ValueError("ShardReplication requires at least one link")
        self.links = list(links)

    def ship(self, first_seq: int, last_seq: int, record: bytes
             ) -> Generator[Event, Any, None]:
        """Ship one committed record to every replica link."""
        for link in self.links:
            yield from link.ship(first_seq, last_seq, record)

    def applied_through(self) -> int:
        """Min primary sequence applied across replicas (WAL retention)."""
        return min(link.replica.applied_primary_seq for link in self.links)

    def sever(self) -> None:
        """Drop every link's undelivered records (primary death)."""
        for link in self.links:
            link.sever()

    def stop(self) -> Generator[Event, Any, None]:
        """Stop every link (in-flight applies finish first)."""
        for link in self.links:
            yield from link.stop()

    @property
    def max_lag(self) -> float:
        """Highest observed ship→apply lag across links, in seconds."""
        return max(link.max_lag for link in self.links)

    @property
    def records_applied(self) -> int:
        """Total records applied across links."""
        return sum(link.records_applied for link in self.links)

    @property
    def backlog(self) -> int:
        """Accepted-but-unapplied records across links."""
        return sum(link.backlog for link in self.links)

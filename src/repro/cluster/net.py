"""Deterministic simulated network fabric for inter-node traffic.

Every message the cluster sends between machines — replication ships,
failure-detector heartbeats, WAL-tail reads during promotion — is routed
through one :class:`NetworkFabric`, so network misbehavior is a
first-class, seeded, reproducible input.  There is no second path: a
perfect network is the fault-free configuration :data:`PERFECT_WIRE` of
the same fabric, and a cluster built without a :class:`NetConfig` gets
exactly that.  The fabric models two channel flavors:

* **Reliable channels** (replication shipping, tail reads).  Modeled on
  a TCP-like transport: an *accepted* message is never silently lost —
  random loss shows up as retransmit delay inflation — and delivery is
  resequenced by the receiver.  What CAN fail is acceptance itself: a
  partition makes :meth:`NetworkFabric.try_send` refuse the message
  *synchronously* (connection refused), which is what lets the shipping
  layer fail fast, back off, and eventually observe a fence.
* **Datagram probes** (heartbeats).  Fire-and-forget: loss actually
  loses the probe, which is how false-positive failure detection and
  gray failures enter the model.  The failure detector owes itself a
  grace window (:class:`~repro.cluster.failover.FailoverController`).

Partitions are directed edge cuts between named nodes: symmetric
partitions cut both directions, asymmetric ones a single direction
(primary can reach its replicas while the control plane cannot reach the
primary — the classic gray failure).  :meth:`heal` removes every cut and
runs registered callbacks so parked work can re-check reachability
immediately instead of waiting out a backoff.

Determinism: one seeded RNG drives every delay/loss/duplication draw;
the simulator's event order is deterministic, therefore so is the draw
sequence and everything downstream of it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..storage import DeviceError

__all__ = ["NetConfig", "NetworkFabric", "FencedError", "CONTROL_PLANE",
           "PERFECT_WIRE"]

#: Pseudo-node for everything co-located with the router/controller:
#: clients, the failure detector, and promotion logic all "live" here.
CONTROL_PLANE = "$ctl"


class FencedError(DeviceError):
    """A stale-epoch node's traffic was rejected by fencing.

    Raised when an ex-primary that was partitioned away (not dead)
    tries to ship or ack a write after a newer epoch has been installed
    for its shard.  Subclasses :class:`~repro.storage.DeviceError` so
    every existing error surface (``svc.Server`` workers, chaos
    harnesses) already classifies it as a typed I/O-level failure
    instead of crashing.
    """


@dataclass(frozen=True)
class NetConfig:
    """Fault-injection knobs for a :class:`NetworkFabric`.

    All delays are virtual seconds.  ``loss`` applies to both channel
    flavors but with different semantics: datagram probes are dropped,
    reliable sends pay ``rto`` per lost transmission attempt.
    """

    #: Base one-way message delay, seconds.
    delay: float = 0.0003
    #: Uniform jitter as a ± fraction of ``delay`` (0.2 -> ±20%).
    jitter: float = 0.2
    #: Per-transmission loss probability.
    loss: float = 0.0
    #: Probability a reliable delivery is duplicated at the receiver.
    duplicate: float = 0.0
    #: Extra reorder jitter added to reliable deliveries, seconds.  A
    #: record can overtake its predecessor by up to this much; the
    #: receiving link resequences, so reorder manifests as head-of-line
    #: waiting, never out-of-order application.
    reorder: float = 0.0
    #: Retransmit timeout charged per lost reliable transmission.
    rto: float = 0.002
    #: Bandwidth for bulk transfers (promotion-time WAL-tail salvage).
    bulk_bandwidth: float = 64e6
    #: Seed for the fabric's private RNG.
    seed: int = 97

    def __post_init__(self) -> None:
        if self.delay < 0 or self.rto < 0 or self.reorder < 0:
            raise ValueError("delays must be >= 0")
        if not 0.0 <= self.loss < 1.0:
            raise ValueError("loss must be in [0, 1)")
        if not 0.0 <= self.duplicate <= 1.0:
            raise ValueError("duplicate must be in [0, 1]")


#: The fault-free fabric configuration, and what ``ClusterConfig.net=None``
#: resolves to: zero delay and jitter, no loss, duplication or reordering,
#: infinite bulk bandwidth.  Every delay the fabric hands out is 0.0 and
#: no delay, loss or duplication draw touches the RNG; only a partition
#: (and the backoff of whoever retries across it) can still happen.
PERFECT_WIRE = NetConfig(delay=0.0, jitter=0.0, loss=0.0, duplicate=0.0,
                         reorder=0.0, bulk_bandwidth=math.inf)


class NetworkFabric:
    """Routes and fault-injects every inter-node message.

    The fabric never owns a process: it hands out delay samples and
    accept/refuse verdicts that callers turn into scheduled deliveries
    and ``env.timeout`` waits.
    """

    def __init__(self, env: Any, config: Optional[NetConfig] = None):
        self.env = env
        self.config = config or NetConfig()
        self.rng = random.Random(self.config.seed)
        #: Directed cuts: (src, dst) pairs that refuse traffic.
        self._blocked: Set[Tuple[str, str]] = set()
        self._heal_callbacks: List[Callable[[], None]] = []
        self.counters: Dict[str, int] = {
            "messages_accepted": 0,
            "sends_refused": 0,
            "retransmits": 0,
            "duplicates": 0,
            "probes": 0,
            "probes_lost": 0,
            "partitions": 0,
            "heals": 0,
        }

    # -- topology --------------------------------------------------------

    def partition(self, group_a: Iterable[str], group_b: Iterable[str],
                  symmetric: bool = True) -> None:
        """Cut every edge from ``group_a`` to ``group_b``.

        Symmetric cuts (the default) block both directions; an
        asymmetric cut blocks only a→b, modeling gray failures where
        e.g. the control plane cannot reach a primary that can still
        reach its replicas.
        """
        a, b = sorted(set(group_a)), sorted(set(group_b))
        for src in a:
            for dst in b:
                if src == dst:
                    continue
                self._blocked.add((src, dst))
                if symmetric:
                    self._blocked.add((dst, src))
        self.counters["partitions"] += 1
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.instant("net.partition", cat="net",
                           a=",".join(a), b=",".join(b),
                           symmetric=symmetric)

    def isolate(self, node: str, others: Iterable[str]) -> None:
        """Symmetrically cut ``node`` off from every node in ``others``."""
        self.partition([node], others, symmetric=True)

    def heal(self) -> None:
        """Remove every cut and wake anything parked on reachability."""
        self._blocked.clear()
        self.counters["heals"] += 1
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.instant("net.heal", cat="net")
        for callback in self._heal_callbacks:
            callback()

    def on_heal(self, callback: Callable[[], None]) -> None:
        """Register a callback invoked after every :meth:`heal`."""
        self._heal_callbacks.append(callback)

    def reachable(self, src: str, dst: str) -> bool:
        """True when ``src`` can currently open a connection to ``dst``."""
        return (src, dst) not in self._blocked

    # -- reliable channel (replication, bulk) ----------------------------

    def try_send(self, src: str, dst: str) -> Optional[float]:
        """Attempt to accept one reliable message from src to dst.

        Returns the delivery delay (seconds from now) when the channel
        accepts the message — after which delivery is guaranteed — or
        ``None`` when the link is partitioned and the connection is
        refused.  Loss inflates the returned delay by ``rto`` per lost
        transmission instead of dropping an accepted message.
        """
        if not self.reachable(src, dst):
            self.counters["sends_refused"] += 1
            return None
        delay = self._sample_delay()
        config = self.config
        if config.loss > 0.0:
            # TCP-like: each lost transmission costs one RTO, capped so
            # a pathological draw cannot stall the link forever.
            for _attempt in range(8):
                if self.rng.random() >= config.loss:
                    break
                delay += config.rto
                self.counters["retransmits"] += 1
        if config.reorder > 0.0:
            delay += self.rng.random() * config.reorder
        self.counters["messages_accepted"] += 1
        return delay

    def duplicate_delay(self, base_delay: float) -> Optional[float]:
        """Delay for a duplicated delivery, or None (no duplicate)."""
        if self.config.duplicate <= 0.0:
            return None
        if self.rng.random() >= self.config.duplicate:
            return None
        self.counters["duplicates"] += 1
        return base_delay + self._sample_delay()

    def backoff(self, attempt: int, initial: float, cap: float) -> float:
        """Exponential backoff with seeded jitter for retry loops."""
        base = min(cap, initial * (2 ** max(0, attempt - 1)))
        return base * (0.5 + self.rng.random())

    def transfer_delay(self, nbytes: int) -> float:
        """Bulk-transfer time for ``nbytes`` (WAL-tail salvage reads)."""
        return self._sample_delay() + nbytes / self.config.bulk_bandwidth

    # -- datagram channel (heartbeats) -----------------------------------

    def probe(self, src: str, dst: str) -> Optional[float]:
        """One heartbeat round trip; None when the probe was lost.

        A probe needs both directions: a cut either way, or a loss draw
        on either leg, loses it.  The failure detector must therefore
        tolerate isolated misses (grace window) or it will promote away
        slow-but-alive primaries.
        """
        self.counters["probes"] += 1
        if not self.reachable(src, dst) or not self.reachable(dst, src):
            self.counters["probes_lost"] += 1
            return None
        loss = self.config.loss
        if loss > 0.0 and (self.rng.random() < loss
                           or self.rng.random() < loss):
            self.counters["probes_lost"] += 1
            return None
        return self._sample_delay() + self._sample_delay()

    # -- internals -------------------------------------------------------

    def _sample_delay(self) -> float:
        config = self.config
        if config.jitter <= 0.0:
            return config.delay
        swing = config.jitter * (2.0 * self.rng.random() - 1.0)
        return config.delay * (1.0 + swing)

    def snapshot(self) -> Dict[str, int]:
        """Counter snapshot for ``unified_snapshot``'s ``net`` section."""
        out = dict(self.counters)
        out["active_cuts"] = len(self._blocked)
        return out

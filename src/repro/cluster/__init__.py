"""repro.cluster — sharded multi-engine store with replication/failover.

The scale-out layer over the single-node engines: a
:class:`ShardRouter` partitions keys (hash or range) across N shards,
each shard being a primary engine plus R replicas on independent
simulated machines; :class:`~repro.cluster.replication.ReplicationLink`
ships committed WAL records primary→replica with bounded lag, and the
:class:`~repro.cluster.failover.FailoverController` promotes the
freshest replica after a primary death, replaying the dead node's WAL
tail first so no acked write is lost (docs/FAULT_MODEL.md §6).

:class:`ClusterStore` presents the whole thing behind the single-engine
operation surface, so :class:`repro.svc.Server` and the open-loop
loadgen drive a cluster unchanged.
"""

from .failover import FailoverController, read_wal_tail
from .net import (CONTROL_PLANE, PERFECT_WIRE, FencedError, NetConfig,
                  NetworkFabric)
from .partition import HashPartitioner, RangePartitioner, make_partitioner
from .replication import ReplicationLink, ShardReplication
from .store import (SHARD_ACTIVE, SHARD_FAILED, SHARD_FAILING_OVER,
                    ClusterConfig, ClusterNode, ClusterStore, Shard,
                    ShardDownError, ShardRouter)

__all__ = [
    "CONTROL_PLANE",
    "ClusterConfig",
    "ClusterNode",
    "ClusterStore",
    "FailoverController",
    "FencedError",
    "HashPartitioner",
    "NetConfig",
    "NetworkFabric",
    "PERFECT_WIRE",
    "RangePartitioner",
    "ReplicationLink",
    "Shard",
    "ShardDownError",
    "ShardReplication",
    "ShardRouter",
    "SHARD_ACTIVE",
    "SHARD_FAILED",
    "SHARD_FAILING_OVER",
    "make_partitioner",
    "read_wal_tail",
]

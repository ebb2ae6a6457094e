"""Network fabric, epoch fencing, and history-checker tests
(docs/FAULT_MODEL.md §7): partitions and gray failures as seeded
first-class inputs, stale-primary writes rejected with FencedError, and
Jepsen-style per-key linearizability checking under the nemesis."""

import math

import pytest

from repro.cluster import (
    CONTROL_PLANE,
    ClusterConfig,
    ClusterStore,
    FencedError,
    NetConfig,
    NetworkFabric,
    PERFECT_WIRE,
    ReplicationLink,
    SHARD_ACTIVE,
)
from repro.faults import (
    HistoryOp,
    HistoryRecorder,
    NemesisConfig,
    check_history,
    nemesis_chaos,
)
from repro.lsm import LSMEngine, Options, WriteBatch
from repro.sim import Environment
from repro.storage import DeviceError

KB = 1 << 10


def cluster_options(**overrides):
    base = dict(memtable_size=256 * KB, sstable_size=64 * KB,
                level1_max_bytes=256 * KB, wal_sync=True)
    base.update(overrides)
    return Options(**base)


#: The two ends of the one wire: the fault-free configuration an
#: unconfigured cluster runs on, and a lossy/duplicating/reordering one.
WIRES = pytest.param(PERFECT_WIRE, id="perfect"), pytest.param(
    NetConfig(loss=0.05, duplicate=0.1, reorder=0.0008, seed=13),
    id="faulty")


def make_net_cluster(num_shards=1, replicas=1, net=None, env=None,
                     lag=0.001, **config_overrides):
    env = env or Environment()
    config = ClusterConfig(num_shards=num_shards,
                           replicas_per_shard=replicas,
                           replication_lag=lag,
                           heartbeat_interval=0.002,
                           page_cache_bytes=256 * KB,
                           net=net or NetConfig(),
                           **config_overrides)
    cluster = ClusterStore(env, LSMEngine, cluster_options(), config)
    return env, cluster


def advance(env, seconds):
    """Run the simulation forward by ``seconds`` of virtual time."""

    def waiter():
        yield env.timeout(seconds)

    env.run_until(env.process(waiter(), name="advance"))


class TestNetConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            NetConfig(delay=-1.0)
        with pytest.raises(ValueError):
            NetConfig(loss=1.0)
        with pytest.raises(ValueError):
            NetConfig(duplicate=1.5)

    def test_defaults_are_valid(self):
        config = NetConfig()
        assert config.delay > 0 and config.loss == 0.0


class TestNetworkFabric:
    def test_partition_refuses_and_heal_restores(self):
        fabric = NetworkFabric(Environment())
        assert fabric.reachable("a", "b")
        fabric.partition(["a"], ["b"])
        assert not fabric.reachable("a", "b")
        assert not fabric.reachable("b", "a")  # symmetric by default
        assert fabric.try_send("a", "b") is None
        assert fabric.counters["sends_refused"] == 1
        healed = []
        fabric.on_heal(lambda: healed.append(True))
        fabric.heal()
        assert healed == [True]
        assert fabric.reachable("a", "b")
        assert fabric.try_send("a", "b") is not None

    def test_asymmetric_cut_blocks_one_direction(self):
        fabric = NetworkFabric(Environment())
        fabric.partition(["ctl"], ["p"], symmetric=False)
        assert not fabric.reachable("ctl", "p")
        assert fabric.reachable("p", "ctl")
        # A probe needs both directions, so the gray failure loses it.
        assert fabric.probe("ctl", "p") is None
        assert fabric.counters["probes_lost"] == 1

    def test_delay_draws_are_seeded_deterministic(self):
        config = NetConfig(loss=0.1, duplicate=0.2, reorder=0.0005, seed=5)
        first = NetworkFabric(Environment(), config)
        second = NetworkFabric(Environment(), config)
        assert [first.try_send("a", "b") for _ in range(50)] == \
            [second.try_send("a", "b") for _ in range(50)]
        assert first.counters == second.counters

    def test_loss_inflates_delay_instead_of_dropping(self):
        lossy = NetworkFabric(Environment(), NetConfig(loss=0.5, jitter=0.0,
                                                       seed=3))
        delays = [lossy.try_send("a", "b") for _ in range(200)]
        assert all(delay is not None for delay in delays)  # never dropped
        assert lossy.counters["retransmits"] > 0
        config = lossy.config
        assert max(delays) <= config.delay + 8 * config.rto + 1e-12

    def test_backoff_is_exponential_jittered_and_capped(self):
        fabric = NetworkFabric(Environment(), NetConfig(seed=7))
        for attempt in range(1, 12):
            base = min(0.05, 0.001 * (2 ** (attempt - 1)))
            value = fabric.backoff(attempt, 0.001, 0.05)
            assert 0.5 * base <= value <= 1.5 * base

    def test_probe_round_trip_and_snapshot(self):
        fabric = NetworkFabric(Environment(), NetConfig(jitter=0.0))
        rtt = fabric.probe("ctl", "p")
        assert rtt == pytest.approx(2 * fabric.config.delay)
        snap = fabric.snapshot()
        assert snap["probes"] == 1
        assert snap["active_cuts"] == 0


class TestFabricReplication:
    def test_replicas_converge_over_faulty_fabric(self):
        net = NetConfig(delay=0.0003, loss=0.05, duplicate=0.1,
                        reorder=0.0008, seed=13)
        env, cluster = make_net_cluster(num_shards=2, replicas=1, net=net)
        for i in range(80):
            cluster.put_sync(b"net%04d" % i, b"x" * 24)
        advance(env, 0.1)
        for shard in cluster.shards:
            primary_seq = shard.primary.db.versions.last_sequence
            for replica in shard.replicas:
                assert replica.applied_primary_seq == primary_seq
            assert shard.replication.backlog == 0
        snap = cluster.fabric.snapshot()
        assert snap["messages_accepted"] > 0
        # Every injected duplicate was delivered, and dropped by the
        # replica as already applied.
        assert snap["duplicates"] > 0
        assert snap["duplicates"] == sum(
            link.duplicates_dropped for shard in cluster.shards
            for link in shard.replication.links)
        cluster.close_sync()

    @pytest.mark.parametrize("net", [
        pytest.param(PERFECT_WIRE, id="perfect"),
        # No loss: a lost probe pair must not promote mid-test.
        pytest.param(NetConfig(duplicate=0.2, reorder=0.0008, seed=13),
                     id="duplicating-reordering"),
    ])
    def test_replica_converges_across_a_sequence_gap(self, net):
        # A group whose WAL barrier fails claims sequence numbers it
        # never ships; the engine auto-resumes and later records must
        # still reach the replica instead of waiting for the gap forever.
        env, cluster = make_net_cluster(num_shards=1, replicas=1, net=net,
                                        max_backlog=8)
        shard = cluster.shards[0]
        for i in range(5):
            cluster.put_sync(b"pre%04d" % i, b"x" * 16)
        fs = shard.primary.fs

        def failing_fdatasync(handle):
            del fs.fdatasync  # one failure, then the real method again
            raise DeviceError("injected EIO")
            yield  # pragma: no cover - makes this a generator

        fs.fdatasync = failing_fdatasync
        with pytest.raises(DeviceError):
            cluster.put_sync(b"lost", b"x" * 16)
        advance(env, 1.0)  # health auto-resume
        puts = [env.process(cluster.put(b"post%04d" % i, b"x" * 16))
                for i in range(30)]
        advance(env, 1.0)
        assert all(put.ok for put in puts) and shard.failovers == 0
        primary_seq = shard.primary.db.versions.last_sequence
        assert primary_seq > 5 + 30  # the failed group left a gap
        assert shard.replicas[0].applied_primary_seq == primary_seq
        assert shard.replication.backlog == 0
        assert shard.replication.applied_through() == primary_seq
        cluster.close_sync()

    def test_fabric_run_is_deterministic(self):
        def run():
            net = NetConfig(loss=0.05, duplicate=0.1, reorder=0.0008,
                            seed=13)
            env, cluster = make_net_cluster(num_shards=1, replicas=1,
                                            net=net)
            for i in range(50):
                cluster.put_sync(b"det%04d" % i, b"d" * 16)
            advance(env, 0.05)
            snap = cluster.fabric.snapshot()
            seq = cluster.shards[0].primary.db.versions.last_sequence
            cluster.close_sync()
            return snap, seq, env.now

        assert run() == run()

    @pytest.mark.parametrize("net, lag", [
        pytest.param(PERFECT_WIRE, 0.05, id="perfect-wire-apply-lag"),
        pytest.param(NetConfig(delay=0.05, jitter=0.0, seed=17), 0.001,
                     id="slow-wire"),
    ])
    def test_sever_drops_wire_in_flight_records(self, net, lag):
        # 50 ms to delivery either way: the accepted record is still on
        # the wire when the primary dies.  It must be dropped with the
        # connection (recovered only via WAL-tail replay), never
        # delivered late into the promoted replica set or double-counted.
        # probe_timeout >> RTT: a slow wire is not a gray primary here.
        env, cluster = make_net_cluster(num_shards=1, replicas=1, net=net,
                                        lag=lag, probe_timeout=0.5)
        shard = cluster.shards[0]
        cluster.put_sync(b"wire-key", b"v1")
        link = shard.replication.links[0]
        advance(env, 0.01)
        assert link.backlog > 0  # accepted, still in flight
        assert link.records_applied == 0
        assert shard.replicas[0].applied_primary_seq == 0
        shard.kill_primary()
        advance(env, 0.5)  # past the delivery time AND the failover
        assert shard.state == SHARD_ACTIVE
        assert shard.failovers == 1
        assert link.records_applied == 0
        assert link.backlog == 0
        assert shard.wal_tail_records_replayed > 0
        assert cluster.get_sync(b"wire-key") == b"v1"
        cluster.close_sync()

    def test_replication_lag_adds_to_a_configured_wire(self):
        # The apply lag is part of the one delivery formula, not a
        # property of the unconfigured cluster only.
        net = NetConfig(delay=0.0, jitter=0.0)
        env, cluster = make_net_cluster(num_shards=1, replicas=1, net=net,
                                        lag=0.005)
        for i in range(10):
            cluster.put_sync(b"lag%04d" % i, b"x" * 16)
        advance(env, 0.05)
        replication = cluster.shards[0].replication
        assert replication.records_applied > 0
        assert replication.max_lag >= 0.005
        cluster.close_sync()

    def test_perfect_wire_never_draws_refuses_or_loses(self):
        # An unconfigured cluster runs on PERFECT_WIRE: through a kill,
        # a failover and its parked requests the fabric's RNG is never
        # consulted.
        env = Environment()
        cluster = ClusterStore(env, LSMEngine, cluster_options(),
                               ClusterConfig(num_shards=2,
                                             replicas_per_shard=1,
                                             heartbeat_interval=0.002,
                                             page_cache_bytes=256 * KB))
        assert cluster.fabric.config is PERFECT_WIRE
        fresh = cluster.fabric.rng.getstate()
        for i in range(40):
            cluster.put_sync(b"pw%04d" % i, b"x" * 16)
        cluster.shards[0].kill_primary()
        parked = env.process(cluster.put(b"pw-parked", b"y"))
        advance(env, 0.5)
        assert parked.ok and cluster.shards[0].failovers == 1
        snap = cluster.fabric.snapshot()
        assert snap["messages_accepted"] > 0 and snap["probes"] > 0
        for counter in ("sends_refused", "retransmits", "duplicates",
                        "probes_lost"):
            assert snap[counter] == 0
        assert cluster.fabric.rng.getstate() == fresh
        cluster.close_sync()

    def test_apply_lag_does_not_leak_into_probe_rtt(self):
        # 50 ms apply lag against a 2 ms heartbeat: replication is slow,
        # the primary is not — no probe may time out, nothing promotes.
        env, cluster = make_net_cluster(num_shards=1, replicas=1,
                                        net=PERFECT_WIRE, lag=0.05)
        for i in range(10):
            cluster.put_sync(b"slow%04d" % i, b"x" * 16)
        advance(env, 0.3)
        shard = cluster.shards[0]
        assert shard.failovers == 0 and shard.epoch == 1
        assert cluster.fabric.counters["probes_lost"] == 0
        assert shard.replication.max_lag >= 0.05
        cluster.close_sync()


class TestLinkFencing:
    """A record still undelivered or unapplied when the shard moves to a
    newer epoch is stale-primary traffic: it must be counted as fenced
    and dropped, never applied to the (possibly promoted) replica
    (SIM009) — on every wire."""

    @staticmethod
    def _harness(env, net):
        class FakeShard:
            epoch = 1
            fenced_ops = 0

            def note_fenced_ship(self, num_ops):
                self.fenced_ops += num_ops

        class FakeDB:
            applied = 0

            def write(self, batch):
                self.applied += 1
                return
                yield  # pragma: no cover - makes write() a generator

        class FakeReplica:
            node_id = "r1"
            applied_primary_seq = 0
            db = FakeDB()

        shard = FakeShard()
        replica = FakeReplica()
        link = ReplicationLink(env, 0, replica, NetworkFabric(env, net),
                               lag=0.001, src="p1", shard=shard, epoch=1)
        batch = WriteBatch()
        batch.put(b"k", b"v")
        record = batch.encode(1)
        return shard, replica, link, record

    @pytest.mark.parametrize("net", WIRES)
    def test_stale_epoch_record_is_fenced_not_applied(self, net):
        env = Environment()
        shard, replica, link, record = self._harness(env, net)
        env.run_until(env.process(link.ship(1, 1, record)))
        carried = link.backlog  # 2 when the wire duplicated the record
        shard.epoch = 2  # promotion happens while the record is in flight
        advance(env, 0.05)
        assert replica.db.applied == 0
        assert shard.fenced_ops == carried >= 1
        assert link.records_applied == 0
        assert link.backlog == 0

    @pytest.mark.parametrize("net", WIRES)
    def test_current_epoch_record_still_applies(self, net):
        env = Environment()
        shard, replica, link, record = self._harness(env, net)
        env.run_until(env.process(link.ship(1, 1, record)))
        advance(env, 0.05)
        assert replica.db.applied == 1
        assert shard.fenced_ops == 0
        assert link.records_applied == 1
        assert link.backlog == 0


class TestEpochFencing:
    def test_dead_primary_failover_bumps_epoch(self):
        env, cluster = make_net_cluster(num_shards=1, replicas=1)
        shard = cluster.shards[0]
        cluster.put_sync(b"k", b"v")
        assert shard.epoch == 1
        shard.kill_primary()
        advance(env, 0.5)
        assert shard.epoch == 2
        assert shard.primary.epoch == 2
        cluster.close_sync()

    def test_partitioned_primary_is_fenced_not_killed(self):
        env, cluster = make_net_cluster(num_shards=1, replicas=1,
                                        grace_misses=2)
        shard = cluster.shards[0]
        for i in range(20):
            cluster.put_sync(b"pf%04d" % i, b"p" * 16)
        advance(env, 0.05)
        old_primary = shard.primary
        acked_seq = old_primary.db.versions.last_sequence

        # Stage 1: cut only the replication edges, then launch writes —
        # their ships deterministically enter the refusal/backoff loop.
        cluster.fabric.partition(
            [old_primary.node_id],
            [replica.node_id for replica in shard.replicas])
        for j in range(3):
            env.process(cluster.put(b"late%04d" % j, b"l" * 16),
                        name=f"late-{j}")
        # Stage 2: complete the isolation (control plane included).
        advance(env, 0.004)
        cluster.partition_primary(0)
        advance(env, 0.3)

        # Promotion, not death: the victim still runs, fenced out.
        assert shard.state == SHARD_ACTIVE
        assert shard.primary is not old_primary
        assert shard.epoch == 2
        assert shard.failovers == 1
        assert shard.partition_promotions == 1
        assert old_primary.alive and old_primary.fenced
        assert old_primary in shard.fenced_nodes
        # The late writes' retries hit the epoch fence.
        assert shard.fenced_writes > 0
        # No tail replay happened (the disk is across the cut)...
        assert shard.wal_tail_records_replayed == 0
        # ...yet no acked write was lost: the drain covered them all.
        assert shard.primary.db.versions.last_sequence >= acked_seq

        cluster.heal_network()
        advance(env, 0.1)
        for i in range(20):
            assert cluster.get_sync(b"pf%04d" % i) == b"p" * 16
        # The fenced-away writes were never acked; after healing their
        # park-don't-fail retries landed on the new primary.
        for j in range(3):
            assert cluster.get_sync(b"late%04d" % j) == b"l" * 16
        cluster.close_sync()

    def test_partition_promotion_drains_records_inside_the_apply_lag(self):
        # Acked writes still inside a long apply lag when the primary is
        # cut off were accepted, so they will be delivered: the drain
        # must outwait replication_lag before the epoch bump fences them.
        env, cluster = make_net_cluster(num_shards=1, replicas=1,
                                        net=PERFECT_WIRE, lag=0.02,
                                        grace_misses=2)
        shard = cluster.shards[0]
        for i in range(5):
            cluster.put_sync(b"dr%04d" % i, b"d" * 16)
        assert shard.replication.backlog == 5  # acked, none delivered
        cluster.partition_primary(0)
        advance(env, 0.3)
        assert shard.partition_promotions == 1
        assert shard.wal_tail_records_replayed == 0
        cluster.heal_network()
        for i in range(5):
            assert cluster.get_sync(b"dr%04d" % i) == b"d" * 16
        cluster.close_sync()

    def test_fence_check_raises_typed_error(self):
        env, cluster = make_net_cluster(num_shards=1, replicas=1)
        shard = cluster.shards[0]
        cluster.put_sync(b"k", b"v")
        link = shard.replication.links[0]
        shard.epoch += 1  # simulate a promotion elsewhere
        with pytest.raises(FencedError):
            link._check_fence(5, 7)
        assert shard.fenced_writes == 3  # 5..7 inclusive
        shard.epoch -= 1
        cluster.close_sync()

    def test_grace_window_tolerates_isolated_probe_misses(self):
        # loss=0 and no partition: probes always succeed, no failover.
        env, cluster = make_net_cluster(num_shards=1, replicas=1,
                                        grace_misses=3)
        cluster.put_sync(b"k", b"v")
        advance(env, 0.2)
        assert cluster.shards[0].failovers == 0
        # An asymmetric control-plane cut shorter than the grace window
        # must not trigger a promotion either.
        cluster.fabric.partition([CONTROL_PLANE],
                                 [cluster.shards[0].primary.node_id],
                                 symmetric=False)
        advance(env, 0.003)  # one heartbeat: one miss < grace_misses
        cluster.heal_network()
        advance(env, 0.2)
        assert cluster.shards[0].failovers == 0
        assert cluster.fabric.counters["probes_lost"] > 0
        cluster.close_sync()


def _op(client, op_id, kind, key, value, invoked, completed,
        outcome="ok"):
    return HistoryOp(client=client, op_id=op_id, kind=kind, key=key,
                     value=value, invoked=invoked, completed=completed,
                     outcome=outcome)


class TestHistoryChecker:
    def test_clean_history_passes(self):
        ops = [
            _op(1, 0, "w", b"k", b"v1", 0.0, 1.0),
            _op(1, 1, "r", b"k", b"v1", 2.0, 3.0),
            _op(2, 2, "w", b"k", b"v2", 4.0, 5.0),
            _op(2, 3, "r", b"k", b"v2", 6.0, 7.0),
        ]
        assert check_history(ops) == []

    def test_concurrent_reads_allow_either_value(self):
        write = _op(1, 0, "w", b"k", b"v1", 0.0, 5.0)
        assert check_history([write,
                              _op(2, 1, "r", b"k", None, 1.0, 2.0)]) == []
        assert check_history([write,
                              _op(2, 1, "r", b"k", b"v1", 1.0, 2.0)]) == []

    def test_lost_acked_write_is_reported(self):
        ops = [
            _op(1, 0, "w", b"k", b"v1", 0.0, 1.0),
            _op(2, 1, "r", b"k", None, 2.0, 3.0),
        ]
        violations = check_history(ops)
        assert len(violations) == 1 and "lost update" in violations[0]

    def test_phantom_value_is_reported(self):
        ops = [_op(1, 0, "r", b"k", b"never-written", 0.0, 1.0)]
        violations = check_history(ops)
        assert len(violations) == 1 and "phantom" in violations[0]

    def test_fenced_write_must_stay_invisible(self):
        doomed = _op(1, 0, "w", b"k", b"doomed", 0.0, 1.0, outcome="fail")
        doomed.error = "FencedError('epoch 1 < 2')"
        violations = check_history([doomed,
                                    _op(2, 1, "r", b"k", b"doomed", 2.0, 3.0)])
        assert len(violations) == 1
        assert violations[0].startswith("R1 failed write resurfaced")
        assert violations[0].endswith("rejected with FencedError('epoch 1 < 2')")

    def test_refused_write_resurfacing_is_not_called_fenced(self):
        """Single-engine chaos fails a write with ``ReadOnlyError``: no
        fencing took place, and the report says what did."""
        refused = _op(1, 0, "w", b"k", b"refused", 0.0, 1.0, outcome="fail")
        refused.error = "ReadOnlyError('database is read-only')"
        violations = check_history([refused,
                                    _op(2, 1, "r", b"k", b"refused", 2.0, 3.0)])
        assert len(violations) == 1
        assert "fenced" not in violations[0]
        assert violations[0].startswith("R1 failed write resurfaced: op1")
        assert "ReadOnlyError('database is read-only')" in violations[0]

    def test_stale_read_is_reported(self):
        ops = [
            _op(1, 0, "w", b"k", b"v1", 0.0, 1.0),
            _op(1, 1, "w", b"k", b"v2", 2.0, 3.0),
            _op(2, 2, "r", b"k", b"v1", 4.0, 5.0),
        ]
        violations = check_history(ops)
        assert len(violations) == 1 and "stale" in violations[0]

    def test_session_regression_is_reported(self):
        ops = [
            _op(1, 0, "w", b"k", b"v1", 0.0, 1.0),
            _op(1, 1, "w", b"k", b"v2", 2.0, 3.0),
            _op(2, 2, "r", b"k", b"v2", 4.0, 5.0),
            _op(2, 3, "r", b"k", b"v1", 6.0, 7.0),
        ]
        assert any("S1 session regression" in violation
                   for violation in check_history(ops))

    def test_indeterminate_write_may_or_may_not_appear(self):
        maybe = _op(1, 0, "w", b"k", b"v1", 0.0, math.inf, outcome="info")
        assert check_history([maybe,
                              _op(2, 1, "r", b"k", b"v1", 1.0, 2.0)]) == []
        assert check_history([maybe,
                              _op(2, 1, "r", b"k", None, 1.0, 2.0)]) == []

    def test_recorder_intervals_use_virtual_time(self):
        env = Environment()
        recorder = HistoryRecorder(env)

        def driver():
            op = recorder.invoke(1, "w", b"k", b"v")
            yield env.timeout(0.25)
            recorder.ok(op)

        env.run_until(env.process(driver(), name="drive"))
        op = recorder.ops[0]
        assert op.invoked == 0.0
        assert op.completed == pytest.approx(0.25)
        assert op.ok


class TestNemesis:
    def test_nemesis_fences_and_history_is_clean(self):
        result = nemesis_chaos(NemesisConfig())
        assert result.ok, "\n".join(result.summary_lines())
        assert result.partition_promotions >= 1
        assert result.fenced_writes > 0
        assert result.failovers >= 2  # fenced promotion + the kill
        assert result.wal_tail_records_replayed > 0
        assert result.failed_ops == 0
        assert result.availability == 1.0
        assert result.history_ops == result.ops
        assert result.net["partitions"] >= 2
        assert result.net["heals"] == 1

    def test_nemesis_is_deterministic(self):
        config = NemesisConfig(ops_per_client=80, seed=19)
        assert nemesis_chaos(config).summary_lines() == \
            nemesis_chaos(config).summary_lines()

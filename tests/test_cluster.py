"""Cluster layer tests: partitioning, WAL replication, failover,
kill-at-crash-site tail replay, availability oracle, determinism, and
snapshot aggregation (docs/FAULT_MODEL.md §6)."""

from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analysis.simcheck import check_paths
from repro.bench.report import aggregate_engine_stats, unified_snapshot
from repro.cluster import (
    ClusterConfig,
    ClusterStore,
    HashPartitioner,
    RangePartitioner,
    SHARD_ACTIVE,
    SHARD_FAILED,
    ShardDownError,
    make_partitioner,
    read_wal_tail,
)
from repro.faults import (
    ClusterChaosConfig,
    SITE_BARRIER,
    SITE_MANIFEST_COMMIT,
    SITE_WAL_APPEND,
    cluster_chaos,
)
from repro.lsm import LSMEngine, Options
from repro.obs import Tracer
from repro.sim import Environment, Kernel
from repro.storage import BlockDevice, PageCache, SimFS
from repro.svc import Server, run_open_loop
from repro.ycsb.workload import WORKLOADS

KB = 1 << 10

CLUSTER_DIR = str(Path(__file__).resolve().parent.parent
                  / "src" / "repro" / "cluster")


def cluster_options(**overrides):
    base = dict(memtable_size=256 * KB, sstable_size=64 * KB,
                level1_max_bytes=256 * KB, wal_sync=True)
    base.update(overrides)
    return Options(**base)


def make_cluster(num_shards=2, replicas=1, lag=0.001, partitioner="hash",
                 env=None, options=None, **config_overrides):
    env = env or Environment()
    config = ClusterConfig(num_shards=num_shards,
                           replicas_per_shard=replicas,
                           partitioner=partitioner,
                           replication_lag=lag,
                           heartbeat_interval=0.002,
                           page_cache_bytes=256 * KB,
                           **config_overrides)
    cluster = ClusterStore(env, LSMEngine, options or cluster_options(),
                           config)
    return env, cluster


def advance(env, seconds):
    """Run the simulation forward by ``seconds`` of virtual time."""

    def waiter():
        yield env.timeout(seconds)

    env.run_until(env.process(waiter(), name="advance"))


class TestPartitioning:
    def test_hash_is_deterministic_and_covers_all_shards(self):
        a = HashPartitioner(4)
        b = HashPartitioner(4)
        keys = [b"user%06d" % i for i in range(200)]
        assert [a.shard_of(k) for k in keys] == [b.shard_of(k) for k in keys]
        assert {a.shard_of(k) for k in keys} == {0, 1, 2, 3}
        assert all(0 <= a.shard_of(k) < 4 for k in keys)

    def test_range_partitioner_is_ordered(self):
        part = RangePartitioner.for_ycsb_keyspace(4)
        keys = [b"user%019d" % (i * 10 ** 17) for i in range(100)]
        shards = [part.shard_of(k) for k in sorted(keys)]
        assert shards == sorted(shards)  # monotone in key order
        assert shards[0] == 0 and shards[-1] == 3

    def test_make_partitioner(self):
        assert make_partitioner("hash", 3).kind == "hash"
        assert make_partitioner("range", 3).kind == "range"
        with pytest.raises(ValueError):
            make_partitioner("consistent-banana", 3)

    def test_router_reaches_every_shard(self):
        _env, cluster = make_cluster(num_shards=4, replicas=0)
        owners = {cluster.router.shard_for(b"user%06d" % i).shard_id
                  for i in range(100)}
        assert owners == {0, 1, 2, 3}
        cluster.close_sync()


class TestClusterBasics:
    def test_put_get_delete_scan_round_trip(self):
        _env, cluster = make_cluster(num_shards=3, replicas=1)
        for i in range(60):
            cluster.put_sync(b"rt%04d" % i, b"v%04d" % i)
        assert cluster.get_sync(b"rt0042") == b"v0042"
        cluster.delete_sync(b"rt0042")
        assert cluster.get_sync(b"rt0042") is None
        got = cluster.scan_sync(b"rt", 10)
        assert [k for k, _v in got] == [b"rt%04d" % i for i in range(10)]
        assert got[0][1] == b"v0000"
        cluster.close_sync()

    def test_requires_wal_sync(self):
        env = Environment()
        with pytest.raises(ValueError):
            ClusterStore(env, LSMEngine, cluster_options(wal_sync=False),
                         ClusterConfig(num_shards=1))

    def test_every_node_is_its_own_machine(self):
        _env, cluster = make_cluster(num_shards=2, replicas=1)
        nodes = cluster.nodes()
        assert len(nodes) == 4
        assert len({id(n.fs) for n in nodes}) == 4
        assert len({id(n.device) for n in nodes}) == 4
        assert [n.node_id for n in nodes] == [
            "shard0p", "shard0r0", "shard1p", "shard1r0"]
        cluster.close_sync()


class TestReplication:
    def test_replicas_converge_within_lag_bound(self):
        lag = 0.002
        env, cluster = make_cluster(num_shards=2, replicas=1, lag=lag)
        for i in range(80):
            cluster.put_sync(b"conv%04d" % i, b"x" * 32)
        advance(env, lag * 4)
        for shard in cluster.shards:
            primary_seq = shard.primary.db.versions.last_sequence
            assert primary_seq > 0
            for replica in shard.replicas:
                assert replica.applied_primary_seq == primary_seq
                assert replica.db.get_sync is not None
            link = shard.replication
            assert link.backlog == 0
            # Observed ship->apply lag is the configured delay plus the
            # replica's own commit time, never wildly above it.
            assert lag <= link.max_lag < lag + 0.05
        cluster.close_sync()

    def test_replica_applies_through_its_own_group_commit(self):
        env, cluster = make_cluster(num_shards=1, replicas=1)
        for i in range(40):
            cluster.put_sync(b"gc%04d" % i, b"y" * 16)
        advance(env, 0.02)
        replica = cluster.shards[0].replicas[0]
        # The shipped records went through the replica's own WAL path:
        # its engine counted commits and issued its own barriers.
        assert replica.db.stats.group_commits > 0
        assert replica.fs.stats.num_barrier_calls > 0
        cluster.close_sync()

    def test_replication_reads_never_touch_replicas(self):
        env, cluster = make_cluster(num_shards=1, replicas=1)
        cluster.put_sync(b"k", b"v")
        advance(env, 0.02)
        before = cluster.shards[0].replicas[0].device.stats.snapshot()
        for _ in range(20):
            assert cluster.get_sync(b"k") == b"v"
        after = cluster.shards[0].replicas[0].device.stats.snapshot()
        assert after.bytes_read == before.bytes_read


class TestFailover:
    def test_acked_writes_survive_failover(self):
        env, cluster = make_cluster(num_shards=2, replicas=1, lag=0.005)
        acked = {}
        for i in range(60):
            key = b"fo%04d" % i
            cluster.put_sync(key, b"val%04d" % i)
            acked[key] = b"val%04d" % i
        victim = cluster.shards[0]
        old_primary = victim.primary.node_id
        # Kill immediately: the 5 ms links still owe the replica records.
        victim.kill_primary()
        advance(env, 0.5)
        assert victim.state == SHARD_ACTIVE
        assert victim.primary.node_id != old_primary
        assert victim.failovers == 1
        for key, value in acked.items():
            assert cluster.get_sync(key) == value
        cluster.close_sync()

    def test_promotes_freshest_replica_and_replays_tail(self):
        env, cluster = make_cluster(num_shards=1, replicas=2, lag=0.001)
        shard = cluster.shards[0]
        # Handicap replica 1: its link is 50x slower, so replica 0 is
        # strictly fresher at the kill.
        shard.replication.links[1].lag = 0.05
        for i in range(50):
            cluster.put_sync(b"fresh%04d" % i, b"z" * 24)
        victim_seq = shard.primary.db.versions.last_sequence
        shard.kill_primary()
        advance(env, 0.5)
        assert shard.state == SHARD_ACTIVE
        assert shard.primary.node_id == "shard0r0"
        assert shard.wal_tail_records_replayed > 0
        # Tail replay brought the promoted replica to the dead
        # primary's acked frontier before traffic was readmitted.
        assert shard.primary.db.versions.last_sequence >= victim_seq
        # The surviving replica was rebased onto the new primary and
        # keeps replicating from it.
        cluster.put_sync(b"fresh-after", b"w")
        advance(env, 0.2)
        survivor = shard.replicas[0]
        assert survivor.applied_primary_seq == (
            shard.primary.db.versions.last_sequence)
        cluster.close_sync()

    def test_chained_failovers(self):
        env, cluster = make_cluster(num_shards=1, replicas=2, lag=0.001)
        shard = cluster.shards[0]
        for generation in range(2):
            key = b"gen%d" % generation
            cluster.put_sync(key, b"v%d" % generation)
            shard.kill_primary()
            advance(env, 0.5)
            assert shard.state == SHARD_ACTIVE
            assert shard.failovers == generation + 1
        assert cluster.get_sync(b"gen0") == b"v0"
        assert cluster.get_sync(b"gen1") == b"v1"
        cluster.close_sync()

    def test_shard_with_no_replicas_fails_typed(self):
        env, cluster = make_cluster(num_shards=1, replicas=0)
        cluster.put_sync(b"doomed", b"v")
        shard = cluster.shards[0]
        shard.kill_primary()
        advance(env, 0.5)
        assert shard.state == SHARD_FAILED
        with pytest.raises(ShardDownError):
            cluster.get_sync(b"doomed")

    def test_requests_during_failover_park_not_fail(self):
        env, cluster = make_cluster(num_shards=1, replicas=1, lag=0.001)
        cluster.put_sync(b"parked", b"v")
        shard = cluster.shards[0]
        results = []

        def reader():
            value = yield from cluster.get(b"parked")
            results.append((env.now, value))

        shard.kill_primary()
        env.process(reader(), name="parked-reader")
        advance(env, 0.5)
        assert results and results[0][1] == b"v"
        # The read waited for failover instead of failing: it resolved
        # after the heartbeat interval, charged to tail latency.
        assert results[0][0] >= 0.002
        cluster.close_sync()

    def test_read_wal_tail_decodes_in_sequence_order(self):
        env, cluster = make_cluster(num_shards=1, replicas=1)
        for i in range(30):
            cluster.put_sync(b"tail%04d" % i, b"t" * 8)
        primary = cluster.shards[0].primary
        primary.db.kill()
        primary.fs.crash(survive_probability=0.0)

        def read():
            return (yield from read_wal_tail(primary.fs, primary.db.dbname))

        records = env.run_until(env.process(read(), name="tail-read"))
        assert records
        firsts = [first for first, _last, _batch in records]
        assert firsts == sorted(firsts)
        assert records[-1][1] == primary.db.versions.last_sequence


class TestWalTailForeignFiles:
    """Regression: a non-WAL ``.log`` file in the db dir must not abort
    the failover tail read (it used to die on ``int('operator-notes')``)."""

    FOREIGN = (("notes.log", b"not a WAL"),
               ("operator-notes.log", b"not a WAL"),
               ("backup-000007.log", b"\x00" * 32),
               ("\u0663.log", b"isdecimal, but no WAL the engine wrote"))

    def _plant_foreign_logs(self, env, primary):
        def plant():
            for name, payload in self.FOREIGN:
                handle = yield from primary.fs.create(
                    f"{primary.db.dbname}/{name}")
                handle.write_at(0, payload)

        env.run_until(env.process(plant(), name="plant-foreign"))

    def test_read_wal_tail_skips_foreign_log_files(self):
        env, cluster = make_cluster(num_shards=1, replicas=1)
        for i in range(20):
            cluster.put_sync(b"wt%04d" % i, b"w" * 8)
        primary = cluster.shards[0].primary
        acked_seq = primary.db.versions.last_sequence
        self._plant_foreign_logs(env, primary)
        primary.db.kill()
        primary.fs.crash(survive_probability=1.0)

        def read():
            return (yield from read_wal_tail(primary.fs, primary.db.dbname))

        records = env.run_until(env.process(read(), name="tail-read"))
        assert records
        assert records[-1][1] == acked_seq  # every real record decoded

    def test_engine_reopen_skips_and_keeps_foreign_log_files(self):
        """Recovery lists WALs through the same lister: a stray ``.log``
        neither aborts ``open`` (it used to die on ``int('notes')``) nor
        is unlinked as an obsolete WAL, and every real record replays."""
        env = Environment()
        fs = SimFS(env, BlockDevice(env), PageCache(256 * KB))
        db = LSMEngine.open_sync(env, fs, cluster_options(), "db")
        for i in range(20):
            db.put_sync(b"fe%04d" % i, b"e" * 8)
        self._plant_foreign_logs(env, SimpleNamespace(fs=fs, db=db))
        db.kill()
        fs.crash(survive_probability=1.0)
        tracer = Tracer()
        db = LSMEngine.open_sync(env, fs, cluster_options(tracer=tracer), "db")
        assert (tracer.metrics.counter("wal.foreign_files_skipped").value
                == len(self.FOREIGN))
        assert db.versions.last_sequence == 20
        assert db.scan_sync(b"", 64) == [(b"fe%04d" % i, b"e" * 8)
                                         for i in range(20)]
        for name, payload in self.FOREIGN:
            assert fs.file_size(f"db/{name}") == len(payload)
        db.close_sync()

    def test_failover_survives_foreign_log_file(self):
        env, cluster = make_cluster(num_shards=1, replicas=1, lag=0.005)
        for i in range(30):
            cluster.put_sync(b"ff%04d" % i, b"f" * 8)
        shard = cluster.shards[0]
        self._plant_foreign_logs(env, shard.primary)
        shard.kill_primary(survive_probability=1.0)
        advance(env, 0.5)
        assert shard.state == SHARD_ACTIVE
        assert shard.failovers == 1
        for i in range(30):
            assert cluster.get_sync(b"ff%04d" % i) == b"f" * 8
        cluster.close_sync()


class TestRetryAfterFailover:
    """An unacked write abandoned by a mid-flight primary kill retries on
    the promoted primary as a *fresh* op: exactly one ack, no false
    lost-write, and a clean linearizability history."""

    def test_unacked_write_retries_and_history_is_clean(self):
        from repro.faults import HistoryRecorder, check_history
        env, cluster = make_cluster(num_shards=1, replicas=1, lag=0.001)
        shard = cluster.shards[0]
        recorder = HistoryRecorder(env)

        def acked_write(client, key, value):
            op = recorder.invoke(client, "w", key, value)
            yield from cluster.put(key, value)
            recorder.ok(op)

        env.run_until(env.process(acked_write(1, b"rk", b"old"),
                                  name="w-old"))
        # Kill the primary *at* the retried write's WAL append: the op
        # is in flight, definitely unacked, when the node dies.
        hook = _KillAtSite(shard, SITE_WAL_APPEND, hit_index=0)
        shard.primary.fs.faults = hook
        acks = []

        def retried_write():
            op = recorder.invoke(2, "w", b"rk", b"new")
            yield from cluster.put(b"rk", b"new")
            recorder.ok(op)
            acks.append(env.now)

        env.process(retried_write(), name="w-new")
        advance(env, 0.5)
        assert hook.fired
        assert shard.failovers == 1
        assert len(acks) == 1  # exactly one ack for the retried op
        read_op = recorder.invoke(2, "r", b"rk")
        value = cluster.get_sync(b"rk")
        recorder.ok(read_op, value)
        assert value == b"new"
        # The oracle sees one write op spanning the failover — the
        # internal retry is not a second op, so there is no false
        # lost-ack and no double-apply witness.
        assert check_history(recorder.ops) == []
        cluster.close_sync()


class _KillAtSite:
    """fs.faults hook: kill the shard's primary at one armed crash site."""

    def __init__(self, shard, site, hit_index=0):
        self.shard = shard
        self.site = site
        self.hit_index = hit_index
        self.hits = 0
        self.fired = False

    def reached(self, site, fs, **detail):
        if site != self.site:
            return
        index = self.hits
        self.hits += 1
        if self.fired or index != self.hit_index:
            return
        self.fired = True
        self.shard.kill_primary()


class TestKillAtEveryCrashSite:
    """Kill the primary *at* an armed WAL/manifest crash site mid-run;
    every acked write must read back after tail replay (§6)."""

    SITES = (
        (SITE_WAL_APPEND, 10, dict()),
        (SITE_WAL_APPEND, 40, dict()),
        (SITE_BARRIER, 25, dict()),
        # Tiny memtable: the run crosses flush + WAL rotation, so the
        # kill lands mid-MANIFEST-commit with a retired WAL on disk.
        (SITE_MANIFEST_COMMIT, 0,
         dict(memtable_size=4 * KB, sstable_size=2 * KB,
              level1_max_bytes=8 * KB)),
        (SITE_BARRIER, 60,
         dict(memtable_size=4 * KB, sstable_size=2 * KB,
              level1_max_bytes=8 * KB)),
    )

    @pytest.mark.parametrize("site,hit_index,opt", SITES,
                             ids=lambda v: str(v)[:28])
    def test_acked_writes_survive_site_kill(self, site, hit_index, opt):
        env, cluster = make_cluster(num_shards=1, replicas=1, lag=0.004,
                                    options=cluster_options(**opt))
        shard = cluster.shards[0]
        hook = _KillAtSite(shard, site, hit_index)
        shard.primary.fs.faults = hook
        acked = {}

        def driver():
            for i in range(120):
                key = b"site%04d" % i
                value = b"sv%04d" % i
                yield from cluster.put(key, value)
                acked[key] = value
                if hook.fired and shard.failovers:
                    return

        env.run_until(env.process(driver(), name="site-driver"))
        advance(env, 0.5)
        assert hook.fired, f"site {site} hit {hit_index} never armed"
        assert shard.state == SHARD_ACTIVE
        assert shard.failovers == 1
        assert acked  # the run acked writes before and/or across the kill
        for key, value in acked.items():
            assert cluster.get_sync(key) == value, (site, hit_index, key)
        cluster.close_sync()


class TestAvailabilityOracle:
    def test_chaos_zero_violations_and_tail_replay(self):
        result = cluster_chaos(ClusterChaosConfig(num_ops=240, seed=5))
        assert result.ok, "\n".join(result.summary_lines())
        assert result.availability == 1.0
        assert result.failovers == 1
        assert result.failed_shards == 0
        assert result.wal_tail_records_replayed > 0
        assert result.writes_rejected == 0
        assert 0.0 < result.max_replication_lag <= 0.25

    def test_chaos_is_deterministic(self):
        config = ClusterChaosConfig(num_ops=200, seed=9)
        first = cluster_chaos(config)
        second = cluster_chaos(config)
        assert first.summary_lines() == second.summary_lines()

    def test_oracle_counts_every_request(self):
        result = cluster_chaos(ClusterChaosConfig(num_ops=240, seed=5))
        assert result.reads + result.writes_acked \
            + result.writes_rejected == result.ops
        assert result.ops >= 240  # the pre-kill burst adds acked writes


class TestSnapshotAggregation:
    def test_aggregate_engine_stats_sums_counters(self):
        _env, cluster = make_cluster(num_shards=2, replicas=0)
        for i in range(40):
            cluster.put_sync(b"agg%04d" % i, b"a" * 16)
        dbs = [shard.primary.db for shard in cluster.shards]
        rolled = aggregate_engine_stats(dbs)
        assert rolled["engines"] == 2
        assert rolled["group_commits"] == sum(
            db.stats.group_commits for db in dbs)
        assert all(db.stats.group_commits > 0 for db in dbs)
        cluster.close_sync()

    def test_unified_snapshot_cluster_sections(self):
        env, cluster = make_cluster(num_shards=2, replicas=1)
        for i in range(40):
            cluster.put_sync(b"snap%04d" % i, b"s" * 16)
        advance(env, 0.02)
        snap = unified_snapshot(None, db=cluster)
        assert snap["engine"]["engines"] == 2
        assert "shard0" in snap and "shard1" in snap
        assert snap["shard0"]["replicas"] == 1
        per_shard_commits = (snap["shard0"]["group_commits"]
                             + snap["shard1"]["group_commits"])
        assert snap["engine"]["group_commits"] == per_shard_commits
        replication = snap["replication"]
        assert replication["replicas"] == 2
        assert replication["records_applied"] > 0
        assert replication["failovers"] == 0
        assert replication["max_lag"] > 0
        assert replication["backlog"] == 0
        # The unconfigured cluster still routes through the fabric.
        assert snap["net"]["messages_accepted"] > 0
        assert snap["net"]["sends_refused"] == 0
        assert snap["health"]["eio_retries"] == 0
        assert snap["health"]["read_only_shards"] == 0
        # device/fs sections sum over all four nodes.
        assert snap["fs"]["num_barrier_calls"] >= sum(
            s.primary.fs.stats.num_barrier_calls for s in cluster.shards)
        cluster.close_sync()

    def test_snapshot_reports_failover(self):
        env, cluster = make_cluster(num_shards=1, replicas=1)
        cluster.put_sync(b"k", b"v")
        cluster.shards[0].kill_primary()
        advance(env, 0.5)
        snap = unified_snapshot(None, db=cluster)
        assert snap["replication"]["failovers"] == 1
        assert snap["replication"]["wal_tail_records_replayed"] >= 0
        assert snap["shard0"]["failovers"] == 1
        cluster.close_sync()


class TestServerOverCluster:
    def _p999(self, backend_builder):
        env = Environment()
        db = backend_builder(env)
        value = b"p" * 64
        for i in range(100):
            db.put_sync(b"user%019d" % i, value)
        server = Server(env, db, num_workers=4, queue_depth=32)
        report = run_open_loop(env, server, WORKLOADS["b"], num_clients=2,
                               requests_per_client=60, rate=800.0,
                               record_count=100, value_size=64, seed=7)
        server.close_sync()
        totals = report.totals()
        assert totals["ok"] == totals["submitted"]
        return totals["p999"]

    def test_single_shard_p999_matches_single_engine(self):
        from repro.storage import BlockDevice, PageCache, SimFS

        def single_engine(env):
            fs = SimFS(env, BlockDevice(env), PageCache(256 * KB))
            return LSMEngine.open_sync(env, fs, cluster_options(), "db")

        def one_shard_cluster(env):
            _env, cluster = make_cluster(num_shards=1, replicas=0, env=env)
            return cluster

        single = self._p999(single_engine)
        sharded = self._p999(one_shard_cluster)
        # The router adds scheduling, not virtual time: the sharded
        # tail must stay within a sliver of the direct engine's.
        assert sharded <= single * 1.05 + 1e-6

    def test_server_stays_up_through_shard_kill(self):
        env, cluster = make_cluster(num_shards=2, replicas=1, lag=0.001)
        for i in range(50):
            cluster.put_sync(b"user%019d" % i, b"u" * 32)
        server = Server(env, cluster, num_workers=4, queue_depth=32)

        def killer():
            yield env.timeout(0.01)
            cluster.shards[0].kill_primary()

        env.process(killer(), name="killer")
        report = run_open_loop(env, server, WORKLOADS["a"], num_clients=2,
                               requests_per_client=80, rate=2000.0,
                               record_count=50, value_size=32, seed=3)
        server.close_sync()
        totals = report.totals()
        assert totals["ok"] == totals["submitted"]
        assert cluster.shards[0].failovers == 1
        cluster.close_sync()


    def test_served_requests_do_not_pile_up_on_primary_down(self):
        """Each operation races its shard's ``primary_down``, which never
        fires while the primary lives; a finished race must detach."""
        env, cluster = make_cluster(num_shards=2, replicas=1)
        for i in range(50):
            cluster.put_sync(b"user%019d" % i, b"u" * 32)
        server = Server(env, cluster, num_workers=4, queue_depth=32)
        seen = []

        def sampler():
            while True:
                seen.append(max(len(shard.primary_down.callbacks)
                                for shard in cluster.shards))
                yield env.timeout(0.0005)

        env.process(sampler(), name="sampler")
        report = run_open_loop(env, server, WORKLOADS["a"], num_clients=2,
                               requests_per_client=150, rate=2000.0,
                               record_count=50, value_size=32, seed=5)
        server.close_sync()
        totals = report.totals()
        assert totals["ok"] == totals["submitted"] == 300
        assert len(seen) > 100 and max(seen) <= 4  # at most one per worker
        assert [len(shard.primary_down.callbacks)
                for shard in cluster.shards] == [0, 0]
        cluster.close_sync()


class TestAnalysisCleanliness:
    def test_simcheck_clean_over_cluster(self):
        assert check_paths([CLUSTER_DIR]) == []

    def test_failover_path_is_sanitizer_clean(self):
        env = Kernel(sanitize=True)
        _env, cluster = make_cluster(num_shards=2, replicas=1, env=env)
        for i in range(30):
            cluster.put_sync(b"san%04d" % i, b"s" * 16)
        cluster.shards[0].kill_primary()
        advance(env, 0.5)
        assert cluster.shards[0].failovers == 1
        cluster.close_sync()
        assert env.sanitizer.reports == []
        env.sanitizer.check()

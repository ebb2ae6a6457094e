"""Tests for repro.objstore: tiered object storage for cold LSSTs.

Covers the simulated object store (determinism, cost model, PUT
atomicity), the bounded LSST cache (LRU eviction, single-flight
fetches), the tiering policy end to end on a BoLT engine (demotion,
reads through the cache, restore-from-object-store recovery and its
fixed point, orphan GC with the foreign-key defensive skip), the
tiering-off invariant (no tier section, no remote attachment), and the
checker's tier-pointer clause (dangling and torn objects are caught).
"""

import random

import pytest

from repro.bench.report import unified_snapshot
from repro.engines import bolt_options
from repro.lsm import LSMEngine
from repro.lsm.sink import parse_container_number
from repro.faults.checker import CrashChecker
from repro.objstore import (
    LsstCache,
    ObjectStore,
    ObjectStoreError,
    RemoteProfile,
)
from repro.sim import Environment
from repro.storage import BlockDevice, PageCache, SimFS

KB = 1 << 10
SCALE = 1024


def fresh_stack():
    env = Environment()
    device = BlockDevice(env)
    fs = SimFS(env, device, PageCache(16 << 20))
    return env, device, fs


def drive(env, gen):
    """Run a coroutine to completion on ``env`` and return its value."""
    return env.run_until(env.process(gen))


def tiered_options(**overrides):
    """BoLT options sized so a small workload demotes aggressively."""
    base = bolt_options(SCALE)
    small = dict(tiering_enabled=True, tier_cold_level=1,
                 tier_cache_bytes=256 * KB,
                 memtable_size=max(1, base.memtable_size // 32),
                 level1_max_bytes=max(1, base.level1_max_bytes // 4))
    small.update(overrides)
    return base.copy(**small)


def load_random(env, db, n=2500, keyspace=1200, seed=11, value_size=80):
    rng = random.Random(seed)
    model = {}

    def writer():
        for i in range(n):
            key = b"user%08d" % rng.randrange(keyspace)
            value = b"v" * value_size + b"%d" % i
            model[key] = value
            yield from db.put(key, value)
        yield from db.flush_all()

    env.run_until(env.process(writer()))
    return model


# ---------------------------------------------------------------------------
# ObjectStore
# ---------------------------------------------------------------------------

class TestObjectStore:
    def test_put_get_roundtrip_and_costs(self):
        env, _device, _fs = fresh_stack()
        store = ObjectStore(env, seed=3)
        drive(env, store.put("db/000001.cf", b"x" * 1000))
        assert store.exists("db/000001.cf")
        assert store.object_length("db/000001.cf") == 1000
        assert drive(env, store.get("db/000001.cf")) == b"x" * 1000
        assert store.stats.puts == 1 and store.stats.gets == 1
        assert store.stats.bytes_in == 1000 and store.stats.bytes_out == 1000
        profile = store.profile
        assert store.stats.request_dollars == pytest.approx(
            profile.put_dollars + profile.get_dollars)
        # Storage accrues with virtual time at the profile's GB-month rate.
        before = store.storage_dollars()
        drive(env, _sleep(env, 3600.0))
        assert store.storage_dollars() > before

    def test_get_missing_raises(self):
        env, _device, _fs = fresh_stack()
        store = ObjectStore(env)
        with pytest.raises(ObjectStoreError):
            drive(env, store.get("db/000009.cf"))

    def test_deterministic_for_fixed_seed(self):
        def run():
            env, _device, _fs = fresh_stack()
            store = ObjectStore(env, seed=42)
            for i in range(8):
                drive(env, store.put("db/%06d.cf" % i, b"d" * (100 * (i + 1))))
                drive(env, store.get("db/%06d.cf" % i))
            return env.now, store.stats.get_latencies

        assert run() == run()

    def test_bandwidth_pipe_is_shared(self):
        """Two large concurrent PUTs serialize on the bandwidth ceiling."""
        env, _device, _fs = fresh_stack()
        store = ObjectStore(env, RemoteProfile(jitter=0.0), seed=0)
        nbytes = 10_000_000  # 0.1 s of pipe each at 100 MB/s
        procs = [env.process(store.put("db/%06d.cf" % i, b"z" * nbytes))
                 for i in range(2)]
        env.run_until(env.all_of(procs))
        # Serialized transfers: 2 * 0.1 s of pipe + one latency overlap.
        assert env.now >= 2 * nbytes / store.profile.bandwidth

    def test_delete_is_idempotent(self):
        env, _device, _fs = fresh_stack()
        store = ObjectStore(env)
        drive(env, store.put("db/000001.cf", b"abc"))
        drive(env, store.delete("db/000001.cf"))
        drive(env, store.delete("db/000001.cf"))
        assert not store.exists("db/000001.cf")
        assert store.stored_bytes == 0

    def test_list_keys_prefix(self):
        env, _device, _fs = fresh_stack()
        store = ObjectStore(env, objects={"db/000002.cf": b"a",
                                          "db/000001.cf": b"b",
                                          "other/000003.cf": b"c"})
        keys = drive(env, store.list_keys("db/"))
        assert keys == ["db/000001.cf", "db/000002.cf"]


def _sleep(env, delay):
    yield env.timeout(delay)


# ---------------------------------------------------------------------------
# LsstCache
# ---------------------------------------------------------------------------

class TestLsstCache:
    def _cache(self, capacity=4 * KB, objects=None):
        env, _device, fs = fresh_stack()
        store = ObjectStore(env, seed=5, objects=objects or {})
        return env, fs, store, LsstCache(fs, store, "db", capacity)

    def test_miss_fetches_then_hits_locally(self):
        objects = {"db/000001.cf": b"p" * 500}
        env, fs, store, cache = self._cache(objects=objects)
        handle = drive(env, cache.ensure("db/000001.cf"))
        assert drive(env, handle.read(0, 500)) == b"p" * 500
        drive(env, cache.ensure("db/000001.cf"))
        assert cache.hits == 1 and cache.misses == 1
        assert store.stats.gets == 1  # the hit never touched the store

    def test_single_flight_coalesces_concurrent_fetches(self):
        objects = {"db/000001.cf": b"p" * 500}
        env, fs, store, cache = self._cache(objects=objects)
        procs = [env.process(cache.ensure("db/000001.cf")) for _ in range(3)]
        env.run_until(env.all_of(procs))
        assert store.stats.gets == 1
        assert cache.misses == 1
        assert cache.single_flight_waits == 2

    def test_lru_evicts_and_unlinks(self):
        objects = {"db/%06d.cf" % i: b"e" * 1000 for i in range(3)}
        env, fs, store, cache = self._cache(capacity=1500, objects=objects)
        for i in range(3):
            drive(env, cache.ensure("db/%06d.cf" % i))
        assert cache.evictions == 2
        assert not fs.exists("db/objcache/000000.cf")
        assert not fs.exists("db/objcache/000001.cf")
        assert fs.exists("db/objcache/000002.cf")

    def test_cache_files_live_under_objcache(self):
        objects = {"db/000007.cf": b"q" * 64}
        env, fs, store, cache = self._cache(objects=objects)
        drive(env, cache.ensure("db/000007.cf"))
        assert cache.local_name("db/000007.cf") == "db/objcache/000007.cf"
        assert fs.exists("db/objcache/000007.cf")
        assert not fs.exists("db/000007.cf")  # never shadows the real name


# ---------------------------------------------------------------------------
# parse_container_number (the defensive foreign-key skip)
# ---------------------------------------------------------------------------

class TestParseContainerNumber:
    def test_accepts_container_names(self):
        assert parse_container_number("db/000012.cf") == 12
        assert parse_container_number("000003.cf") == 3

    def test_rejects_foreign_keys(self):
        assert parse_container_number("db/MANIFEST-000001") is None
        assert parse_container_number("db/000012.ldb") is None
        assert parse_container_number("db/000012.cf.bak") is None
        assert parse_container_number("db/backup.tgz") is None
        assert parse_container_number("db/00a0.cf") is None
        assert parse_container_number("db/.cf") is None


# ---------------------------------------------------------------------------
# Tiering end to end on a BoLT engine
# ---------------------------------------------------------------------------

class TestTieringEndToEnd:
    def _tiered_db(self, fs_env=None, **overrides):
        env, _device, fs = fs_env or fresh_stack()
        db = LSMEngine.open_sync(env, fs, tiered_options(**overrides), "db")
        return env, fs, db

    def test_demotion_moves_cold_containers_remote(self):
        env, fs, db = self._tiered_db()
        model = load_random(env, db)
        drive(env, db.wait_idle())
        tiering = db.tiering
        assert tiering.demotions > 0
        remote = db.versions.current.remote_containers
        assert remote
        # Demoted locals are unlinked once no read is in flight; the
        # object store holds each container at its recorded length.
        for container, (length, _crc) in remote.items():
            assert fs.remote.object_length(container) == length
        # Reads still return exactly the model, through the cache.
        for key in sorted(model)[:200]:
            assert db.get_sync(key) == model[key]

    def test_reads_route_through_cache_after_unlink(self):
        env, fs, db = self._tiered_db()
        model = load_random(env, db)
        drive(env, db.wait_idle())
        remote = [c for c in db.versions.current.remote_containers
                  if not fs.exists(c)]
        assert remote  # at least one demoted local got unlinked
        for key in sorted(model):
            assert db.get_sync(key) == model[key]
        assert db.tiering.cache.misses > 0

    def test_restore_from_object_store_and_fixed_point(self):
        """Satellite: cold-cache reopen, and reopen-of-reopen fixed point."""
        env, fs, db = self._tiered_db()
        model = load_random(env, db)
        drive(env, db.wait_idle())
        assert db.tiering.demotions > 0
        expected = db.scan_sync(b"", len(model) + 64)
        db.close_sync()
        fs.crash(survive_probability=0.0)  # cache dies, objects survive
        db2 = LSMEngine.open_sync(env, fs, tiered_options(), "db")
        first = db2.scan_sync(b"", len(model) + 64)
        assert first == expected
        assert db2.tiering.cache.misses > 0  # really fetched from remote
        db2.close_sync()
        fs.crash(survive_probability=0.0)
        db3 = LSMEngine.open_sync(env, fs, tiered_options(), "db")
        second = db3.scan_sync(b"", len(model) + 64)
        assert second == first  # recovery is a fixed point
        db3.close_sync()

    def test_recover_gc_collects_orphans_and_skips_foreign_keys(self):
        env, fs, db = self._tiered_db()
        load_random(env, db)
        drive(env, db.wait_idle())
        assert db.tiering.demotions > 0
        store = fs.remote
        # An orphan: a PUT whose demotion edit never committed.
        drive(env, store.put("db/999999.cf", b"orphan"))
        # Foreign keys under the prefix: never container names, so the
        # GC must skip them (the remote twin of read_wal_tail's skip).
        drive(env, store.put("db/backup.tgz", b"ops"))
        drive(env, store.put("db/MANIFEST-000001", b"copy"))
        db.close_sync()
        fs.crash(survive_probability=0.0)
        db2 = LSMEngine.open_sync(env, fs, tiered_options(), "db")
        assert not store.exists("db/999999.cf")
        assert store.exists("db/backup.tgz")
        assert store.exists("db/MANIFEST-000001")
        assert db2.tiering.orphans_collected == 1
        assert db2.tiering.foreign_objects_skipped == 2
        db2.close_sync()

    def test_release_keeps_pointer_while_referenced(self):
        env, fs, db = self._tiered_db()
        load_random(env, db)
        drive(env, db.wait_idle())
        tiering = db.tiering
        remote = sorted(db.versions.current.remote_containers)
        assert remote
        container = remote[0]
        # Still referenced by live tables: maybe_release claims the
        # container (True) but must not drop the pointer or the object.
        assert drive(env, tiering.maybe_release(container, db._meter()))
        assert db.versions.current.is_remote(container)
        assert fs.remote.exists(container)
        # A container that was never demoted is not its business.
        assert not drive(env, tiering.maybe_release("db/000000.cf",
                                                    db._meter()))

    def test_snapshot_reports_tier_section(self):
        env, fs, db = self._tiered_db()
        load_random(env, db)
        drive(env, db.wait_idle())

        class _Stack:
            pass

        stack = _Stack()
        stack.env, stack.fs, stack.device = env, fs, fs.device
        snap = unified_snapshot(stack, db)
        tier = snap["tier"]
        assert tier["demotions"] == db.tiering.demotions
        assert tier["remote_containers"] > 0
        assert tier["cache_hit_rate"] >= 0.0
        assert tier["remote_dollars_spent"] > 0.0

    def test_tiering_off_leaves_no_trace(self):
        env, _device, fs = fresh_stack()
        db = LSMEngine.open_sync(env, fs, bolt_options(SCALE), "db")
        load_random(env, db, n=400)
        assert db.tiering is None
        assert fs.remote is None

        class _Stack:
            pass

        stack = _Stack()
        stack.env, stack.fs, stack.device = env, fs, fs.device
        assert "tier" not in unified_snapshot(stack, db)
        db.close_sync()

    def test_tiering_requires_compaction_files(self):
        from repro.engines import leveldb_options
        env, _device, fs = fresh_stack()
        options = leveldb_options(SCALE).copy(tiering_enabled=True)
        with pytest.raises(ValueError):
            LSMEngine.open_sync(env, fs, options, "db")


# ---------------------------------------------------------------------------
# Checker clause 5: tier pointers are sound
# ---------------------------------------------------------------------------

class TestTierPointerClause:
    def _demoted_db(self):
        env, _device, fs = fresh_stack()
        db = LSMEngine.open_sync(env, fs, tiered_options(), "db")
        load_random(env, db)
        drive(env, db.wait_idle())
        assert db.versions.current.remote_containers
        return env, fs, db

    def test_clean_store_has_no_violations(self):
        env, fs, db = self._demoted_db()
        checker = CrashChecker(LSMEngine, tiered_options(), "db")
        label = dict(site="test", model="none")
        assert checker._check_tier_refs(fs, db, label) == []

    def test_dangling_pointer_is_caught(self):
        env, fs, db = self._demoted_db()
        container = sorted(db.versions.current.remote_containers)[0]
        del fs.remote.objects[container]
        checker = CrashChecker(LSMEngine, tiered_options(), "db")
        violations = checker._check_tier_refs(
            fs, db, dict(site="test", model="none"))
        assert [v.kind for v in violations] == ["dangling-tier-pointer"]

    def test_torn_object_is_caught(self):
        env, fs, db = self._demoted_db()
        container = sorted(db.versions.current.remote_containers)[0]
        data = fs.remote.objects[container]
        fs.remote.objects[container] = data[:-1] + bytes([data[-1] ^ 0xFF])
        checker = CrashChecker(LSMEngine, tiered_options(), "db")
        violations = checker._check_tier_refs(
            fs, db, dict(site="test", model="none"))
        assert [v.kind for v in violations] == ["torn-tier-object"]

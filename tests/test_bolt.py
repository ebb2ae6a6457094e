"""Tests for BoLT's four techniques (paper §3) and HyperBoLT."""

import random

import pytest

from repro.bench.harness import (ALL_SYSTEMS, BenchConfig, Stack,
                                 open_engine)
from repro.engines import (
    ABLATION_STAGES,
    HyperLevelDBEngine,
    bolt_ablation_options,
    bolt_options,
    hyperbolt_options,
    leveldb_options,
)
from repro.lsm import Compaction, LSMEngine
from repro.sim import Environment
from repro.storage import BlockDevice, PageCache, SimFS

SCALE = 1024
MB = 1 << 20


def fresh_stack():
    env = Environment()
    fs = SimFS(env, BlockDevice(env), PageCache(16 << 20))
    return env, fs


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


class TestBoltIsAConfiguration:
    """BoLT's techniques are options the engine reads: each BoLT system
    is its base system's engine class opened with BoLT's options, and
    its row names the engine after the integration."""

    @pytest.mark.parametrize("base,bolt", [
        ("leveldb", "bolt"), ("hyperleveldb", "hyperbolt"),
        ("rocksdb", "rocksbolt"),
    ], ids=["leveldb", "hyperleveldb", "rocksdb"])
    def test_base_engine_with_bolt_options_is_bolt(self, base, bolt):
        systems = ALL_SYSTEMS
        engine_cls = systems[base].engine_cls
        assert systems[bolt].engine_cls is engine_cls
        env, fs = fresh_stack()
        db = open_engine(Stack(env, fs.device, fs), systems[bolt],
                         BenchConfig(scale=SCALE))
        load_random(env, db, n=2000, keyspace=1500)
        assert (engine_cls.name, db.name) == (base, bolt)
        assert db.stats.compactions > 0
        assert any(name.endswith(".cf") for name in fs.listdir())


class TestCompactionFile:
    def test_all_tables_land_in_cf_containers(self):
        env, fs = fresh_stack()
        db = LSMEngine.open_sync(env, fs, bolt_options(SCALE), "db")
        load_random(env, db)
        containers = {meta.container
                      for meta in db.versions.current.live_numbers().values()}
        assert containers
        assert all(name.endswith(".cf") for name in containers)

    def test_logical_tables_share_containers(self):
        """§3.2: many logical SSTables at distinct offsets of one file."""
        env, fs = fresh_stack()
        db = LSMEngine.open_sync(env, fs, bolt_options(SCALE), "db")
        load_random(env, db)
        by_container = {}
        for meta in db.versions.current.live_numbers().values():
            by_container.setdefault(meta.container, []).append(meta)
        assert any(len(metas) > 1 for metas in by_container.values())
        for metas in by_container.values():
            metas.sort(key=lambda m: m.offset)
            for left, right in zip(metas, metas[1:]):
                assert left.offset + left.length <= right.offset

    def test_two_barriers_per_compaction(self):
        """§3.1: one fsync for the compaction file + one for MANIFEST,
        regardless of the number of output tables."""
        env, fs = fresh_stack()
        options = bolt_options(SCALE, settled=False, fd_cache=False)
        db = LSMEngine.open_sync(env, fs, bolt_options(SCALE), "db")
        load_random(env, db, n=3000)
        jobs = db.stats.compactions + db.stats.memtable_flushes
        # Settled promotions pay only the MANIFEST barrier, so the
        # average is at most 2 barriers per background job.
        assert fs.stats.num_barrier_calls <= 2 * jobs + 4

    def test_many_fewer_fsyncs_than_leveldb(self):
        def fsyncs(engine_cls, options):
            env, fs = fresh_stack()
            db = engine_cls.open_sync(env, fs, options, "db")
            load_random(env, db, n=3000, keyspace=3000)
            return fs.stats.num_barrier_calls

        bolt = fsyncs(LSMEngine, bolt_options(SCALE))
        stock = fsyncs(LSMEngine, leveldb_options(SCALE))
        assert bolt < stock / 2


class TestGroupCompaction:
    def test_group_selects_multiple_victims(self):
        env, fs = fresh_stack()
        db = LSMEngine.open_sync(env, fs, bolt_options(SCALE), "db")
        load_random(env, db, n=3000)
        assert db.stats.compactions > 0
        assert db.stats.group_victims > db.stats.compactions

    def test_larger_group_means_fewer_fsyncs(self):
        """Fig 11's monotone trend."""
        def fsyncs(group_bytes):
            env, fs = fresh_stack()
            options = bolt_options(SCALE, settled=False, fd_cache=False,
                                   group_bytes=0).copy(
                group_compaction_bytes=group_bytes)
            db = LSMEngine.open_sync(env, fs, options, "db")
            load_random(env, db, n=3000, keyspace=3000)
            return fs.stats.num_barrier_calls

        small, large = fsyncs(4 * MB // SCALE), fsyncs(64 * MB // SCALE)
        assert large < small

    def test_group_budget_respected(self):
        env, fs = fresh_stack()
        options = bolt_options(SCALE)
        db = LSMEngine.open_sync(env, fs, options, "db")
        from repro.lsm.version import FileMetaData, Version
        version = Version(4)
        for i in range(20):
            version.add_file(1, FileMetaData(
                number=i + 1, container=f"{i}.cf", offset=0, length=1000,
                smallest=b"%04d" % (2 * i), largest=b"%04d" % (2 * i + 1)))
        victims = db._pick_victims(version, 1)
        budget = options.group_compaction_bytes
        total = sum(v.length for v in victims)
        assert total >= min(budget, 20 * 1000) or len(victims) == 20
        assert total - victims[-1].length < budget


class TestSettledCompaction:
    def test_promotions_happen_and_save_io(self):
        env, fs = fresh_stack()
        db = LSMEngine.open_sync(env, fs, bolt_options(SCALE), "db")
        # Sequential keys create plenty of non-overlapping victims.
        def writer():
            for i in range(3000):
                yield from db.put(b"seq%08d" % i, b"v" * 80)
            yield from db.flush_all()

        env.run_until(env.process(writer()))
        assert db.stats.settled_promotions > 0

    def test_settled_reduces_bytes_written(self):
        """Fig 12: +STL cuts total disk I/O (9.5% in the paper)."""
        def written(settled):
            env, fs = fresh_stack()
            options = bolt_options(SCALE, settled=settled, fd_cache=False)
            db = LSMEngine.open_sync(env, fs, options, "db")
            rng = random.Random(5)

            def writer():
                for i in range(4000):
                    yield from db.put(b"user%08d" % rng.randrange(4000),
                                      b"v" * 80)
                yield from db.flush_all()

            env.run_until(env.process(writer()))
            return fs.device.stats.bytes_written

        assert written(True) < written(False)

    def test_correctness_with_settled_enabled(self):
        env, fs = fresh_stack()
        db = LSMEngine.open_sync(env, fs, bolt_options(SCALE), "db")
        model = load_random(env, db, n=4000, keyspace=1500)

        def verify():
            for key, value in model.items():
                got = yield from db.get(key)
                assert got == value, key

        env.run_until(env.process(verify()))
        db.versions.current.check_invariants()


class TestHolePunching:
    def test_dead_logical_tables_punched_not_unlinked(self):
        env, fs = fresh_stack()
        db = LSMEngine.open_sync(env, fs, bolt_options(SCALE), "db")
        # A wide keyspace scatters victims, so containers die partially
        # and must be hole-punched rather than unlinked.
        load_random(env, db, n=6000, keyspace=6000)
        assert fs.stats.num_hole_punches > 0

    def test_space_reclaimed(self):
        env, fs = fresh_stack()
        db = LSMEngine.open_sync(env, fs, bolt_options(SCALE), "db")
        load_random(env, db, n=3000, keyspace=500)  # heavy overwrites
        live_bytes = sum(m.length for m in
                         db.versions.current.live_numbers().values())
        # Disk usage must track live data, not the total ever written.
        assert fs.total_allocated_bytes() < 3 * live_bytes + (1 << 20)

    def test_empty_containers_unlinked(self):
        env, fs = fresh_stack()
        db = LSMEngine.open_sync(env, fs, bolt_options(SCALE), "db")
        load_random(env, db, n=3000, keyspace=400)
        live = {m.container for m in
                db.versions.current.live_numbers().values()}
        on_disk = {n for n in fs.listdir("db/") if n.endswith(".cf")}
        assert on_disk == live


class TestFdCache:
    def test_fd_cache_reduces_metadata_ops(self):
        def metadata_ops(fd_cache):
            env, fs = fresh_stack()
            options = bolt_options(SCALE, fd_cache=fd_cache).copy(
                max_open_files=8)  # force TableCache churn
            db = LSMEngine.open_sync(env, fs, options, "db")
            model = load_random(env, db, n=2000, keyspace=2000)

            def reader():
                for key in list(model)[:600]:
                    yield from db.get(key)

            env.run_until(env.process(reader()))
            return fs.device.stats.num_metadata_ops

        assert metadata_ops(True) < metadata_ops(False)

    def test_fd_cache_hits_recorded(self):
        env, fs = fresh_stack()
        options = bolt_options(SCALE).copy(max_open_files=8)
        db = LSMEngine.open_sync(env, fs, options, "db")
        model = load_random(env, db, n=2000, keyspace=2000)

        def reader():
            for key in list(model)[:400]:
                yield from db.get(key)

        env.run_until(env.process(reader()))
        assert db.fd_cache is not None
        assert db.fd_cache.hits > 0


class TestAblationOptions:
    def test_stage_progression(self):
        stock = bolt_ablation_options("stock", SCALE)
        ls = bolt_ablation_options("+LS", SCALE)
        gc = bolt_ablation_options("+GC", SCALE)
        stl = bolt_ablation_options("+STL", SCALE)
        fc = bolt_ablation_options("+FC", SCALE)
        assert not stock.use_compaction_file
        assert ls.use_compaction_file and not ls.group_compaction_bytes
        assert gc.group_compaction_bytes and not gc.enable_settled_compaction
        assert stl.enable_settled_compaction and not stl.enable_fd_cache
        assert fc.enable_fd_cache

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError):
            bolt_ablation_options("+XX", SCALE)

    def test_all_stages_run_correctly(self):
        for stage in ABLATION_STAGES:
            options = bolt_ablation_options(stage, SCALE)
            env, fs = fresh_stack()
            db = LSMEngine.open_sync(env, fs, options, "db")
            model = load_random(env, db, n=800)
            for key in list(model)[:50]:
                assert db.get_sync(key) == model[key], (stage, key)


class TestHyperBoLT:
    def test_correct_and_recoverable(self):
        env, fs = fresh_stack()
        db = HyperLevelDBEngine.open_sync(env, fs, hyperbolt_options(SCALE), "db")
        model = load_random(env, db, n=2500)
        fs.crash(survive_probability=0.0)
        db2 = HyperLevelDBEngine.open_sync(env, fs, hyperbolt_options(SCALE), "db")

        def verify():
            for key, value in model.items():
                got = yield from db2.get(key)
                assert got == value, key

        env.run_until(env.process(verify()))

    def test_inherits_hyper_governors(self):
        options = hyperbolt_options()
        assert options.enable_l0_stop is False
        assert options.use_compaction_file


class TestRocksBoLT:
    """The paper's §4.1 future work: BoLT inside RocksDB."""

    def test_correct_and_recoverable(self):
        from repro.engines import RocksDBEngine, rocksbolt_options
        env, fs = fresh_stack()
        options = rocksbolt_options(SCALE)
        db = RocksDBEngine.open_sync(env, fs, options, "db")
        model = load_random(env, db, n=2500)
        fs.crash(survive_probability=0.0)
        db2 = RocksDBEngine.open_sync(env, fs, options, "db")

        def verify():
            for key, value in model.items():
                got = yield from db2.get(key)
                assert got == value, key

        env.run_until(env.process(verify()))

    def test_keeps_rocksdb_traits_and_gains_bolt_features(self):
        from repro.engines import RocksDBEngine, rocksbolt_options
        options = rocksbolt_options(SCALE)
        assert RocksDBEngine.read_lock is False       # RocksDB trait
        assert options.num_compaction_threads == 2      # RocksDB trait
        assert options.table_format.per_record_overhead == 24
        assert options.use_compaction_file              # BoLT trait
        assert options.enable_settled_compaction        # BoLT trait

    def test_fewer_fsyncs_than_stock_rocksdb(self):
        from repro.engines import RocksDBEngine, rocksbolt_options, rocksdb_options

        def fsyncs(engine_cls, options):
            env, fs = fresh_stack()
            db = engine_cls.open_sync(env, fs, options, "db")
            load_random(env, db, n=3000, keyspace=3000)
            return fs.stats.num_barrier_calls

        assert (fsyncs(RocksDBEngine, rocksbolt_options(SCALE))
                < fsyncs(RocksDBEngine, rocksdb_options(SCALE)))


class TestTieredCompactionInput:
    def test_demoted_input_is_read_through_open_handle(self):
        """A victim whose container lives only in the object store is
        still one extent read: ``TableCache.open_handle`` routes to the
        tier fallback, not to a bare ``fs.open`` that would fail."""
        env, fs = fresh_stack()
        base = bolt_options(SCALE)
        options = base.copy(
            tiering_enabled=True, tier_cold_level=1, tier_cache_bytes=256 << 10,
            enable_settled_compaction=False,
            memtable_size=max(1, base.memtable_size // 32),
            level1_max_bytes=max(1, base.level1_max_bytes // 4))
        db = LSMEngine.open_sync(env, fs, options, "db")
        model = load_random(env, db)
        env.run_until(env.process(db.wait_idle()))
        version = db.versions.current
        level, victim = next(
            (level, meta) for level in range(1, version.num_levels - 1)
            for meta in version.files[level]
            if version.is_remote(meta.container) and not fs.exists(meta.container))
        overlaps = version.overlapping_files(level + 1, victim.smallest,
                                             victim.largest)
        opened = []
        opener = db.table_cache.open_container

        def recording_opener(name):
            opened.append(name)
            return opener(name)

        db.table_cache.open_container = recording_opener
        fetched = db.tiering.cache.hits + db.tiering.cache.misses
        cached = (len(db.table_cache), db.table_cache.misses)
        # A seek compaction, so a lone victim is merged, not moved.
        compaction = Compaction(level, [victim], overlaps, is_seek_compaction=True)
        env.run_until(env.process(db._run_compaction(compaction)))
        db.table_cache.open_container = opener

        assert opened[0] == victim.container
        assert sorted(opened) == sorted(m.container for m in compaction.inputs)
        assert db.tiering.cache.hits + db.tiering.cache.misses > fetched
        assert (len(db.table_cache), db.table_cache.misses) == cached
        assert not db.versions.current.has_file(level, victim.number)
        env.run_until(env.process(db.wait_idle()))
        for key, value in model.items():
            assert db.get_sync(key) == value

    def test_punching_a_vanished_container_fetches_nothing(self):
        """Hole punching opens the container locally (FD cache), not
        through the tier fallback: a container unlinked between the
        ``exists`` check and the open is a lost race — the dead table
        is skipped, nothing is fetched back from the remote tier."""
        from collections import Counter
        from repro.storage import FileSystemError
        env, fs = fresh_stack()
        base = bolt_options(SCALE)
        options = base.copy(
            tiering_enabled=True, tier_cold_level=1, tier_cache_bytes=256 << 10,
            memtable_size=max(1, base.memtable_size // 32))
        db = LSMEngine.open_sync(env, fs, options, "db")
        load_random(env, db)
        env.run_until(env.process(db.wait_idle()))
        version = db.versions.current
        tables = [meta for files in version.files for meta in files]
        shared = Counter(meta.container for meta in tables)
        meta = next(m for m in tables if shared[m.container] > 1
                    and not version.is_remote(m.container)
                    and fs.exists(m.container))

        def vanished(name):
            raise FileSystemError(name)
            yield

        db.fd_cache.open = vanished
        tier = db.tiering.cache
        fetched = tier.hits + tier.misses
        punches = fs.stats.num_hole_punches
        env.run_until(env.process(db._cleanup_tables([meta])))
        assert tier.hits + tier.misses == fetched
        assert fs.stats.num_hole_punches == punches

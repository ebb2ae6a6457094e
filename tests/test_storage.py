"""Unit tests for the storage substrate: device, page cache, SimFS."""

import random

import pytest

from repro.sim import Environment
from repro.storage import (
    BlockDevice,
    FileSystemError,
    HARD_DISK,
    NVME_SSD,
    PAGE_SIZE,
    PageCache,
    SATA_SSD,
    SimFS,
)

MB = 1 << 20


class TestBlockDevice:
    def test_write_cost_is_overhead_plus_bandwidth(self, env, run):
        dev = BlockDevice(env, SATA_SSD)
        run(dev.write(MB))
        expected = SATA_SSD.per_request_overhead + MB / SATA_SSD.seq_write_bw
        assert env.now == pytest.approx(expected)

    def test_random_read_pays_latency(self, env, run):
        dev = BlockDevice(env, SATA_SSD)
        run(dev.read(4096, sequential=False))
        assert env.now >= SATA_SSD.rand_read_latency

    def test_sequential_read_skips_latency(self, env):
        dev_seq = BlockDevice(Environment(), SATA_SSD)
        dev_rand = BlockDevice(Environment(), SATA_SSD)
        env_seq, env_rand = dev_seq.env, dev_rand.env
        env_seq.run_until(env_seq.process(dev_seq.read(MB, sequential=True)))
        env_rand.run_until(env_rand.process(dev_rand.read(MB, sequential=False)))
        assert env_seq.now < env_rand.now

    def test_barrier_pays_flush_latency(self, env, run):
        dev = BlockDevice(env, SATA_SSD)
        run(dev.barrier(0))
        assert env.now == pytest.approx(SATA_SSD.barrier_latency)
        assert dev.stats.num_barriers == 1

    def test_barrier_waits_for_inflight_writes(self, env):
        dev = BlockDevice(env, SATA_SSD)
        done = {}

        def writer():
            yield from dev.write(10 * MB)
            done["write"] = env.now

        def syncer():
            yield from dev.barrier(0)
            done["barrier"] = env.now

        env.process(writer())
        env.process(syncer())
        env.run()
        assert done["barrier"] > done["write"]

    def test_stats_accumulate_and_delta(self, env, run):
        dev = BlockDevice(env, SATA_SSD)
        before = dev.stats.snapshot()
        run(dev.write(1000))
        run(dev.read(500))
        delta = dev.stats.delta(before)
        assert delta.bytes_written == 1000
        assert delta.bytes_read == 500
        assert delta.num_writes == 1
        assert delta.num_reads == 1

    def test_zero_byte_ops_are_free(self, env, run):
        dev = BlockDevice(env, SATA_SSD)
        run(dev.write(0))
        run(dev.read(0))
        assert env.now == 0.0
        assert dev.stats.num_writes == 0

    def test_device_profiles_ordering(self):
        # Barrier costs must order HDD > SATA > NVMe (the ablation axis).
        assert HARD_DISK.barrier_latency > SATA_SSD.barrier_latency
        assert SATA_SSD.barrier_latency > NVME_SSD.barrier_latency

    def test_metadata_op_cost(self, env, run):
        dev = BlockDevice(env, SATA_SSD)
        run(dev.metadata_op())
        assert env.now == pytest.approx(SATA_SSD.metadata_op_latency)
        assert dev.stats.num_metadata_ops == 1


class TestPageCache:
    def test_insert_and_hit(self):
        cache = PageCache(10 * PAGE_SIZE)
        cache.insert(1, 0)
        assert cache.contains(1, 0)
        assert cache.hits == 1

    def test_miss_recorded(self):
        cache = PageCache(10 * PAGE_SIZE)
        assert not cache.contains(1, 0)
        assert cache.misses == 1

    def test_lru_eviction(self):
        cache = PageCache(2 * PAGE_SIZE)
        cache.insert(1, 0)
        cache.insert(1, 1)
        cache.insert(1, 2)  # evicts (1, 0)
        assert not cache.contains(1, 0)
        assert cache.contains(1, 1)
        assert cache.contains(1, 2)
        assert cache.evictions == 1

    def test_touch_promotes(self):
        cache = PageCache(2 * PAGE_SIZE)
        cache.insert(1, 0)
        cache.insert(1, 1)
        assert cache.contains(1, 0)   # promote 0
        cache.insert(1, 2)            # evicts 1, not 0
        assert cache.contains(1, 0)
        assert not cache.contains(1, 1)

    def test_invalidate_file(self):
        cache = PageCache(10 * PAGE_SIZE)
        cache.insert(1, 0)
        cache.insert(2, 0)
        cache.invalidate_file(1, PAGE_SIZE)
        assert not cache.contains(1, 0)
        assert cache.contains(2, 0)

        # Through SimFS: unlink and rename-over drop exactly what a scan
        # of every resident page would, and leave the LRU order alone.
        def scenario(fs, rng):
            handles = {}
            for step in range(300):
                names = sorted(handles)
                op = rng.choice(("create", "append", "append", "read", "read",
                                 "punch", "unlink", "rename") if names else ("create",))
                if op == "create":
                    name = f"f{step}"
                    handles[name] = yield from fs.create(name)
                elif op == "append":
                    handles[rng.choice(names)].append(
                        bytes(rng.randrange(1, 3 * PAGE_SIZE)))
                elif op == "read":
                    handle = handles[rng.choice(names)]
                    offset = rng.randrange(handle.size + 1)
                    yield from handle.read(offset, rng.randrange(1, 2 * PAGE_SIZE))
                elif op == "punch":
                    handle = handles[rng.choice(names)]
                    handle.punch_hole(rng.randrange(handle.size + 1), PAGE_SIZE)
                else:
                    victim = rng.choice(names)
                    if op == "rename":
                        source = rng.choice(names)
                        if source == victim:
                            continue
                    dropped = handles[victim].file_id
                    expected = [key for key in fs.page_cache.resident_pages()
                                if key[0] != dropped]
                    if op == "rename":
                        yield from fs.rename(source, victim)
                        handles[victim] = handles.pop(source)
                    else:
                        yield from fs.unlink(victim)
                        del handles[victim]
                    assert list(fs.page_cache.resident_pages()) == expected

        for seed in range(6):
            env = Environment()
            fs = SimFS(env, BlockDevice(env), PageCache(24 * PAGE_SIZE))
            env.run_until(env.process(scenario(fs, random.Random(seed))))

    def test_invalidate_range(self):
        cache = PageCache(10 * PAGE_SIZE)
        for page in range(5):
            cache.insert(1, page)
        cache.invalidate_range(1, 1, 3)
        assert cache.contains(1, 0)
        assert not cache.contains(1, 2)
        assert cache.contains(1, 4)

    def test_zero_capacity_never_caches(self):
        cache = PageCache(0)
        cache.insert(1, 0)
        assert not cache.contains(1, 0)


class TestSimFS:
    def test_create_write_read_roundtrip(self, env, fs, run):
        def scenario():
            handle = yield from fs.create("f")
            handle.append(b"hello world")
            data = yield from handle.read(0, 11)
            return data

        assert run(scenario()) == b"hello world"

    def test_open_missing_file_raises(self, env, fs, run):
        def scenario():
            yield from fs.open("missing")

        with pytest.raises(FileSystemError):
            run(scenario())

    def test_read_past_eof_truncates(self, env, fs, run):
        def scenario():
            handle = yield from fs.create("f")
            handle.append(b"abc")
            return (yield from handle.read(1, 100))

        assert run(scenario()) == b"bc"

    def test_write_at_extends(self, env, fs, run):
        def scenario():
            handle = yield from fs.create("f")
            handle.write_at(4, b"tail")
            return (yield from handle.read(0, 8))

        assert run(scenario()) == b"\x00\x00\x00\x00tail"

    def test_append_returns_offset(self, env, fs, run):
        def scenario():
            handle = yield from fs.create("f")
            first = handle.append(b"aaaa")
            second = handle.append(b"bb")
            return first, second, handle.size

        assert run(scenario()) == (0, 4, 6)

    def test_fsync_counts_and_costs(self, env, fs, device, run):
        def scenario():
            handle = yield from fs.create("f")
            handle.append(b"x" * MB)
            t0 = env.now
            yield from handle.fsync()
            return env.now - t0

        elapsed = run(scenario())
        assert fs.stats.num_fsync == 1
        assert fs.stats.num_barrier_calls == 1
        assert elapsed >= SATA_SSD.barrier_latency
        assert device.stats.bytes_written >= MB

    def test_fsync_only_flushes_dirty_pages(self, env, fs, device, run):
        def scenario():
            handle = yield from fs.create("f")
            handle.append(b"x" * MB)
            yield from handle.fsync()
            written_after_first = device.stats.bytes_written
            yield from handle.fsync()  # nothing dirty now
            return written_after_first, device.stats.bytes_written

        first, second = run(scenario())
        assert second == first

    def test_rename_replaces(self, env, fs, run):
        def scenario():
            a = yield from fs.create("a")
            a.append(b"A")
            b = yield from fs.create("b")
            b.append(b"B")
            yield from fs.rename("a", "b")
            handle = yield from fs.open("b")
            return (yield from handle.read(0, 1)), fs.exists("a")

        data, a_exists = run(scenario())
        assert data == b"A"
        assert not a_exists

    def test_unlink_keeps_open_handles_valid(self, env, fs, run):
        def scenario():
            handle = yield from fs.create("f")
            handle.append(b"data")
            yield from fs.unlink("f")
            return (yield from handle.read(0, 4)), fs.exists("f")

        data, exists = run(scenario())
        assert data == b"data"
        assert not exists

    def test_listdir_prefix(self, env, fs, run):
        def scenario():
            yield from fs.create("db/1.ldb")
            yield from fs.create("db/2.ldb")
            yield from fs.create("other/x")
            return fs.listdir("db/")

        assert run(scenario()) == ["db/1.ldb", "db/2.ldb"]

    def test_punch_hole_zeroes_and_reclaims(self, env, fs, run):
        def scenario():
            handle = yield from fs.create("f")
            handle.append(b"x" * (4 * PAGE_SIZE))
            yield from handle.fsync()
            before = fs.total_allocated_bytes()
            handle.punch_hole(PAGE_SIZE, 2 * PAGE_SIZE)
            after = fs.total_allocated_bytes()
            data = yield from handle.read(PAGE_SIZE, PAGE_SIZE)
            intact = yield from handle.read(0, PAGE_SIZE)
            return before, after, data, intact

        before, after, hole, intact = run(scenario())
        assert after == before - 2 * PAGE_SIZE
        assert hole == b"\x00" * PAGE_SIZE
        assert intact == b"x" * PAGE_SIZE

    def test_punch_hole_issues_no_barrier(self, env, fs, run):
        def scenario():
            handle = yield from fs.create("f")
            handle.append(b"x" * (4 * PAGE_SIZE))
            yield from handle.fsync()
            barriers = fs.stats.num_barrier_calls
            handle.punch_hole(0, 2 * PAGE_SIZE)
            return barriers

        barriers_before = run(scenario())
        assert fs.stats.num_barrier_calls == barriers_before
        assert fs.stats.num_hole_punches == 1

    def test_punch_hole_partial_pages_ignored(self, env, fs, run):
        def scenario():
            handle = yield from fs.create("f")
            handle.append(b"x" * (2 * PAGE_SIZE))
            handle.punch_hole(10, 100)  # covers no full page
            return (yield from handle.read(0, 2 * PAGE_SIZE))

        assert run(scenario()) == b"x" * (2 * PAGE_SIZE)

    def test_adjacent_partial_punches_free_the_shared_page(self, env, fs, run):
        def scenario():
            handle = yield from fs.create("f")
            handle.append(b"x" * (4 * PAGE_SIZE))
            yield from handle.fsync()
            before = fs.total_allocated_bytes()
            # Two misaligned punches that jointly cover pages 0..2: each
            # call leaves page 1 partially covered, but the union spans it.
            handle.punch_hole(0, PAGE_SIZE + PAGE_SIZE // 2)
            handle.punch_hole(PAGE_SIZE + PAGE_SIZE // 2,
                              3 * PAGE_SIZE - (PAGE_SIZE + PAGE_SIZE // 2))
            after = fs.total_allocated_bytes()
            return before, after

        before, after = run(scenario())
        assert after == before - 3 * PAGE_SIZE

    def test_punch_then_rewrite_to_former_capacity(self, env, fs, run):
        """Hole-punched ranges are credited back to free_bytes: after
        punching a file away in misaligned pieces, writing until the
        former capacity succeeds without DiskFullError."""

        def scenario():
            fs.set_capacity(8 * PAGE_SIZE)
            handle = yield from fs.create("f")
            handle.append(b"x" * (8 * PAGE_SIZE))
            yield from handle.fsync()
            assert fs.free_bytes() == 0
            # Punch the whole file as misaligned halves; every page's
            # coverage completes across two calls.
            half = PAGE_SIZE // 2
            handle.punch_hole(0, half)
            for start in range(half, 8 * PAGE_SIZE - half + 1, PAGE_SIZE):
                handle.punch_hole(start, PAGE_SIZE)
            handle.punch_hole(8 * PAGE_SIZE - half, half)
            assert fs.free_bytes() == 8 * PAGE_SIZE
            other = yield from fs.create("g")
            other.append(b"y" * (8 * PAGE_SIZE))  # must not raise
            return fs.free_bytes()

        assert run(scenario()) == 0

    def test_cold_read_hits_device(self, env, run):
        device = BlockDevice(env, SATA_SSD)
        fs = SimFS(env, device, PageCache(2 * PAGE_SIZE))

        def scenario():
            handle = yield from fs.create("f")
            handle.append(b"y" * (64 * PAGE_SIZE))  # evicts its own pages
            yield from handle.fsync()
            reads_before = device.stats.num_reads
            yield from handle.read(0, PAGE_SIZE)
            return reads_before, device.stats.num_reads

        before, after = run(scenario())
        assert after > before

    def test_warm_read_skips_device(self, env, fs, device, run):
        def scenario():
            handle = yield from fs.create("f")
            handle.append(b"y" * PAGE_SIZE)
            reads_before = device.stats.num_reads
            yield from handle.read(0, PAGE_SIZE)
            return reads_before, device.stats.num_reads

        before, after = run(scenario())
        assert after == before


class TestCrashSemantics:
    def test_synced_data_survives_crash(self, env, fs, run):
        def scenario():
            handle = yield from fs.create("f")
            handle.append(b"precious" * 1000)
            yield from handle.fsync()
            fs.crash(survive_probability=0.0)
            fresh = yield from fs.open("f")
            return (yield from fresh.read(0, 8))

        assert run(scenario()) == b"precious"

    def test_unsynced_data_lost_in_worst_case(self, env, fs, run):
        def scenario():
            handle = yield from fs.create("f")
            handle.append(b"ephemeral" * 1000)
            fs.crash(survive_probability=0.0)
            fresh = yield from fs.open("f")
            return (yield from fresh.read(0, 9))

        assert run(scenario()) == b"\x00" * 9

    def test_unsynced_data_may_survive_in_best_case(self, env, fs, run):
        def scenario():
            handle = yield from fs.create("f")
            handle.append(b"lucky-data")
            fs.crash(survive_probability=1.0)
            fresh = yield from fs.open("f")
            return (yield from fresh.read(0, 10))

        assert run(scenario()) == b"lucky-data"

    def test_crash_reverts_to_preimage_not_empty(self, env, fs, run):
        def scenario():
            handle = yield from fs.create("f")
            handle.append(b"A" * PAGE_SIZE)
            yield from handle.fsync()
            handle.write_at(0, b"B" * PAGE_SIZE)
            fs.crash(survive_probability=0.0)
            fresh = yield from fs.open("f")
            return (yield from fresh.read(0, PAGE_SIZE))

        assert run(scenario()) == b"A" * PAGE_SIZE

    def test_random_crash_is_page_granular(self, env, fs, run):
        """Each unsynced dirty page independently survives or reverts —
        a surviving later page with a lost earlier page is exactly the
        no-write-ordering hazard of §2.4."""
        rng = random.Random(123)

        def scenario():
            handle = yield from fs.create("f")
            handle.append(b"Z" * (32 * PAGE_SIZE))
            fs.crash(rng=rng, survive_probability=0.5)
            fresh = yield from fs.open("f")
            return (yield from fresh.read(0, 32 * PAGE_SIZE))

        data = run(scenario())
        pages = [data[i * PAGE_SIZE:(i + 1) * PAGE_SIZE] for i in range(32)]
        survived = [page == b"Z" * PAGE_SIZE for page in pages]
        zeroed = [page == b"\x00" * PAGE_SIZE for page in pages]
        assert all(s or z for s, z in zip(survived, zeroed))
        assert any(survived) and any(zeroed)  # a mixed outcome

    def test_crash_drops_page_cache(self, env, fs, run):
        def scenario():
            handle = yield from fs.create("f")
            handle.append(b"w" * PAGE_SIZE)
            yield from handle.fsync()
            fs.crash(survive_probability=1.0)
            return len(fs.page_cache)

        assert run(scenario()) == 0

"""Point reads reuse a table's verified sections while SimFS holds the
same bytes: the reuse must never hide corruption, change an answer or
outlive the table."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import SYSTEMS
from repro.lsm import LEVELDB_FORMAT, CorruptionError
from repro.lsm.memtable import FOUND, NOT_FOUND
from repro.lsm.sstable import FOOTER_SIZE, SSTableBuilder, SSTableReader
from repro.sim import Environment
from repro.storage import PAGE_SIZE, BlockDevice, FileHandle, PageCache, SimFS
from repro.svc import Request, Server

from .test_sstable import _reference_get, simple_entries

KB = 1 << 10


def drive(env, gen):
    return env.run_until(env.process(gen))


def fresh_fs():
    env = Environment()
    return env, SimFS(env, BlockDevice(env), PageCache(16 << 20))


def open_bolt(env, fs, **overrides):
    options = SYSTEMS["bolt"].options(1024).copy(
        **{"memtable_size": 4 * KB, "block_cache_bytes": 8 * KB, **overrides})
    return SYSTEMS["bolt"].engine_cls.open_sync(env, fs, options, "db")


def live_tables(db):
    return sorted(db.versions.current.live_numbers().values(),
                  key=lambda meta: meta.number)


# -- (a) corruption after reuse is still caught -------------------------------

#: Where in the table a byte is flipped: data block 0, index, bloom, footer.
_SECTIONS = ("block", "index", "bloom", "footer")


def _section_offset(reader, section):
    footer = reader._sections[reader.length - FOOTER_SIZE][3]
    index_off, _index_len, bloom_off, _bloom_len, _count = footer
    return {"block": 12, "index": index_off + 2, "bloom": bloom_off + 5,
            "footer": reader.length - FOOTER_SIZE + 3}[section]


class TestCorruptionAfterReuse:
    @pytest.mark.parametrize("section", _SECTIONS)
    def test_flipped_byte_raises_and_quarantines(self, section):
        env, fs = fresh_fs()
        # No compaction: every flushed table stays live where it landed.
        db = open_bolt(env, fs, l0_compaction_trigger=32,
                       l0_slowdown_trigger=48, l0_stop_trigger=64)
        keys = [b"key%05d" % i for i in range(300)]
        random.Random(5).shuffle(keys)
        for key in keys:  # each key once: no table shadows another
            db.put_sync(key, b"v" * 64)
        drive(env, db.flush_all())
        # The first table: later appends froze the page it was coalesced
        # into, so reads hand back one chunk (the last tables are still
        # in the file's open tail and are re-parsed on every read).
        meta = live_tables(db)[0]
        key = meta.smallest
        cache = db.table_cache
        for _ in range(2):  # parse, then reopen and reuse every section
            cache.evict(meta.number)
            db.block_cache.remove((meta.number, 0))
            assert db.get_sync(key) == b"v" * 64
        reader = drive(env, cache.find_table(meta.number, meta.container,
                                             meta.offset, meta.length))
        block = reader._sections[0][3]
        assert block.keys is not None, "the second read did not reuse block 0"

        at = meta.offset + _section_offset(reader, section)
        handle = drive(env, fs.open(meta.container))
        byte = drive(env, handle.read(at, 1))
        handle.write_at(at, bytes([byte[0] ^ 0xFF]))
        cache.evict(meta.number)
        db.block_cache.remove((meta.number, 0))
        with pytest.raises(CorruptionError):
            drive(env, db.get(key))
        assert meta.number in db._quarantined
        db.close_sync()

    @pytest.mark.parametrize("section", ("index", "bloom", "footer"))
    def test_a_recycled_chunk_address_is_not_the_same_bytes(self, section):
        """The memo holds the chunk it parsed, so a later chunk can never
        sit at its address: validating by ``id()`` alone would accept a
        new chunk allocated where a freed one was."""
        env, fs = fresh_fs()
        entries = simple_entries(300)

        def build():
            handle = yield from fs.create("t.ldb")
            builder = SSTableBuilder(handle, LEVELDB_FORMAT)
            for entry in entries:
                builder.add(*entry)
            return handle, builder.finish()

        handle, info = drive(env, build())
        assert info.length >= PAGE_SIZE  # one appended chunk
        sections = {}

        def reopen():
            return (yield from SSTableReader.open(
                1, handle, LEVELDB_FORMAT, 0, info.length, None, sections))

        reader = drive(env, reopen())
        drive(env, reopen())
        table = bytearray(drive(env, handle.read(0, info.length)))
        table[_section_offset(reader, section)] ^= 0xFF
        del reader
        handle.write_at(0, bytes(info.length))  # drops the parsed chunk
        handle.write_at(0, bytes(table))        # may land at its address
        with pytest.raises(CorruptionError):
            drive(env, reopen())


# -- (b) every read matches a model and the reference decoder -----------------

def _reference_value(env, db, key):
    """The newest visible value of ``key`` by the frozen per-block reader
    of ``tests/test_sstable.py``: memtables first, then every candidate
    table opened afresh (no reuse) and searched by the reference."""
    snapshot = db.versions.last_sequence
    for memtable in (db._memtable, db._imm):
        if memtable is not None:
            state, value = memtable.get(key, snapshot)
            if state != NOT_FOUND:
                return value if state == FOUND else None
    version = db.versions.current
    for level in range(version.num_levels):
        for meta in version.tables_for_key(level, key):
            handle = FileHandle(db.fs, db.fs._lookup(meta.container))
            reader = drive(env, SSTableReader.open(
                0, handle, db.options.table_format, meta.offset, meta.length))
            state, value = drive(env, _reference_get(reader, key, snapshot))
            if state != NOT_FOUND:
                return value if state == FOUND else None
    return None


_KEYS = [b"key%04d" % i for i in range(300)]
_OPS = st.lists(st.one_of(
    st.tuples(st.just("put"), st.sampled_from(_KEYS), st.integers(0, 9)),
    st.tuples(st.just("delete"), st.sampled_from(_KEYS)),
    st.tuples(st.just("get"), st.sampled_from(_KEYS)),
    st.tuples(st.just("churn"), st.integers(0, 1 << 16)),
    st.tuples(st.just("crash")),
), min_size=1, max_size=30)


class TestReadsMatchAModel:
    @settings(max_examples=25, deadline=None)
    @given(_OPS)
    def test_capacity_one_table_cache(self, ops):
        """A TableCache of one table reopens on nearly every probe, so
        nearly every probe goes through the reuse path."""
        env, fs = fresh_fs()
        overrides = dict(max_open_files=1, wal_sync=True)
        db = open_bolt(env, fs, **overrides)
        model = {}

        def check(key):
            expected = model.get(key)
            assert db.get_sync(key) == expected
            assert _reference_value(env, db, key) == expected

        for op in ops:
            if op[0] == "put":
                value = b"%d" % op[2] * (40 + 7 * op[2])  # mixed sizes
                db.put_sync(op[1], value)
                model[op[1]] = value
            elif op[0] == "delete":
                db.delete_sync(op[1])
                model.pop(op[1], None)
            elif op[0] == "get":
                check(op[1])
            elif op[0] == "churn":
                # Rewrite the key space: flushes, compactions and, on
                # BoLT, hole punches over the dead tables.  One value
                # size per step, so its tables hold uniform blocks (the
                # ones a read keeps and reuses).
                rng = random.Random(op[1])
                value = b"c" * rng.randrange(30, 90)
                for key in rng.sample(_KEYS, 150):
                    db.put_sync(key, value)
                    model[key] = value
                drive(env, db.flush_all())
            else:
                drive(env, db.wait_idle())
                db.kill()  # no worker of the dead process runs on
                fs.crash(survive_probability=0.0)  # the WAL is synced
                db = open_bolt(env, fs, **overrides)
        for key in _KEYS:
            check(key)

    def test_churn_punches_holes(self):
        """What the property's "churn" step exercises, pinned: compactions
        that punch holes, and reads that reopen tables and reuse blocks."""
        env, fs = fresh_fs()
        db = open_bolt(env, fs, max_open_files=1)
        for seed in range(4):
            rng = random.Random(seed)
            value = b"c" * rng.randrange(30, 90)
            for key in rng.sample(_KEYS, 150):
                db.put_sync(key, value)
            drive(env, db.flush_all())
        assert db.stats.compactions > 0 and fs.stats.num_hole_punches > 0
        for _ in range(2):
            for key in random.Random(7).sample(_KEYS, len(_KEYS)):
                db.get_sync(key)
        cache = db.table_cache
        assert cache.misses > cache.hits
        reused = [entry[3] for sections in cache._sections.values()
                  for entry in sections.values()
                  if getattr(entry[3], "keys", None) is not None]
        assert reused, "no data block was read twice from one chunk"


# -- (c) retained state stays bounded ----------------------------------------

class TestRetainedState:
    def test_no_sections_outlive_their_table(self):
        """A served YCSB-A-like mix over a small key space: gets run while
        compactions delete tables under them.  Afterwards the memo holds
        live tables only."""
        env, fs = fresh_fs()
        db = open_bolt(env, fs, max_open_files=4)
        server = Server(env, db, num_workers=4, queue_depth=64)
        rng = random.Random(11)
        keys = [b"user%05d" % i for i in range(400)]
        for key in keys:
            db.put_sync(key, b"p" * 64)

        def client(requests):
            pending = []
            for request in requests:
                yield env.timeout(rng.random() * 2e-4)
                pending.append((yield from server.submit(request)))
            yield env.all_of(pending)

        read_then_deleted = set()
        for _round in range(6):
            requests = [Request("read", rng.choice(keys)) if rng.random() < 0.5
                        else Request("update", rng.choice(keys), b"u" * 64)
                        for _ in range(600)]
            drive(env, client(requests))
            parsed = set(db.table_cache._sections)
            drive(env, db.flush_all())
            read_then_deleted |= parsed - set(db.versions.current.live_numbers())
        server.close_sync()
        for key in keys[::7]:
            db.get_sync(key)
        live = set(db.versions.current.live_numbers())
        kept = set(db.table_cache._sections)
        assert len(read_then_deleted) > 10 and db.stats.gets > 1000
        assert kept and kept <= live, sorted(kept - live)
        db.close_sync()

    def test_dead_tables_blocks_hold_only_their_own_bytes(self):
        """A uniform block is a view into its table's SimFS chunk.  Once
        the table is deleted, a copy of the block left in the BlockCache
        holds just its payload, not the chunk, and answers as before."""
        env, fs = fresh_fs()
        db = open_bolt(env, fs, block_cache_bytes=1 << 20)
        keys = [b"key%04d" % i for i in range(300)]
        for key in keys:
            db.put_sync(key, b"v" * 64)
        drive(env, db.flush_all())
        for key in keys:
            assert db.get_sync(key) == b"v" * 64
        cached = {cache_key: entry[0]
                  for cache_key, entry in db.block_cache._entries.items()}
        views = {cache_key: block for cache_key, block in cached.items()
                 if block.entries is None
                 and len(block._data) > block.count * block._layout[0] + 8}
        assert views, "no cached block is a view into a larger chunk"
        answers = {cache_key: [block.lookup(key, 1 << 56) for key in keys]
                   for cache_key, block in views.items()}
        for _round in range(4):  # overwrites compact the tables away
            for key in keys:
                db.put_sync(key, b"w" * 64)
            drive(env, db.flush_all())
        drive(env, db.wait_idle())
        live = set(db.versions.current.live_numbers())
        dead = {cache_key: block for cache_key, block in views.items()
                if cache_key[0] not in live}
        assert dead and not set(db.table_cache._sections) & {k[0] for k in dead}
        for cache_key, block in dead.items():
            assert len(block._data) == block.count * block._layout[0]
            assert [block.lookup(key, 1 << 56) for key in keys] == answers[cache_key]
        db.close_sync()

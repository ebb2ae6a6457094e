"""Unit and property tests for the merge/collapse helpers, and the
range scan's lazy merge through the engine."""

import heapq

import pytest
from hypothesis import given, settings, strategies as st

from repro.lsm import CorruptionError, LSMEngine, Options
from repro.lsm.codec import MAX_SEQUENCE, VALUE_TYPE_DELETION, VALUE_TYPE_VALUE
from repro.lsm.iterators import _internal_order, collapse_versions, merge_streams
from repro.lsm.sstable import SSTableReader
from repro.sim import Environment
from repro.storage import BlockDevice, PageCache, SimFS

KB = 1 << 10


def put(key, seq, value=b"v"):
    return (key, seq, VALUE_TYPE_VALUE, value)


def tomb(key, seq):
    return (key, seq, VALUE_TYPE_DELETION, b"")


class TestMergeStreams:
    def test_interleaves_sorted(self):
        left = [put(b"a", 1), put(b"c", 2)]
        right = [put(b"b", 3), put(b"d", 4)]
        merged = list(merge_streams([left, right]))
        assert [e[0] for e in merged] == [b"a", b"b", b"c", b"d"]

    def test_same_key_newest_first(self):
        old = [put(b"k", 3, b"old")]
        new = [put(b"k", 9, b"new")]
        merged = list(merge_streams([old, new]))
        assert [(e[1], e[3]) for e in merged] == [(9, b"new"), (3, b"old")]

    def test_empty_streams(self):
        assert list(merge_streams([])) == []
        assert list(merge_streams([[], [put(b"a", 1)]])) == [put(b"a", 1)]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.lists(st.tuples(st.binary(min_size=1, max_size=4),
                                       st.integers(1, 1000)),
                             max_size=30),
                    max_size=5))
    def test_merge_property(self, raw_streams):
        # Build internally-sorted streams with unique (key, seq) pairs.
        seen = set()
        streams = []
        for raw in raw_streams:
            entries = []
            for key, seq in raw:
                if (key, seq) in seen:
                    continue
                seen.add((key, seq))
                entries.append(put(key, seq))
            entries.sort(key=lambda e: (e[0], MAX_SEQUENCE - e[1]))
            streams.append(entries)
        merged = list(merge_streams(streams))
        expected = sorted((e for s in streams for e in s),
                          key=lambda e: (e[0], MAX_SEQUENCE - e[1]))
        assert merged == expected


    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.tuples(st.sampled_from([b"a", b"b", b"bb", b"c"]),
                                       st.integers(1, 6)),
                             max_size=12),
                    max_size=8))
    def test_equals_heap_merge_with_keys_duplicated_across_streams(self, raw_streams):
        # Four keys x six sequences over up to eight runs: the same
        # internal key turns up in several runs, and the value records
        # which run an entry came from, so a tie resolved to a later
        # stream shows.
        runs = [sorted((put(key, seq, b"run%d" % number) for key, seq in set(raw)),
                       key=_internal_order)
                for number, raw in enumerate(raw_streams)]
        assert merge_streams(runs) == list(heapq.merge(*runs, key=_internal_order))
        assert merge_streams(iter(run) for run in runs) == merge_streams(runs)


class TestCollapseVersions:
    def test_keeps_newest_only(self):
        entries = [put(b"k", 9, b"new"), put(b"k", 3, b"old"), put(b"z", 1)]
        result = list(collapse_versions(entries, drop_tombstones=False))
        assert result == [put(b"k", 9, b"new"), put(b"z", 1)]

    def test_tombstone_kept_when_not_base(self):
        entries = [tomb(b"k", 9), put(b"k", 3)]
        result = list(collapse_versions(entries, drop_tombstones=False))
        assert result == [tomb(b"k", 9)]

    def test_tombstone_dropped_at_base(self):
        entries = [tomb(b"k", 9), put(b"k", 3), put(b"z", 1)]
        result = list(collapse_versions(entries, drop_tombstones=True))
        assert result == [put(b"z", 1)]

    def test_empty(self):
        assert list(collapse_versions([], drop_tombstones=True)) == []

    @settings(max_examples=60, deadline=None)
    @given(st.sets(st.tuples(st.sampled_from([b"", b"a", b"b", b"c"]),
                             st.integers(1, 50), st.booleans())),
           st.booleans())
    def test_no_snapshot_path_equals_one_snapshot_newer_than_everything(
            self, raw, drop_tombstones):
        # A snapshot above every sequence separates no two versions and
        # protects no tombstone, so the snapshot-interval path must
        # agree with the no-snapshot fast path.
        entries = sorted({(key, seq): tomb(key, seq) if dead else put(key, seq)
                          for key, seq, dead in raw}.values(), key=_internal_order)
        assert (list(collapse_versions(entries, drop_tombstones))
                == list(collapse_versions(entries, drop_tombstones,
                                          snapshots=[MAX_SEQUENCE])))


def open_db(memtable_size=32 * KB, sstable_size=8 * KB):
    env = Environment()
    fs = SimFS(env, BlockDevice(env), PageCache(16 << 20))
    options = Options(memtable_size=memtable_size, sstable_size=sstable_size,
                      level1_max_bytes=4 * sstable_size, max_open_files=128)
    return LSMEngine.open_sync(env, fs, options, "db")


def flush(db):
    db.env.run_until(db.env.process(db.flush_all()))


class TestMergeScan:
    """The range scan's lazy merge, through ``LSMEngine.scan``: memtable
    tails and tables merged newest-first, ``count`` live keys out."""

    def test_basic_range(self):
        db = open_db()
        for key in (b"a", b"b"):
            db.put_sync(key, b"v")
        flush(db)
        for key in (b"c", b"d"):
            db.put_sync(key, b"v")
        assert db.scan_sync(b"b", 2) == [(b"b", b"v"), (b"c", b"v")]

    def test_newest_version_wins(self):
        db = open_db()
        for value in (b"old", b"mid"):
            db.put_sync(b"k", value)
            db.put_sync(b"k%s" % value, b"x")
            flush(db)  # one table per version
        assert db.scan_sync(b"k", 1) == [(b"k", b"mid")]
        db.put_sync(b"k", b"new")
        assert db.scan_sync(b"k", 2) == [(b"k", b"new"), (b"kmid", b"x")]

    def test_tombstones_hide_older_versions(self):
        db = open_db()
        for key in (b"a", b"b", b"c"):
            db.put_sync(key, b"v")
        flush(db)
        db.delete_sync(b"b")
        assert db.scan_sync(b"a", 10) == [(b"a", b"v"), (b"c", b"v")]
        flush(db)  # the tombstone in a table of its own
        assert db.scan_sync(b"a", 2) == [(b"a", b"v"), (b"c", b"v")]

    def test_snapshot_filters_future_writes(self):
        db = open_db()
        db.put_sync(b"k", b"past")
        snapshot = db.snapshot()
        db.put_sync(b"k", b"future")
        flush(db)
        assert db.scan_sync(b"a", 10, snapshot) == [(b"k", b"past")]
        assert db.scan_sync(b"a", 10) == [(b"k", b"future")]
        snapshot.release()

    def test_count_limit(self):
        db = open_db()
        for i in range(100):
            db.put_sync(b"%03d" % i, b"v")
        flush(db)
        assert [k for k, _v in db.scan_sync(b"000", 7)] == [
            b"%03d" % i for i in range(7)]
        assert db.scan_sync(b"000", 0) == []
        assert db.scan_sync(b"000", -1) == []

    def test_stops_consuming_after_count(self, monkeypatch):
        # A short scan reads a block or two of each table it reaches and
        # never a table's tail: 5 000 keys in tables of ~80 blocks, newer
        # keys interleaved in the memtable around both start keys.
        db = open_db(memtable_size=128 * KB, sstable_size=64 * KB)
        for i in range(1, 10_000, 2):
            db.put_sync(b"%05d" % i, b"v" * 20)
        flush(db)
        for i in [*range(0, 200, 2), *range(5_000, 5_200, 2)]:
            db.put_sync(b"%05d" % i, b"v" * 20)
        reads = []
        read_block = SSTableReader.read_block

        def counted(reader, index, meter=None):
            reads.append((reader.uid, index, len(reader.index)))
            return read_block(reader, index, meter)

        monkeypatch.setattr(SSTableReader, "read_block", counted)
        for start in (0, 5_000):
            reads.clear()
            result = db.scan_sync(b"%05d" % start, 20)
            assert [k for k, _v in result] == [
                b"%05d" % i for i in range(start, start + 20)]
            assert reads and all(index < blocks - 1
                                 for _uid, index, blocks in reads)
            assert len(reads) <= 2 * len({uid for uid, _i, _n in reads})

    def test_corrupt_block_quarantines_only_the_table_reached(self):
        db = open_db()
        for lo in (0, 150):
            for i in range(lo, lo + 150):
                db.put_sync(b"%03d" % i, b"v" * 64)
            flush(db)
        (meta,) = [m for m in db.versions.current.live_numbers().values()
                   if m.smallest == b"150"]
        handle = db.env.run_until(db.env.process(db.fs.open(meta.container)))
        handle.write_at(meta.offset + 12, b"\xde\xad\xbe\xef")
        assert len(db.scan_sync(b"000", 20)) == 20  # never reaches it
        with pytest.raises(CorruptionError):
            db.scan_sync(b"140", 20)
        assert db._quarantined == {meta.number}

    def test_start_key_inclusive(self):
        db = open_db()
        db.put_sync(b"a", b"v")
        flush(db)
        db.put_sync(b"b", b"v")
        assert db.scan_sync(b"b", 5) == [(b"b", b"v")]

    @settings(max_examples=25, deadline=None)
    @given(st.dictionaries(st.binary(min_size=1, max_size=4),
                           st.binary(max_size=4), max_size=50),
           st.binary(min_size=1, max_size=4),
           st.integers(1, 20))
    def test_matches_sorted_dict(self, model, start, count):
        db = open_db()
        items = list(model.items())
        for i, (key, value) in enumerate(items):
            db.put_sync(key, value)
            if i == len(items) // 2:
                flush(db)
        expected = sorted((k, v) for k, v in model.items() if k >= start)[:count]
        assert db.scan_sync(start, count) == expected

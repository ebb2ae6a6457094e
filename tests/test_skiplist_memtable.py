"""Unit and property tests for the MemTable and its index.

LevelDB indexes the MemTable with a skip list; this one uses dicts from
user key to its versions plus a lazily sorted key run.  ``TestSkipList``
states the sorted-map contract the skip list was tested for (sorted
iteration, seek at or after, duplicate rejection, length) against the
MemTable that replaced it; ``TestMemTableModel`` holds the whole
contract to a plain sorted list of internal keys.
"""

from bisect import bisect_left

import pytest
from hypothesis import given, settings, strategies as st

from repro.lsm import MemTable
from repro.lsm.codec import MAX_SEQUENCE, VALUE_TYPE_DELETION, VALUE_TYPE_VALUE
from repro.lsm.memtable import DELETED, FOUND, NOT_FOUND


def _filled(keys, start=1):
    """A MemTable holding ``key -> key`` for each key, one sequence each."""
    mem = MemTable()
    for seq, key in enumerate(keys, start=start):
        mem.add(seq, VALUE_TYPE_VALUE, key, key)
    return mem


def _keys(entries):
    return [key for key, _seq, _type, _value in entries]


def _int_key(i):
    return b"%05d" % i


class TestSkipList:
    def test_insert_and_get(self):
        mem = MemTable()
        mem.add(1, VALUE_TYPE_VALUE, b"b", b"2")
        mem.add(2, VALUE_TYPE_VALUE, b"a", b"1")
        assert mem.get(b"a") == (FOUND, b"1")
        assert mem.get(b"b") == (FOUND, b"2")
        assert mem.get(b"c") == (NOT_FOUND, None)

    def test_duplicate_rejected(self):
        mem = MemTable()
        mem.add(1, VALUE_TYPE_VALUE, b"k", b"1")
        with pytest.raises(KeyError):
            mem.add(1, VALUE_TYPE_VALUE, b"k", b"2")
        with pytest.raises(KeyError):
            mem.add(1, VALUE_TYPE_DELETION, b"k", b"")
        assert len(mem) == 1
        assert mem.get(b"k") == (FOUND, b"1")
        assert mem.approximate_memory_usage == len(b"k") + len(b"1") + 24

    def test_iteration_is_sorted(self):
        mem = _filled((b"d", b"a", b"c", b"b"))
        assert _keys(mem.entries()) == [b"a", b"b", b"c", b"d"]

    def test_seek_finds_first_at_or_after(self):
        mem = _filled((b"b", b"d", b"f"))
        assert next(mem.entries_from(b"a"))[0] == b"b"
        assert next(mem.entries_from(b"b"))[0] == b"b"
        assert next(mem.entries_from(b"c"))[0] == b"d"
        assert list(mem.entries_from(b"g")) == []

    def test_iter_from(self):
        mem = _filled([b"%02d" % i for i in range(10)], start=0)
        assert [seq for _k, seq, _t, _v in mem.entries_from(b"07")] == [7, 8, 9]

    def test_contains(self):
        mem = _filled((b"x",))
        assert mem.get(b"x")[0] == FOUND
        assert mem.get(b"y")[0] == NOT_FOUND

    def test_len(self):
        mem = MemTable()
        assert len(mem) == 0
        for i in range(100):
            mem.add(i + 1, VALUE_TYPE_VALUE, _int_key(i % 40), b"")
        assert len(mem) == 100
        assert len(list(mem.entries())) == 100

    @settings(max_examples=50, deadline=None)
    @given(st.sets(st.binary(min_size=1, max_size=16), max_size=200))
    def test_matches_sorted_reference(self, keys):
        mem = _filled(keys)
        assert _keys(mem.entries()) == sorted(keys)

    @settings(max_examples=30, deadline=None)
    @given(st.sets(st.integers(0, 10_000), min_size=1, max_size=300),
           st.integers(0, 10_000))
    def test_seek_matches_reference(self, keys, probe):
        mem = _filled([_int_key(k) for k in keys])
        expected = min((k for k in keys if k >= probe), default=None)
        found = next(mem.entries_from(_int_key(probe)), None)
        assert (found[0] if found else None) == (
            None if expected is None else _int_key(expected))


class TestMemTable:
    def test_put_get(self):
        mem = MemTable()
        mem.add(1, VALUE_TYPE_VALUE, b"k", b"v")
        assert mem.get(b"k") == (FOUND, b"v")

    def test_missing_key(self):
        mem = MemTable()
        assert mem.get(b"nope") == (NOT_FOUND, None)

    def test_newest_version_wins(self):
        mem = MemTable()
        mem.add(1, VALUE_TYPE_VALUE, b"k", b"old")
        mem.add(2, VALUE_TYPE_VALUE, b"k", b"new")
        assert mem.get(b"k") == (FOUND, b"new")

    def test_tombstone_shadows(self):
        mem = MemTable()
        mem.add(1, VALUE_TYPE_VALUE, b"k", b"v")
        mem.add(2, VALUE_TYPE_DELETION, b"k", b"")
        assert mem.get(b"k") == (DELETED, None)

    def test_snapshot_reads_see_past(self):
        mem = MemTable()
        mem.add(5, VALUE_TYPE_VALUE, b"k", b"v5")
        mem.add(9, VALUE_TYPE_VALUE, b"k", b"v9")
        assert mem.get(b"k", sequence=5) == (FOUND, b"v5")
        assert mem.get(b"k", sequence=8) == (FOUND, b"v5")
        assert mem.get(b"k", sequence=9) == (FOUND, b"v9")
        assert mem.get(b"k", sequence=4) == (NOT_FOUND, None)

    def test_entries_ordered_by_internal_key(self):
        mem = MemTable()
        mem.add(1, VALUE_TYPE_VALUE, b"b", b"1")
        mem.add(3, VALUE_TYPE_VALUE, b"a", b"3")
        mem.add(2, VALUE_TYPE_VALUE, b"a", b"2")
        entries = list(mem.entries())
        # user key ascending; within a key, newest (highest seq) first
        assert [(k, s) for k, s, _t, _v in entries] == [
            (b"a", 3), (b"a", 2), (b"b", 1)]

    def test_memory_accounting_grows(self):
        mem = MemTable()
        before = mem.approximate_memory_usage
        mem.add(1, VALUE_TYPE_VALUE, b"key", b"x" * 1000)
        assert mem.approximate_memory_usage >= before + 1000

    def test_entries_from(self):
        mem = MemTable()
        for i, key in enumerate((b"a", b"b", b"c")):
            mem.add(i + 1, VALUE_TYPE_VALUE, key, key)
        keys = [k for k, _s, _t, _v in mem.entries_from(b"b")]
        assert keys == [b"b", b"c"]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.binary(min_size=1, max_size=8),
                              st.binary(max_size=8)),
                    min_size=1, max_size=100))
    def test_matches_dict_model(self, ops):
        mem = MemTable()
        model = {}
        for seq, (key, value) in enumerate(ops, start=1):
            mem.add(seq, VALUE_TYPE_VALUE, key, value)
            model[key] = value
        for key, value in model.items():
            assert mem.get(key) == (FOUND, value)

    def test_walk_keeps_its_key_list(self):
        """A walk begun before a new key arrives finishes over the keys
        it started with, in order."""
        mem = _filled((b"b", b"d"))
        walk = mem.entries()
        assert next(walk)[0] == b"b"
        mem.add(10, VALUE_TYPE_VALUE, b"a", b"a")
        assert _keys(walk) == [b"d"]
        assert _keys(mem.entries()) == [b"a", b"b", b"d"]


class _Model:
    """The specification: a sorted list of ``((key, MAX_SEQUENCE - seq),
    (type, value))`` — LevelDB's internal-key order, sequence descending."""

    def __init__(self):
        self.rows = []
        self.bytes = 0

    def add(self, seq, value_type, key, value):
        ikey = (key, MAX_SEQUENCE - seq)
        at = bisect_left(self.rows, (ikey,))
        if at < len(self.rows) and self.rows[at][0] == ikey:
            raise KeyError(ikey)
        self.rows.insert(at, (ikey, (value_type, value)))
        self.bytes += len(key) + len(value) + 24

    def entries_from(self, key, seq=MAX_SEQUENCE):
        at = bisect_left(self.rows, ((key, MAX_SEQUENCE - seq),))
        return [(k, MAX_SEQUENCE - inv, t, v)
                for (k, inv), (t, v) in self.rows[at:]]

    def get(self, key, seq=MAX_SEQUENCE):
        first = next(iter(self.entries_from(key, seq)), None)
        if first is None or first[0] != key:
            return (NOT_FOUND, None)
        if first[2] == VALUE_TYPE_DELETION:
            return (DELETED, None)
        return (FOUND, first[3])


_ADDS = st.lists(st.tuples(
    st.sampled_from([b"a", b"b", b"bb", b"c", b"k1", b"k2", b"z"]),
    st.integers(1, 40),                      # sequences repeat and go backwards
    st.sampled_from([VALUE_TYPE_VALUE, VALUE_TYPE_DELETION]),
    st.binary(max_size=6)), max_size=80)


class TestMemTableModel:
    @settings(max_examples=150, deadline=None)
    @given(_ADDS)
    def test_matches_sorted_list_model(self, adds):
        mem, model = MemTable(), _Model()
        for key, seq, value_type, value in adds:
            if value_type == VALUE_TYPE_DELETION:
                value = b""
            try:
                model.add(seq, value_type, key, value)
            except KeyError:
                before = (len(mem), mem.approximate_memory_usage, list(mem.entries()))
                with pytest.raises(KeyError):
                    mem.add(seq, value_type, key, value)
                assert (len(mem), mem.approximate_memory_usage,
                        list(mem.entries())) == before
                continue
            mem.add(seq, value_type, key, value)
            if len(model.rows) % 7 == 0:  # order asked for mid-stream too
                assert list(mem.entries()) == model.entries_from(b"")

        assert len(mem) == len(model.rows)
        assert mem.approximate_memory_usage == model.bytes
        assert list(mem.entries()) == model.entries_from(b"")
        snaps = sorted({seq + d for _k, seq, _t, _v in adds for d in (-1, 0, 1)}
                       | {0, 41})
        probes = sorted({key for key, *_rest in adds} | {b"", b"b0", b"zz"})
        for key in probes:  # present, absent, before the first, after the last
            assert mem.get(key) == model.get(key)
            for snap in snaps:
                assert mem.get(key, snap) == model.get(key, snap)
                assert list(mem.entries_from(key, snap)) == \
                    model.entries_from(key, snap)
            assert list(mem.entries_from(key)) == model.entries_from(key)

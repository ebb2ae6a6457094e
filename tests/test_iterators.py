"""Unit and property tests for the merge/collapse/scan helpers."""

import heapq

from hypothesis import given, settings, strategies as st

from repro.lsm.codec import MAX_SEQUENCE, VALUE_TYPE_DELETION, VALUE_TYPE_VALUE
from repro.lsm.iterators import (_internal_order, collapse_versions, merge_scan,
                                 merge_streams)


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


class TestMergeScan:
    def test_basic_range(self):
        stream = [put(b"a", 1), put(b"b", 2), put(b"c", 3), put(b"d", 4)]
        result = merge_scan([stream], b"b", 2, MAX_SEQUENCE)
        assert result == [(b"b", b"v"), (b"c", b"v")]

    def test_tombstones_hide_older_versions(self):
        new = [tomb(b"b", 9)]
        old = [put(b"a", 1), put(b"b", 2), put(b"c", 3)]
        result = merge_scan([new, old], b"a", 10, MAX_SEQUENCE)
        assert result == [(b"a", b"v"), (b"c", b"v")]

    def test_snapshot_filters_future_writes(self):
        stream = [put(b"k", 9, b"future"), put(b"k", 2, b"past")]
        result = merge_scan([stream], b"a", 10, snapshot_seq=5)
        assert result == [(b"k", b"past")]

    def test_count_limit(self):
        stream = [put(b"%03d" % i, i + 1) for i in range(100)]
        result = merge_scan([stream], b"000", 7, MAX_SEQUENCE)
        assert len(result) == 7

    def test_stops_consuming_after_count(self):
        # engine.scan hands over the whole memtable tail; a short scan
        # must not pay for it (an eager merge would sort all of it).
        consumed = [0, 0]

        def counted(index, entries):
            for entry in entries:
                consumed[index] += 1
                yield entry

        memtable = [put(b"%05d" % i, 20_000 + i) for i in range(0, 10_000, 2)]
        table = [put(b"%05d" % i, i + 1) for i in range(1, 10_000, 2)]
        result = merge_scan([counted(0, memtable), counted(1, table)],
                            b"00000", 10, MAX_SEQUENCE)
        assert [key for key, _value in result] == [b"%05d" % i for i in range(10)]
        assert sum(consumed) <= 12  # the results plus one look-ahead per stream

    def test_start_key_inclusive(self):
        stream = [put(b"a", 1), put(b"b", 2)]
        assert merge_scan([stream], b"b", 5, MAX_SEQUENCE) == [(b"b", b"v")]

    @settings(max_examples=25, deadline=None)
    @given(st.dictionaries(st.binary(min_size=1, max_size=4),
                           st.binary(max_size=4), max_size=50),
           st.binary(min_size=1, max_size=4),
           st.integers(1, 20))
    def test_matches_sorted_dict(self, model, start, count):
        stream = sorted(
            (put(k, i + 1, v) for i, (k, v) in enumerate(model.items())),
            key=lambda e: (e[0], MAX_SEQUENCE - e[1]))
        result = merge_scan([stream], start, count, MAX_SEQUENCE)
        expected = sorted((k, v) for k, v in model.items() if k >= start)[:count]
        assert result == expected

"""Unit tests for Version bookkeeping and MANIFEST machinery."""

import collections
import itertools
import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.lsm import FileMetaData, Options, Version, VersionEdit, VersionSet
from repro.lsm import Compaction, LSMEngine
from repro.lsm.version import isolated, split_by_overlap, split_promotable


def meta(number, smallest, largest, length=1000, container=None, offset=0):
    return FileMetaData(number=number, container=container or f"{number}.ldb",
                        offset=offset, length=length,
                        smallest=smallest, largest=largest)


class TestFileMetaData:
    def test_overlap_cases(self):
        m = meta(1, b"d", b"m")
        assert m.overlaps(b"a", b"e")
        assert m.overlaps(b"f", b"g")
        assert m.overlaps(b"m", b"z")
        assert not m.overlaps(b"a", b"c")
        assert not m.overlaps(b"n", b"z")

    def test_open_ranges(self):
        m = meta(1, b"d", b"m")
        assert m.overlaps(None, b"e")
        assert m.overlaps(b"e", None)
        assert m.overlaps(None, None)
        assert not m.overlaps(None, b"c")
        assert not m.overlaps(b"n", None)


class TestVersion:
    def test_level0_keeps_insertion_by_number(self):
        v = Version(3)
        v.add_file(0, meta(5, b"a", b"z"))
        v.add_file(0, meta(3, b"a", b"z"))
        assert [f.number for f in v.files[0]] == [3, 5]

    def test_deeper_levels_sorted_by_smallest(self):
        v = Version(3)
        v.add_file(1, meta(1, b"m", b"p"))
        v.add_file(1, meta(2, b"a", b"c"))
        v.add_file(1, meta(3, b"e", b"g"))
        assert [f.smallest for f in v.files[1]] == [b"a", b"e", b"m"]

    def test_tables_for_key_level0_newest_first(self):
        v = Version(3)
        v.add_file(0, meta(1, b"a", b"m"))
        v.add_file(0, meta(2, b"c", b"z"))
        v.add_file(0, meta(3, b"x", b"z"))
        hits = v.tables_for_key(0, b"d")
        assert [f.number for f in hits] == [2, 1]

    def test_tables_for_key_binary_search(self):
        v = Version(3)
        v.add_file(1, meta(1, b"a", b"c"))
        v.add_file(1, meta(2, b"e", b"g"))
        v.add_file(1, meta(3, b"i", b"k"))
        assert [f.number for f in v.tables_for_key(1, b"f")] == [2]
        assert v.tables_for_key(1, b"d") == []
        assert v.tables_for_key(1, b"z") == []

    def test_overlapping_files_simple(self):
        v = Version(3)
        v.add_file(1, meta(1, b"a", b"c"))
        v.add_file(1, meta(2, b"e", b"g"))
        v.add_file(1, meta(3, b"i", b"k"))
        hits = v.overlapping_files(1, b"b", b"f")
        assert [f.number for f in hits] == [1, 2]

    def test_level0_transitive_expansion(self):
        """§2.1: one L0 table can transitively pull in all the others."""
        v = Version(3)
        v.add_file(0, meta(1, b"a", b"e"))
        v.add_file(0, meta(2, b"d", b"j"))
        v.add_file(0, meta(3, b"i", b"p"))
        v.add_file(0, meta(4, b"x", b"z"))
        hits = v.overlapping_files(0, b"a", b"b")
        assert sorted(f.number for f in hits) == [1, 2, 3]

    def test_remove_file(self):
        v = Version(3)
        v.add_file(1, meta(1, b"a", b"c"))
        assert v.remove_file(1, 1)
        assert not v.remove_file(1, 1)
        assert v.files[1] == []

    def test_byte_and_count_accounting(self):
        v = Version(3)
        v.add_file(1, meta(1, b"a", b"c", length=100))
        v.add_file(1, meta(2, b"e", b"g", length=250))
        assert v.level_bytes(1) == 350
        assert v.num_files(1) == 2
        assert v.total_bytes() == 350
        assert v.deepest_nonempty_level() == 1

    def test_invariant_checker_catches_overlap(self):
        v = Version(3)
        v.add_file(1, meta(1, b"a", b"f"))
        v.add_file(1, meta(2, b"d", b"k"))
        with pytest.raises(AssertionError):
            v.check_invariants()

    def test_clone_is_independent(self):
        v = Version(3)
        v.add_file(1, meta(1, b"a", b"c"))
        clone = v.clone()
        clone.remove_file(1, 1)
        assert v.num_files(1) == 1
        assert clone.num_files(1) == 0


# -- the Version index against a brute-force reference ------------------------

class BruteVersion:
    """The linear-scan reference: what the index must agree with."""

    def __init__(self, levels):
        self.files = [list(level) for level in levels]

    def add(self, level, table):
        files = self.files[level]
        if level == 0:
            files.append(table)
            files.sort(key=lambda f: f.number)
            return
        index = next((i for i, f in enumerate(files)
                      if f.smallest >= table.smallest), len(files))
        files.insert(index, table)

    def remove(self, level, number):
        for table in self.files[level]:
            if table.number == number:
                self.files[level].remove(table)
                return True
        return False

    def overlapping(self, level, lo, hi):
        return [f for f in self.files[level] if f.overlaps(lo, hi)]

    def tables_for_key(self, level, key):
        return sorted((f for f in self.files[level]
                       if f.smallest <= key <= f.largest),
                      key=lambda f: f.number, reverse=True)


def brute_split(items, others):
    hit = [i for i in items
           if any(i.overlaps(o.smallest, o.largest) for o in others)]
    return hit, [i for i in items if i not in hit]


def brute_isolated(items):
    return [i for i in items if not any(
        i.overlaps(o.smallest, o.largest) for o in items if o is not i)]


def brute_promotable(candidates, placed):
    """The pairwise statement of a settled victim's promotion check."""
    promoted, fallback = [], []
    for meta in candidates:
        safe = all(not meta.overlaps(o.smallest, o.largest)
                   for o in list(placed) + promoted)
        (promoted if safe else fallback).append(meta)
    return promoted, fallback


def assert_matches(version, brute, queries):
    """Every table-set answer of ``version`` equals the reference's."""
    assert version.files == brute.files
    for level, files in enumerate(brute.files):
        if level:  # the index arrays are exact, never merely safe
            assert version._smallest[level] == [f.smallest for f in files]
            assert version._reach[level] == list(
                itertools.accumulate((f.largest for f in files), max))
        assert version.level_bytes(level) == sum(f.length for f in files)
        assert version.container_count(level) == \
            len({f.container for f in files})
        for number in range(1, 16):
            assert version.has_file(level, number) == \
                any(f.number == number for f in files)
        for lo, hi in queries:
            if lo is not None:
                assert version.tables_for_key(level, lo) == \
                    brute.tables_for_key(level, lo)
            if lo is not None and hi is not None and lo > hi:
                continue
            if level:  # level 0 expands transitively; its code is LevelDB's
                expected = brute.overlapping(level, lo, hi)
                assert version.overlapping_files(level, lo, hi) == expected
                assert version.overlap_bytes(level, lo, hi) == \
                    sum(f.length for f in expected)
    assert version.overlap_bytes(len(brute.files), None, None) == 0
    held = collections.Counter(f.container for files in brute.files for f in files)
    assert version.live_containers() == set(held)
    for container in ("c0", "c1", "c2", "gone"):
        assert version.tables_in(container) == held[container]
    for items, others in ((1, 2), (2, 1), (2, 0)):
        assert split_by_overlap(brute.files[items], brute.files[others]) == \
            brute_split(brute.files[items], brute.files[others])
    for items, others in ((0, 1), (1, 2), (0, 0), (2, 0)):
        assert split_promotable(brute.files[items], brute.files[others]) == \
            brute_promotable(brute.files[items], brute.files[others])
    for files in brute.files:
        assert isolated(files) == brute_isolated(files)


# Keys from an 8-letter alphabet, so equal and touching bounds are common
# and every (lo, hi) pair, open ends included, can be asked.
_KEYS = [b"k%d" % i for i in range(8)]
_KEY = st.sampled_from(_KEYS)
_BOUND = st.sampled_from([None] + _KEYS)
_EVERY_QUERY = [(lo, hi) for lo in [None] + _KEYS for hi in [None] + _KEYS]
_STEP = st.tuples(st.sampled_from(["add", "add", "add", "remove", "clone"]),
                  st.sampled_from([0, 1, 1, 2, 2]), st.integers(1, 15), _KEY, _KEY,
                  _BOUND, _BOUND)


class TestVersionIndex:
    @settings(max_examples=100, deadline=None)
    @given(st.booleans(), st.lists(_STEP, min_size=12, max_size=40))
    def test_index_answers_match_brute_force(self, disjoint, steps):
        """Interleaved add/remove/clone with one query after every step,
        so each lazy array is built, invalidated and shared through
        clones, then every possible query on the final version and on
        each version a clone left behind.  ``disjoint`` keeps levels >= 1
        LevelDB-shaped; otherwise they overlap as PebblesDB's do."""
        version, brute = Version(3), BruteVersion([[], [], []])
        frozen = []
        for op, level, number, k1, k2, lo, hi in steps:
            if op == "add":
                table = meta(number, min(k1, k2), max(k1, k2),
                             length=100 + number, container=f"c{number % 3}")
                taken = any(version.has_file(lv, number) for lv in range(3))
                clash = disjoint and level and brute.overlapping(
                    level, table.smallest, table.largest)
                if not taken and not clash:
                    version.add_file(level, table)
                    brute.add(level, table)
            elif op == "remove":
                present = [f.number for f in brute.files[level]]
                if present and number % 4:  # mostly a hit, sometimes a miss
                    number = present[number % len(present)]
                assert version.remove_file(level, number) == \
                    brute.remove(level, number)
            else:
                frozen.append((version, BruteVersion(brute.files)))
                version = version.clone()
            assert_matches(version, brute, [(lo, hi)])
        for old, snapshot in frozen + [(version, brute)]:
            assert_matches(old, snapshot, _EVERY_QUERY)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.lists(_KEY, min_size=1, max_size=8),
                              st.sampled_from(["flush", "flush", "remove", "clone"]),
                              st.integers(0, 40)),
                    min_size=3, max_size=12))
    def test_level0_flush_units_match_brute_force(self, steps):
        """Level 0 as BoLT builds it: each flush is one container of
        disjoint tables with consecutive numbers, and flushes overlap
        one another.  Removing single tables (a compaction taking part
        of a container) and cloning leave every key's answer, newest
        first, equal to the linear scan's."""
        version, brute = Version(3), BruteVersion([[], [], []])
        frozen, number = [], 0
        for flush, (keys, op, pick) in enumerate(steps):
            if op == "flush":
                bounds = sorted(set(keys))
                for lo_key, hi_key in zip(bounds[::2], bounds[1::2] + bounds[-1:]):
                    number += 1
                    table = meta(number, lo_key, hi_key, container=f"flush{flush}")
                    version.add_file(0, table)
                    brute.add(0, table)
            elif op == "remove" and brute.files[0]:
                victim = brute.files[0][pick % len(brute.files[0])].number
                assert version.remove_file(0, victim) == brute.remove(0, victim)
            elif op == "clone":
                frozen.append((version, BruteVersion(brute.files)))
                version = version.clone()
            assert_matches(version, brute, [(key, None) for key in keys])
        for old, snapshot in frozen + [(version, brute)]:
            assert_matches(old, snapshot, _EVERY_QUERY)

    def test_level0_containers_are_searched_separately(self):
        """Two flushes of three disjoint tables each, interleaved in key
        order: a key hits one table per flush, newest first."""
        v = Version(2)
        for number, (lo, hi) in enumerate([(b"a", b"c"), (b"d", b"f"), (b"g", b"i")], 1):
            v.add_file(0, meta(number, lo, hi, container="c1"))
        for number, (lo, hi) in enumerate([(b"b", b"d"), (b"e", b"h"), (b"i", b"k")], 4):
            v.add_file(0, meta(number, lo, hi, container="c2"))
        assert [f.number for f in v.tables_for_key(0, b"d")] == [4, 2]
        assert [f.number for f in v.tables_for_key(0, b"i")] == [6, 3]
        assert [f.number for f in v.tables_for_key(0, b"l")] == []
        v.remove_file(0, 2)
        assert [f.number for f in v.tables_for_key(0, b"d")] == [4]

    def test_overlapping_level_needs_the_running_maximum(self):
        """A wide early table hides behind narrower later ones: bisecting
        ``largest`` itself (not its running maximum) would miss it."""
        v = Version(3)
        v.add_file(1, meta(1, b"a", b"z"))
        v.add_file(1, meta(2, b"b", b"c"))
        v.add_file(1, meta(3, b"d", b"e"))
        assert [f.number for f in v.overlapping_files(1, b"m", b"n")] == [1]
        assert [f.number for f in v.tables_for_key(1, b"d")] == [3, 1]

    def test_remove_among_equal_smallest_keys(self):
        v = Version(3)
        for number, largest in ((1, b"c"), (2, b"b"), (3, b"d")):
            v.add_file(1, meta(number, b"a", largest))
        assert [f.number for f in v.files[1]] == [3, 2, 1]
        assert v.remove_file(1, 1)
        assert [f.number for f in v.files[1]] == [3, 2]


class CountingKey(bytes):
    """A key that counts every ordering comparison made on it."""

    compares = 0

    def _counted(name):
        def compare(self, other):
            CountingKey.compares += 1
            return getattr(bytes, name)(self, other)
        return compare

    __lt__, __le__ = _counted("__lt__"), _counted("__le__")
    __gt__, __ge__ = _counted("__gt__"), _counted("__ge__")


def counted_tables(count, first_number=1, stride=10, width=4):
    return [meta(first_number + i, CountingKey(b"%08d" % (i * stride)),
                 CountingKey(b"%08d" % (i * stride + width)))
            for i in range(count)]


class TestVersionComplexity:
    """Key-comparison counts: deterministic, no clock."""

    def test_overlapping_files_is_logarithmic(self):
        n = 4096
        v = Version(3)
        for table in counted_tables(n):
            v.add_file(1, table)
        lo, hi = CountingKey(b"%08d" % 20001), CountingKey(b"%08d" % 20025)
        v.overlapping_files(1, lo, hi)  # builds the level's running maximum
        CountingKey.compares = 0
        hits = v.overlapping_files(1, lo, hi)
        assert [f.number for f in hits] == [2001, 2002, 2003]
        assert CountingKey.compares <= 4 * math.log2(n)

    def test_classifying_victims_is_not_quadratic(self):
        """256 victims against 1024 next-level tables: one indexing pass
        over the overlaps, one bisect per victim — not 256 x 1024."""
        overlaps = counted_tables(1024, stride=10, width=4)
        victims = counted_tables(256, first_number=5000, stride=40, width=6)
        settled_shape = SimpleNamespace(
            options=SimpleNamespace(enable_settled_compaction=True))
        budget = 2 * len(overlaps) + len(victims) * (math.log2(len(overlaps)) + 3)
        CountingKey.compares = 0
        settled, merge = LSMEngine._split_settled(
            settled_shape, Compaction(1, victims, overlaps))
        assert CountingKey.compares <= budget
        assert (merge, settled) == brute_split(victims, overlaps)
        CountingKey.compares = 0
        halves = split_by_overlap(overlaps, victims)
        assert CountingKey.compares <= \
            2 * len(victims) + len(overlaps) * (math.log2(len(victims)) + 3)
        assert halves == brute_split(overlaps, victims)


class TestVersionEdit:
    def test_roundtrip_full(self):
        edit = VersionEdit()
        edit.log_number = 7
        edit.next_file_number = 42
        edit.last_sequence = 12345
        edit.set_compact_pointer(2, b"pointer-key")
        edit.delete_file(1, 9)
        edit.add_file(2, meta(10, b"aa", b"zz", length=555,
                              container="c.cf", offset=4096))
        edit.add_guard(3, b"guard-key")
        decoded = VersionEdit.decode(edit.encode())
        assert decoded.log_number == 7
        assert decoded.next_file_number == 42
        assert decoded.last_sequence == 12345
        assert decoded.compact_pointers == [(2, b"pointer-key")]
        assert decoded.deleted_files == [(1, 9)]
        level, m = decoded.new_files[0]
        assert level == 2 and m.number == 10
        assert m.container == "c.cf" and m.offset == 4096 and m.length == 555
        assert m.smallest == b"aa" and m.largest == b"zz"
        assert decoded.new_guards == [(3, b"guard-key")]

    def test_empty_edit(self):
        decoded = VersionEdit.decode(VersionEdit().encode())
        assert decoded.new_files == [] and decoded.deleted_files == []

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(1, 10 ** 6),
                              st.binary(min_size=1, max_size=8),
                              st.binary(min_size=1, max_size=8)),
                    max_size=20))
    def test_new_files_roundtrip_property(self, files):
        edit = VersionEdit()
        for level, number, k1, k2 in files:
            lo, hi = min(k1, k2), max(k1, k2)
            edit.add_file(level, meta(number, lo, hi))
        decoded = VersionEdit.decode(edit.encode())
        assert len(decoded.new_files) == len(files)
        for (level, number, k1, k2), (dl, dm) in zip(files, decoded.new_files):
            assert dl == level and dm.number == number


class TestVersionSet:
    def _vs(self, env, fs, run):
        options = Options()
        vs = VersionSet(env, fs, options, "db")
        run(vs.create_new())
        return vs

    def test_create_writes_current_and_manifest(self, env, fs, run):
        self._vs(env, fs, run)
        assert fs.exists("db/CURRENT")
        assert fs.exists("db/MANIFEST-000001")

    def test_log_and_apply_fsyncs_manifest(self, env, fs, run):
        vs = self._vs(env, fs, run)
        barriers = fs.stats.num_barrier_calls
        edit = VersionEdit()
        edit.add_file(0, meta(10, b"a", b"z"))
        run(vs.log_and_apply(edit))
        assert fs.stats.num_barrier_calls == barriers + 1
        assert vs.current.num_files(0) == 1

    def test_recover_rebuilds_state(self, env, fs, run):
        vs = self._vs(env, fs, run)
        edit = VersionEdit()
        edit.add_file(1, meta(10, b"a", b"m", length=123))
        edit.add_file(1, meta(11, b"n", b"z", length=456))
        run(vs.log_and_apply(edit))
        edit2 = VersionEdit()
        edit2.delete_file(1, 10)
        vs.last_sequence = 999
        run(vs.log_and_apply(edit2))

        vs2 = VersionSet(env, fs, Options(), "db")
        run(vs2.recover())
        assert [f.number for f in vs2.current.files[1]] == [11]
        assert vs2.last_sequence == 999
        assert vs2.next_file_number >= 12

    def test_recover_rolls_manifest(self, env, fs, run):
        vs = self._vs(env, fs, run)
        old_manifest = f"db/MANIFEST-{vs.manifest_file_number:06d}"
        vs2 = VersionSet(env, fs, Options(), "db")
        run(vs2.recover())
        assert vs2.manifest_file_number != vs.manifest_file_number
        assert not fs.exists(old_manifest)
        assert fs.exists(f"db/MANIFEST-{vs2.manifest_file_number:06d}")

    def test_unsynced_edit_lost_after_crash(self, env, fs, run):
        """The MANIFEST is the commit mark: an edit whose fsync never
        completed must vanish on recovery (§2.4)."""
        vs = self._vs(env, fs, run)
        edit = VersionEdit()
        edit.add_file(0, meta(10, b"a", b"z"))
        # Append the record without the barrier (simulate pre-fsync crash).
        edit.next_file_number = vs.next_file_number
        edit.last_sequence = vs.last_sequence
        edit.log_number = vs.log_number
        vs._manifest_writer.append(edit.encode())
        fs.crash(survive_probability=0.0)
        vs2 = VersionSet(env, fs, Options(), "db")
        run(vs2.recover())
        assert vs2.current.num_files(0) == 0

    def test_synced_edit_survives_crash(self, env, fs, run):
        vs = self._vs(env, fs, run)
        edit = VersionEdit()
        edit.add_file(0, meta(10, b"a", b"z"))
        run(vs.log_and_apply(edit))
        fs.crash(survive_probability=0.0)
        vs2 = VersionSet(env, fs, Options(), "db")
        run(vs2.recover())
        assert vs2.current.num_files(0) == 1

    def test_level_scores(self, env, fs, run):
        vs = self._vs(env, fs, run)
        for i in range(8):
            edit = VersionEdit()
            edit.add_file(0, meta(100 + i, b"a", b"z"))
            run(vs.log_and_apply(edit))
        assert vs.level_score(0) == pytest.approx(
            8 / vs.options.l0_compaction_trigger)
        level, score = vs.pick_compaction_level()
        assert level == 0 and score > 1.0

    def test_l0_unit_count_by_container(self, env, fs, run):
        options = Options(use_compaction_file=True)
        vs = VersionSet(env, fs, options, "db")
        run(vs.create_new())
        edit = VersionEdit()
        for i in range(6):
            edit.add_file(0, meta(10 + i, b"a", b"z",
                                  container="db/000009.cf", offset=i * 100))
        run(vs.log_and_apply(edit))
        assert vs.current.num_files(0) == 6
        assert vs.l0_unit_count() == 1  # one flush container

    def test_file_numbers_monotonic(self, env, fs, run):
        vs = self._vs(env, fs, run)
        numbers = [vs.new_file_number() for _ in range(5)]
        assert numbers == sorted(numbers)
        assert len(set(numbers)) == 5

"""Versions: which (logical) SSTables exist at which level.

A :class:`FileMetaData` names a table by logical number *and* by physical
location ``(container, offset, length)``.  In stock LevelDB the container
is the table's own ``.ldb`` file at offset 0; in BoLT many logical
SSTables share one compaction file at different offsets (§3.2) — the
8-byte offset the paper adds to MANIFEST records is the ``offset`` field
here.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import accumulate
from operator import attrgetter, lt
from typing import Dict, List, Optional, Sequence, Set, Tuple

__all__ = ["FileMetaData", "Version"]

_NUMBER = attrgetter("number")
_LENGTH = attrgetter("length")
_SMALLEST = attrgetter("smallest")


@dataclass(eq=False)
class FileMetaData:
    """Metadata for one (logical) SSTable.

    Identity equality (``eq=False``): a table is one object shared by
    every :class:`Version` that references it, and hot paths
    (``overlapping_files``) do membership tests that must not pay a
    field-by-field dataclass compare per probe.
    """

    number: int
    container: str
    offset: int
    length: int
    smallest: bytes
    largest: bytes
    num_entries: int = 0
    #: Seek-compaction budget (runtime-only; LevelDB's allowed_seeks).
    allowed_seeks: int = 1 << 30

    def overlaps(self, smallest: Optional[bytes], largest: Optional[bytes]) -> bool:
        """Key-range overlap against ``[smallest, largest]`` (None = open)."""
        if smallest is not None and self.largest < smallest:
            return False
        if largest is not None and self.smallest > largest:
            return False
        return True


def key_range(files: Sequence[FileMetaData]) -> Tuple[bytes, bytes]:
    """Combined [smallest, largest] user-key range of ``files``."""
    smallest = min(f.smallest for f in files)
    largest = max(f.largest for f in files)
    return smallest, largest


def split_by_overlap(items: Sequence[FileMetaData],
                     others: Sequence[FileMetaData]
                     ) -> Tuple[List[FileMetaData], List[FileMetaData]]:
    """Split ``items`` into (overlapping any of ``others``, the rest),
    each half in ``items`` order; neither side need be sorted or disjoint.

    ``others`` is indexed once the way :class:`Version` indexes a level:
    O(O + V log O) key comparisons where a pairwise scan pays O(V * O).
    """
    others = sorted(others, key=attrgetter("smallest"))
    starts = [o.smallest for o in others]
    reach = list(accumulate((o.largest for o in others), max))
    hit: List[FileMetaData] = []
    miss: List[FileMetaData] = []
    for item in items:
        upto = bisect.bisect_right(starts, item.largest)
        (hit if upto and reach[upto - 1] >= item.smallest else miss).append(item)
    return hit, miss


def isolated(items: Sequence[FileMetaData]) -> List[FileMetaData]:
    """The items overlapping no *other* item, in ``items`` order: an
    item's overlappers, itself included, are those starting by its end
    less those ending before its start (which all start before it)."""
    smallests = sorted(item.smallest for item in items)
    largests = sorted(item.largest for item in items)
    return [item for item in items
            if bisect.bisect_right(smallests, item.largest)
            - bisect.bisect_left(largests, item.smallest) == 1]


def split_promotable(candidates: Sequence[FileMetaData],
                     placed: Sequence[FileMetaData]
                     ) -> Tuple[List[FileMetaData], List[FileMetaData]]:
    """Split ``candidates``, in order, into (promoted, fallback): a
    candidate is promoted when it overlaps nothing in ``placed`` and no
    candidate promoted before it.  Promoted ranges are disjoint by
    construction, so one bisect finds the only one that could overlap."""
    clash = set(split_by_overlap(candidates, placed)[0])
    starts: List[bytes] = []
    ends: List[bytes] = []
    promoted: List[FileMetaData] = []
    fallback: List[FileMetaData] = []
    for item in candidates:
        at = bisect.bisect_right(starts, item.largest)
        if item in clash or (at and ends[at - 1] >= item.smallest):
            fallback.append(item)
        else:
            promoted.append(item)
            starts.insert(at, item.smallest)
            ends.insert(at, item.largest)
    return promoted, fallback


class Version:
    """An immutable snapshot of the table tree, and the index over it.

    Level 0 tables may overlap and are ordered by number; levels >= 1
    are sorted by smallest key and, except in PebblesDB, disjoint.
    Beside each level >= 1 sit its ``smallest`` keys and the running
    maximum of ``largest`` (``reach``: non-decreasing even where tables
    overlap, and ``reach[i] < key`` says no table up to ``i`` extends to
    ``key``).  A range ``[lo, hi]`` is then one slice — bisect ``reach``
    for ``lo``, ``smallest`` for ``hi`` — holding every overlapping
    table; filtering it by ``largest >= lo`` is exact on overlapping
    levels too, so there is one code path and a query is O(log n + k).
    ``overlap_bytes`` on a disjoint level is O(log n): the slice is
    exact there, and its bytes are two entries of the level's running
    length totals, built on the first ask after the level last changed.
    """

    def __init__(self, num_levels: int):
        self.files: List[List[FileMetaData]] = [[] for _ in range(num_levels)]
        #: Per level >= 1, parallel to ``files[level]`` and kept in step
        #: by add/remove: each table's ``smallest``, and the running
        #: maximum of ``largest``.  Per level, ``number -> metadata``.
        self._smallest: List[List[bytes]] = [[] for _ in range(num_levels)]
        self._reach: List[List[bytes]] = [[] for _ in range(num_levels)]
        self._by_number: List[Dict[int, FileMetaData]] = [{} for _ in self.files]
        #: Per-level distinct-container count, None until next asked.
        self._containers: List[Optional[int]] = [None] * num_levels
        #: Level 0 grouped by container (a flush unit, in BoLT), None
        #: until next asked: per container its tables sorted by
        #: ``smallest``, those keys, and their running maximum of
        #: ``largest`` — a level >= 1's index, one per container.
        self._l0_index: Optional[List[Tuple[List[bytes], List[bytes],
                                            List[FileMetaData]]]] = None
        #: Per level >= 1, None until next asked: ``[0, l0, l0 + l1, ...]``
        #: over the tables' (immutable) lengths on a disjoint level, an
        #: empty tuple on an overlapping one (PebblesDB).
        self._length_sums: List[Optional[Sequence[int]]] = [None] * num_levels
        #: ``container -> number of tables it holds``, over every level:
        #: a container with no entry holds nothing this version reads.
        self._container_refs: Dict[str, int] = {}
        #: Per-level byte totals, maintained incrementally — compaction
        #: scoring reads these on every write, so summing the level's
        #: file list each time is quadratic in practice.
        self._level_bytes: List[int] = [0] * num_levels
        #: Table numbers quarantined by the corruption path: still
        #: referenced (so recovery knows the bytes are suspect, not
        #: merely deleted) but excluded from reads, which fail fast with
        #: ``CorruptionError`` instead of decoding bad bytes.
        self.quarantined: Set[int] = set()
        #: Containers demoted to the remote object tier (tag 9):
        #: ``container name -> (object length, zlib.crc32)``.  A container
        #: listed here lives in the object store; its local file may be
        #: absent, and reads route through the LSST cache.
        self.remote_containers: Dict[str, Tuple[int, int]] = {}

    @property
    def num_levels(self) -> int:
        """Number of levels in this version."""
        return len(self.files)

    def clone(self) -> "Version":
        """An independent copy of this version's per-level file lists."""
        version = Version(self.num_levels)
        version.files = [list(level) for level in self.files]
        version._smallest = [list(keys) for keys in self._smallest]
        version._by_number = [dict(index) for index in self._by_number]
        version._reach = [list(reach) for reach in self._reach]
        version._containers = list(self._containers)
        version._l0_index = self._l0_index  # rebuilt, never mutated
        version._length_sums = list(self._length_sums)
        version._container_refs = dict(self._container_refs)
        version._level_bytes = list(self._level_bytes)
        version.quarantined = set(self.quarantined)
        version.remote_containers = dict(self.remote_containers)
        return version

    def is_remote(self, container: str) -> bool:
        """True if ``container`` has been demoted to the object tier."""
        return container in self.remote_containers

    def is_quarantined(self, number: int) -> bool:
        """True if table ``number`` is quarantined in this version."""
        return number in self.quarantined

    def num_files(self, level: int) -> int:
        """Number of tables at ``level``."""
        return len(self.files[level])

    def has_file(self, level: int, number: int) -> bool:
        """True if table ``number`` is at ``level``."""
        return number in self._by_number[level]

    def container_count(self, level: int) -> int:
        """Number of distinct containers holding ``level``'s tables."""
        if self._containers[level] is None:
            self._containers[level] = len({f.container for f in self.files[level]})
        return self._containers[level]

    def tables_in(self, container: str) -> int:
        """Number of tables of this version stored in ``container``."""
        return self._container_refs.get(container, 0)

    def live_containers(self) -> Set[str]:
        """Every container holding at least one table of this version."""
        return set(self._container_refs)

    def level_bytes(self, level: int) -> int:
        """Total table bytes at ``level``."""
        return self._level_bytes[level]

    def total_bytes(self) -> int:
        """Total table bytes across all levels."""
        return sum(self._level_bytes)

    def total_files(self) -> int:
        """Total table count across all levels."""
        return sum(len(level) for level in self.files)

    def live_numbers(self) -> Dict[int, FileMetaData]:
        """Mapping ``table number -> metadata`` for every referenced table."""
        return {f.number: f for level in self.files for f in level}

    def deepest_nonempty_level(self) -> int:
        """The deepest level holding at least one table."""
        deepest = 0
        for level in range(self.num_levels):
            if self.files[level]:
                deepest = level
        return deepest

    # -- placement ---------------------------------------------------------

    def _restore_reach(self, level: int, index: int) -> None:
        """Recompute the running maximum from ``index`` on, stopping where
        it rejoins the stored values — one step on, on a disjoint level."""
        files, reach = self.files[level], self._reach[level]
        for i in range(index, len(files)):
            top = files[i].largest
            if i and reach[i - 1] > top:
                top = reach[i - 1]
            if i > index and reach[i] == top:
                break
            reach[i] = top

    def add_file(self, level: int, meta: FileMetaData) -> None:
        """Insert ``meta`` at ``level``, keeping the level sorted."""
        files = self.files[level]
        self._containers[level] = None
        self._length_sums[level] = None
        self._level_bytes[level] += meta.length
        self._by_number[level][meta.number] = meta
        refs = self._container_refs
        refs[meta.container] = refs.get(meta.container, 0) + 1
        if level == 0:
            self._l0_index = None
            files.append(meta)
            files.sort(key=_NUMBER)
        else:
            keys = self._smallest[level]
            index = bisect.bisect_left(keys, meta.smallest)
            keys.insert(index, meta.smallest)
            files.insert(index, meta)
            self._reach[level].insert(index, meta.largest)
            self._restore_reach(level, index)

    def remove_file(self, level: int, number: int) -> bool:
        """Remove table ``number`` from ``level``; True if it was present."""
        meta = self._by_number[level].pop(number, None)
        if meta is None:
            return False
        files = self.files[level]
        self._containers[level] = None
        self._length_sums[level] = None
        self._level_bytes[level] -= meta.length
        refs = self._container_refs
        left = refs.pop(meta.container) - 1
        if left:
            refs[meta.container] = left
        if level == 0:
            self._l0_index = None
            files.remove(meta)
        else:
            keys = self._smallest[level]
            index = bisect.bisect_left(keys, meta.smallest)
            while files[index] is not meta:  # equal smallest keys
                index += 1
            del keys[index], files[index], self._reach[level][index]
            self._restore_reach(level, index)
        return True

    # -- lookups ------------------------------------------------------------

    def _slice(self, level: int, smallest: Optional[bytes],
               largest: Optional[bytes]) -> List[FileMetaData]:
        """The run of ``level`` (>= 1) holding every table that overlaps
        the range (and, if tables overlap, some ending before it)."""
        reach = self._reach[level]
        lo = 0 if smallest is None else bisect.bisect_left(reach, smallest)
        hi = (len(reach) if largest is None
              else bisect.bisect_right(self._smallest[level], largest, lo))
        return self.files[level][lo:hi]

    def tables_for_key(self, level: int, user_key: bytes) -> List[FileMetaData]:
        """Tables that may hold ``user_key``, newest first.

        Level 0 tables overlap and must all be consulted (§2.1); so must
        the tables of a PebblesDB guard.  A disjoint level yields at
        most one table.  Level 0 is searched one container at a time,
        each indexed like a level >= 1 (a BoLT flush's tables share a
        container and are disjoint, so each yields at most one).
        """
        files = self.files[level]
        if not files:
            return []
        # In each slice every table starts at or before the key; a lone
        # candidate is a hit (reach[lo - 1] < key <= reach[lo] makes its
        # largest the reach), more are filtered on largest.
        if level:
            lo = bisect.bisect_left(self._reach[level], user_key)
            hi = bisect.bisect_right(self._smallest[level], user_key, lo)
            if hi - lo < 2:
                return files[lo:hi]
            hits = [f for f in files[lo:hi] if f.largest >= user_key]
        else:
            index = self._l0_index
            if index is None:
                index = self._l0_index = self._index_level0()
            hits = []
            for smallest, reach, group in index:
                lo = bisect.bisect_left(reach, user_key)
                hi = bisect.bisect_right(smallest, user_key, lo)
                if hi - lo == 1:
                    hits.append(group[lo])
                elif hi > lo:
                    hits += [f for f in group[lo:hi] if f.largest >= user_key]
        if len(hits) > 1:
            hits.sort(key=_NUMBER, reverse=True)
        return hits

    def _index_level0(self) -> List[Tuple[List[bytes], List[bytes],
                                          List[FileMetaData]]]:
        groups: Dict[str, List[FileMetaData]] = {}
        for meta in self.files[0]:
            groups.setdefault(meta.container, []).append(meta)
        index = []
        for group in groups.values():
            group.sort(key=_SMALLEST)
            index.append(([f.smallest for f in group],
                          list(accumulate((f.largest for f in group), max)),
                          group))
        return index

    def overlapping_files(self, level: int, smallest: Optional[bytes],
                          largest: Optional[bytes]) -> List[FileMetaData]:
        """All tables at ``level`` overlapping the user-key range.

        For level 0 the range is expanded transitively, as LevelDB does:
        an overlapping L0 table may widen the range and pull in more L0
        tables.
        """
        if level == 0:
            files = self.files[0]
            result: List[FileMetaData] = []
            taken: set = set()  # ids, so probes never pay a field compare
            lo, hi = smallest, largest
            changed = True
            while changed:
                changed = False
                for meta in files:
                    if id(meta) in taken:
                        continue
                    if lo is not None and meta.largest < lo:
                        continue
                    if hi is not None and meta.smallest > hi:
                        continue
                    result.append(meta)
                    taken.add(id(meta))
                    if lo is None or meta.smallest < lo:
                        lo = meta.smallest
                        changed = True
                    if hi is None or meta.largest > hi:
                        hi = meta.largest
                        changed = True
            result.sort(key=_NUMBER)
            return result
        run = self._slice(level, smallest, largest)
        if smallest is None:
            return run
        return [f for f in run if f.largest >= smallest]

    def overlap_bytes(self, level: int, smallest: Optional[bytes],
                      largest: Optional[bytes]) -> int:
        """Table bytes at ``level`` overlapping the range; 0 past the
        last level."""
        if level >= len(self.files):
            return 0
        if level:
            sums = self._length_sums[level]
            if sums is None:
                sums = self._length_sums[level] = self._sum_lengths(level)
            if sums:
                reach = self._reach[level]
                lo = 0 if smallest is None else bisect.bisect_left(reach, smallest)
                hi = (len(reach) if largest is None
                      else bisect.bisect_right(self._smallest[level], largest, lo))
                return sums[hi] - sums[lo]
        return sum(f.length for f in self.overlapping_files(level, smallest, largest))

    def _sum_lengths(self, level: int) -> Sequence[int]:
        """Running length totals of a disjoint level (each table starts
        past the reach of those before it); ``()`` if tables overlap."""
        if not all(map(lt, self._reach[level], self._smallest[level][1:])):
            return ()
        return list(accumulate(map(_LENGTH, self.files[level]), initial=0))

    def check_invariants(self) -> None:
        """Assert levels >= 1 are sorted and disjoint (test helper)."""
        for level in range(1, self.num_levels):
            files = self.files[level]
            for left, right in zip(files, files[1:]):
                if left.largest >= right.smallest:
                    raise AssertionError(
                        f"level {level} overlap: {left.number} and {right.number}")

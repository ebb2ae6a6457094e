"""MemTable: the in-memory write buffer of an LSM-tree.

Entries are versioned by sequence number; iteration runs in internal-key
order (user key ascending, sequence descending), so a lookup's first
match for a user key is the newest visible version — the same
internal-key discipline LevelDB uses.

LevelDB indexes the MemTable with a skip list.  Here the virtual cost of
an insert or lookup is charged by ``CostModel.memtable_insert`` /
``memtable_lookup``, so the host structure is free to differ: a dict
from user key to its newest version (and a second one holding the older
versions of keys written more than once) answers ``add`` and ``get``
without ordering anything, and the distinct user keys are sorted only
when an ordered walk asks for them (flush, scan) — RocksDB's vector
memtable, sorted at flush, makes the same trade.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Tuple

from .codec import MAX_SEQUENCE, VALUE_TYPE_DELETION

__all__ = ["MemTable", "LookupResult", "FOUND", "DELETED", "NOT_FOUND"]

#: Lookup outcome tags.
FOUND = "found"
DELETED = "deleted"
NOT_FOUND = "not-found"

LookupResult = Tuple[str, Optional[bytes]]

#: Bookkeeping bytes charged per entry on top of key/value payload,
#: approximating LevelDB's skip-list node + arena overhead.
_ENTRY_OVERHEAD = 24

#: One version of a user key: ``(sequence, value_type, value)``.
_Version = Tuple[int, int, bytes]


class MemTable:
    """A bounded, sorted, versioned write buffer.

    Ordered walks (:meth:`entries`, :meth:`entries_from`) see each user
    key's versions as of the moment the walk reaches that key, and no
    user key first added after the walk began; the engine walks only
    immutable memtables, or copies under the mutex.
    """

    __slots__ = ("_newest", "_older", "_sorted", "_fresh", "_count", "_bytes")

    def __init__(self) -> None:
        #: user key -> its newest version.
        self._newest: Dict[bytes, _Version] = {}
        #: user key -> its other versions, sequence ascending; only keys
        #: written more than once have an entry.
        self._older: Dict[bytes, List[_Version]] = {}
        #: Distinct user keys in order; replaced, never mutated, when
        #: ``_fresh`` is merged in, so a walk in progress keeps its list.
        self._sorted: List[bytes] = []
        #: User keys added since ``_sorted`` was last built.
        self._fresh: List[bytes] = []
        self._count = 0
        self._bytes = 0

    def __len__(self) -> int:
        return self._count

    @property
    def approximate_memory_usage(self) -> int:
        """Approximate bytes of key/value payload held."""
        return self._bytes

    def add(self, sequence: int, value_type: int, user_key: bytes,
            value: bytes) -> None:
        """Record a put (``VALUE_TYPE_VALUE``) or delete (``..._DELETION``).

        Raises ``KeyError``, changing nothing, if ``(user_key, sequence)``
        is already held; a sequence older than the key's newest is
        inserted in order.
        """
        entry = (sequence, value_type, value)
        newest = self._newest.get(user_key)
        if newest is None:
            self._newest[user_key] = entry
            self._fresh.append(user_key)
        elif sequence > newest[0]:
            self._newest[user_key] = entry
            older = self._older.get(user_key)
            if older is None:
                self._older[user_key] = [newest]
            else:
                older.append(newest)
        else:
            older = self._older.get(user_key, [])
            at = bisect_left(older, (sequence,))
            if sequence == newest[0] or (at < len(older)
                                         and older[at][0] == sequence):
                raise KeyError(f"duplicate key: {(user_key, sequence)!r}")
            older.insert(at, entry)
            self._older[user_key] = older
        self._count += 1
        self._bytes += len(user_key) + len(value) + _ENTRY_OVERHEAD

    def get(self, user_key: bytes, sequence: int = MAX_SEQUENCE) -> LookupResult:
        """Newest version of ``user_key`` visible at ``sequence``.

        Returns ``(FOUND, value)``, ``(DELETED, None)`` or
        ``(NOT_FOUND, None)``.
        """
        newest = self._newest.get(user_key)
        if newest is None:
            return (NOT_FOUND, None)
        if newest[0] > sequence:
            older = self._older.get(user_key, ())
            at = bisect_left(older, (sequence + 1,))
            if not at:
                return (NOT_FOUND, None)
            newest = older[at - 1]
        if newest[1] == VALUE_TYPE_DELETION:
            return (DELETED, None)
        return (FOUND, newest[2])

    def _keys(self) -> List[bytes]:
        """The distinct user keys, ascending."""
        if self._fresh:
            merged = self._sorted + self._fresh
            merged.sort()  # Timsort keeps the sorted prefix as one run
            self._sorted = merged
            self._fresh = []
        return self._sorted

    def entries(self) -> Iterator[Tuple[bytes, int, int, bytes]]:
        """All entries in internal-key order: (user_key, seq, type, value)."""
        return self.entries_from(b"")

    def entries_from(self, user_key: bytes,
                     sequence: int = MAX_SEQUENCE
                     ) -> Iterator[Tuple[bytes, int, int, bytes]]:
        """Entries at or after ``(user_key, sequence)`` in internal-key order."""
        keys = self._keys()
        newest, older = self._newest, self._older
        at = bisect_left(keys, user_key)
        bound = sequence  # binds only user_key's own versions
        for at in range(at, len(keys)):  # no tail copy: a seek may stop early
            key = keys[at]
            if key != user_key:
                bound = MAX_SEQUENCE
            seq, value_type, value = newest[key]
            if seq <= bound:
                yield key, seq, value_type, value
            rest = older.get(key)
            if rest:
                for seq, value_type, value in reversed(rest):
                    if seq <= bound:
                        yield key, seq, value_type, value

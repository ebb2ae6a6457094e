"""MemTable: the in-memory write buffer of an LSM-tree.

Entries are versioned by sequence number; the ordering (user key
ascending, sequence descending) means a lookup's first match for a user
key is the newest visible version — the same internal-key discipline
LevelDB uses.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from .codec import MAX_SEQUENCE, VALUE_TYPE_DELETION
from .skiplist import SkipList

__all__ = ["MemTable", "LookupResult", "internal_key", "FOUND", "DELETED", "NOT_FOUND"]

#: Lookup outcome tags.
FOUND = "found"
DELETED = "deleted"
NOT_FOUND = "not-found"

LookupResult = Tuple[str, Optional[bytes]]

#: Bookkeeping bytes charged per entry on top of key/value payload,
#: approximating LevelDB's skip-list node + arena overhead.
_ENTRY_OVERHEAD = 24


def internal_key(user_key: bytes, sequence: int) -> Tuple[bytes, int]:
    """Comparable internal key: user key asc, sequence desc."""
    return (user_key, MAX_SEQUENCE - sequence)


class MemTable:
    """A bounded, sorted, versioned write buffer."""

    def __init__(self, seed: Optional[int] = None):
        self._table = SkipList(seed)
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._table)

    @property
    def approximate_memory_usage(self) -> int:
        """Approximate bytes of key/value payload held."""
        return self._bytes

    def add(self, sequence: int, value_type: int, user_key: bytes,
            value: bytes) -> None:
        """Record a put (``VALUE_TYPE_VALUE``) or delete (``..._DELETION``)."""
        self._table.insert(internal_key(user_key, sequence), (value_type, value))
        self._bytes += len(user_key) + len(value) + _ENTRY_OVERHEAD

    def get(self, user_key: bytes, sequence: int = MAX_SEQUENCE) -> LookupResult:
        """Newest version of ``user_key`` visible at ``sequence``.

        Returns ``(FOUND, value)``, ``(DELETED, None)`` or
        ``(NOT_FOUND, None)``.
        """
        entry = self._table.seek(internal_key(user_key, sequence))
        if entry is None:
            return (NOT_FOUND, None)
        (found_key, _inv_seq), (value_type, value) = entry
        if found_key != user_key:
            return (NOT_FOUND, None)
        if value_type == VALUE_TYPE_DELETION:
            return (DELETED, None)
        return (FOUND, value)

    def entries(self) -> Iterator[Tuple[bytes, int, int, bytes]]:
        """All entries in internal-key order: (user_key, seq, type, value)."""
        for (user_key, inv_seq), (value_type, value) in self._table:
            yield user_key, MAX_SEQUENCE - inv_seq, value_type, value

    def entries_from(self, user_key: bytes,
                     sequence: int = MAX_SEQUENCE
                     ) -> Iterator[Tuple[bytes, int, int, bytes]]:
        """Entries at or after ``user_key`` in internal-key order."""
        for (key, inv_seq), (value_type, value) in self._table.iter_from(
                internal_key(user_key, sequence)):
            yield key, MAX_SEQUENCE - inv_seq, value_type, value

"""Merging helpers for compaction.

Entry streams are lists of ``(user_key, seq, value_type, value)`` in
internal-key order.  :func:`merge_streams` merges them eagerly for
compaction, with a newest-first tie-break on user keys, and
:func:`collapse_versions` keeps only the newest visible version of
each user key, optionally dropping tombstones (safe only at the bottom
of the tree).  A range scan merges lazily instead, in
:meth:`repro.lsm.engine.LSMEngine.scan`.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator, List, Sequence, Tuple

from .codec import MAX_SEQUENCE, VALUE_TYPE_DELETION

__all__ = ["merge_streams", "collapse_versions"]

Entry = Tuple[bytes, int, int, bytes]


def _internal_order(entry: Entry) -> Tuple[bytes, int]:
    user_key, seq, _vt, _v = entry
    return (user_key, MAX_SEQUENCE - seq)


def merge_streams(streams: Iterable[Iterable[Entry]]) -> List[Entry]:
    """Merge sorted entry streams into one list in internal-key order.

    For compaction, which consumes every entry.  Concatenate, then one
    stable sort: Timsort finds the already-sorted runs and gallops
    through them in C, and stability resolves equal internal keys to
    the earlier stream, as a heap merge keyed on ``(key, stream index)``
    would.
    """
    merged: List[Entry] = []
    for stream in streams:
        merged.extend(stream)
    merged.sort(key=_internal_order)
    return merged


def collapse_versions(entries: Iterable[Entry], drop_tombstones: bool,
                      snapshots: Sequence[int] = ()) -> Iterator[Entry]:
    """Drop shadowed versions of each user key.

    Without live snapshots, only the newest version of each key
    survives.  With ``snapshots`` (ascending sequence numbers of live
    read snapshots), the newest version within each snapshot interval
    is retained, so a reader pinned at sequence ``s`` still sees the
    value that was newest at ``s`` — LevelDB's compaction visibility
    rule.

    ``drop_tombstones`` must only be True when no deeper level can hold
    an older version of these keys (LevelDB's IsBaseLevelForKey rule);
    a tombstone is additionally retained while any live snapshot is
    older than it (the deletion must keep shadowing what that snapshot
    can still see).
    """
    last_key = None  # never equal to a user key (bytes)
    if not snapshots:
        # Every version of a key shares the one snapshot interval.
        for entry in entries:
            user_key = entry[0]
            if user_key == last_key:
                continue
            last_key = user_key
            if drop_tombstones and entry[2] == VALUE_TYPE_DELETION:
                continue
            yield entry
        return

    snapshots = sorted(snapshots)
    oldest_snapshot = snapshots[0]
    last_bucket = -1
    for entry in entries:
        user_key, seq, value_type, _value = entry
        # Two versions in the same bucket (snapshot interval) are
        # separated by no snapshot, so the older one is invisible to
        # every reader.
        bucket = bisect.bisect_left(snapshots, seq)
        if user_key == last_key and bucket == last_bucket:
            continue
        last_key = user_key
        last_bucket = bucket
        if (drop_tombstones and value_type == VALUE_TYPE_DELETION
                and seq <= oldest_snapshot):
            continue
        yield entry

"""In-memory caches: generic LRU, BlockCache, TableCache (§2.5–2.6) and
BoLT's per-compaction-file descriptor cache (§3.2.1).

Two properties from the paper are modelled faithfully:

* The **TableCache is counted in tables, not bytes** ("the TableCache
  size in LevelDB and its variants is determined by the number of
  SSTables, not bytes", §4.3.1) — so engines with huge SSTables get a
  proportionally huge metadata cache for free, and engines with small
  tables (BoLT's logical SSTables) pollute it less per entry.
* A **TableCache miss costs an index-block read proportional to the
  SSTable size** (§2.6) — the open path re-reads footer/index/bloom
  through :meth:`~repro.lsm.sstable.SSTableReader.open`.

Both caches serve the **read path** (``get``, ``scan``) only.  Whoever
consumes a table once and whole — compaction, scrub, repair, the crash
checker — takes the container's handle from
:meth:`TableCache.open_handle` and decodes the extent with
:func:`~repro.lsm.sstable.read_table_extent`: a victim's index and bloom
filter would be evicted at cleanup without having served one lookup,
after pushing out the readers point queries are using.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Generator, Hashable, Optional, Tuple

from ..sim import CpuMeter, Event, Resource
from ..storage import FileHandle, SimFS
from .options import Options
from .sstable import Sections, SSTableReader, release_sections

__all__ = ["LRUCache", "BlockCache", "TableCache", "FileDescriptorCache"]


class LRUCache:
    """A byte- or count-capacity LRU map with hit/miss statistics."""

    def __init__(self, capacity: float, by_bytes: bool = True):
        self.capacity = capacity
        self.by_bytes = by_bytes
        self._entries: "OrderedDict[Hashable, Tuple[Any, int]]" = OrderedDict()
        self._charge = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def charged(self) -> int:
        """Total charge currently held by resident entries."""
        return self._charge

    @property
    def hit_ratio(self) -> float:
        """hits / lookups, 0.0 before any lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def get(self, key: Hashable) -> Optional[Any]:
        """Look up ``key``, promoting it to most-recently-used on a hit."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[0]

    def put(self, key: Hashable, value: Any, charge: int = 1) -> None:
        """Insert ``key`` at ``charge``, evicting LRU entries to fit."""
        if key in self._entries:
            _old, old_charge = self._entries.pop(key)
            self._charge -= old_charge
        self._entries[key] = (value, charge)
        self._charge += charge
        while self._entries and (
                (self.by_bytes and self._charge > self.capacity)
                or (not self.by_bytes and len(self._entries) > self.capacity)):
            _k, (_v, ch) = self._entries.popitem(last=False)
            self._charge -= ch
            self.evictions += 1

    def remove(self, key: Hashable) -> None:
        """Drop ``key`` if present."""
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._charge -= entry[1]


class BlockCache(LRUCache):
    """Caches decoded data blocks, keyed ``(table_uid, block_offset)``."""

    def __init__(self, capacity_bytes: int):
        super().__init__(capacity_bytes, by_bytes=True)


class TableCache:
    """Caches opened tables (index block + bloom filter + descriptor).

    The read path's metadata cache (§2.6): only ``get`` and ``scan``
    look tables up here, so hits, misses and LRU order describe point
    and range queries and nothing else.  Capacity is the
    ``max_open_files`` option, counted in **tables**.  On a miss the
    table is re-opened: :meth:`open_handle` plus device reads of
    footer, index block and bloom filter.

    Apart from that model, the cache keeps each live table's verified
    sections (:data:`~repro.lsm.sstable.Sections`) — what a reopening
    or a block read reuses instead of re-checking and re-parsing while
    SimFS holds the same bytes.  That host-side memo outlives the
    reader's LRU slot and is dropped by :meth:`forget` once the table is
    deleted; it changes no hit, miss, read or charge.
    """

    def __init__(self, fs: SimFS, options: Options):
        self.fs = fs
        self.options = options
        self._cache = LRUCache(options.max_open_files, by_bytes=False)
        #: Optional hook: coroutine (container_name) -> FileHandle.  The
        #: engine installs its :class:`FileDescriptorCache` here when
        #: ``options.enable_fd_cache`` (+FC, §3.2.1); tiering wraps it.
        self.open_container: Optional[Callable] = None
        self.index_bytes_loaded = 0
        self._sections: Dict[int, Sections] = {}

    @property
    def hits(self) -> int:
        """Number of table lookups served from the cache."""
        return self._cache.hits

    @property
    def misses(self) -> int:
        """Number of table lookups that had to open and parse the table."""
        return self._cache.misses

    @property
    def hit_ratio(self) -> float:
        """hits / lookups, 0.0 before any lookup."""
        return self._cache.hit_ratio

    def __len__(self) -> int:
        return len(self._cache)

    def open_handle(self, container_name: str
                    ) -> Generator[Event, Any, FileHandle]:
        """A handle on a container file: the engine's hook when installed
        (FD cache, tier fallback), else ``fs.open``.  Caches no reader."""
        if self.open_container is not None:
            return self.open_container(container_name)
        return self.fs.open(container_name)

    def find_table(self, uid: int, container_name: str, base_offset: int,
                   length: int, meter: Optional[CpuMeter] = None
                   ) -> Generator[Event, Any, SSTableReader]:
        """Return a cached reader for the table, opening it on miss."""
        reader = self._cache.get(uid)
        if reader is not None:
            return reader
        handle = yield from self.open_handle(container_name)
        sections = self._sections.get(uid)
        if sections is None:
            sections = self._sections[uid] = {}
        reader = yield from SSTableReader.open(
            uid, handle, self.options.table_format, base_offset, length, meter,
            sections)
        self.index_bytes_loaded += reader.index_size
        self._cache.put(uid, reader)
        return reader

    def evict(self, uid: int) -> None:
        """Drop the cached reader for table ``uid``, if any."""
        self._cache.remove(uid)

    def forget(self, uid: int) -> None:
        """Drop table ``uid``'s verified sections, and the chunks they
        hold: once the table is deleted and no read can reach it any more
        (a get still running on an older version may reopen it after
        :meth:`evict`), or once the file they were read from is gone.
        Its data blocks still in the BlockCache keep copies of their own
        bytes, not the chunk (:func:`~repro.lsm.sstable.release_sections`)."""
        sections = self._sections.pop(uid, None)
        if sections is not None:
            release_sections(sections)


class FileDescriptorCache:
    """LRU of open file handles, keyed by container file name (§3.2.1).

    One descriptor per *compaction file*, so most TableCache refills
    skip the ``open()`` inode lookup the device model charges — a
    "trivial optimization" as significant as the others (+FC, Fig 12).
    """

    def __init__(self, fs: SimFS, capacity: int = 1000):
        self.fs = fs
        self._cache = LRUCache(capacity, by_bytes=False)
        #: Serializes miss-fills and evictions: without it, two workers
        #: missing on the same container both pay the open, and an evict
        #: racing an in-flight fill can reinsert a stale handle for an
        #: unlinked file.
        self._lock = Resource(fs.env, 1, name="fd-cache-lock")
        if fs.env.sanitizer.enabled:
            fs.env.sanitizer.register(self, "fd-cache")

    @property
    def hits(self) -> int:
        """Number of handle lookups served from the cache."""
        return self._cache.hits

    @property
    def misses(self) -> int:
        """Number of handle lookups that had to open the file."""
        return self._cache.misses

    @property
    def hit_ratio(self) -> float:
        """hits / (hits + misses), 0.0 before any lookup."""
        return self._cache.hit_ratio

    def open(self, name: str) -> Generator[Event, Any, FileHandle]:
        """Return a handle for ``name``, paying the metadata cost only
        on a cache miss.  Matches the ``TableCache.open_container``
        hook signature."""
        tracer = self.fs.env.tracer
        sanitizer = self.fs.env.sanitizer
        handle = self._cache.get(name)
        if handle is not None:
            if tracer.enabled:
                tracer.count("fd_cache.hit")
            return handle
        if tracer.enabled:
            tracer.count("fd_cache.miss")
        contended = not self._lock.try_acquire()
        if contended:
            # Contended: another process is filling or evicting.  Wait
            # our turn, then re-check — it may have filled this name.
            yield self._lock.acquire()
        try:
            if contended:
                filled = self._cache.get(name)
                if filled is not None:
                    return filled
            # simcheck: waive[SIM007] - the fill lock intentionally
            # spans the simulated disk open: concurrent fillers would
            # double-open and double-insert the same handle.
            handle = yield from self.fs.open(name)
            self._cache.put(name, handle)
            if sanitizer.enabled:
                sanitizer.note_write(self, "lru")
        finally:
            self._lock.release()
        return handle

    def evict(self, name: str) -> Generator[Event, Any, None]:
        """Drop a handle (called when its container file is unlinked)."""
        if not self._lock.try_acquire():
            yield self._lock.acquire()
        try:
            self._cache.remove(name)
            if self.fs.env.sanitizer.enabled:
                self.fs.env.sanitizer.note_write(self, "lru")
        finally:
            self._lock.release()

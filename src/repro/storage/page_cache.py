"""OS page cache model (LRU over 4 KB pages).

The paper caps the testbed's DRAM at 8 GB precisely so that the 50–100 GB
datasets do not fit in the page cache and reads actually touch the
device.  This class reproduces that: a byte-capacity LRU keyed by
``(file_id, page_index)``.  It tracks only *presence* — the authoritative
bytes live in :class:`~repro.storage.filesystem.SimFile`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Tuple

__all__ = ["PageCache", "PAGE_SIZE"]

PAGE_SIZE = 4096


class PageCache:
    """An LRU set of resident pages with byte-denominated capacity."""

    def __init__(self, capacity_bytes: int):
        if capacity_bytes < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity_pages = capacity_bytes // PAGE_SIZE
        self._pages: "OrderedDict[Tuple[int, int], None]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._pages)

    @property
    def resident_bytes(self) -> int:
        """Bytes currently resident in the cache."""
        return len(self._pages) * PAGE_SIZE

    def contains(self, file_id: int, page: int) -> bool:
        """Check residency and record a hit/miss, promoting on hit."""
        key = (file_id, page)
        if key in self._pages:
            self._pages.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, file_id: int, page: int) -> None:
        """Make a page resident, evicting LRU pages as needed."""
        if self.capacity_pages == 0:
            return
        key = (file_id, page)
        if key in self._pages:
            self._pages.move_to_end(key)
            return
        while len(self._pages) >= self.capacity_pages:
            self._pages.popitem(last=False)
            self.evictions += 1
        self._pages[key] = None

    def insert_range(self, file_id: int, first_page: int, last_page: int) -> None:
        """Mark pages ``first_page..last_page`` of ``file_id`` resident."""
        for page in range(first_page, last_page + 1):
            self.insert(file_id, page)

    def invalidate_file(self, file_id: int, size: int) -> None:
        """Drop every resident page of a file ``size`` bytes long (unlink,
        rename over it).  A page is resident only once a read or write
        inside the file made it so, and a SimFS file never shrinks —
        there is no truncate, and a crash empties the whole cache — so
        the pages under its current size are all it can have here."""
        pop = self._pages.pop
        for page in range((size + PAGE_SIZE - 1) // PAGE_SIZE):
            pop((file_id, page), None)

    def invalidate_range(self, file_id: int, first_page: int, last_page: int) -> None:
        """Drop resident pages in a range (hole punching)."""
        for page in range(first_page, last_page + 1):
            self._pages.pop((file_id, page), None)

    def drop_all(self) -> None:
        """Empty the cache (post-crash cold start)."""
        self._pages.clear()

    def resident_pages(self) -> Iterable[Tuple[int, int]]:
        """Iterate over resident ``(file_id, page_index)`` pairs."""
        return iter(self._pages)

    @property
    def hit_ratio(self) -> float:
        """hits / lookups, 0.0 before any lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

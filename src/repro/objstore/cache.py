"""Bounded local cache of remote LSST containers.

A demoted container's bytes live in the object store; reads route
through this cache.  Whole containers are fetched (they are coarse and
immutable — one GET restores every logical SSTable inside) and stored as
ordinary SimFS files under ``{dbname}/objcache/``, preserving intra-file
offsets so :class:`repro.lsm.cache.TableCache` readers work unchanged.

Two properties matter:

* **LRU admission, bounded bytes.**  Admitting a fetch evicts
  least-recently-used residents until the new container fits (an object
  larger than the whole budget is still admitted — the cache then holds
  just it — because refusing would make the table unreadable).
* **Single-flight fetch.**  Concurrent misses on one container pay one
  GET: the first process becomes the fetch leader, the rest park on an
  event and open the freshly admitted file when woken.

Cache files are *never* fsynced — they are disposable replicas of
durable remote objects.  After a crash their pages may be torn, so
recovery discards the whole ``objcache/`` directory (the cold-cache
reopen the tiering contract is tested against) and refetches on demand.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Generator, List

from ..sim import Event
from ..storage import FileHandle, SimFS
from .store import ObjectStore

__all__ = ["LsstCache"]


class LsstCache:
    """LRU cache of fetched remote containers, stored as local files."""

    def __init__(self, fs: SimFS, store: ObjectStore, dbname: str,
                 capacity_bytes: int):
        self.fs = fs
        self.store = store
        self.dbname = dbname
        self.capacity_bytes = capacity_bytes
        #: container name -> cached size, in LRU order (oldest first).
        self._lru: "OrderedDict[str, int]" = OrderedDict()
        self._resident_bytes = 0
        #: container name -> completion event of the in-flight fetch.
        self._inflight: Dict[str, Event] = {}
        self.hits = 0
        self.misses = 0
        self.single_flight_waits = 0
        self.evictions = 0
        self.bytes_fetched = 0
        #: Wall-to-wall latency of every leader fetch, for miss p999.
        self.miss_latencies: List[float] = []

    def local_name(self, container: str) -> str:
        """Cache-file name for ``container`` (same basename, offsets kept)."""
        head, _, tail = container.rpartition("/")
        return f"{head}/objcache/{tail}"

    @property
    def resident_bytes(self) -> int:
        """Bytes currently held by cache files."""
        return self._resident_bytes

    def hit_rate(self) -> float:
        """hits / lookups (single-flight waits count as misses)."""
        lookups = self.hits + self.misses + self.single_flight_waits
        return self.hits / lookups if lookups else 0.0

    def ensure(self, container: str) -> Generator[Event, Any, FileHandle]:
        """Return a handle to a local copy of ``container``, fetching it
        from the object store on a miss (single-flight)."""
        local = self.local_name(container)
        while True:
            pending = self._inflight.get(container)
            if pending is not None:
                # Another process is fetching this container: park on its
                # completion instead of paying a duplicate GET.
                self.single_flight_waits += 1
                yield pending
                continue  # re-check: the leader admitted (or failed)
            if container in self._lru:
                self.hits += 1
                self._lru.move_to_end(container)
                return (yield from self.fs.open(local))
            break
        self.misses += 1
        done = self.fs.env.event()
        self._inflight[container] = done
        started = self.fs.env.now
        try:
            data = yield from self.store.get(container)
            yield from self._admit(container, local, data)
        finally:
            del self._inflight[container]
            # simcheck: waive[SIM006] cache fills are non-durable by design
            # (a crash just re-fetches from the object store on demand).
            done.succeed()
        self.miss_latencies.append(self.fs.env.now - started)
        self.fs.fault_site("tier.fetch", container=container)
        return (yield from self.fs.open(local))

    def _admit(self, container: str, local: str, data: bytes
               ) -> Generator[Event, Any, None]:
        while (self._lru
               and self._resident_bytes + len(data) > self.capacity_bytes):
            victim, size = self._lru.popitem(last=False)
            self._resident_bytes -= size
            self.evictions += 1
            victim_local = self.local_name(victim)
            if self.fs.exists(victim_local):
                yield from self.fs.unlink(victim_local)
        if self.fs.exists(local):
            # A stale cache file (e.g. surviving a drop-and-refetch)
            # must not shadow the fresh bytes.
            yield from self.fs.unlink(local)
        handle = yield from self.fs.create(local)
        handle.append(data)
        self._lru[container] = len(data)
        self._resident_bytes += len(data)
        self.bytes_fetched += len(data)

    def drop(self, container: str) -> Generator[Event, Any, None]:
        """Forget ``container`` (its remote object was deleted)."""
        size = self._lru.pop(container, None)
        if size is not None:
            self._resident_bytes -= size
        local = self.local_name(container)
        if self.fs.exists(local):
            yield from self.fs.unlink(local)

    def miss_p999(self) -> float:
        """The p999 leader-fetch latency in virtual seconds (0 if none)."""
        if not self.miss_latencies:
            return 0.0
        ordered = sorted(self.miss_latencies)
        index = min(len(ordered) - 1, int(len(ordered) * 0.999))
        return ordered[index]

    def snapshot(self) -> Dict[str, Any]:
        """Stable summary for reports."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "single_flight_waits": self.single_flight_waits,
            "hit_rate": round(self.hit_rate(), 6),
            "evictions": self.evictions,
            "resident_bytes": self._resident_bytes,
            "bytes_fetched": self.bytes_fetched,
            "miss_p999_ms": round(self.miss_p999() * 1e3, 3),
        }

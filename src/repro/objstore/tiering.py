"""Tiering policy: demote cold compaction files to the object store.

The policy sits between the engine and :class:`~repro.objstore.ObjectStore`:

* **Demotion** (after every compaction): a container whose live logical
  SSTables all sit at or below ``Options.tier_cold_level`` is fully
  compacted out of the hot path.  Its bytes are PUT to the object store
  (atomic at completion), then a single MANIFEST edit records the tier
  pointer (tag 9, with object length + CRC), and only then is the local
  file scheduled for unlink — deferred until no read is in flight, like
  obsolete-table cleanup.  A crash anywhere in that sequence leaves
  either the local file authoritative (pointer not committed; the
  remote orphan is garbage-collected at recovery) or the remote object
  authoritative (pointer committed; the local file is merely a cached
  copy) — never a pointer to a missing or torn object.

* **Release** (when the last table in a remote container dies): the
  MANIFEST edit *removing* the tier pointer commits first, then the
  remote object is deleted and the cache entry dropped.  The ordering is
  the whole point: the MANIFEST never references an object that a crash
  between the two steps could have deleted.

* **Reads** route through :class:`TieredContainerOpener`: a local file
  (not yet unlinked, or a cache resident) is preferred; otherwise the
  container is fetched through the :class:`~repro.objstore.LsstCache`
  (single-flight, LRU-bounded).

* **Recovery**: the MANIFEST replay restores the tier pointers; orphan
  objects under the database prefix that no pointer references are
  deleted (they are PUTs whose demotion never committed).  Foreign keys
  that do not parse as container names are skipped defensively, exactly
  like foreign ``.log`` files in ``lsm.wal.list_wal_files``.
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, Dict, Generator, List

from ..lsm.sink import parse_container_number
from ..sim import Event
from ..storage import FileHandle, FileSystemError
from .cache import LsstCache
from .store import ObjectStore, RemoteProfile

__all__ = ["TieringPolicy", "TieredContainerOpener", "attach_tiering"]

_GB = float(1 << 30)


class TieredContainerOpener:
    """``TableCache.open_container`` hook that falls back to the cache.

    Wraps whatever opener the engine already installed (the BoLT FD
    cache, or plain ``fs.open``): a container with a local file goes
    through it unchanged; a demoted container whose local copy is gone
    is fetched through the LSST cache instead.
    """

    def __init__(self, engine: Any, cache: LsstCache, inner: Callable):
        self.engine = engine
        self.cache = cache
        self._inner = inner

    def __call__(self, name: str) -> Generator[Event, Any, FileHandle]:
        engine = self.engine
        if (not engine.fs.exists(name)
                and engine.versions.current.is_remote(name)):
            return (yield from self.cache.ensure(name))
        try:
            return (yield from self._inner(name))
        except FileSystemError:
            # The local copy was unlinked between the exists() check and
            # the open (the deferred demotion unlink landed mid-open);
            # for a demoted container the remote object is authoritative.
            if engine.versions.current.is_remote(name):
                # simcheck: waive[SIM006] cache fill is non-durable by design
                return (yield from self.cache.ensure(name))
            raise


class TieringPolicy:
    """Demotes cold containers wholesale and accounts for both tiers."""

    def __init__(self, engine: Any, store: ObjectStore, cache: LsstCache):
        self.engine = engine
        self.store = store
        self.cache = cache
        self.demotions = 0
        self.demoted_bytes = 0
        self.releases = 0
        self.orphans_collected = 0
        self.foreign_objects_skipped = 0

    # -- demotion ----------------------------------------------------------

    def containers_to_demote(self) -> List[str]:
        """Containers that are live, fully cold, local, and not remote yet."""
        engine = self.engine
        version = engine.versions.current
        cold_level = engine.options.tier_cold_level
        coldest: Dict[str, bool] = {}
        for level in range(version.num_levels):
            for meta in version.files[level]:
                cold = (level >= cold_level
                        and meta.number not in engine._quarantined)
                previous = coldest.get(meta.container, True)
                coldest[meta.container] = previous and cold
        return sorted(
            container for container, cold in coldest.items()
            if cold and not version.is_remote(container)
            and engine.fs.exists(container))

    def maybe_demote(self, meter: Any) -> Generator[Event, Any, None]:
        """Demote every currently-cold container (post-compaction hook)."""
        for container in self.containers_to_demote():
            yield from self.demote(container, meter)

    def demote(self, container: str,
               meter: Any) -> Generator[Event, Any, None]:
        """Move one container to the object store (pointer-swap last)."""
        engine = self.engine
        fs = engine.fs
        handle = yield from fs.open(container)
        data = yield from handle.read(0, handle.size, sequential=True)
        crc = zlib.crc32(bytes(data)) & 0xFFFFFFFF
        yield from self.store.put(container, bytes(data))
        # Crash site: the object exists but the MANIFEST pointer does
        # not — an orphan, collected by recover_gc(), never a dangle.
        fs.fault_site("tier.put", container=container)
        from ..lsm.manifest import VersionEdit  # local: avoid import cycle
        edit = VersionEdit()
        edit.set_tier(container, 1, len(data), crc)
        yield from engine.versions.log_and_apply(edit, meter)
        self.demotions += 1
        self.demoted_bytes += len(data)
        tracer = engine.env.tracer
        if tracer.enabled:
            tracer.count("tier.demotions")
            tracer.count("tier.demoted_bytes", len(data))
            tracer.instant("tier-demote", cat="tier", container=container,
                           nbytes=len(data))
        # The local file is now a cache copy; unlink it once no read is
        # in flight (same deferral as obsolete-table cleanup).
        engine._schedule_demotion_unlink(container)

    def unlink_locals(self, containers: List[str]
                      ) -> Generator[Event, Any, None]:
        """Drop local files of demoted containers (deferred-cleanup path)."""
        engine = self.engine
        for container in containers:
            if not engine.versions.current.is_remote(container):
                continue  # released (or re-created) since scheduling
            for number, meta in list(
                    engine.versions.current.live_numbers().items()):
                if meta.container == container:
                    engine.table_cache.evict(number)
            if engine.fd_cache is not None:
                yield from engine.fd_cache.evict(container)
            if engine.fs.exists(container):
                try:
                    yield from engine.fs.unlink(container)
                except FileSystemError:
                    continue
            engine.fs.fault_site("tier.unlink", container=container)

    # -- release -----------------------------------------------------------

    def maybe_release(self, container: str,
                      meter: Any) -> Generator[Event, Any, bool]:
        """Release ``container``'s remote object if it is remote and dead.

        Returns True when the container was handled here (the caller
        must not unlink-and-punch it as a local container).  Ordering:
        the MANIFEST edit removing the tier pointer commits *before* the
        remote DELETE, so the pointer can never dangle.
        """
        engine = self.engine
        version = engine.versions.current
        if not version.is_remote(container):
            return False
        for meta in version.live_numbers().values():
            if meta.container == container:
                return True  # still referenced: neither punch nor delete
        from ..lsm.manifest import VersionEdit  # local: avoid import cycle
        edit = VersionEdit()
        edit.set_tier(container, 0)
        yield from engine.versions.log_and_apply(edit, meter)
        yield from self.store.delete(container)
        yield from self.cache.drop(container)
        if engine.fs.exists(container):
            yield from engine.fs.unlink(container)
        self.releases += 1
        tracer = engine.env.tracer
        if tracer.enabled:
            tracer.count("tier.releases")
        return True

    # -- recovery ----------------------------------------------------------

    def recover_gc(self) -> Generator[Event, Any, None]:
        """Delete orphan objects (PUT done, demotion never committed).

        Non-container keys under the database prefix are skipped — the
        remote-listing twin of ``list_wal_files``' foreign-``.log``
        skip: listings are untrusted input, not an invariant.
        """
        engine = self.engine
        referenced = set(engine.versions.current.remote_containers)
        tracer = engine.env.tracer
        keys = yield from self.store.list_keys(f"{engine.dbname}/")
        for key in keys:
            if parse_container_number(key) is None:
                self.foreign_objects_skipped += 1
                if tracer.enabled:
                    tracer.count("tier.foreign_objects_skipped")
                continue
            if key in referenced:
                continue
            yield from self.store.delete(key)
            self.orphans_collected += 1
            if tracer.enabled:
                tracer.count("tier.orphans_collected")

    # -- reporting ---------------------------------------------------------

    def dollars_per_gb(self) -> float:
        """Total remote dollars per GB currently stored (0 when empty)."""
        stored = self.store.stored_bytes
        if not stored:
            return 0.0
        return self.store.dollars_spent() / (stored / _GB)

    def snapshot(self) -> Dict[str, Any]:
        """Flat tier section for ``unified_snapshot``."""
        snap: Dict[str, Any] = {
            "demotions": self.demotions,
            "demoted_bytes": self.demoted_bytes,
            "releases": self.releases,
            "orphans_collected": self.orphans_collected,
            "foreign_objects_skipped": self.foreign_objects_skipped,
            "remote_containers": len(
                self.engine.versions.current.remote_containers),
            "dollars_per_gb": round(self.dollars_per_gb(), 9),
        }
        for key, value in self.store.snapshot().items():
            snap[f"remote_{key}" if not key.startswith("remote") else key] = value
        for key, value in self.cache.snapshot().items():
            snap[f"cache_{key}"] = value
        return snap


def attach_tiering(engine: Any) -> TieringPolicy:
    """Install the tiered-storage subsystem on a freshly built engine.

    Reuses the filesystem's attached :class:`ObjectStore` (``fs.remote``)
    when one exists — crash-image materialization attaches the surviving
    store before reopen — and creates one otherwise.  Wraps the table
    cache's container opener so reads of demoted containers route
    through the LSST cache.
    """
    options = engine.options
    store = engine.fs.remote
    if store is None:
        store = ObjectStore(
            engine.env,
            RemoteProfile(request_latency=options.tier_remote_latency,
                          bandwidth=options.tier_remote_bandwidth),
            seed=options.seed)
        engine.fs.remote = store
    cache = LsstCache(engine.fs, store, engine.dbname,
                      options.tier_cache_bytes)
    policy = TieringPolicy(engine, store, cache)
    engine.table_cache.open_container = TieredContainerOpener(
        engine, cache, engine.table_cache.open_container or engine.fs.open)
    engine.tiering = policy
    return policy

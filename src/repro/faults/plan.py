"""Fault plans, crash-point injection and crash images.

The injector piggybacks on a normal ("golden") run: durability-critical
code paths announce named *crash sites* through
:meth:`repro.storage.SimFS.fault_site`, and an armed
:class:`CrashInjector` captures a :class:`CrashImage` — a copy of the
entire on-disk state *including* unsynced dirty-page bookkeeping, whose
file bytes share the live files' immutable chunks —
at each armed site.  The golden run itself is never perturbed; each
image is later materialized into a fresh simulated machine, a
:class:`FaultModel` is applied (which unsynced state the power loss
destroys), and :class:`repro.faults.CrashChecker` reopens the result.

This is the ALICE-style exploration split into capture and replay: one
traced golden run enumerates the crash points, and every (site × fault
model) combination is checked offline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..sim import Environment
from ..storage import (PAGE_SIZE, BlockDevice, DeviceProfile, PageCache,
                       SimFS)
from ..storage.filesystem import _SimFile

__all__ = [
    "ALL_SITES",
    "SITE_BARRIER",
    "SITE_FDATABARRIER",
    "SITE_HOLE_PUNCH",
    "SITE_WAL_APPEND",
    "SITE_WAL_GROUP_APPEND",
    "SITE_TABLE_SEALED",
    "SITE_MANIFEST_APPEND",
    "SITE_MANIFEST_COMMIT",
    "SITE_CURRENT_RENAME",
    "SITE_TIER_PUT",
    "SITE_TIER_FETCH",
    "SITE_TIER_UNLINK",
    "SITE_TIMER",
    "FaultModel",
    "DEFAULT_MODELS",
    "FaultPlan",
    "CrashImage",
    "CrashInjector",
    "TransientEIO",
]

#: A barrier (fsync/fdatasync) just completed — the acknowledged-durable
#: boundary moved.
SITE_BARRIER = "fs.barrier"
#: An ordering-only barrier (BarrierFS fdatabarrier) completed.
SITE_FDATABARRIER = "fs.fdatabarrier"
#: A hole punch just deallocated pages — no barrier was issued (§3.2).
SITE_HOLE_PUNCH = "fs.hole_punch"
#: A WAL record was appended but not yet synced (mid-WAL-append).
SITE_WAL_APPEND = "wal.append"
#: A *merged* group-commit record (two or more writers' batches behind
#: one barrier) was appended but not yet synced.  The checker asserts
#: the group is all-or-nothing: a crash here may lose every key in the
#: group or none, but never a strict subset (the record shares one CRC).
SITE_WAL_GROUP_APPEND = "wal.group_append"
#: A compaction output table's bytes are complete but the output set is
#: not sealed (mid-compaction, between LSST cuts).
SITE_TABLE_SEALED = "compaction.table_sealed"
#: A MANIFEST edit was appended but its fsync has not run
#: (mid-MANIFEST-commit).
SITE_MANIFEST_APPEND = "manifest.append"
#: The MANIFEST commit barrier completed; victim cleanup has not run.
SITE_MANIFEST_COMMIT = "manifest.commit"
#: CURRENT was atomically renamed to name a new manifest.
SITE_CURRENT_RENAME = "manifest.current_rename"
#: A demotion PUT completed; the MANIFEST tier pointer is not committed
#: (the remote object is an orphan if we crash here).
SITE_TIER_PUT = "tier.put"
#: A remote container was fetched and admitted to the local LSST cache
#: (the cache file is deliberately unsynced).
SITE_TIER_FETCH = "tier.fetch"
#: A demoted container's local file was unlinked — the object store now
#: holds the only durable copy.
SITE_TIER_UNLINK = "tier.unlink"
#: A time-armed crash point (see :meth:`CrashInjector.arm_at_times`).
SITE_TIMER = "timer"

ALL_SITES: Tuple[str, ...] = (
    SITE_BARRIER, SITE_FDATABARRIER, SITE_HOLE_PUNCH, SITE_WAL_APPEND,
    SITE_WAL_GROUP_APPEND, SITE_TABLE_SEALED, SITE_MANIFEST_APPEND,
    SITE_MANIFEST_COMMIT, SITE_CURRENT_RENAME, SITE_TIER_PUT,
    SITE_TIER_FETCH, SITE_TIER_UNLINK, SITE_TIMER,
)


@dataclass(frozen=True)
class FaultModel:
    """What the power loss does to unsynced state (see docs/FAULT_MODEL.md).

    ``survive_probability`` is the per-page survival chance for unsynced
    dirty pages; ``mode`` chooses between the epoch-ordered device
    (``"epoch"``, the SimFS default) and an adversarial reordering device
    (``"reorder"``); ``torn_tail`` tears the last in-flight page at
    sector granularity.
    """

    name: str
    survive_probability: float = 0.5
    mode: str = "epoch"
    torn_tail: bool = False


#: The checker's standard battery: the adversarial all-lost case, a
#: random epoch-ordered subset, a torn write of the last unsynced page,
#: and epoch-order-violating reordering.
DEFAULT_MODELS: Tuple[FaultModel, ...] = (
    FaultModel("all-lost", 0.0),
    FaultModel("subset", 0.5),
    FaultModel("torn-tail", 0.5, torn_tail=True),
    FaultModel("reorder", 0.5, mode="reorder"),
)


@dataclass
class FaultPlan:
    """Which crash points to arm, and which fault models to apply.

    ``sites=None`` arms every known site.  ``stride`` keeps every n-th
    hit of a site; ``max_per_site`` bounds captures per site name (so
    frequent sites like ``fs.barrier`` don't crowd out rare ones), and
    ``max_images`` bounds the total.
    """

    sites: Optional[Tuple[str, ...]] = None
    stride: int = 1
    max_images: int = 64
    max_per_site: Optional[int] = 8
    models: Tuple[FaultModel, ...] = DEFAULT_MODELS

    def arms(self, site: str, index: int) -> bool:
        """True if the ``index``-th hit of ``site`` should be captured."""
        if self.sites is not None and site not in self.sites:
            return False
        return index % max(1, self.stride) == 0


def _copy_file(file: _SimFile) -> _SimFile:
    copy = _SimFile(file.file_id, file.name)
    # Chunks are immutable and shared, except a coalescing tail.
    copy.chunks = list(file.chunks)
    if copy.chunks and type(copy.chunks[-1]) is bytearray:
        copy.chunks[-1] = bytes(copy.chunks[-1])
    copy.starts = list(file.starts)
    copy.size = file.size
    copy.dirty = dict(file.dirty)
    copy.dirty_epoch = dict(file.dirty_epoch)
    copy.submitted = set(file.submitted)
    copy.punched = set(file.punched)
    copy.partial_punches = {page: [list(span) for span in spans]
                            for page, spans in file.partial_punches.items()}
    copy.durable_size = file.durable_size
    return copy


class CrashImage:
    """The complete filesystem state captured at one crash point.

    The copy includes every file's bytes *and* its dirty-page preimages,
    epochs and submitted sets, so :meth:`materialize` can replay any
    power-loss outcome the golden run could have suffered at this
    instant, on a brand-new simulated machine.
    """

    __slots__ = ("site", "index", "time", "detail", "epoch", "files",
                 "profile", "page_cache_bytes", "oracle", "remote_objects",
                 "remote_profile", "remote_seed")

    def __init__(self, site: str, index: int, time: float,
                 detail: Dict[str, Any], epoch: int, files: List[_SimFile],
                 profile: DeviceProfile, page_cache_bytes: Optional[int],
                 oracle: Any = None,
                 remote_objects: Optional[Dict[str, bytes]] = None,
                 remote_profile: Any = None, remote_seed: int = 0):
        self.site = site
        self.index = index
        self.time = time
        self.detail = detail
        self.epoch = epoch
        self.files = files
        self.profile = profile
        self.page_cache_bytes = page_cache_bytes
        #: Oracle snapshot (:class:`repro.faults.checker.OracleState`)
        #: taken synchronously at capture, if an oracle was attached.
        self.oracle = oracle
        #: Remote-tier objects at capture time (``None`` when the
        #: machine had no object store attached).  Remote objects
        #: survive local power loss, so :meth:`materialize` restores
        #: them verbatim on the fresh machine.
        self.remote_objects = remote_objects
        self.remote_profile = remote_profile
        self.remote_seed = remote_seed

    def __repr__(self) -> str:
        return (f"CrashImage(site={self.site!r}, index={self.index}, "
                f"t={self.time:.6f}, files={len(self.files)})")

    def materialize(self, model: Optional[FaultModel] = None,
                    rng: Any = None) -> Tuple[Environment, SimFS]:
        """Build a fresh machine holding this image, post-crash.

        Returns ``(env, fs)`` ready for an engine ``open``.  With
        ``model=None`` the image is materialized as captured (no crash
        applied) — useful for golden-state comparison.
        """
        env = Environment()
        device = BlockDevice(env, self.profile)
        cache = (PageCache(self.page_cache_bytes)
                 if self.page_cache_bytes is not None else None)
        fs = SimFS(env, device, cache)
        next_id = 1
        for file in self.files:
            fs._files[file.name] = _copy_file(file)
            next_id = max(next_id, file.file_id + 1)
        fs._next_id = next_id
        fs.epoch = self.epoch
        if self.remote_objects is not None:
            # The remote tier survives local power loss: rebuild the
            # object store with the captured objects on the new clock.
            from ..objstore import ObjectStore  # local: optional subsystem
            fs.remote = ObjectStore(env, self.remote_profile,
                                    seed=self.remote_seed,
                                    objects=self.remote_objects)
        if model is not None:
            fs.crash(rng=rng, survive_probability=model.survive_probability,
                     mode=model.mode, torn_tail=model.torn_tail)
        return env, fs


class CrashInjector:
    """Arms crash points on a live SimFS and captures crash images.

    Installing the injector sets ``fs.faults``; every
    :meth:`~repro.storage.SimFS.fault_site` call is routed to
    :meth:`reached`, which counts the hit and captures a
    :class:`CrashImage` when the plan arms it.  Pass a
    :class:`repro.faults.DurabilityOracle` to snapshot the
    acknowledged-write ledger into each image.
    """

    def __init__(self, fs: SimFS, plan: Optional[FaultPlan] = None,
                 oracle: Any = None):
        self.fs = fs
        self.plan = plan or FaultPlan()
        self.oracle = oracle
        self.images: List[CrashImage] = []
        self.site_counts: Dict[str, int] = {}
        self._captured_per_site: Dict[str, int] = {}
        fs.faults = self

    def disarm(self) -> None:
        """Stop observing; the filesystem returns to zero-cost hooks."""
        if self.fs.faults is self:
            self.fs.faults = None

    def arm_at_times(self, *times: float) -> None:
        """Additionally capture at absolute virtual times (site "timer")."""
        env = self.fs.env
        for t in times:
            delay = max(0.0, t - env.now)
            env.call_later(delay, lambda: self.reached(SITE_TIMER, self.fs))

    def reached(self, site: str, fs: SimFS, **detail: Any) -> None:
        """Callback from :meth:`SimFS.fault_site`; captures when armed."""
        index = self.site_counts.get(site, 0)
        self.site_counts[site] = index + 1
        if not self.plan.arms(site, index):
            return
        if len(self.images) >= self.plan.max_images:
            return
        per_site = self.plan.max_per_site
        if per_site is not None and self._captured_per_site.get(site, 0) >= per_site:
            return
        self._captured_per_site[site] = self._captured_per_site.get(site, 0) + 1
        self.images.append(self._capture(site, index, fs, detail))
        tracer = fs.env.tracer
        if tracer.enabled:
            tracer.instant("crash-site", cat="faults", site=site,
                           index=index, **detail)

    def _capture(self, site: str, index: int, fs: SimFS,
                 detail: Dict[str, Any]) -> CrashImage:
        cache = fs.page_cache
        from .checker import DurabilityOracle  # local: avoid import cycle
        oracle_state = (self.oracle.snapshot()
                        if isinstance(self.oracle, DurabilityOracle) else None)
        remote = fs.remote
        return CrashImage(
            site=site, index=index, time=fs.env.now, detail=dict(detail),
            epoch=fs.epoch,
            files=[_copy_file(f) for f in fs._files.values()],
            profile=fs.device.profile,
            page_cache_bytes=(cache.capacity_pages * PAGE_SIZE
                              if cache is not None else None),
            oracle=oracle_state,
            remote_objects=(dict(remote.objects)
                            if remote is not None else None),
            remote_profile=(remote.profile if remote is not None else None),
            remote_seed=(remote.seed if remote is not None else 0))


class TransientEIO:
    """A :attr:`BlockDevice.fault_hook` injecting transient I/O errors.

    Each serviced request fails with probability ``rate`` until
    ``max_failures`` errors have been injected; the device driver layer
    retries and accounts the retries in
    ``DeviceStats.num_eio_retries``.  Restrict ``ops`` to fault only
    some request types (e.g. ``("read",)``).
    """

    def __init__(self, rate: float, rng: Any,
                 max_failures: Optional[int] = 16,
                 ops: Optional[Tuple[str, ...]] = None):
        self.rate = rate
        self.rng = rng
        self.max_failures = max_failures
        self.ops = ops
        self.failures = 0

    def __call__(self, op: str) -> bool:
        """Decide whether this request attempt fails (device callback)."""
        if self.ops is not None and op not in self.ops:
            return False
        if self.max_failures is not None and self.failures >= self.max_failures:
            return False
        if self.rng.random() < self.rate:
            self.failures += 1
            return True
        return False

"""The PebblesDB baseline (SOSP'17): a Fragmented LSM-tree.

PebblesDB partitions each level's keyspace with **guards** and allows
SSTables *within* a guard to overlap.  Compacting a guard merge-sorts
only that guard's tables and appends the partitioned outputs to the next
level's guards **without merging the tables already there** — this is
what buys its write throughput ("PebblesDB does not perform compactions
even if there are overlapping SSTables at the same level", §4.3.1) and
what costs its reads (``Version.tables_for_key`` probes every table
overlapping the key, newest first).

Guard keys are accumulated from compaction output boundaries, giving the
deterministic equivalent of PebblesDB's probabilistic guard sampling:
expected guard spacing equals the output table size, growing with level
occupancy exactly as the FLSM paper intends.  Guards are persisted in
the MANIFEST through the ``new_guards`` VersionEdit records.

Paper-observed shapes this engine must reproduce: the best write-only
(Load A/E) throughput of all systems; read throughput below HyperBoLT;
in-memory bloom filters and the guard-sized TableCache footprint
(§4.3.1 — here simply a consequence of having few, large tables).
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Tuple

from ..lsm import Compaction, LSMEngine, Options
from ..lsm.manifest import VersionEdit
from ..lsm.version import FileMetaData, Version, key_range
from ..sim import CostModel

__all__ = ["PebblesDBEngine", "pebblesdb_options"]

MB = 1 << 20


class PebblesDBEngine(LSMEngine):
    """Fragmented LSM-tree with guards and append-only level placement."""

    name = "pebblesdb"

    #: A guard holding more tables than this is merged in place, which
    #: bounds per-guard read amplification (FLSM's guard compaction).
    max_tables_per_guard = 8

    # -- guard bookkeeping -------------------------------------------------

    def _guard_index(self, level: int, key: bytes) -> int:
        guards = self.versions.guards.get(level, [])
        return bisect.bisect_right(guards, key)

    def _guard_buckets(self, version: Version, level: int
                       ) -> Dict[int, List[FileMetaData]]:
        buckets: Dict[int, List[FileMetaData]] = {}
        for meta in version.files[level]:
            buckets.setdefault(
                self._guard_index(level, meta.smallest), []).append(meta)
        return buckets

    # -- compaction picking ----------------------------------------------------

    def _expand_same_level(self, version: Version, level: int,
                           seed: List[FileMetaData]) -> List[FileMetaData]:
        """Transitive overlap closure within ``level``.

        Victim sets must be closed under same-level overlap so that all
        versions of a key move (or merge) together — otherwise the
        newest-first probe order by file number would surface stale
        versions after a compaction renumbers part of a key's history.
        """
        chosen = list(seed)
        numbers = {m.number for m in chosen}
        changed = True
        while changed:
            changed = False
            lo, hi = key_range(chosen)
            for meta in version.files[level]:
                if meta.number not in numbers and meta.overlaps(lo, hi):
                    chosen.append(meta)
                    numbers.add(meta.number)
                    changed = True
        return chosen

    def _oversized_guard(self, version: Version
                         ) -> Optional[Tuple[int, List[FileMetaData]]]:
        for level in range(1, version.num_levels):
            for bucket in self._guard_buckets(version, level).values():
                if len(bucket) > self.max_tables_per_guard:
                    closure = self._expand_same_level(version, level, bucket)
                    if not any(m.number in self._busy_tables
                               for m in closure):
                        return level, closure
        return None

    def has_pending_work(self) -> bool:
        """True while any flush or (guard) compaction is queued or running."""
        if super().has_pending_work():
            return True
        return self._oversized_guard(self.versions.current) is not None

    def _pick_compaction(self) -> Optional[Compaction]:
        version = self.versions.current
        level, score = self.versions.pick_compaction_level()
        if score >= 1.0 and 0 <= level < version.num_levels - 1:
            victims = self._guard_victims(version, level)
            if victims and not any(m.number in self._busy_tables
                                   for m in victims):
                return Compaction(level, victims, [])
        oversized = self._oversized_guard(version)
        if oversized is not None:
            guard_level, bucket = oversized
            return Compaction(guard_level, bucket, [], in_place=True)
        return None

    def _guard_victims(self, version: Version,
                       level: int) -> List[FileMetaData]:
        if level == 0:
            return list(version.files[0])
        buckets = self._guard_buckets(version, level)
        if not buckets:
            return []
        best = max(buckets.values(), key=lambda b: sum(f.length for f in b))
        return self._expand_same_level(version, level, best)

    # -- compaction execution ------------------------------------------------
    # The engine's one loop, told FLSM's three differences: the victim
    # guard is merged alone and its outputs are appended to the target
    # level's guards without touching the tables already resident there.

    def _may_drop_tombstones(self, version: Version, compaction: Compaction,
                             smallest: bytes, largest: bytes) -> bool:
        """Also requires that no resident table of the target level
        overlaps: outputs land beside those, and they hold older data."""
        if not super()._may_drop_tombstones(version, compaction,
                                            smallest, largest):
            return False
        victims = {m.number for m in compaction.victims}
        return all(f.number in victims for f in version.overlapping_files(
            compaction.output_level, smallest, largest))

    def _output_cut_keys(self, compaction: Compaction,
                         untouched: List[FileMetaData]) -> List[bytes]:
        """Outputs are partitioned by the target level's guards."""
        return list(self.versions.guards.get(compaction.output_level, []))

    def _finish_edit(self, edit: VersionEdit, compaction: Compaction,
                     outputs: List[FileMetaData]) -> None:
        """Adopt output boundaries as guards for the target level (FLSM
        picks the fullest guard, so it keeps no compact pointer)."""
        level = compaction.output_level
        existing = set(self.versions.guards.get(level, []))
        for meta in outputs[1:]:
            if meta.smallest not in existing:
                edit.add_guard(level, meta.smallest)
                existing.add(meta.smallest)


def pebblesdb_options(scale: int = 1, **overrides) -> Options:
    """Paper §4.1 PebblesDB configuration: HyperLevelDB heritage, very
    large SSTables (64–512 MB; output cut at 64 MB here), governors
    weakened, seek compaction off."""
    options = Options(
        memtable_size=64 * MB,
        sstable_size=64 * MB,
        level1_max_bytes=10 * MB,
        l0_compaction_trigger=4,
        l0_slowdown_trigger=20,
        l0_stop_trigger=1 << 30,
        enable_l0_stop=False,
        enable_seek_compaction=False,
        num_compaction_threads=1,
        cost_model=CostModel(write_mutex_overhead=0.2e-6),
        # HyperLevelDB heritage: same quick background-error retry
        # cadence as its parent fork.
        bg_error_backoff=1.0e-3,
    ).scaled(scale)
    return options.copy(**overrides) if overrides else options

"""The durability contract and its post-crash checker.

The contract (spelled out precisely in docs/FAULT_MODEL.md):

1. **Reopen succeeds** — recovery must never raise on any reachable
   crash state.
2. **Acknowledged writes are readable** — every key the workload saw
   acknowledged as durable (put/delete completed with ``wal_sync``)
   reads back exactly its last acknowledged value; un-acknowledged
   writes may appear (they were in the WAL tail) or not, but nothing
   else may — in particular no un-acked write resurrects a deleted key,
   and no value the workload never wrote can surface.
3. **MANIFEST references are sound** — every table the recovered
   version references exists, lies within its container's bounds, and
   decodes end-to-end without corruption (so a punched or unsealed LSST
   can never be reachable through MANIFEST).
4. **Recovery converges** — after recovery quiesces, crashing again
   (losing everything unsynced) and recovering yields the identical
   key-value state: reopen-after-reopen is a fixed point.
   4b. **Recovered state is as durable as fresh state** — keys written
   to a recovered store (acknowledged under ``wal_sync``), and all it
   served, survive a clean close, a power cut and one more recovery.
5. **Tier pointers are sound** (tiered stores only) — every MANIFEST
   tier pointer (tag 9) references an object that exists in the object
   store with exactly the recorded length and CRC: a crash anywhere in
   the demote/release sequence must never leave a pointer to a missing
   or torn object.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from .plan import SITE_WAL_GROUP_APPEND, CrashImage, FaultModel

__all__ = ["DurabilityOracle", "OracleState", "Violation", "CrashChecker"]


@dataclass
class OracleState:
    """An immutable snapshot of the oracle at one crash point."""

    #: key -> last acknowledged value (None = acknowledged delete).
    durable: Dict[bytes, Optional[bytes]]
    #: key -> values written but not (yet) acknowledged at capture time.
    pending: Dict[bytes, List[Optional[bytes]]]

    def keys(self) -> Set[bytes]:
        """Every key the workload has ever written."""
        return set(self.durable) | set(self.pending)

    def allowed(self, key: bytes) -> Set[Optional[bytes]]:
        """The set of values a post-crash read of ``key`` may return.

        The last acknowledged value is always allowed; so is any
        un-acknowledged value (its WAL record may have survived).  A key
        never acknowledged reads as the un-acked value or None.
        """
        return {self.durable.get(key)} | set(self.pending.get(key, ()))


class DurabilityOracle:
    """Tracks which writes the workload saw acknowledged as durable.

    Drive it alongside the workload::

        oracle.begin(key, value)     # before issuing the put/delete
        db.put_sync(key, value)
        oracle.acked(key, value)     # the engine acknowledged it

    ``value=None`` records a delete.  :class:`CrashInjector` snapshots
    the oracle synchronously at each capture, so every crash image knows
    exactly which writes were acknowledged at that instant.
    """

    def __init__(self) -> None:
        self.durable: Dict[bytes, Optional[bytes]] = {}
        self.pending: Dict[bytes, List[Optional[bytes]]] = {}

    def begin(self, key: bytes, value: Optional[bytes]) -> None:
        """Record that a write of ``value`` to ``key`` is being issued."""
        self.pending.setdefault(key, []).append(value)

    def acked(self, key: bytes, value: Optional[bytes]) -> None:
        """Record that the write completed (acknowledged-durable)."""
        self.durable[key] = value
        values = self.pending.get(key)
        if values is not None:
            try:
                values.remove(value)
            except ValueError:
                pass
            if not values:
                del self.pending[key]

    def snapshot(self) -> OracleState:
        """An independent copy of the current ledger."""
        return OracleState(durable=dict(self.durable),
                           pending={k: list(v) for k, v in self.pending.items()})


@dataclass
class Violation:
    """One broken durability-contract clause at one (site, model) point."""

    kind: str
    site: str
    model: str
    detail: str = ""
    key: Optional[bytes] = field(default=None)

    def __str__(self) -> str:
        where = f"{self.site}/{self.model}"
        key = f" key={self.key!r}" if self.key is not None else ""
        return f"[{self.kind}] at {where}{key}: {self.detail}"


class CrashChecker:
    """Reopens crash images and asserts the durability contract."""

    def __init__(self, engine_cls: type, options: Any, dbname: str = "db"):
        self.engine_cls = engine_cls
        self.options = options
        self.dbname = dbname

    # -- public ---------------------------------------------------------

    def check_image(self, image: CrashImage, model: FaultModel,
                    seed: int = 0) -> List[Violation]:
        """Apply ``model`` to ``image``, recover, check every clause.

        Returns the (possibly empty) list of violations; deterministic
        for a given ``(image, model, seed)``.
        """
        rng = random.Random(zlib.crc32(
            f"{seed}/{image.site}/{image.index}/{model.name}".encode()))
        env, fs = image.materialize(model, rng)
        label = dict(site=image.site, model=model.name)

        try:
            db = self.engine_cls.open_sync(env, fs, self.options.copy(),
                                           self.dbname)
        except Exception as exc:  # noqa: BLE001 - any failure is clause 1
            return [Violation("reopen-failed", detail=repr(exc), **label)]

        violations: List[Violation] = []
        state = image.oracle
        if state is not None:
            violations.extend(self._check_reads(db, state, label))
            violations.extend(self._check_group_atomicity(db, image, state,
                                                          label))
        # Clause 3's walk drives the simulation, so compaction and
        # demotion run under it: count it as an in-flight read, which
        # defers their unlinks and hole punches until it ends.
        db._inflight_reads += 1
        try:
            violations.extend(self._check_manifest_refs(env, fs, db, label))
        finally:
            db._inflight_reads -= 1
            db._maybe_run_deferred_cleanup()
        violations.extend(self._check_tier_refs(fs, db, label))
        violations.extend(self._check_fixed_point(env, fs, db, state, label))
        return violations

    # -- clause 2: acknowledged writes ----------------------------------

    def _check_reads(self, db: Any, state: OracleState,
                     label: Dict[str, str]) -> List[Violation]:
        violations: List[Violation] = []
        keys = state.keys()
        for key in sorted(keys):
            try:
                got = db.get_sync(key)
            except Exception as exc:  # noqa: BLE001
                violations.append(Violation("read-failed", key=key,
                                            detail=repr(exc), **label))
                continue
            allowed = state.allowed(key)
            if got not in allowed:
                violations.append(Violation(
                    "durability", key=key,
                    detail=f"read {got!r}, allowed {sorted(allowed, key=repr)!r}",
                    **label))
        try:
            rows = db.scan_sync(b"", len(keys) + 64)
        except Exception as exc:  # noqa: BLE001
            return violations + [Violation("scan-failed", detail=repr(exc),
                                           **label)]
        for key, _value in rows:
            if key not in keys:
                violations.append(Violation(
                    "phantom-key", key=key,
                    detail="recovered a key the workload never wrote",
                    **label))
        return violations

    # -- clause 2b: group commit is all-or-nothing -----------------------

    def _check_group_atomicity(self, db: Any, image: CrashImage,
                               state: OracleState,
                               label: Dict[str, str]) -> List[Violation]:
        """A merged WAL record must survive whole or vanish whole.

        Images captured at ``wal.group_append`` carry the group's key
        set in their detail.  The group's writes are still *pending*
        (un-acked) at capture, so for each key we ask whether the
        post-crash read returned one of its pending values; the count of
        keys answering "yes" must be 0 (record lost — every key reads
        its prior durable value) or the full group (record intact).  Any
        strict subset means the single-CRC record tore apart.
        """
        keys = image.detail.get("keys")
        if image.site != SITE_WAL_GROUP_APPEND or not keys:
            return []
        unique = sorted(set(keys))
        survived: List[bytes] = []
        for key in unique:
            try:
                got = db.get_sync(key)
            except Exception:  # noqa: BLE001 - already reported by clause 2
                return []
            pending = set(state.pending.get(key, ()))
            if got in pending and got != state.durable.get(key):
                survived.append(key)
        if survived and len(survived) != len(unique):
            return [Violation(
                "torn-group",
                detail=f"{len(survived)}/{len(unique)} keys of one merged "
                       f"group survived (e.g. {survived[:2]!r}) — group "
                       f"commit must be all-or-nothing", **label)]
        return []

    # -- clause 3: MANIFEST soundness -----------------------------------

    def _check_manifest_refs(self, env: Any, fs: Any, db: Any,
                             label: Dict[str, str]) -> List[Violation]:
        violations: List[Violation] = []
        version = db.versions.current
        store = fs.remote
        for meta in version.live_numbers().values():
            if version.is_quarantined(meta.number):
                # Quarantined tables are referenced on purpose (so
                # recovery knows the bytes are suspect) but excluded
                # from the decode contract: reads fail fast instead.
                continue
            if version.is_remote(meta.container) and not fs.exists(meta.container):
                # Demoted container: the object store holds the bytes.
                # Its existence and integrity are clause 5's job
                # (_check_tier_refs); here we bound-check against the
                # remote object and decode through the tiered read path.
                container_size = (store.object_length(meta.container)
                                  if store is not None else None)
                if container_size is None:
                    continue  # reported as dangling-tier-pointer
            else:
                if not fs.exists(meta.container):
                    violations.append(Violation(
                        "dangling-table", detail=f"{meta.container} missing "
                        f"(table {meta.number})", **label))
                    continue
                container_size = fs.file_size(meta.container)
            if meta.offset + meta.length > container_size:
                violations.append(Violation(
                    "table-out-of-bounds",
                    detail=f"table {meta.number} at {meta.container}:"
                           f"{meta.offset}+{meta.length} exceeds file size",
                    **label))
                continue

            try:  # decode every entry, through the tiered open path
                env.run_until(env.process(
                    db._read_whole_table(meta, db._meter())))
            except Exception as exc:  # noqa: BLE001 - CorruptionError et al.
                violations.append(Violation(
                    "corrupt-table",
                    detail=f"table {meta.number} in {meta.container}: "
                           f"{exc!r}", **label))
        return violations

    # -- clause 5: tier pointers are sound -------------------------------

    def _check_tier_refs(self, fs: Any, db: Any,
                         label: Dict[str, str]) -> List[Violation]:
        """Every MANIFEST tier pointer names an intact remote object.

        A pointer to a missing object is a *dangle* (the release order
        was violated: the object was deleted before the pointer edit
        committed); a length or CRC mismatch is a *torn* object (the
        PUT-is-atomic-at-completion contract was violated).  Both must
        be impossible at every reachable crash state.
        """
        remote = db.versions.current.remote_containers
        if not remote:
            return []
        violations: List[Violation] = []
        store = fs.remote
        for container in sorted(remote):
            length, crc = remote[container]
            data = store.objects.get(container) if store is not None else None
            if data is None:
                violations.append(Violation(
                    "dangling-tier-pointer",
                    detail=f"tier pointer for {container} references a "
                           f"missing remote object", **label))
                continue
            if len(data) != length or (zlib.crc32(data) & 0xFFFFFFFF) != crc:
                violations.append(Violation(
                    "torn-tier-object",
                    detail=f"remote object {container} is "
                           f"{len(data)}B/crc{zlib.crc32(data) & 0xFFFFFFFF:08x}, "
                           f"MANIFEST records {length}B/crc{crc:08x}",
                    **label))
        return violations

    # -- clause 4: recovery convergence ---------------------------------

    def _check_fixed_point(self, env: Any, fs: Any, db: Any,
                           state: Optional[OracleState],
                           label: Dict[str, str]) -> List[Violation]:
        count = (len(state.keys()) if state is not None else 64) + 64
        fresh = [(b"\xffrecovered-%d" % i, b"durable-%d" % i)
                 for i in range(4)]

        def restart(db: Any) -> Any:
            db.close_sync()
            fs.crash(survive_probability=0.0)
            return self.engine_cls.open_sync(env, fs, self.options.copy(),
                                             self.dbname)
        try:
            env.run_until(env.process(db.wait_idle()))
            first = db.scan_sync(b"", count)
            db = restart(db)
            second = db.scan_sync(b"", count)
            # Clause 4b runs on the second recovery so that clause 4
            # compares an untouched store: one write after the first
            # recovery re-teaches the engine its last sequence, which
            # hid a stale MANIFEST sequence from every sweep cell.
            for key, value in fresh:
                db.put_sync(key, value)
            db = restart(db)
            third = db.scan_sync(b"", count + len(fresh))
            db.close_sync()
        except Exception as exc:  # noqa: BLE001
            return [Violation("reopen-after-reopen-failed", detail=repr(exc),
                              **label)]
        for kind, before, after in (
                ("not-a-fixed-point", first, second),
                ("recovered-state-not-durable", sorted(second + fresh), third)):
            if before != after:
                delta = set(before) ^ set(after)
                return [Violation(
                    kind, detail=f"{len(delta)} rows differ across a clean "
                    f"close, power cut and recovery "
                    f"(e.g. {sorted(delta)[:2]!r})", **label)]
        return []

"""Background corruption scrubber.

Silent data corruption in an LSM tree is only caught when somebody
reads the bad block — which for cold data may be never, long after the
redundancy needed to repair it is gone.  Production stores therefore
*scrub*: walk live tables in the background, verify every checksum, and
quarantine tables that fail so reads fail fast instead of returning
garbage.

:class:`Scrubber` walks the engine's live (logical) SSTables on an
idle-time budget: a round runs only when the engine has no pending
flush/compaction work and the health manager is not degraded, verifying
``Options.scrub_tables_per_round`` tables per round.  Verification is a
*deep* check — :func:`~repro.lsm.sstable.read_table_extent`, the decode
compaction inputs go through: footer, index, bloom and every data-block
CRC — bypassing cached readers so a corrupted byte on "disk" cannot hide
behind the block or table cache.
Corrupt tables are handed to ``engine._quarantine`` (recorded in the
MANIFEST; see :mod:`repro.lsm.manifest`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, List

from ..sim import Event, Interrupt

__all__ = ["Scrubber", "ScrubReport"]


@dataclass
class ScrubReport:
    """Result of one full scrub pass."""

    tables_checked: int = 0
    tables_corrupt: int = 0
    #: ``(table number, container, error)`` per quarantined table.
    corrupt: List[tuple] = field(default_factory=list)


class Scrubber:
    """Walks live tables, deep-verifying CRCs on an idle-time budget."""

    def __init__(self, engine: Any):
        self.engine = engine
        #: Round-robin position (table number last verified).
        self._cursor = -1
        self.rounds = 0
        self.tables_checked = 0
        self.tables_quarantined = 0

    # -- driving -----------------------------------------------------------

    def run(self) -> Generator[Event, Any, None]:
        """Background loop: one budgeted round per ``scrub_interval``."""
        engine = self.engine
        try:
            while not engine._closed:
                yield engine.env.timeout(engine.options.scrub_interval)
                if engine._closed:
                    return
                if engine.health.paused or engine.has_pending_work():
                    continue  # idle-time budget: never compete with real work
                yield from self._scrub_round(engine.options.scrub_tables_per_round)
        except Interrupt:
            return  # kill(): stop on the spot

    def _scrub_round(self, budget: int) -> Generator[Event, Any, None]:
        self.rounds += 1
        live = self._live_tables()
        if not live:
            return
        # Resume after the cursor, wrapping — a moving full sweep.
        ordered = ([m for m in live if m.number > self._cursor]
                   or live)
        for meta in ordered[:budget]:
            self._cursor = meta.number
            yield from self.verify_table(meta)
        if self._cursor >= live[-1].number:
            self._cursor = -1

    def scrub_once(self) -> Generator[Event, Any, ScrubReport]:
        """Verify every live table now (tools / tests); returns a report."""
        report = ScrubReport()
        for meta in self._live_tables():
            ok = yield from self.verify_table(meta)
            report.tables_checked += 1
            if not ok:
                report.tables_corrupt += 1
                report.corrupt.append(
                    (meta.number, meta.container,
                     str(self.engine.health.last_error[1])
                     if self.engine.health.last_error else ""))
        return report

    # -- verification ------------------------------------------------------

    def _live_tables(self) -> List[Any]:
        version = self.engine.versions.current
        quarantined = self.engine._quarantined
        live = [meta for meta in version.live_numbers().values()
                if meta.number not in quarantined]
        live.sort(key=lambda m: m.number)
        return live

    def verify_table(self, meta: Any) -> Generator[Event, Any, bool]:
        """Deep-verify one table; quarantines it on corruption.

        Returns True when the table is clean.  Device errors during the
        scrub read are reported soft (the table is *not* quarantined —
        EIO is not evidence of bad bytes).
        """
        from ..lsm.codec import CorruptionError  # avoid import cycle
        engine = self.engine
        self.tables_checked += 1
        try:
            with engine.env.tracer.span("scrub.verify", cat="health",
                                        table=meta.number):
                # What a compaction would accept as input; a demoted
                # container is fetched through the LSST cache, so the
                # remote tier gets the same CRC scrutiny as disk.
                yield from engine._read_whole_table(meta, engine._bg_meter())
        except CorruptionError as exc:
            self.tables_quarantined += 1
            engine._quarantine(meta, f"scrub: {exc}")
            engine.health.report("scrub", exc)
            return False
        except OSError as exc:
            engine.health.report("scrub", exc)
            return True  # unverifiable, not provably corrupt
        return True

"""Output sinks: where flush and compaction outputs are written.

Stock LevelDB writes each output SSTable to its own file and pays one
``fsync()`` per file (Fig 3a) — :class:`PerTableFileSink`.  BoLT's
compaction file (paper §3.1) appends *every* output table of a job — as
logical SSTables at increasing offsets — into a single ``.cf`` file and
seals it with exactly **one** fsync (Fig 3b) — :class:`CompactionFileSink`.
The second and final barrier of a compaction is the MANIFEST commit in
:meth:`repro.lsm.manifest.VersionSet.log_and_apply`.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Tuple

from ..sim import Event
from ..storage import FileHandle, SimFS

__all__ = ["OutputSink", "PerTableFileSink", "CompactionFileSink",
           "container_name", "parse_container_number"]


class OutputSink:
    """Where compaction/flush outputs are written."""

    def next_handle(self, table_number: int
                    ) -> Generator[Event, Any, Tuple[FileHandle, str]]:
        """Return ``(handle, container_name)`` for the next table."""
        raise NotImplementedError

    def seal(self) -> Generator[Event, Any, None]:
        """Make every written table durable (the data barrier(s))."""
        raise NotImplementedError


class PerTableFileSink(OutputSink):
    """One ``.ldb`` file per SSTable; one fsync per file (stock LevelDB).

    With ``ordered_only`` (the §5 BarrierFS mode) each file is sealed by
    an fdatabarrier() instead: ordering is guaranteed, and durability
    arrives with the MANIFEST's fsync, whose device FLUSH covers the
    previously-dispatched data.
    """

    def __init__(self, fs: SimFS, dbname: str, ordered_only: bool = False):
        self.fs = fs
        self.dbname = dbname
        self.ordered_only = ordered_only
        self._handles: List[FileHandle] = []

    def next_handle(self, table_number: int
                    ) -> Generator[Event, Any, Tuple[FileHandle, str]]:
        """Create one physical ``.ldb`` file for the next table."""
        name = f"{self.dbname}/{table_number:06d}.ldb"
        handle = yield from self.fs.create(name)
        self._handles.append(handle)
        return handle, name

    def seal(self) -> Generator[Event, Any, None]:
        """Seal every written file: one fsync (or fdatabarrier) each."""
        for handle in self._handles:
            if self.ordered_only:
                yield from handle.fdatabarrier()
            else:
                yield from handle.fsync()


def container_name(dbname: str, file_number: int) -> str:
    """The on-disk name of compaction file ``file_number``."""
    return f"{dbname}/{file_number:06d}.cf"


def parse_container_number(name: str) -> Optional[int]:
    """The file number of a container name, or ``None`` for anything else.

    The defensive inverse of :func:`container_name`, used where a
    *listing* (local directory or remote object keys) is interpreted as
    a set of containers: a foreign object someone parked under the
    database prefix (``db/notes.txt``, ``db/000007.cf.bak``) must be
    skipped, not crashed on or garbage-collected.
    """
    tail = name.rsplit("/", 1)[-1]
    stem, dot, suffix = tail.partition(".")
    if dot != "." or suffix != "cf" or not stem.isdigit():
        return None
    return int(stem)


class CompactionFileSink(OutputSink):
    """All output tables of one compaction share one physical file.

    The file is created lazily — a compaction whose victims all settle
    (§3.4) produces no outputs and therefore no file and no data
    barrier at all.
    """

    def __init__(self, fs: SimFS, dbname: str, file_number: int):
        self.fs = fs
        self.name = container_name(dbname, file_number)
        self._handle: Optional[FileHandle] = None
        self.tables_written = 0

    def next_handle(self, table_number: int
                    ) -> Generator[Event, Any, Tuple[FileHandle, str]]:
        """Append the next logical SSTable to the shared container file."""
        if self._handle is None:
            self._handle = yield from self.fs.create(self.name)
        self.tables_written += 1
        return self._handle, self.name

    def seal(self) -> Generator[Event, Any, None]:
        """One fsync for the whole compaction, however many tables."""
        if self._handle is not None:
            yield from self._handle.fsync()

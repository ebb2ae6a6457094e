"""Crash-consistent simulated filesystem (SimFS).

SimFS gives the LSM engines exactly the POSIX behaviours the paper's
argument rests on:

* **Writes are buffered.** ``append``/``write_at`` land in the page
  cache and cost (almost) nothing; nothing is durable until a barrier.
* **Barriers are expensive.** ``fsync``/``fdatasync`` drain the device
  queue, write back the file's dirty pages, and pay the FLUSH latency.
* **No ordering without barriers.** On :meth:`SimFS.crash`, each unsynced
  dirty page independently survives or reverts — the filesystem does
  not preserve the order in which dirty pages were written (§2.4), which
  is why the MANIFEST must act as a commit mark.
* **Hole punching.** ``punch_hole`` reclaims blocks of a compaction file
  without a barrier (§3.2), with lazy metadata persistence.
* **Metadata costs.** create/open/unlink/rename each pay a journalled
  metadata operation on the device — the traffic BoLT's per-compaction-
  file descriptor cache avoids (§3.2.1).

The byte contents are authoritative: SSTables, WALs and MANIFESTs are
real encoded bytes, so recovery and corruption detection are real too.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Set

from ..sim import CpuMeter, Environment, Event
from .device import BlockDevice
from .page_cache import PAGE_SIZE, PageCache

__all__ = ["SimFS", "FileHandle", "FSStats", "FileSystemError",
           "DiskFullError", "SECTOR_SIZE"]

#: Torn-write granularity: a power loss may persist any sector-aligned
#: prefix of the page the device was transferring (see SimFS.crash).
SECTOR_SIZE = 512


class FileSystemError(OSError):
    """Raised for invalid filesystem operations (missing file, etc.)."""


class DiskFullError(OSError):
    """A write could not be allocated: the filesystem is out of space.

    Raised *before* any byte is buffered, so a failed append/write is
    all-or-nothing — the file is untouched and the operation can be
    retried after space is reclaimed (hole punch, unlink, or a raised
    capacity).  This is the runtime ENOSPC fault :mod:`repro.health`
    degrades on.
    """


@dataclass
class FSStats:
    """Cumulative filesystem counters."""

    num_fsync: int = 0
    num_fdatasync: int = 0
    #: Ordering-only barriers (BarrierFS's fdatabarrier(), §5).
    num_fdatabarrier: int = 0
    num_creates: int = 0
    num_opens: int = 0
    num_unlinks: int = 0
    num_renames: int = 0
    num_hole_punches: int = 0
    logical_bytes_written: int = 0
    bytes_punched: int = 0

    @property
    def num_barrier_calls(self) -> int:
        """Total fsync()+fdatasync() calls — the paper's headline count."""
        return self.num_fsync + self.num_fdatasync

    def snapshot(self) -> "FSStats":
        """An independent copy of the current counters."""
        return FSStats(**vars(self))

    def delta(self, earlier: "FSStats") -> "FSStats":
        """Counters accumulated since ``earlier`` (a prior snapshot)."""
        return FSStats(**{
            name: getattr(self, name) - getattr(earlier, name)
            for name in vars(self)
        })


class _SimFile:
    """Internal per-file state: the file as written, dirty pages, holes.

    The bytes are ``chunks`` in offset order; ``starts[i]`` is where
    ``chunks[i]`` begins and :attr:`size` is where the last one ends.  A
    chunk is the ``bytes`` a caller appended, the one ``bytearray`` that
    sub-page appends (WAL and MANIFEST records) coalesce into — always
    the last chunk, at most a page long — or an ``int``: the length of a
    run that reads as zeros (punched pages, pages a crash reverted to
    nothing) and holds no memory.  No chunk but that tail is ever
    mutated; a write or punch replaces chunks (slicing at most its two
    edge chunks), so a crash image shares them with the live file.
    """

    __slots__ = ("file_id", "name", "chunks", "starts", "size", "dirty",
                 "dirty_epoch", "submitted", "punched", "partial_punches",
                 "durable_size")

    def __init__(self, file_id: int, name: str):
        self.file_id = file_id
        self.name = name
        self.chunks: List[Any] = []
        self.starts: List[int] = []
        #: Current logical file size in bytes.
        self.size = 0
        #: page index -> pre-image bytes of that page as of the last
        #: barrier (None when the page did not exist durably).
        self.dirty: Dict[int, Optional[bytes]] = {}
        #: page index -> write-ordering epoch (see SimFS.epoch).
        self.dirty_epoch: Dict[int, int] = {}
        #: dirty pages already dispatched to the device by an ordering
        #: barrier; the next global FLUSH (any fsync) makes them durable.
        self.submitted: Set[int] = set()
        self.punched: Set[int] = set()
        #: page index -> merged [lo, hi) byte spans punched so far within
        #: that page.  A page whose union of spans reaches the full page
        #: is promoted to :attr:`punched` so adjacent misaligned punches
        #: still free the space they jointly cover.
        self.partial_punches: Dict[int, List[Any]] = {}
        self.durable_size = 0

    @property
    def data(self) -> bytes:
        """The whole file as one read-only ``bytes`` (for tests and tools)."""
        return self.slice(0, self.size)

    @property
    def allocated_bytes(self) -> int:
        """On-disk footprint: size minus fully punched pages."""
        return max(0, self.size - len(self.punched) * PAGE_SIZE)

    def slice(self, start: int, end: int) -> bytes:
        """Bytes ``[start, end)``; ``end`` must not exceed :attr:`size`."""
        if start >= end:
            return b""
        starts = self.starts
        i = bisect_right(starts, start) - 1
        chunk = self.chunks[i]
        base = starts[i]
        if type(chunk) is bytes and end - base <= len(chunk):
            return chunk[start - base:end - base]
        chunks = self.chunks
        count = len(chunks)
        parts = []
        while start < end:
            chunk = chunks[i]
            stop = starts[i + 1] if i + 1 < count else self.size
            if stop > end:
                stop = end
            if type(chunk) is int:
                parts.append(bytes(stop - start))
            else:
                base = starts[i]
                parts.append(chunk[start - base:stop - base])
            start = stop
            i += 1
        return b"".join(parts)

    def extend(self, data: bytes) -> None:
        """Append ``data``: kept as given (a page or more) or coalesced."""
        length = len(data)
        if not length:
            return
        chunks = self.chunks
        tail = chunks[-1] if chunks else None
        if length < PAGE_SIZE:
            if type(tail) is bytearray and len(tail) + length <= PAGE_SIZE:
                tail += data
                self.size += length
                return
            chunk: Any = bytearray(data)
        else:
            chunk = data if type(data) is bytes else bytes(data)
        if type(tail) is bytearray:
            chunks[-1] = bytes(tail)
        chunks.append(chunk)
        self.starts.append(self.size)
        self.size += length

    def splice(self, start: int, end: int, piece: Any) -> None:
        """Replace ``[start, end)`` (inside the file) with ``piece``.

        ``piece`` is ``bytes`` of length ``end - start``, or the ``int``
        ``end - start`` for zeros.  Only the chunks at the two edges are
        sliced; runs of zeros merge with zero neighbours.
        """
        if start >= end:
            return
        chunks, starts = self.chunks, self.starts
        i = bisect_right(starts, start) - 1
        j = bisect_left(starts, end, i + 1)  # chunks[i:j] meet the range
        if j == len(chunks) and type(chunks[-1]) is bytearray:
            chunks[-1] = bytes(chunks[-1])  # sliced pieces stay immutable
        new_chunks: List[Any] = []
        new_starts: List[int] = []
        base = starts[i]
        if base < start:
            head = chunks[i]
            new_chunks.append(start - base if type(head) is int
                              else head[:start - base])
            new_starts.append(base)
        new_chunks.append(piece)
        new_starts.append(start)
        stop = starts[j] if j < len(starts) else self.size
        if stop > end:
            last = chunks[j - 1]
            new_chunks.append(stop - end if type(last) is int
                              else last[end - starts[j - 1]:])
            new_starts.append(end)
        chunks[i:j] = new_chunks
        starts[i:j] = new_starts
        k = max(i, 1)
        hi = min(i + len(new_chunks) + 1, len(chunks))
        while k < hi:
            if type(chunks[k]) is int and type(chunks[k - 1]) is int:
                chunks[k - 1] += chunks[k]
                del chunks[k], starts[k]
                hi -= 1
            else:
                k += 1

    def _remember_preimage(self, page: int) -> None:
        if page in self.dirty:
            return
        start = page * PAGE_SIZE
        if start >= self.durable_size:
            self.dirty[page] = None
        else:
            self.dirty[page] = self.slice(
                start, min(start + PAGE_SIZE, self.durable_size))

    def mark_dirty_range(self, offset: int, length: int,
                         epoch: int = 0) -> None:
        """Dirty the pages covering the range, remembering preimages."""
        first = offset // PAGE_SIZE
        last = (offset + length - 1) // PAGE_SIZE
        for page in range(first, last + 1):
            self._remember_preimage(page)
            self.dirty_epoch[page] = epoch
            self.submitted.discard(page)
            self.punched.discard(page)
            if self.partial_punches:
                self.partial_punches.pop(page, None)

    def note_punch_coverage(self, page: int, lo: int, hi: int) -> bool:
        """Accumulate partial hole-punch coverage of ``page``.

        ``[lo, hi)`` are byte offsets within the page.  Returns True when
        the accumulated union now spans the whole page, i.e. the caller
        should deallocate it like a fully covered page.
        """
        spans = self.partial_punches.setdefault(page, [])
        spans.append([lo, hi])
        spans.sort()
        merged = [spans[0]]
        for span in spans[1:]:
            if span[0] <= merged[-1][1]:
                if span[1] > merged[-1][1]:
                    merged[-1][1] = span[1]
            else:
                merged.append(span)
        self.partial_punches[page] = merged
        if len(merged) == 1 and merged[0][0] == 0 and merged[0][1] >= PAGE_SIZE:
            del self.partial_punches[page]
            return True
        return False


class FileHandle:
    """An open file.  Remains valid after unlink (POSIX semantics)."""

    __slots__ = ("fs", "_file", "closed")

    def __init__(self, fs: "SimFS", file: _SimFile):
        self.fs = fs
        self._file = file
        self.closed = False

    @property
    def name(self) -> str:
        """Name of the underlying file."""
        return self._file.name

    @property
    def file_id(self) -> int:
        """Stable id of the underlying file (survives renames)."""
        return self._file.file_id

    @property
    def size(self) -> int:
        """Current file size in bytes."""
        return self._file.size

    def close(self) -> None:
        """Mark the handle closed."""
        self.closed = True

    # Thin delegates so call sites read naturally.

    def append(self, data: bytes, meter: Optional[CpuMeter] = None) -> int:
        """See :meth:`SimFS.append`."""
        return self.fs.append(self, data, meter)

    def write_at(self, offset: int, data: bytes, meter: Optional[CpuMeter] = None) -> None:
        """See :meth:`SimFS.write_at`."""
        self.fs.write_at(self, offset, data, meter)

    def read(self, offset: int, length: int,
             meter: Optional[CpuMeter] = None,
             sequential: bool = False) -> Generator[Event, Any, bytes]:
        """See :meth:`SimFS.read`."""
        return self.fs.read(self, offset, length, meter, sequential)

    def fsync(self) -> Generator[Event, Any, None]:
        """See :meth:`SimFS.fsync`."""
        return self.fs.fsync(self)

    def fdatasync(self) -> Generator[Event, Any, None]:
        """See :meth:`SimFS.fdatasync`."""
        return self.fs.fdatasync(self)

    def fdatabarrier(self) -> Generator[Event, Any, None]:
        """See :meth:`SimFS.fdatabarrier`."""
        return self.fs.fdatabarrier(self)

    def punch_hole(self, offset: int, length: int) -> None:
        """See :meth:`SimFS.punch_hole`."""
        self.fs.punch_hole(self, offset, length)


class SimFS:
    """A flat-namespace simulated filesystem over a :class:`BlockDevice`."""

    def __init__(self, env: Environment, device: BlockDevice,
                 page_cache: Optional[PageCache] = None,
                 capacity_bytes: Optional[int] = None):
        self.env = env
        self.device = device
        #: ``None`` means an unbounded page cache (everything resident).
        self.page_cache = page_cache
        #: Usable space in bytes (``None`` = unbounded).  Defaults to the
        #: device profile's ``capacity_bytes``; adjustable at runtime via
        #: :meth:`set_capacity` to stage disk-full episodes.
        self.capacity_bytes = (capacity_bytes if capacity_bytes is not None
                               else device.profile.capacity_bytes)
        self.stats = FSStats()
        self._files: Dict[str, _SimFile] = {}
        #: Files that may hold barrier-submitted pages, so a FLUSH scans
        #: only them instead of every file in the namespace.  A dict
        #: (not a set) for deterministic insertion-order iteration; a
        #: stale entry (pages re-dirtied since submission) is harmless —
        #: the flush loop re-checks ``submitted`` per file.
        self._submitted_files: Dict[_SimFile, None] = {}
        self._next_id = 1
        #: Global write-ordering epoch: bumped by every barrier, so the
        #: device (one queue) can persist pages in epoch order.  Pages
        #: dirtied in the same epoch have no ordering between them.
        self.epoch = 0
        #: Armed fault injector (:class:`repro.faults.CrashInjector`),
        #: or None.  See :meth:`fault_site`.
        self.faults: Optional[Any] = None
        #: Attached remote tier (:class:`repro.objstore.ObjectStore`),
        #: or None.  Installed by ``attach_tiering`` (or crash-image
        #: materialization) so every layer that holds the filesystem can
        #: reach the machine's remote half; its objects survive local
        #: power loss (:meth:`crash` does not touch it).
        self.remote: Optional[Any] = None

    def fault_site(self, name: str, **detail: Any) -> None:
        """Announce a named crash site to the armed injector, if any.

        Durability-critical code paths (barrier completions, WAL/MANIFEST
        appends, hole punches) call this with a site name from
        :mod:`repro.faults`; with no injector armed it is a no-op, so the
        hooks cost one attribute check in normal operation.
        """
        if self.faults is not None:
            self.faults.reached(name, self, **detail)

    # -- namespace operations (simulation coroutines) ---------------------

    def create(self, name: str) -> Generator[Event, Any, FileHandle]:
        """Create (truncating) ``name`` and return an open handle."""
        with self.env.tracer.span("fs.create", cat="fs", file=name):
            yield from self.device.metadata_op()
        file = _SimFile(self._next_id, name)
        self._next_id += 1
        self._files[name] = file
        self.stats.num_creates += 1
        return FileHandle(self, file)

    def open(self, name: str) -> Generator[Event, Any, FileHandle]:
        """Open an existing file; pays a metadata (inode lookup) cost."""
        with self.env.tracer.span("fs.open", cat="fs", file=name):
            yield from self.device.metadata_op()
        file = self._lookup(name)
        self.stats.num_opens += 1
        return FileHandle(self, file)

    def unlink(self, name: str) -> Generator[Event, Any, None]:
        """Remove a file from the namespace; open handles stay valid."""
        with self.env.tracer.span("fs.unlink", cat="fs", file=name):
            yield from self.device.metadata_op()
        file = self._lookup(name)
        del self._files[name]
        self.stats.num_unlinks += 1
        if self.page_cache is not None:
            self.page_cache.invalidate_file(file.file_id, file.size)

    def rename(self, old: str, new: str) -> Generator[Event, Any, None]:
        """Atomically rename ``old`` to ``new`` (replacing ``new``)."""
        with self.env.tracer.span("fs.rename", cat="fs", file=old, to=new):
            yield from self.device.metadata_op()
        file = self._lookup(old)
        del self._files[old]
        if new in self._files and self.page_cache is not None:
            replaced = self._files[new]
            self.page_cache.invalidate_file(replaced.file_id, replaced.size)
        file.name = new
        self._files[new] = file
        self.stats.num_renames += 1

    # -- namespace queries (free) ------------------------------------------

    def exists(self, name: str) -> bool:
        """True if ``name`` exists in the namespace."""
        return name in self._files

    def listdir(self, prefix: str = "") -> List[str]:
        """Sorted names beginning with ``prefix``."""
        return sorted(n for n in self._files if n.startswith(prefix))

    def file_size(self, name: str) -> int:
        """Size of ``name`` in bytes."""
        return self._lookup(name).size

    def total_allocated_bytes(self) -> int:
        """Sum of on-disk footprints (holes excluded) — disk usage."""
        return sum(f.allocated_bytes for f in self._files.values())

    # -- capacity (ENOSPC model) -------------------------------------------

    def set_capacity(self, capacity_bytes: Optional[int]) -> None:
        """Set usable space (``None`` = unbounded).

        Shrinking below the current allocation does not destroy data —
        existing bytes stay readable — but any further allocation raises
        :class:`DiskFullError` until space is freed.
        """
        self.capacity_bytes = capacity_bytes

    def free_bytes(self) -> Optional[int]:
        """Unallocated space remaining, or ``None`` when unbounded."""
        if self.capacity_bytes is None:
            return None
        return max(0, self.capacity_bytes - self.total_allocated_bytes())

    def _charge_capacity(self, file: _SimFile, offset: int, length: int) -> None:
        """Raise :class:`DiskFullError` if writing ``[offset, offset+length)``
        would allocate beyond capacity.  Called before any mutation."""
        if self.capacity_bytes is None or length <= 0:
            return
        growth = max(0, offset + length - file.size)
        if file.punched:
            first = offset // PAGE_SIZE
            last = (offset + length - 1) // PAGE_SIZE
            refilled = sum(1 for page in range(first, last + 1)
                           if page in file.punched)
            growth += refilled * PAGE_SIZE
        if growth and self.total_allocated_bytes() + growth > self.capacity_bytes:
            raise DiskFullError(
                f"disk full writing {length} bytes to {file.name!r}: "
                f"{growth} new bytes > {self.free_bytes()} free")

    # -- data operations -----------------------------------------------------

    def append(self, handle: FileHandle, data: bytes,
               meter: Optional[CpuMeter] = None) -> int:
        """Buffered append; returns the offset the data landed at.

        Costs only a memory copy (charged to ``meter`` if given).
        Durability requires a subsequent :meth:`fsync`/:meth:`fdatasync`.
        Raises :class:`DiskFullError` (leaving the file untouched) when
        the allocation would exceed :attr:`capacity_bytes`.  Appends are
        all-or-nothing, and callers rely on it: a MANIFEST record is in
        the log whole or absent, and ``SSTableBuilder`` appends a table
        whole, so a full disk never leaves part of one behind.
        """
        file = handle._file
        offset = file.size
        length = len(data)
        if self.capacity_bytes is not None:
            self._charge_capacity(file, offset, length)
        file.mark_dirty_range(offset, length, self.epoch)  # pre-images first
        file.extend(data)
        self._make_resident(file, offset, length)
        self.stats.logical_bytes_written += length
        if meter is not None:
            meter.charge_bytes(length)
        return offset

    def write_at(self, handle: FileHandle, offset: int, data: bytes,
                 meter: Optional[CpuMeter] = None) -> None:
        """Buffered positional write (extends the file if needed).

        Raises :class:`DiskFullError` before mutating anything when the
        allocation would exceed :attr:`capacity_bytes`.
        """
        file = handle._file
        end = offset + len(data)
        self._charge_capacity(file, offset, len(data))
        file.mark_dirty_range(offset, len(data), self.epoch)  # pre-images first
        if end > file.size:
            file.extend(bytes(end - file.size))
        file.splice(offset, end, bytes(data))
        self._make_resident(file, offset, len(data))
        self.stats.logical_bytes_written += len(data)
        if meter is not None:
            meter.charge_bytes(len(data))

    def read(self, handle: FileHandle, offset: int, length: int,
             meter: Optional[CpuMeter] = None,
             sequential: bool = False) -> Generator[Event, Any, bytes]:
        """Read bytes; non-resident pages are fetched from the device.

        Contiguous runs of missing pages coalesce into single device
        requests, so a cold sequential scan pays bandwidth rather than
        per-page latency.
        """
        file = handle._file
        size = file.size
        if length <= 0 or offset >= size:
            return b""
        length = min(length, size - offset)
        cache = self.page_cache
        if cache is not None:
            first = offset // PAGE_SIZE
            last = (offset + length - 1) // PAGE_SIZE
            run_start: Optional[int] = None
            runs: List[tuple] = []
            # Every page is probed before the first fetch yields.
            for page in range(first, last + 1):
                if page in file.dirty or cache.contains(file.file_id, page):
                    if run_start is not None:
                        runs.append((run_start, page - 1))
                        run_start = None
                elif run_start is None:
                    run_start = page
            if run_start is not None:
                runs.append((run_start, last))
            for start_page, end_page in runs:
                npages = end_page - start_page + 1
                yield from self.device.read(
                    npages * PAGE_SIZE, sequential=sequential or npages > 1)
                cache.insert_range(file.file_id, start_page, end_page)
        if meter is not None:
            meter.charge_bytes(length)
        # A table or block read lies inside one appended chunk: one slice.
        end = offset + length
        starts = file.starts
        i = bisect_right(starts, offset) - 1
        chunk = file.chunks[i]
        base = starts[i]
        if type(chunk) is bytes and end - base <= len(chunk):
            return chunk[offset - base:end - base]
        return file.slice(offset, end)

    def _make_resident(self, file: _SimFile, offset: int, length: int) -> None:
        if self.page_cache is None or length <= 0:
            return
        first = offset // PAGE_SIZE
        last = (offset + length - 1) // PAGE_SIZE
        self.page_cache.insert_range(file.file_id, first, last)

    # -- durability -------------------------------------------------------

    def fsync(self, handle: FileHandle) -> Generator[Event, Any, None]:
        """Flush the file's dirty pages and issue a device barrier."""
        self.stats.num_fsync += 1
        return self._sync(handle._file, "fsync")

    def fdatasync(self, handle: FileHandle) -> Generator[Event, Any, None]:
        """Like :meth:`fsync`; metadata laziness is not distinguished."""
        self.stats.num_fdatasync += 1
        return self._sync(handle._file, "fdatasync")

    def fdatabarrier(self, handle: FileHandle) -> Generator[Event, Any, None]:
        """BarrierFS's ordering-only barrier (paper §5).

        Dispatches the file's dirty pages to the device **in order** but
        returns without waiting for the transfer or a FLUSH: all dirty
        blocks are ordered *before* anything written afterwards, yet
        nothing is durable until a real fsync drains the device cache.
        The caller pays only a request-submission overhead; the transfer
        consumes device time asynchronously.
        """
        self.stats.num_fdatabarrier += 1
        file = handle._file
        pending = [page for page in file.dirty if page not in file.submitted]
        file.submitted.update(pending)
        if pending:
            self._submitted_files[file] = None
        self.epoch += 1
        if self.env.sanitizer.enabled:
            self.env.sanitizer.barrier("fdatabarrier")
        tracer = self.env.tracer
        record = (tracer.span("fdatabarrier", cat="ordering", file=file.name,
                              pages=len(pending)).__enter__()
                  if tracer.enabled else None)
        try:
            if pending:
                # Background dispatch: occupies the device, counts the bytes.
                self.env.process(
                    self.device.write(len(pending) * PAGE_SIZE, sequential=True),
                    name="fdatabarrier-writeback")
            yield from self.device.submit_only()
        finally:
            if record is not None:
                tracer.finish_span(record)
        self.fault_site("fs.fdatabarrier", file=file.name)

    def _sync(self, file: _SimFile, span_name: str
              ) -> Generator[Event, Any, None]:
        """The barrier behind :meth:`fsync` / :meth:`fdatasync`."""
        tracer = self.env.tracer
        # A span only when tracing: the disabled path pays no no-op span.
        record = (tracer.span(span_name, cat="barrier", file=file.name,
                              dirty_pages=len(file.dirty)).__enter__()
                  if tracer.enabled else None)
        try:
            yield from self.device.barrier(len(file.dirty) * PAGE_SIZE)
            file.dirty.clear()
            file.dirty_epoch.clear()
            file.submitted.clear()
            file.durable_size = file.size
            self.epoch += 1
            if self.env.sanitizer.enabled:
                self.env.sanitizer.barrier("fsync")
            # A FLUSH drains the whole device cache: every page previously
            # dispatched by an ordering barrier is durable now too.
            if self._submitted_files:
                for other in self._submitted_files:
                    if other.submitted:
                        for page in other.submitted:
                            other.dirty.pop(page, None)
                            other.dirty_epoch.pop(page, None)
                        other.submitted.clear()
                        other.durable_size = other.size
                self._submitted_files.clear()
        finally:
            if record is not None:
                tracer.finish_span(record)
        if self.faults is not None:
            self.fault_site("fs.barrier", file=file.name)

    def punch_hole(self, handle: FileHandle, offset: int, length: int) -> None:
        """Deallocate whole pages inside ``[offset, offset+length)``.

        Matches ``fallocate(FALLOC_FL_PUNCH_HOLE)``: only pages fully
        covered by the range are freed; their bytes are dropped and reads
        of them return zeros.  No barrier is issued (§3.2's lazy metadata
        sync).

        Partially covered edge pages are not freed by one call, but their
        coverage accumulates: once the union of punched ranges spans a
        whole page — e.g. two adjacent misaligned punches — that page is
        deallocated too, so the space of a fully dead region is always
        credited back to :meth:`free_bytes`.
        """
        file = handle._file
        if length <= 0:
            return
        end = min(offset + length, file.size)
        first = (offset + PAGE_SIZE - 1) // PAGE_SIZE  # round up
        last = end // PAGE_SIZE - 1                     # round down
        to_free = list(range(first, last + 1))
        if end > offset:
            lo_page = offset // PAGE_SIZE
            hi_page = (end - 1) // PAGE_SIZE
            edges = (lo_page,) if hi_page == lo_page else (lo_page, hi_page)
            for page in edges:
                if first <= page <= last or page in file.punched:
                    continue
                base = page * PAGE_SIZE
                lo = max(offset, base) - base
                hi = min(end, base + PAGE_SIZE) - base
                if hi > lo and file.note_punch_coverage(page, lo, hi):
                    to_free.append(page)
        for page in to_free:
            if page not in file.punched:
                file.punched.add(page)
                self.stats.bytes_punched += PAGE_SIZE
            file.partial_punches.pop(page, None)
            file.dirty.pop(page, None)
            if self.page_cache is not None:
                self.page_cache.invalidate_range(file.file_id, page, page)
        if to_free:
            # Drop the freed bytes.  The interior run and the edge pages
            # next to it are contiguous, so they become one zero run.
            start = min(to_free) * PAGE_SIZE
            stop = (max(to_free) + 1) * PAGE_SIZE
            file.splice(start, stop, stop - start)
        self.stats.num_hole_punches += 1
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.instant("hole-punch", cat="fs", file=file.name,
                           offset=offset, length=length)
            tracer.count("fs.hole_punches")
        self.fault_site("fs.hole_punch", file=file.name,
                        offset=offset, length=length)

    # -- crash injection ----------------------------------------------------

    def crash(self, rng: Any = None, survive_probability: float = 0.5,
              mode: str = "epoch", torn_tail: bool = False) -> None:
        """Simulate power loss.

        Unsynced dirty pages may persist or revert to their pre-barrier
        image.  Pages dirtied in the *same* write-ordering epoch carry no
        mutual ordering (the §2.4 hazard): any subset of them may be
        lost.  Across epochs — separated by an fsync or an ordering
        barrier (``fdatabarrier``) — the device persists in order: if a
        page of a later epoch survived, every page of earlier epochs
        did too (the BarrierFS guarantee, §5).

        Pass ``survive_probability=0.0`` for the adversarial all-lost
        case or ``1.0`` for all-survived; pass an ``rng`` for randomized
        subsets (the survivor set is an epoch-ordered prefix with a
        random boundary epoch).

        ``mode="reorder"`` drops the cross-epoch ordering guarantee:
        every unsynced page survives or reverts independently, modelling
        a device that acknowledges FLUSH-less writes out of order.  It is
        strictly more adversarial than the default and is only a valid
        model for code paths that never relied on ``fdatabarrier``
        ordering (see docs/FAULT_MODEL.md).

        ``torn_tail=True`` additionally *tears* the most recently dirtied
        page (requires ``rng``): a random sector-aligned prefix of the
        new content persists while the rest of the page reverts —
        the classic torn write of the last in-flight page.
        """
        if mode not in ("epoch", "reorder"):
            raise ValueError(f"unknown crash mode {mode!r}")
        dirty_pages = [(file.dirty_epoch.get(page, 0), file, page)
                       for file in self._files.values()
                       for page in file.dirty]
        if survive_probability >= 1.0:
            survivors = set((id(f), p) for _e, f, p in dirty_pages)
        elif survive_probability <= 0.0 or rng is None:
            survivors = set()
        elif mode == "reorder":
            survivors = set((id(f), p) for _e, f, p in dirty_pages
                            if rng.random() < survive_probability)
        else:
            target = sum(rng.random() < survive_probability
                         for _ in dirty_pages)
            ordered = sorted(dirty_pages, key=lambda item: item[0])
            # Shuffle within the boundary epoch so same-epoch pages are
            # lost in arbitrary subsets.
            if target < len(ordered):
                boundary_epoch = ordered[target][0]
                lo = next(i for i, item in enumerate(ordered)
                          if item[0] == boundary_epoch)
                hi = max(i for i, item in enumerate(ordered)
                         if item[0] == boundary_epoch) + 1
                boundary = ordered[lo:hi]
                rng.shuffle(boundary)
                ordered[lo:hi] = boundary
            survivors = set((id(f), p) for _e, f, p in ordered[:target])

        torn: Optional[tuple] = None
        torn_keep = 0
        if torn_tail and rng is not None and dirty_pages:
            # The page "in flight" at the instant of power loss: highest
            # epoch, ties broken deterministically.
            _e, tf, tp = max(dirty_pages,
                             key=lambda item: (item[0], item[1].file_id, item[2]))
            torn = (id(tf), tp)
            survivors.discard(torn)
            torn_keep = rng.randrange(1, PAGE_SIZE // SECTOR_SIZE) * SECTOR_SIZE

        for file in self._files.values():
            for page, preimage in list(file.dirty.items()):
                if (id(file), page) in survivors:
                    continue
                start = page * PAGE_SIZE
                end = min(start + PAGE_SIZE, file.size)
                new_prefix = b""
                if torn == (id(file), page):
                    new_prefix = file.slice(start, min(start + torn_keep, end))
                # The page reads: the torn prefix of the new content, then
                # the preimage, then zeros.
                kept = new_prefix + (preimage or b"")[len(new_prefix):]
                file.splice(start, end, kept + bytes(end - start - len(kept))
                            if kept else end - start)
            file.dirty.clear()
            file.dirty_epoch.clear()
            file.submitted.clear()
            file.durable_size = file.size
        self._submitted_files.clear()
        if self.page_cache is not None:
            self.page_cache.drop_all()

    # -- internals ---------------------------------------------------------

    def _lookup(self, name: str) -> _SimFile:
        try:
            return self._files[name]
        except KeyError:
            raise FileSystemError(f"no such file: {name!r}") from None

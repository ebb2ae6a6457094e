"""Block-device cost model.

The paper's central observation is about *data barriers*: an
``fsync()``/``fdatasync()`` blocks the caller until the device queue
drains and the volatile write cache is flushed, and this fixed cost —
paid once per SSTable file in stock LevelDB — dominates compaction when
SSTables are small.  :class:`BlockDevice` makes every term of that cost
explicit:

* transfers pay ``per_request_overhead + bytes / bandwidth``;
* random reads additionally pay a seek/lookup latency;
* a barrier waits for the device to go idle (FIFO channel resource) and
  then pays ``barrier_latency`` on top of flushing the dirty bytes;
* filesystem metadata operations (create/open/unlink/rename) pay a
  small journaling cost — this is what the file-descriptor cache in
  BoLT (§3.2.1) avoids.

All methods that consume device time are simulation coroutines and must
be driven with ``yield from``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from ..sim import Environment, Event, Resource

__all__ = ["DeviceProfile", "DeviceStats", "BlockDevice", "DeviceError",
           "SATA_SSD", "NVME_SSD", "HARD_DISK"]


class DeviceError(OSError):
    """A device request failed permanently (transient EIO retries spent)."""


@dataclass(frozen=True)
class DeviceProfile:
    """Performance parameters of a storage device (seconds / bytes)."""

    name: str = "sata-ssd"
    #: Sequential write bandwidth, bytes/second.
    seq_write_bw: float = 500e6
    #: Sequential read bandwidth, bytes/second.
    seq_read_bw: float = 540e6
    #: Latency of a random (non-sequential) read request.
    rand_read_latency: float = 90e-6
    #: Fixed submission overhead per request.
    per_request_overhead: float = 15e-6
    #: Cost of a FLUSH / barrier command once the queue is drained.  On
    #: consumer SATA SSDs this is in the low milliseconds; it is the
    #: quantity BoLT's compaction file amortizes.
    barrier_latency: float = 2.0e-3
    #: Cost of a filesystem metadata operation (journalled create/open/
    #: unlink/rename/inode update).
    metadata_op_latency: float = 80e-6
    #: Queue ramp-up after a barrier: an fsync drains the device queue,
    #: and writeback restarts at shallow queue depth, below peak
    #: bandwidth, until roughly this many bytes are in flight again.
    #: This is the §2.4 "disk bandwidth under-utilized" effect [20]: a
    #: flush of ``d`` dirty bytes effectively costs
    #: ``(d + min(d, ramp)) / bandwidth``, so small frequent syncs run
    #: at ~half bandwidth while large group-compaction flushes saturate.
    write_ramp_bytes: int = 4 << 20
    #: Number of requests the device can service concurrently.
    parallelism: int = 1
    #: Usable capacity in bytes; ``None`` means unbounded.  Enforced by
    #: :class:`~repro.storage.filesystem.SimFS`, which raises
    #: ``DiskFullError`` once allocation would exceed it (the runtime
    #: ENOSPC fault the health subsystem degrades on).
    capacity_bytes: Optional[int] = None

    def scaled(self, factor: int) -> "DeviceProfile":
        """A profile for running byte-scaled experiments.

        Experiments shrink every byte-denominated structure by
        ``factor`` (DESIGN.md §2) while records keep their real size.
        To preserve the paper's cost ratios, each *fixed* per-request
        cost (barrier latency, seek latency, submission overhead,
        metadata ops) must shrink by the same factor — otherwise
        barriers would be over-weighted ~``factor``x relative to the
        data written between them.  Bandwidths are untouched: a byte
        still costs what a byte costs.
        """
        if factor < 1:
            raise ValueError("scale factor must be >= 1")
        from dataclasses import replace
        return replace(
            self,
            name=f"{self.name}/{factor}",
            rand_read_latency=self.rand_read_latency / factor,
            per_request_overhead=self.per_request_overhead / factor,
            barrier_latency=self.barrier_latency / factor,
            metadata_op_latency=self.metadata_op_latency / factor,
            write_ramp_bytes=max(1, self.write_ramp_bytes // factor),
            capacity_bytes=(None if self.capacity_bytes is None
                            else max(1, self.capacity_bytes // factor)),
        )


#: Profile approximating the paper's Samsung 860 EVO 500 GB SATA SSD.
SATA_SSD = DeviceProfile()

#: A faster device, used by sensitivity ablations (smaller barrier cost).
NVME_SSD = DeviceProfile(
    name="nvme-ssd",
    seq_write_bw=2000e6,
    seq_read_bw=3000e6,
    rand_read_latency=20e-6,
    per_request_overhead=6e-6,
    barrier_latency=0.4e-3,
    metadata_op_latency=30e-6,
    write_ramp_bytes=1 << 20,
    parallelism=4,
)

#: A spinning disk, used by sensitivity ablations (huge barrier cost).
HARD_DISK = DeviceProfile(
    name="hard-disk",
    seq_write_bw=160e6,
    seq_read_bw=170e6,
    rand_read_latency=8e-3,
    per_request_overhead=50e-6,
    barrier_latency=12e-3,
    metadata_op_latency=500e-6,
    write_ramp_bytes=8 << 20,
    parallelism=1,
)


@dataclass
class DeviceStats:
    """Cumulative device counters, reset-able between benchmark phases."""

    bytes_written: int = 0
    bytes_read: int = 0
    num_writes: int = 0
    num_reads: int = 0
    num_barriers: int = 0
    num_metadata_ops: int = 0
    #: Requests re-issued after a transient EIO (see BlockDevice.fault_hook).
    num_eio_retries: int = 0
    busy_time: float = 0.0
    barrier_time: float = 0.0

    def snapshot(self) -> "DeviceStats":
        """An independent copy of the current counters."""
        return DeviceStats(**vars(self))

    def delta(self, earlier: "DeviceStats") -> "DeviceStats":
        """Counters accumulated since ``earlier`` (a prior snapshot)."""
        return DeviceStats(
            bytes_written=self.bytes_written - earlier.bytes_written,
            bytes_read=self.bytes_read - earlier.bytes_read,
            num_writes=self.num_writes - earlier.num_writes,
            num_reads=self.num_reads - earlier.num_reads,
            num_barriers=self.num_barriers - earlier.num_barriers,
            num_metadata_ops=self.num_metadata_ops - earlier.num_metadata_ops,
            num_eio_retries=self.num_eio_retries - earlier.num_eio_retries,
            busy_time=self.busy_time - earlier.busy_time,
            barrier_time=self.barrier_time - earlier.barrier_time,
        )


class BlockDevice:
    """A shared block device with a FIFO service channel.

    The channel is a :class:`~repro.sim.Resource` whose capacity is the
    device's internal parallelism; a barrier conceptually requires the
    whole queue to drain, which the FIFO discipline provides when the
    barrier request reaches the head of the queue on every channel.
    """

    def __init__(self, env: Environment, profile: DeviceProfile = SATA_SSD):
        self.env = env
        self.profile = profile
        self.stats = DeviceStats()
        self._channel = Resource(env, capacity=profile.parallelism, name=f"{profile.name}-channel")
        #: Optional fault hook ``hook(op: str) -> bool`` consulted after
        #: each request is serviced; returning True fails that attempt
        #: with a *transient* EIO.  The driver layer retries (paying the
        #: device time again and counting ``stats.num_eio_retries``) up
        #: to :attr:`max_eio_retries` times before raising
        #: :class:`DeviceError`.  Installed by :mod:`repro.faults`.
        self.fault_hook = None
        self.max_eio_retries = 8

    # -- helpers ---------------------------------------------------------

    def _service(self, op: str, duration: float) -> Generator[Event, Any, None]:
        """Occupy a channel slot, retrying transient EIO faults in place.

        The slot is held across retries: the controller re-drives a
        faulted request without requeueing it behind later arrivals, so
        each attempt pays the full device time but the FIFO queue wait
        is paid exactly once.  A fault injected by :attr:`fault_hook`
        costs one retry; after ``max_eio_retries`` failed attempts the
        error is treated as persistent and :class:`DeviceError` raised.
        """
        attempts = 0
        if not self._channel.acquire_in_place():
            yield self._channel.acquire()
        try:
            while True:
                self.stats.busy_time += duration
                if not self.env.sleep_in_place(duration):
                    yield self.env.timeout(duration)
                hook = self.fault_hook
                if hook is None or not hook(op):
                    return
                attempts += 1
                self.stats.num_eio_retries += 1
                if attempts > self.max_eio_retries:
                    raise DeviceError(
                        f"{op}: transient EIO persisted through "
                        f"{attempts} attempts")
        finally:
            self._channel.release()

    # -- public operations ------------------------------------------------

    def write(self, nbytes: int, sequential: bool = True) -> Generator[Event, Any, None]:
        """Transfer ``nbytes`` to the device (no durability implied)."""
        if nbytes <= 0:
            return
        p = self.profile
        duration = p.per_request_overhead + nbytes / p.seq_write_bw
        if not sequential:
            duration += p.rand_read_latency  # seek-equivalent penalty
        self.stats.num_writes += 1
        self.stats.bytes_written += nbytes
        tracer = self.env.tracer
        if tracer.enabled:
            with tracer.span("dev.write", cat="device", bytes=nbytes):
                yield from self._service("write", duration)
        else:
            yield from self._service("write", duration)

    def read(self, nbytes: int, sequential: bool = False) -> Generator[Event, Any, None]:
        """Transfer ``nbytes`` from the device."""
        if nbytes <= 0:
            return
        p = self.profile
        duration = p.per_request_overhead + nbytes / p.seq_read_bw
        if not sequential:
            duration += p.rand_read_latency
        self.stats.num_reads += 1
        self.stats.bytes_read += nbytes
        tracer = self.env.tracer
        if tracer.enabled:
            with tracer.span("dev.read", cat="device", bytes=nbytes,
                             sequential=sequential):
                yield from self._service("read", duration)
        else:
            yield from self._service("read", duration)

    def barrier(self, dirty_bytes: int = 0) -> Generator[Event, Any, None]:
        """Flush ``dirty_bytes`` and wait for durability (fsync).

        Waits for all in-flight requests (queue drain), writes the dirty
        bytes sequentially, then pays the FLUSH latency.
        """
        p = self.profile
        tracer = self.env.tracer
        # A span only when tracing: the disabled path pays no no-op span.
        record = (tracer.span("dev.barrier", cat="device",
                              dirty_bytes=dirty_bytes).__enter__()
                  if tracer.enabled else None)
        try:
            # Drain: hold every channel slot (queue depth reaches zero).
            channel = self._channel
            if not channel.acquire_in_place(p.parallelism):
                yield self.env.all_of([channel.acquire() for _ in range(p.parallelism)])
            try:
                duration = p.barrier_latency
                if dirty_bytes > 0:
                    # Queue ramp-up: writeback after a drain runs below peak
                    # bandwidth until the queue refills (see profile docs).
                    ramp_penalty = min(dirty_bytes, p.write_ramp_bytes)
                    duration += (p.per_request_overhead
                                 + (dirty_bytes + ramp_penalty) / p.seq_write_bw)
                    self.stats.num_writes += 1
                    self.stats.bytes_written += dirty_bytes
                self.stats.num_barriers += 1
                self.stats.barrier_time += duration
                self.stats.busy_time += duration
                if not self.env.sleep_in_place(duration):
                    yield self.env.timeout(duration)
            finally:
                for _ in range(p.parallelism):
                    channel.release()
        finally:
            if record is not None:
                tracer.finish_span(record)

    def submit_only(self) -> Generator[Event, Any, None]:
        """Queue-submission overhead only (an ordering barrier's cost:
        a tagged request enters the queue, nothing is awaited)."""
        yield self.env.timeout(self.profile.per_request_overhead)

    def metadata_op(self) -> Generator[Event, Any, None]:
        """One journalled filesystem metadata operation."""
        self.stats.num_metadata_ops += 1
        yield from self._service("metadata", self.profile.metadata_op_latency)

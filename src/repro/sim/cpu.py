"""CPU-time accounting for simulated processes.

Charging a distinct :class:`~repro.sim.kernel.Timeout` for every record
touched during compaction would put millions of events on the queue.
:class:`CpuMeter` instead accumulates fine-grained charges and converts
them to a single timeout at natural draining points (block boundaries,
end of an operation), which keeps the event count proportional to the
number of *operations*, not the number of bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from .kernel import Environment, Event

__all__ = ["CostModel", "CpuMeter"]


@dataclass(frozen=True)
class CostModel:
    """Host-side (non-device) cost constants, in seconds.

    Defaults are loosely calibrated to the paper's testbed (Xeon
    E5-2620v4, DDR4): what matters for the reproduction is that memory
    operations are orders of magnitude cheaper than device barriers.
    """

    #: Cost of one MemTable insert, excluding the WAL append.  It models
    #: LevelDB's skip-list insert; the host-side index (a dict plus a
    #: lazily sorted key run, :mod:`repro.lsm.memtable`) does not set it.
    memtable_insert: float = 1.0e-6
    #: Cost of one MemTable / block-cache lookup.
    memtable_lookup: float = 0.5e-6
    #: Per-byte cost of a memory copy (page cache writes, merges).
    memcpy_per_byte: float = 1.0e-10  # ~10 GB/s
    #: Per-record cost of merge-sorting during compaction.
    merge_per_record: float = 0.3e-6
    #: Per-record cost of encoding/decoding an SSTable entry.
    codec_per_record: float = 0.2e-6
    #: Cost of probing one bloom filter.
    bloom_probe: float = 0.2e-6
    #: Cost of a binary search within an index or data block.
    block_search: float = 0.5e-6
    #: Critical-section overhead of the writer mutex per operation
    #: (HyperLevelDB-style engines override this with a smaller value to
    #: model their improved write-path synchronization).
    write_mutex_overhead: float = 1.0e-6
    #: Fraction of background (flush/compaction) CPU work that does NOT
    #: overlap with device I/O.  Real compaction pipelines decode/merge/
    #: encode with reads and writeback on spare cores (the paper's
    #: testbed has 16), so only a small residue extends the critical
    #: path of a background job.
    background_cpu_residue: float = 0.25


class CpuMeter:
    """Accumulates CPU charges and drains them as a single timeout.

    ``scale`` discounts every charge; background meters use the model's
    ``background_cpu_residue`` so that compaction CPU mostly overlaps
    with device I/O instead of extending the worker's critical path.
    """

    def __init__(self, env: Environment, model: CostModel, scale: float = 1.0):
        self.env = env
        self.model = model
        self.scale = scale
        self._accumulated = 0.0
        self.total_charged = 0.0

    def charge(self, seconds: float) -> None:
        """Record ``seconds`` of CPU work to be paid at the next drain."""
        seconds *= self.scale
        self._accumulated += seconds
        self.total_charged += seconds

    def charge_repeat(self, seconds: float, times: int) -> None:
        """Exactly ``times`` calls of ``charge(seconds)``, in one call.

        The accumulators are floats, so ``times`` separate additions and
        one addition of ``times * seconds`` differ in the last bits —
        and the sum becomes a timeout, i.e. virtual time.  This adds one
        at a time.
        """
        seconds *= self.scale
        accumulated = self._accumulated
        total = self.total_charged
        for _ in range(times):
            accumulated += seconds
            total += seconds
        self._accumulated = accumulated
        self.total_charged = total

    def charge_bytes(self, nbytes: int) -> None:
        """Record a memory copy of ``nbytes``."""
        self.charge(nbytes * self.model.memcpy_per_byte)

    @property
    def pending(self) -> float:
        """CPU seconds charged but not yet paid by :meth:`drain`."""
        return self._accumulated

    def drain(self) -> Generator[Event, Any, None]:
        """Pay all accumulated CPU time as one virtual-time delay."""
        if self._accumulated > 0.0:
            delay, self._accumulated = self._accumulated, 0.0
            if not self.env.sleep_in_place(delay):
                yield self.env.timeout(delay)

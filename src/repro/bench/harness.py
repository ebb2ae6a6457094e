"""Experiment harness: builds stacks, runs YCSB suites, collects metrics.

A *system* is an (engine class, options factory) pair — the seven the
paper compares (§4.3: Level, LVL64MB, Hyper, Pebbles, Rocks, BoLT,
HBoLT).  A :class:`BenchConfig` fixes the scaled-down sizes; the
defaults keep every ratio of the paper's setup (DESIGN.md §2):
dataset : memtable : SSTable : level limits, and DRAM (page cache) at
~1/6 of the dataset just as the paper pins 8 GB of RAM against 50 GB of
data.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Generator, Optional, Tuple

from ..engines import (
    HyperLevelDBEngine,
    PebblesDBEngine,
    RocksDBEngine,
    bolt_options,
    hyperbolt_options,
    hyperleveldb_options,
    leveldb_64mb_options,
    leveldb_options,
    pebblesdb_options,
    rocksbolt_options,
    rocksdb_options,
)
from ..lsm import LSMEngine, Options
from ..obs import Tracer, write_chrome_trace
from ..sim import Environment, Event
from ..storage import BlockDevice, DeviceProfile, PageCache, SATA_SSD, SimFS
from ..ycsb import RUN_ORDER, WORKLOADS, run_phase
from ..ycsb.distributions import InsertCounter
from .metrics import LatencyRecorder, PhaseResult
from .report import snapshot_delta, unified_snapshot

__all__ = ["SystemSpec", "SYSTEMS", "ALL_SYSTEMS", "BenchConfig", "Stack",
           "new_stack", "open_engine", "run_suite", "load_database", "run_crash_sweep"]


@dataclass(frozen=True)
class SystemSpec:
    """One comparable key-value store system."""

    key: str
    label: str
    engine_cls: type
    options_factory: Callable[..., Options]
    #: The name an engine opened from this row reports, where it is not
    #: ``engine_cls.name``: a BoLT row's base class under BoLT's name.
    engine_name: Optional[str] = None

    def options(self, scale: int, **overrides) -> Options:
        """Build this system's :class:`Options` at byte scale ``scale``."""
        return self.options_factory(scale, **overrides)


#: The paper's seven systems, keyed by the Fig 13 legend names.
SYSTEMS: Dict[str, SystemSpec] = {
    "leveldb": SystemSpec("leveldb", "Level", LSMEngine, leveldb_options),
    "lvl64mb": SystemSpec("lvl64mb", "LVL64MB", LSMEngine,
                          leveldb_64mb_options),
    "hyperleveldb": SystemSpec("hyperleveldb", "Hyper", HyperLevelDBEngine,
                               hyperleveldb_options),
    "pebblesdb": SystemSpec("pebblesdb", "Pebbles", PebblesDBEngine,
                            pebblesdb_options),
    "rocksdb": SystemSpec("rocksdb", "Rocks", RocksDBEngine, rocksdb_options),
    "bolt": SystemSpec("bolt", "BoLT", LSMEngine, bolt_options, "bolt"),
    "hyperbolt": SystemSpec("hyperbolt", "HBoLT", HyperLevelDBEngine,
                            hyperbolt_options, "hyperbolt"),
}

#: The paper's future work, realized: BoLT inside RocksDB.  Kept out of
#: SYSTEMS (the Fig 13 seven) but first-class everywhere else.
ROCKSBOLT = SystemSpec("rocksbolt", "RBoLT", RocksDBEngine,
                       rocksbolt_options, "rocksbolt")
EXTRA_SYSTEMS: Dict[str, SystemSpec] = {"rocksbolt": ROCKSBOLT}
#: Every row by key: what ``dbbench --engine`` and the fault harnesses
#: look an engine up in.
ALL_SYSTEMS: Dict[str, SystemSpec] = {**SYSTEMS, **EXTRA_SYSTEMS}


def _env_int(name: str, default: int) -> int:
    value = os.environ.get(name)
    return int(value) if value else default


@dataclass
class BenchConfig:
    """Scaled-down experiment sizing.

    The defaults derive from the paper's setup divided by ``scale``,
    with operation counts reduced to keep simulated-Python runtimes in
    seconds.  Environment overrides: ``REPRO_BENCH_RECORDS``,
    ``REPRO_BENCH_OPS``, ``REPRO_BENCH_SCALE``.
    """

    scale: int = field(default_factory=lambda: _env_int("REPRO_BENCH_SCALE", 256))
    record_count: int = field(
        default_factory=lambda: _env_int("REPRO_BENCH_RECORDS", 20_000))
    ops_per_phase: int = field(
        default_factory=lambda: _env_int("REPRO_BENCH_OPS", 8_000))
    value_size: int = 256
    num_clients: int = 4
    seed: int = 42
    #: None -> the paper's SATA SSD with fixed latencies scaled to match
    #: the byte scale (see DeviceProfile.scaled); pass a profile to pin.
    device: Optional[DeviceProfile] = None
    #: None -> sized at dataset/6, the paper's RAM:data ratio.
    page_cache_bytes: Optional[int] = None

    def resolved_device(self) -> DeviceProfile:
        """The device profile experiments run on (default: scaled SATA)."""
        if self.device is not None:
            return self.device
        return SATA_SSD.scaled(self.scale)

    @property
    def dataset_bytes(self) -> int:
        """Logical dataset size implied by record count and value size."""
        return self.record_count * (self.value_size + 23)

    def resolved_page_cache_bytes(self) -> int:
        """Page-cache (DRAM) budget: explicit, or dataset/6 as in the paper."""
        if self.page_cache_bytes is not None:
            return self.page_cache_bytes
        return max(1 << 20, self.dataset_bytes // 6)

    def copy(self, **updates) -> "BenchConfig":
        """A copy of this config with ``updates`` applied."""
        return replace(self, **updates)


@dataclass
class Stack:
    """One simulated machine: clock, device, filesystem (+ tracer)."""

    env: Environment
    device: BlockDevice
    fs: SimFS
    #: The :mod:`repro.obs` tracer observing this machine, if any.
    tracer: Optional[Tracer] = None


def new_stack(config: BenchConfig, tracer: Optional[Tracer] = None,
              sanitize: bool = False) -> Stack:
    """Build one simulated machine (env, device, fs) for ``config``.

    ``sanitize=True`` enables the :mod:`repro.analysis.sanitizer`
    lockdep/race checker on the environment; inspect or assert on
    ``stack.env.sanitizer.reports`` after the run.
    """
    env = Environment(tracer=tracer, sanitize=sanitize)
    device = BlockDevice(env, config.resolved_device())
    fs = SimFS(env, device, PageCache(config.resolved_page_cache_bytes()))
    return Stack(env, device, fs, tracer)


def open_engine(stack: Stack, system: SystemSpec, config: BenchConfig,
                options: Optional[Options] = None,
                dbname: str = "db") -> LSMEngine:
    """Open ``system``'s engine on ``stack``, synchronously, named after
    the row (:attr:`SystemSpec.engine_name`)."""
    opts = options if options is not None else system.options(config.scale)
    db = system.engine_cls.open_sync(stack.env, stack.fs, opts, dbname)
    if system.engine_name is not None:
        db.name = system.engine_name
    return db


def _phase_result(system_label: str, workload: str,
                  recorder: LatencyRecorder, before, after,
                  record_bytes: int = 0) -> PhaseResult:
    """A phase's result from the :func:`unified_snapshot` taken before
    it and the one taken after."""
    window = snapshot_delta(before, after)
    fs, device, engine = window["fs"], window["device"], window["engine"]
    writes = (recorder.count("insert") + recorder.count("update")
              + recorder.count("rmw"))
    return PhaseResult(
        system=system_label,
        workload=workload,
        operations=recorder.count(),
        elapsed=window["clock"]["virtual_seconds"],
        latencies=recorder,
        fsync_calls=fs["num_barrier_calls"],
        bytes_written=device["bytes_written"],
        bytes_read=device["bytes_read"],
        logical_bytes=fs["logical_bytes_written"],
        user_bytes=writes * record_bytes,
        metadata_ops=device["num_metadata_ops"],
        stall_time=engine["stall_time"],
        slowdown_time=engine["slowdown_time"],
        compactions=engine["compactions"],
        settled_promotions=engine["settled_promotions"],
        table_cache_hit_ratio=after["engine"]["table_cache_hit_ratio"],
        block_cache_hit_ratio=after["engine"]["block_cache_hit_ratio"],
    )


def load_database(stack: Stack, db: LSMEngine, config: BenchConfig,
                  workload: str = "load_a",
                  counter: Optional[InsertCounter] = None,
                  quiesce: bool = True
                  ) -> Generator[Event, Any, Tuple[PhaseResult, InsertCounter]]:
    """Run a load phase (LA/LE), returning its result and the counter."""
    counter = counter or InsertCounter(0)
    spec = WORKLOADS[workload]
    before = unified_snapshot(stack, db)
    recorder = yield from run_phase(
        stack.env, db, spec, config.record_count, config.record_count,
        value_size=config.value_size, num_clients=config.num_clients,
        seed=config.seed, insert_counter=counter, quiesce=quiesce)
    result = _phase_result(db.name, workload, recorder, before,
                           unified_snapshot(stack, db),
                           record_bytes=23 + config.value_size)
    return result, counter


def run_suite(system: SystemSpec, config: BenchConfig,
              workloads: Tuple[str, ...] = RUN_ORDER,
              request_dist: str = "zipfian",
              options: Optional[Options] = None,
              trace: Optional[Any] = None,
              tracer: Optional[Tracer] = None,
              sanitize: bool = False) -> Dict[str, PhaseResult]:
    """Run a full YCSB suite for one system, in the paper's §4.1 order.

    ``request_dist`` overrides the request distribution of the run
    phases (Fig 13(b) reruns everything with uniform keys); load phases
    and workload D's latest distribution are unaffected.  Each phase is
    driven to completion on the stack's own event loop; the ``delete``
    marker rebuilds a fresh stack, as the paper deletes the database
    between workloads D and Load E.

    ``trace`` names a file (path or writable object) that receives a
    Chrome trace-event JSON of the whole suite, loadable in Perfetto.
    Pass ``tracer`` instead to observe with your own
    :class:`~repro.obs.Tracer` (and optionally still export via
    ``trace``).  The tracer survives the ``delete`` rebuild: its clock
    offset keeps phases from different stacks in one timeline.
    """
    opts = options
    if trace is not None and tracer is None:
        tracer = Tracer()

    def fresh_db() -> Tuple[Stack, LSMEngine]:
        """Build a fresh stack and open the system under test on it."""
        stack = new_stack(config, tracer=tracer, sanitize=sanitize)
        return stack, open_engine(stack, system, config, opts)

    results: Dict[str, PhaseResult] = {}
    stack, db = fresh_db()
    counter = InsertCounter(0)
    for phase in workloads:
        if phase == "delete":
            db.close_sync()
            stack, db = fresh_db()
            counter = InsertCounter(0)
            continue
        spec = WORKLOADS[phase]
        if (request_dist != "zipfian" and not spec.is_load
                and spec.request_dist == "zipfian"):
            spec = spec.with_distribution(request_dist)
        is_load = spec.is_load
        num_ops = config.record_count if is_load else config.ops_per_phase
        before = unified_snapshot(stack, db)
        if tracer is not None and tracer.enabled:
            tracer.instant("phase-start", cat="bench", track="main",
                           phase=phase, system=db.name)
        phase_proc = stack.env.process(run_phase(
            stack.env, db, spec, num_ops, max(1, counter.count),
            value_size=config.value_size, num_clients=config.num_clients,
            seed=config.seed + (zlib.crc32(phase.encode()) % 1000),
            insert_counter=counter,
            quiesce=is_load))
        recorder = stack.env.run_until(phase_proc)
        results[phase] = _phase_result(
            db.name, phase, recorder, before, unified_snapshot(stack, db),
            record_bytes=23 + config.value_size)
    db.close_sync()
    if trace is not None:
        write_chrome_trace(tracer, trace)
    return results


def run_crash_sweep(engines: Optional[Tuple[str, ...]] = None,
                    smoke: bool = False, **overrides) -> Any:
    """Run the :mod:`repro.faults` crash-consistency sweep.

    Convenience wrapper so benchmark scripts can assert crash safety
    next to performance numbers.  ``engines`` defaults to the four
    architecture families; ``smoke=True`` uses the reduced CI
    configuration; other keyword arguments override
    :class:`repro.faults.SweepConfig` fields.  Returns a
    :class:`repro.faults.SweepReport`.

    (Imported lazily: faults depends on this module for the system
    registry.)
    """
    from ..faults import SweepConfig, crash_sweep, smoke_config
    if smoke:
        config = smoke_config(**overrides)
    else:
        config = SweepConfig(**overrides)
    if engines is not None:
        config.engines = tuple(engines)
    return crash_sweep(config)

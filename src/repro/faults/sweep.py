"""Crash-point sweep: golden run → crash images → checker, per engine.

One traced golden run per engine drives a small mixed put/delete
workload with ``wal_sync`` on, capturing crash images at every armed
site along the way (including the flush/compaction/manifest sites hit by
background work).  Every captured image is then checked under every
fault model of the plan.  The default engine set is the paper's four
architecture families: LevelDB, RocksDB, PebblesDB (the
HyperLevelDB-lineage/FLSM variant) and BoLT.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..bench.harness import EXTRA_SYSTEMS, SYSTEMS
from ..obs import Tracer
from ..sim import Environment
from ..storage import SATA_SSD, BlockDevice, PageCache, SimFS
from .checker import CrashChecker, DurabilityOracle, Violation
from .plan import CrashInjector, FaultPlan

__all__ = ["SweepConfig", "EngineSweepResult", "SweepReport",
           "crash_sweep", "sweep_engine", "smoke_config"]

#: One engine per architecture family the paper compares.
DEFAULT_ENGINES: Tuple[str, ...] = ("leveldb", "rocksdb", "pebblesdb", "bolt")


@dataclass
class SweepConfig:
    """Sizing and scope of a crash sweep (defaults fit a CI smoke run)."""

    engines: Tuple[str, ...] = DEFAULT_ENGINES
    num_ops: int = 200
    keyspace: int = 48
    value_size: int = 64
    #: Structure-size divisor (same meaning as the bench harness scale).
    scale: int = 1024
    seed: int = 7
    #: Every n-th operation is a delete (0 disables deletes).
    delete_every: int = 7
    #: Concurrent writers per group-commit round appended after the
    #: sequential workload (0 disables the rounds).  Writers issued in
    #: the same round merge into one WAL record, hitting the
    #: ``wal.group_append`` crash site the checker's torn-group clause
    #: consumes.
    group_writers: int = 4
    #: Number of concurrent group-commit rounds.
    group_rounds: int = 8
    #: Run with tiered object storage enabled (aggressively: cold level
    #: 1 and a small LSST cache, so demotions, remote fetches and
    #: releases all happen inside the small sweep workload).  Only
    #: engines with compaction files can tier; restrict ``engines``
    #: accordingly (e.g. ``("bolt",)``).
    tiered: bool = False
    plan: FaultPlan = field(default_factory=FaultPlan)

    def header(self) -> str:
        """The line a run of this config is announced with."""
        return (f"crash sweep: engine {', '.join(self.engines)}, "
                f"{self.num_ops} ops, models "
                f"{', '.join(m.name for m in self.plan.models)}"
                + (", tiered object storage on" if self.tiered else ""))


def smoke_config(**overrides) -> SweepConfig:
    """A reduced sweep for CI: fewer images, two fault models."""
    from .plan import DEFAULT_MODELS
    plan = FaultPlan(max_images=12, max_per_site=2,
                     models=(DEFAULT_MODELS[0], DEFAULT_MODELS[2]))
    # replace() raises TypeError on a misspelt field name.
    return replace(SweepConfig(num_ops=120, plan=plan), **overrides)


@dataclass
class EngineSweepResult:
    """Outcome of sweeping one engine's crash points."""

    engine: str
    site_counts: Dict[str, int]
    images: int
    checks: int
    violations: List[Violation]
    #: Barrier spans recorded by the golden run's tracer — the crash
    #: points enumerated from the trace (every one maps to a site hit).
    barrier_spans: int

    @property
    def ok(self) -> bool:
        """True when every check of every image passed."""
        return not self.violations


@dataclass
class SweepReport:
    """Aggregated results for all swept engines."""

    results: List[EngineSweepResult]

    @property
    def violations(self) -> List[Violation]:
        """All violations across all engines, in sweep order."""
        return [v for r in self.results for v in r.violations]

    @property
    def ok(self) -> bool:
        """True when no engine produced a violation."""
        return not self.violations

    def summary_lines(self) -> List[str]:
        """Human-readable per-engine summary (what dbbench prints)."""
        lines = []
        for r in self.results:
            sites = sum(r.site_counts.values())
            status = "ok" if r.ok else f"{len(r.violations)} VIOLATIONS"
            lines.append(
                f"{r.engine:12s}: {sites:5d} crash points "
                f"({len(r.site_counts)} sites, {r.barrier_spans} barrier "
                f"spans), {r.images} images x checked -> "
                f"{r.checks} checks: {status}")
            for violation in r.violations[:8]:
                lines.append(f"    {violation}")
        lines.append("crash sweep: " + ("PASS" if self.ok else "FAIL"))
        return lines

    def rows(self) -> List[dict]:
        """One machine-readable row per engine (what dbbench returns)."""
        return [{"benchmark": "crash-sweep", "engine": r.engine,
                 "images": r.images, "checks": r.checks,
                 "violations": len(r.violations)} for r in self.results]


def _system(engine_key: str):
    try:
        return SYSTEMS[engine_key]
    except KeyError:
        return EXTRA_SYSTEMS[engine_key]


def sweep_engine(engine_key: str, config: SweepConfig) -> EngineSweepResult:
    """Golden run + image capture + checking for one engine."""
    spec = _system(engine_key)
    tracer = Tracer()
    env = Environment(tracer=tracer)
    device = BlockDevice(env, SATA_SSD.scaled(config.scale))
    fs = SimFS(env, device, PageCache(4 << 20))
    oracle = DurabilityOracle()
    injector = CrashInjector(fs, config.plan, oracle)
    options = spec.options(config.scale).copy(wal_sync=True)
    if config.tiered:
        # Aggressive tiering so the small sweep workload actually hits
        # the demote/fetch/release paths: tiny memtable and L1 budget
        # force compactions, cold level 1 demotes their outputs, and a
        # one-object cache keeps fetches (and single-flight) honest.
        options = options.copy(
            tiering_enabled=True, tier_cold_level=1,
            tier_cache_bytes=max(1, (4 << 10) // config.scale),
            memtable_size=max(1, options.memtable_size // 32),
            level1_max_bytes=max(1, options.level1_max_bytes // 4))

    db = spec.engine_cls.open_sync(env, fs, options, "db")
    rng = random.Random(config.seed)
    for i in range(config.num_ops):
        key = b"user%06d" % rng.randrange(config.keyspace)
        if config.delete_every and i % config.delete_every == config.delete_every - 1:
            oracle.begin(key, None)
            db.delete_sync(key)
            oracle.acked(key, None)
        else:
            value = b"v%06d-" % i + b"x" * config.value_size
            oracle.begin(key, value)
            db.put_sync(key, value)
            oracle.acked(key, value)
    # Concurrent group-commit rounds: each round spawns several writer
    # processes in the same instant so the commit leader merges them
    # into one WAL record, exercising the wal.group_append crash site
    # (the torn-group atomicity clause needs real merged groups).
    def _group_put(key: bytes, value: bytes):
        """One concurrent writer: put then ack the oracle on return."""
        yield from db.put(key, value)
        oracle.acked(key, value)

    for round_index in range(config.group_rounds):
        procs = []
        for w in range(config.group_writers):
            key = b"group%03d-%02d" % (round_index, w)
            value = b"g%03d-" % round_index + b"y" * config.value_size
            oracle.begin(key, value)
            procs.append(env.process(_group_put(key, value),
                                     name=f"group-{round_index}-{w}"))
        if procs:
            env.run_until(env.all_of(procs))

    env.run_until(env.process(db.flush_all()))
    db.close_sync()
    injector.disarm()

    checker = CrashChecker(spec.engine_cls, options, "db")
    violations: List[Violation] = []
    checks = 0
    for image in injector.images:
        for model in config.plan.models:
            checks += 1
            violations.extend(checker.check_image(image, model,
                                                  seed=config.seed))
    return EngineSweepResult(
        engine=engine_key,
        site_counts=dict(injector.site_counts),
        images=len(injector.images),
        checks=checks,
        violations=violations,
        barrier_spans=len(tracer.find_spans(cat="barrier")))


def crash_sweep(config: Optional[SweepConfig] = None) -> SweepReport:
    """Run :func:`sweep_engine` for every engine in the config."""
    config = config or SweepConfig()
    return SweepReport([sweep_engine(key, config) for key in config.engines])

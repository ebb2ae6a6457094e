"""Benchmark harness: metrics, system registry, per-figure experiments."""

from .harness import (
    ALL_SYSTEMS,
    BenchConfig,
    SYSTEMS,
    Stack,
    SystemSpec,
    load_database,
    new_stack,
    open_engine,
    run_crash_sweep,
    run_suite,
)
from .metrics import LatencyRecorder, PhaseResult, percentile
from .report import (aggregate_engine_stats, format_markdown_table,
                     format_table, unified_snapshot)
from . import experiments

__all__ = [
    "ALL_SYSTEMS",
    "BenchConfig",
    "SYSTEMS",
    "Stack",
    "SystemSpec",
    "load_database",
    "new_stack",
    "open_engine",
    "run_suite",
    "run_crash_sweep",
    "LatencyRecorder",
    "PhaseResult",
    "percentile",
    "format_markdown_table",
    "format_table",
    "unified_snapshot",
    "aggregate_engine_stats",
    "experiments",
]

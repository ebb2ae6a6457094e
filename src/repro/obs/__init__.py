"""Observability: span tracing and trace export (repro.obs).

The subsystem has no dependency on the rest of :mod:`repro` — the
simulation kernel installs the :data:`NULL_TRACER` by default and every
layer (device, filesystem, LSM engine, BoLT) records through
``env.tracer``, so enabling tracing is one line::

    from repro.obs import Tracer, write_chrome_trace

    tracer = Tracer()
    db, stack = repro.open_database("bolt", options=bolt_options(256)
                                    .copy(tracer=tracer))
    ...workload...
    write_chrome_trace(tracer, "trace.json")   # open in Perfetto

See DESIGN.md "Observability" for the span taxonomy and the
two-barriers-per-compaction invariant a trace makes visible.
"""

from .tracer import (
    NULL_TRACER,
    GaugeSample,
    InstantRecord,
    NullTracer,
    SpanRecord,
    Tracer,
)
from .export import (
    chrome_trace_events,
    phase_summary,
    summary_rows,
    write_chrome_trace,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "SpanRecord",
    "InstantRecord",
    "GaugeSample",
    "chrome_trace_events",
    "write_chrome_trace",
    "phase_summary",
    "summary_rows",
]

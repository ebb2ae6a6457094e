"""Trace exporters: Chrome trace-event JSON and a plain-text summary.

The Chrome format is the JSON array/object form consumed by Perfetto
(https://ui.perfetto.dev) and ``chrome://tracing``: complete events
(``ph: "X"``) for spans, instants (``"i"``), gauge samples (``"C"``), and
thread-name metadata (``"M"``) so each simulated process shows up as
its own named thread.  Timestamps are microseconds of *virtual* time.

The plain-text phase summary aggregates spans by (category, name) —
the per-phase breakdown the paper's analysis leans on: how much time
went to barriers vs. compaction I/O vs. write stalls.
"""

from __future__ import annotations

import json
from typing import IO, Any, Dict, List, Union

from .tracer import Tracer

__all__ = ["chrome_trace_events", "write_chrome_trace", "phase_summary",
           "summary_rows"]

#: The single Chrome "process" the simulation is rendered as.
_PID = 1


def chrome_trace_events(tracer: Tracer) -> List[Dict[str, Any]]:
    """Render a tracer's records as Chrome trace-event dicts."""
    events: List[Dict[str, Any]] = []
    tids: Dict[str, int] = {}

    def tid_of(track: str) -> int:
        """A stable small thread id for ``track``."""
        tid = tids.get(track)
        if tid is None:
            tid = tids[track] = len(tids) + 1
            events.append({
                "name": "thread_name", "ph": "M", "pid": _PID, "tid": tid,
                "args": {"name": track},
            })
        return tid

    events.append({
        "name": "process_name", "ph": "M", "pid": _PID, "tid": 0,
        "args": {"name": "repro-sim (virtual clock)"},
    })
    for span in tracer.spans:
        event: Dict[str, Any] = {
            "name": span.name, "cat": span.cat or "span", "ph": "X",
            "ts": span.start * 1e6, "dur": span.duration * 1e6,
            "pid": _PID, "tid": tid_of(span.track),
        }
        if span.args:
            event["args"] = dict(span.args)
        events.append(event)
    for instant in tracer.instants:
        event = {
            "name": instant.name, "cat": instant.cat or "instant", "ph": "i",
            "ts": instant.ts * 1e6, "pid": _PID,
            "tid": tid_of(instant.track), "s": "t",
        }
        if instant.args:
            event["args"] = dict(instant.args)
        events.append(event)
    for sample in tracer.gauge_samples:
        events.append({
            "name": sample.name, "ph": "C", "ts": sample.ts * 1e6,
            "pid": _PID, "args": {"value": sample.value},
        })
    return events


def write_chrome_trace(tracer: Tracer,
                       destination: Union[str, IO[str]]) -> None:
    """Write ``tracer`` as a Chrome/Perfetto-loadable JSON file."""
    document = {"traceEvents": chrome_trace_events(tracer),
                "displayTimeUnit": "ms"}
    if hasattr(destination, "write"):
        json.dump(document, destination)
    else:
        with open(destination, "w") as handle:
            json.dump(document, handle)


def summary_rows(tracer: Tracer) -> List[Dict[str, Any]]:
    """Aggregate spans by (category, name): count and duration stats."""
    buckets: Dict[tuple, List[float]] = {}
    for span in tracer.spans:
        buckets.setdefault((span.cat, span.name), []).append(span.duration)
    rows: List[Dict[str, Any]] = []
    for (cat, name), durations in sorted(
            buckets.items(),
            key=lambda item: -sum(item[1])):
        total = sum(durations)
        rows.append({
            "cat": cat or "-",
            "span": name,
            "count": len(durations),
            "total_ms": round(total * 1e3, 3),
            "mean_us": round(total / len(durations) * 1e6, 2),
            "max_us": round(max(durations) * 1e6, 2),
        })
    return rows


def phase_summary(tracer: Tracer) -> str:
    """A plain-text per-phase breakdown of where virtual time went.

    Spans overlap (a barrier span lies inside its compaction span), so
    the ``total_ms`` column is *inclusive* time per span kind, not a
    partition of wall-clock.
    """
    rows = summary_rows(tracer)
    lines: List[str] = ["phase summary (virtual time)"]
    if not rows:
        lines.append("(no spans recorded)")
    else:
        columns = list(rows[0].keys())
        cells = [[str(row[col]) for col in columns] for row in rows]
        widths = [max(len(col), *(len(row[i]) for row in cells))
                  for i, col in enumerate(columns)]
        lines.append("  ".join(col.ljust(widths[i])
                               for i, col in enumerate(columns)))
        lines.append("  ".join("-" * width for width in widths))
        for row in cells:
            lines.append("  ".join(cell.ljust(widths[i])
                                   for i, cell in enumerate(row)))
    return "\n".join(lines)

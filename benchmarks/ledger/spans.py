"""The traced pass: driver-side spans and per-package profile attribution.

Both are taken from outside the program.  Spans wrap the driver's own
calls into the stack (and a 1-in-64 sample of requests); the timed
section additionally runs under ``cProfile`` and its self time and
primitive call counts are summed per ``src/repro/<package>/`` by file
path.  Spans stay in memory and are written as Chrome trace-event JSON
(open in https://ui.perfetto.dev) when the pass ends.
"""

import cProfile
import json
import os
import pstats
import time
from contextlib import contextmanager

import catalogue

SAMPLE_EVERY = 64
#: Packages that get their own ``<package>.host_share``; the rest of
#: ``src/repro``, the stdlib and builtins are ``other``.
PACKAGES = ("sim", "storage", "lsm", "core", "engines", "ycsb", "svc", "cluster", "bench")
_SRC_MARK = os.sep + os.path.join("src", "repro") + os.sep
_KERNEL_FILE = os.path.join("sim", "kernel.py")
_SCHEDULE = ("_schedule", "_schedule_call")
_RESUME = ("_resume", "_step")


def _host_us():
    return time.perf_counter() * 1e6  # simcheck: waive[SIM001] host-time harness


class Spans:
    """Span recorder; profiles the ``profiled`` span when ``profile`` is set."""

    def __init__(self, profile=False):
        self.env = None
        self.events = []
        self._stack = []
        self._next_id = 0
        self._requests = 0
        self._profile = cProfile.Profile() if profile else None

    def _virtual(self):
        return self.env.now if self.env is not None else 0.0

    @contextmanager
    def span(self, name, profiled=False):
        """Record one driver call: host and virtual start/end, parent span."""
        self._next_id += 1
        span_id, parent = self._next_id, (self._stack[-1] if self._stack else 0)
        self._stack.append(span_id)
        virtual_start, host_start = self._virtual(), _host_us()
        if profiled and self._profile is not None:
            self._profile.enable()
        try:
            yield
        finally:
            if profiled and self._profile is not None:
                self._profile.disable()
            self._stack.pop()
            self.events.append({
                "name": name, "cat": "driver", "ph": "X", "pid": 1, "tid": 0,
                "ts": host_start, "dur": _host_us() - host_start,
                "args": {"span": span_id, "parent": parent,
                         "virtual_start": virtual_start, "virtual_end": self._virtual()}})

    def _sampled(self):
        self._requests += 1
        return self._requests % SAMPLE_EVERY == 1

    def _request_events(self, rid, kind, host_start, args):
        parent = self._stack[-1] if self._stack else 0
        common = {"name": kind, "cat": "request", "pid": 1, "tid": 1, "id": rid}
        self.events.append({**common, "ph": "b", "ts": host_start,
                            "args": {"request": rid, "parent": parent, **args}})
        self.events.append({**common, "ph": "e", "ts": _host_us()})

    def on_request(self, request, done):
        """Open loop: sample a submitted request; close its span on completion."""
        if not self._sampled():
            return
        rid, host_start = self._requests, _host_us()
        done.add_callback(lambda event: self._request_events(
            rid, request.kind, host_start,
            {"intended_start": request.intended_start, "submitted": request.submitted,
             "completed": event.value.finished, "status": event.value.status}))

    def observe(self, db):
        """Closed loop: a stand-in for ``db`` that samples the calls made on it."""
        return _Observed(db, self)

    def attribution(self, ops):
        """Per-package share of profiled self time and calls per acked op."""
        stats = pstats.Stats(self._profile).stats
        seconds = dict.fromkeys(PACKAGES + ("ledger", "other"), 0.0)
        calls = dict.fromkeys(seconds, 0)
        events = resumes = 0
        for (filename, _line, function), (primitive, _n, self_time, _c, _callers) in \
                stats.items():
            package = "other"
            if _SRC_MARK in filename:
                head = filename.split(_SRC_MARK, 1)[1].split(os.sep, 1)[0]
                package = head if head in PACKAGES else "other"
                if filename.endswith(_KERNEL_FILE):
                    events += primitive if function in _SCHEDULE else 0
                    resumes += primitive if function in _RESUME else 0
            elif filename.startswith(catalogue.LEDGER_DIR):
                package = "ledger"
            seconds[package] += self_time
            calls[package] += primitive
        total = sum(seconds.values())
        out = {f"{package}.host_share": seconds[package] / total for package in seconds}
        for package in ("lsm", "core"):
            out[f"{package}.calls_per_op"] = calls[package] / ops
        out["sim.events_per_op"] = events / ops
        out["sim.resumes_per_op"] = resumes / ops
        return out

    def write(self, path):
        """Write the spans as Chrome trace-event JSON."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": self.events, "displayTimeUnit": "ms"}, handle)


class _Observed:
    """Forwards the operation surface of ``db``, recording sampled requests."""

    def __init__(self, db, spans):
        self._db = db
        self._spans = spans

    def _call(self, kind, operation):
        spans = self._spans
        if not spans._sampled():
            return (yield from operation)
        rid, host_start, virtual_start = spans._requests, _host_us(), spans._virtual()
        result = yield from operation
        spans._request_events(rid, kind, host_start,
                              {"virtual_start": virtual_start,
                               "virtual_end": spans._virtual()})
        return result

    def get(self, key):
        """Traced ``db.get``."""
        return self._call("get", self._db.get(key))

    def put(self, key, value):
        """Traced ``db.put``."""
        return self._call("put", self._db.put(key, value))

    def scan(self, start_key, count):
        """Traced ``db.scan``."""
        return self._call("scan", self._db.scan(start_key, count))

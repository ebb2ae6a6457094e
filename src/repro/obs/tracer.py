"""Span tracer and metrics registry driven by the virtual clock.

The whole point of the reproduction is *where time goes* — barrier
waits, compaction I/O, write stalls — so the tracer records **spans**
(named intervals of virtual time), **instant events**, and **counter
samples**, all timestamped by the simulation clock, with near-zero
overhead and exactly zero virtual-time cost.

Design rules:

* **Off by default, free when off.**  Every instrumented object reads
  its tracer from ``Environment.tracer``, which defaults to the
  module-level :data:`NULL_TRACER` singleton.  The null tracer's methods
  are no-ops and ``NULL_TRACER.enabled`` is ``False``, so hot paths can
  guard with one attribute check.  Tracing never yields, sleeps or
  charges a meter, so enabling it cannot change ``EngineStats``, device
  counters, or any simulated timing — a property
  ``tests/test_obs.py`` locks in.
* **One track per simulated process.**  The kernel publishes the
  process currently being stepped as ``Environment.active_process``;
  spans recorded without an explicit ``track`` attach to it, so a
  Chrome trace shows each background worker, each YCSB client and the
  driver as separate threads.
* **Spans nest lexically.**  ``with tracer.span("compaction", ...):``
  works inside simulation coroutines because ``__enter__``/``__exit__``
  run at the virtual times the generator is actually resumed.

Usage::

    tracer = Tracer()
    env = Environment(tracer=tracer)         # or tracer.attach(env)
    ...
    with tracer.span("compaction", cat="engine", level=2) as span:
        ...simulated work...
        span.set(outputs=3)
    tracer.count("fd_cache.miss")
    write_chrome_trace(tracer, "trace.json")
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "SpanRecord",
    "InstantRecord",
    "CounterSample",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
]


class Counter:
    """A monotonically-increasing named counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def add(self, delta: int = 1) -> int:
        """Add ``delta``; returns the new total."""
        self.value += delta
        return self.value


class Gauge:
    """A named value that can move both ways (queue depths, sizes)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self.value = value


class MetricsRegistry:
    """Named counters and gauges, created on first use."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def counters(self) -> Dict[str, int]:
        """A snapshot of every counter's value."""
        return {name: c.value for name, c in sorted(self._counters.items())}

    def gauges(self) -> Dict[str, float]:
        """A snapshot of every gauge's value."""
        return {name: g.value for name, g in sorted(self._gauges.items())}

    def snapshot(self) -> Dict[str, float]:
        """All metrics as one flat name -> value mapping."""
        merged: Dict[str, float] = {}
        merged.update(self.counters())
        merged.update(self.gauges())
        return merged


class SpanRecord:
    """One closed interval of virtual time on one track."""

    __slots__ = ("name", "cat", "track", "start", "end", "args")

    def __init__(self, name: str, cat: str, track: str, start: float,
                 args: Optional[Dict[str, Any]]):
        self.name = name
        self.cat = cat
        self.track = track
        self.start = start
        self.end = start
        self.args = args

    @property
    def duration(self) -> float:
        """Span length in virtual seconds (0.0 while still open)."""
        return self.end - self.start

    def set(self, **args: Any) -> None:
        """Attach (or update) key/value annotations on the span."""
        if self.args is None:
            self.args = {}
        self.args.update(args)

    def contains(self, other: "SpanRecord") -> bool:
        """True if ``other`` lies within this span's time interval."""
        return self.start <= other.start and other.end <= self.end

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SpanRecord({self.name!r}, cat={self.cat!r}, "
                f"track={self.track!r}, {self.start:.6f}..{self.end:.6f})")


class InstantRecord:
    """A zero-duration event."""

    __slots__ = ("name", "cat", "track", "ts", "args")

    def __init__(self, name: str, cat: str, track: str, ts: float,
                 args: Optional[Dict[str, Any]]):
        self.name = name
        self.cat = cat
        self.track = track
        self.ts = ts
        self.args = args


class CounterSample:
    """A counter's value at a point in virtual time (Chrome 'C' event)."""

    __slots__ = ("name", "ts", "value")

    def __init__(self, name: str, ts: float, value: float):
        self.name = name
        self.ts = ts
        self.value = value


class _ActiveSpan:
    """Context manager handed out by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "record")

    def __init__(self, tracer: "Tracer", record: SpanRecord):
        self._tracer = tracer
        self.record = record

    def set(self, **args: Any) -> None:
        """Attach extra key/value arguments to the span record."""
        self.record.set(**args)

    def __enter__(self) -> SpanRecord:
        return self.record

    def __exit__(self, *exc_info: Any) -> None:
        self._tracer.finish_span(self.record)


class _NullSpan:
    """Reusable no-op stand-in for :class:`_ActiveSpan` (and its record)."""

    __slots__ = ()

    def set(self, **args: Any) -> None:
        """No-op (tracing disabled)."""
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The default tracer: does nothing, costs (almost) nothing.

    Hot paths may consult :attr:`enabled` to skip even argument
    construction; everything else can call the methods unconditionally.
    """

    enabled = False

    def span(self, name: str, cat: str = "", track: Optional[str] = None,
             **args: Any) -> _NullSpan:
        """No-op span context (tracing disabled)."""
        return _NULL_SPAN

    def instant(self, name: str, cat: str = "", track: Optional[str] = None,
                **args: Any) -> None:
        """No-op (tracing disabled)."""
        pass

    def count(self, name: str, delta: int = 1) -> None:
        """No-op (tracing disabled)."""
        pass

    def gauge(self, name: str, value: float) -> None:
        """No-op (tracing disabled)."""
        pass

    def attach(self, env: Any) -> "NullTracer":
        """Install on ``env`` (tracing off there); returns self."""
        env.tracer = self
        return self

    def process_spawned(self, process: Any) -> None:
        """No-op (tracing disabled)."""
        pass

    def process_finished(self, process: Any) -> None:
        """No-op (tracing disabled)."""
        pass


#: Shared do-nothing tracer; ``Environment`` installs it by default.
NULL_TRACER = NullTracer()


class Tracer:
    """Records spans, instants and metrics against the virtual clock.

    A tracer is created detached and bound to a simulation with
    :meth:`attach` (``Environment(tracer=...)`` and
    ``Options(tracer=...)`` both call it for you).  Re-attaching to a
    fresh environment — as the benchmark harness does when a suite
    rebuilds its simulated machine mid-run — shifts subsequent
    timestamps past everything already recorded, so one trace file can
    span several simulated machines without overlapping time.
    """

    enabled = True

    def __init__(self, metrics: Optional[MetricsRegistry] = None):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.spans: List[SpanRecord] = []
        self.instants: List[InstantRecord] = []
        self.counter_samples: List[CounterSample] = []
        self._env: Any = None
        self._offset = 0.0
        self._open_spans = 0

    # -- clock / environment binding ------------------------------------

    def attach(self, env: Any) -> "Tracer":
        """Install on ``env`` and bind to its clock (monotonically,
        across re-attaches); returns self."""
        if self._env is not None and env is not self._env:
            self._offset = max(self._offset + self._env.now, self.last_time)
        self._env = env
        env.tracer = self
        return self

    @property
    def now(self) -> float:
        """Current virtual time of the attached environment."""
        return self._offset + (self._env.now if self._env is not None else 0.0)

    @property
    def last_time(self) -> float:
        """Largest timestamp recorded so far."""
        last = 0.0
        if self.spans:
            last = max(last, max(s.end for s in self.spans))
        if self.instants:
            last = max(last, self.instants[-1].ts)
        return last

    def _track(self, track: Optional[str]) -> str:
        if track is not None:
            return track
        active = getattr(self._env, "active_process", None)
        return active.name if active is not None else "main"

    # -- recording -------------------------------------------------------

    def span(self, name: str, cat: str = "", track: Optional[str] = None,
             **args: Any) -> _ActiveSpan:
        """Open a span; use as a context manager (``with tracer.span(..)``).

        The span is recorded immediately so an unclosed span (a process
        killed mid-compaction) still appears in the trace, with zero
        duration.
        """
        record = SpanRecord(name, cat, self._track(track), self.now,
                            args or None)
        self.spans.append(record)
        self._open_spans += 1
        return _ActiveSpan(self, record)

    def finish_span(self, record: SpanRecord) -> None:
        """Close ``record`` at the current virtual time."""
        record.end = self.now
        self._open_spans -= 1

    def instant(self, name: str, cat: str = "", track: Optional[str] = None,
                **args: Any) -> None:
        """Record a zero-duration instant event."""
        self.instants.append(
            InstantRecord(name, cat, self._track(track), self.now,
                          args or None))

    def count(self, name: str, delta: int = 1) -> None:
        """Bump a registry counter and record a timestamped sample."""
        value = self.metrics.counter(name).add(delta)
        self.counter_samples.append(CounterSample(name, self.now, value))

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` and record the sample."""
        self.metrics.gauge(name).set(value)
        self.counter_samples.append(CounterSample(name, self.now, value))

    # -- kernel hooks -----------------------------------------------------

    def process_spawned(self, process: Any) -> None:
        """Register a simulated process as a named trace track."""
        self.instant("spawn", cat="kernel", track=process.name)

    def process_finished(self, process: Any) -> None:
        """Note a simulated process's termination on its track."""
        self.instant("exit", cat="kernel", track=process.name)

    # -- queries (used by tests and the phase summary) --------------------

    def find_spans(self, name: Optional[str] = None,
                   cat: Optional[str] = None,
                   track: Optional[str] = None) -> List[SpanRecord]:
        """Every finished span matching the given filters."""
        return [s for s in self.spans
                if (name is None or s.name == name)
                and (cat is None or s.cat == cat)
                and (track is None or s.track == track)]

    def spans_within(self, outer: SpanRecord,
                     cat: Optional[str] = None) -> List[SpanRecord]:
        """Spans on the same track fully inside ``outer`` (excluding it)."""
        return [s for s in self.spans
                if s is not outer and s.track == outer.track
                and outer.contains(s)
                and (cat is None or s.cat == cat)]

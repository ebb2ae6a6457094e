"""Observability subsystem: tracer core, exporters, instrumentation.

The two load-bearing guarantees tested here:

1. **The paper's barrier arithmetic is visible in traces** — a stock
   LevelDB compaction emits N+1 barrier spans (one fsync per output
   table + MANIFEST), a BoLT compaction exactly 2 (compaction file +
   MANIFEST), §1/§3.1.
2. **Tracing is free when disabled and inert when enabled** — it never
   advances the virtual clock, so EngineStats and every fs/device
   counter are identical with tracing on and off.
"""

import json

import pytest

from repro.bench import BenchConfig, SYSTEMS, new_stack, run_suite, unified_snapshot
from repro.bench.harness import EXTRA_SYSTEMS
from repro.obs import (
    MetricsRegistry,
    NULL_TRACER,
    NullTracer,
    Tracer,
    chrome_trace_events,
    phase_summary,
    summary_rows,
    write_chrome_trace,
)
from repro.sim import Environment
from repro.tools.traceview import summarize_trace, thread_rows


def tiny_config(**overrides) -> BenchConfig:
    overrides.setdefault("scale", 256)
    overrides.setdefault("record_count", 3000)
    overrides.setdefault("ops_per_phase", 600)
    return BenchConfig(**overrides)


def traced_suite(key: str):
    tracer = Tracer()
    results = run_suite(SYSTEMS[key], tiny_config(),
                        workloads=("load_a", "a"), tracer=tracer)
    return tracer, results


@pytest.fixture(scope="module")
def bolt_trace():
    return traced_suite("bolt")


@pytest.fixture(scope="module")
def leveldb_trace():
    return traced_suite("leveldb")


# -- tracer core -------------------------------------------------------------


class TestTracerCore:
    def test_span_records_virtual_time(self):
        env = Environment(tracer=Tracer())
        tracer = env.tracer

        def proc():
            yield env.timeout(1.0)
            with tracer.span("work", cat="test", track="t", step=1):
                yield env.timeout(2.5)

        env.run_until(env.process(proc()))
        (span,) = tracer.find_spans(name="work")
        assert span.start == pytest.approx(1.0)
        assert span.end == pytest.approx(3.5)
        assert span.duration == pytest.approx(2.5)
        assert span.args == {"step": 1}

    def test_nested_spans_and_containment(self):
        env = Environment(tracer=Tracer())
        tracer = env.tracer

        def proc():
            with tracer.span("outer", track="t"):
                yield env.timeout(1.0)
                with tracer.span("inner", track="t"):
                    yield env.timeout(1.0)
                yield env.timeout(1.0)

        env.run_until(env.process(proc()))
        (outer,) = tracer.find_spans(name="outer")
        (inner,) = tracer.find_spans(name="inner")
        assert inner.contains(inner)
        assert outer.contains(inner)
        assert not inner.contains(outer)
        assert tracer.spans_within(outer) == [inner]

    def test_span_set_updates_args(self):
        tracer = Tracer()
        with tracer.span("s", track="t") as span:
            span.set(outputs=3)
        assert tracer.spans[0].args == {"outputs": 3}

    def test_instants_and_counters(self):
        env = Environment(tracer=Tracer())
        tracer = env.tracer
        tracer.instant("mark", cat="test", track="t", detail=7)
        tracer.count("hits")
        tracer.count("hits", 2)
        tracer.gauge("depth", 4.0)
        assert tracer.instants[0].name == "mark"
        assert tracer.instants[0].args == {"detail": 7}
        assert tracer.metrics.counter("hits").value == 3
        assert tracer.metrics.gauge("depth").value == 4.0
        assert [s.value for s in tracer.counter_samples
                if s.name == "hits"] == [1, 3]

    def test_metrics_registry_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("a").add(2)
        registry.gauge("b").set(9.5)
        assert registry.snapshot() == {"a": 2, "b": 9.5}

    def test_attach_keeps_time_monotonic_across_stacks(self):
        tracer = Tracer()
        env1 = Environment(tracer=tracer)

        def busy(env):
            with tracer.span("phase", track="t"):
                yield env.timeout(5.0)

        env1.run_until(env1.process(busy(env1)))
        env2 = Environment(tracer=tracer)  # fresh clock restarts at 0
        env2.run_until(env2.process(busy(env2)))
        first, second = tracer.find_spans(name="phase")
        assert first.end == pytest.approx(5.0)
        assert second.start >= first.end
        assert second.duration == pytest.approx(5.0)

    def test_null_tracer_is_free_and_shared(self):
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, NullTracer)
        span_a = NULL_TRACER.span("anything", cat="x", arbitrary=1)
        span_b = NULL_TRACER.span("other")
        assert span_a is span_b  # one reusable no-op object, no allocation
        with span_a as span:
            span.set(ignored=True)
        NULL_TRACER.instant("nothing")
        NULL_TRACER.count("nothing")
        assert NULL_TRACER.attach(Environment()) is NULL_TRACER

    def test_environment_defaults_to_null_tracer(self):
        assert Environment().tracer is NULL_TRACER

    def test_options_tracer_installs_on_environment(self):
        tracer = Tracer()
        stack = new_stack(tiny_config())
        spec = SYSTEMS["bolt"]
        options = spec.options(256).copy(tracer=tracer)
        db = spec.engine_cls.open_sync(stack.env, stack.fs, options, "db")
        assert stack.env.tracer is tracer

    def test_options_tracer_stamps_spans_on_the_engines_clock(self):
        """``Options(tracer=...)`` binds the tracer to the environment
        the engine opens on, not merely installs it there: a clock
        already past 0 shows in every span."""
        tracer = Tracer()
        stack = new_stack(tiny_config())
        stack.env.run(until=7.5)
        spec = SYSTEMS["bolt"]
        db = spec.engine_cls.open_sync(stack.env, stack.fs,
                                       spec.options(256).copy(tracer=tracer),
                                       "db")
        db.put_sync(b"key", b"value")
        assert stack.env.tracer is tracer
        assert tracer.spans
        assert min(span.start for span in tracer.spans) >= 7.5
        assert tracer.now >= 7.5
        db.put_sync(b"k", b"v")
        assert tracer.find_spans(cat="engine") or tracer.spans  # recording


# -- the paper's barrier arithmetic ------------------------------------------


def barrier_counts(tracer):
    """[(outputs, settled, barrier spans inside)] per compaction span."""
    rows = []
    for compaction in tracer.find_spans(name="compaction"):
        barriers = tracer.spans_within(compaction, cat="barrier")
        rows.append((compaction.args.get("outputs", 0),
                     compaction.args.get("settled", 0),
                     len(barriers)))
    return rows


def test_leveldb_compaction_pays_n_plus_one_barriers(leveldb_trace):
    tracer, _ = leveldb_trace
    rows = barrier_counts(tracer)
    assert rows, "workload produced no compactions"
    assert any(outputs > 1 for outputs, _, _ in rows), \
        "need a multi-output compaction for N+1 to differ from 2"
    for outputs, _settled, barriers in rows:
        # One fsync per output SSTable + the MANIFEST commit (§1).
        assert barriers == outputs + 1


def test_bolt_compaction_pays_exactly_two_barriers(bolt_trace):
    tracer, _ = bolt_trace
    rows = barrier_counts(tracer)
    assert rows, "workload produced no compactions"
    assert any(outputs > 1 for outputs, _, _ in rows), \
        "need a multi-output compaction for '2' to be a real reduction"
    for outputs, _settled, barriers in rows:
        if outputs:
            # Compaction-file seal + MANIFEST commit — never more (§3.1).
            assert barriers == 2
        else:
            # Settled-only compaction: MANIFEST commit alone (§3.4).
            assert barriers == 1


def test_bolt_flushes_and_manifest_commits_are_traced(bolt_trace):
    tracer, _ = bolt_trace
    assert tracer.find_spans(name="flush", cat="engine")
    assert tracer.find_spans(name="manifest.commit", cat="engine")
    assert tracer.find_spans(name="fsync", cat="barrier")
    assert tracer.metrics.counter("fd_cache.hit").value > 0


ALL_SYSTEMS = {**SYSTEMS, **EXTRA_SYSTEMS}


@pytest.mark.parametrize("key", sorted(ALL_SYSTEMS))
def test_every_compaction_has_a_span(key):
    """Every engine runs the one compaction loop, so traceview can
    attribute every engine's barriers (PebblesDB's private copy of the
    loop emitted no span at all)."""
    spec = ALL_SYSTEMS[key]
    tracer = Tracer()
    stack = new_stack(tiny_config(scale=1024))
    db = spec.engine_cls.open_sync(
        stack.env, stack.fs, spec.options(1024, tracer=tracer), "db")
    for i in range(3000):
        db.put_sync(b"key%07d" % (i * 7919 % 3000), b"v" * 128)
    stack.env.run_until(stack.env.process(db.flush_all()))
    db.close_sync()
    assert db.stats.compactions > 0
    assert len(tracer.find_spans(name="compaction")) == db.stats.compactions


# -- tracing must not perturb the simulation ---------------------------------


def run_fixed_workload(tracer):
    """A deterministic direct-API workload; returns every observable."""
    config = tiny_config(record_count=2000)
    stack = new_stack(config)
    spec = SYSTEMS["bolt"]
    options = spec.options(config.scale)
    if tracer is not None:
        options = options.copy(tracer=tracer)
    db = spec.engine_cls.open_sync(stack.env, stack.fs, options, "db")
    for i in range(2000):
        db.put_sync(b"key%07d" % (i * 13 % 500), b"v" * 128)
        if i % 5 == 0:
            db.get_sync(b"key%07d" % (i % 500))
    stack.env.run_until(stack.env.process(db.flush_all()))
    db.close_sync()
    return (vars(db.stats.snapshot()), vars(stack.fs.stats.snapshot()),
            vars(stack.device.stats.snapshot()), stack.env.now)


def test_tracing_on_vs_off_identical_stats():
    baseline = run_fixed_workload(None)
    tracer = Tracer()
    traced = run_fixed_workload(tracer)
    assert tracer.spans, "tracer was supposed to observe the run"
    assert baseline == traced  # stats, counters AND the virtual clock


def test_tracing_on_vs_off_identical_suite_results():
    plain = run_suite(SYSTEMS["leveldb"], tiny_config(record_count=1500),
                      workloads=("load_a",))
    traced = run_suite(SYSTEMS["leveldb"], tiny_config(record_count=1500),
                       workloads=("load_a",), tracer=Tracer())
    for phase in plain:
        before, after = plain[phase], traced[phase]
        assert before.elapsed == after.elapsed
        assert before.fsync_calls == after.fsync_calls
        assert before.bytes_written == after.bytes_written
        assert before.compactions == after.compactions
        assert before.latencies.samples() == after.latencies.samples()


# -- exporters ----------------------------------------------------------------


def test_chrome_trace_events_shape(bolt_trace):
    tracer, _ = bolt_trace
    events = chrome_trace_events(tracer)
    assert events, "trace should not be empty"
    json.dumps(events)  # serializable as-is
    phases = {event["ph"] for event in events}
    assert {"M", "X"} <= phases
    names = {event["name"] for event in events if event["ph"] == "X"}
    assert {"flush", "compaction", "fsync", "dev.barrier"} <= names
    for event in events:
        assert event["pid"] == 1
        if event["ph"] == "X":
            assert event["ts"] >= 0 and event["dur"] >= 0

    thread_names = {event["args"]["name"] for event in events
                    if event["ph"] == "M" and event["name"] == "thread_name"}
    assert thread_names, "expected per-process track names"


def test_write_chrome_trace_file(tmp_path, leveldb_trace):
    tracer, _ = leveldb_trace
    path = tmp_path / "trace.json"
    write_chrome_trace(tracer, path)
    data = json.loads(path.read_text())
    assert isinstance(data["traceEvents"], list) and data["traceEvents"]
    assert data["displayTimeUnit"] == "ms"


def test_run_suite_trace_argument_writes_file(tmp_path):
    path = tmp_path / "suite.json"
    run_suite(SYSTEMS["bolt"], tiny_config(record_count=1500),
              workloads=("load_a",), trace=str(path))
    events = json.loads(path.read_text())["traceEvents"]
    names = {event["name"] for event in events if event["ph"] == "X"}
    assert "flush" in names and "fsync" in names
    assert any(event.get("name") == "phase-start" for event in events)


def test_phase_summary_and_rows(bolt_trace):
    tracer, _ = bolt_trace
    rows = summary_rows(tracer)
    assert rows[0]["total_ms"] == max(row["total_ms"] for row in rows)
    text = phase_summary(tracer)
    assert "compaction" in text and "fsync" in text
    assert "fd_cache.hit" in text  # metrics section


def test_traceview_summarizes_written_trace(tmp_path, bolt_trace):
    tracer, _ = bolt_trace
    path = tmp_path / "view.json"
    write_chrome_trace(tracer, path)
    events = json.loads(path.read_text())["traceEvents"]
    rows = summarize_trace(events)
    by_name = {row["name"]: row for row in rows}
    assert by_name["compaction"]["count"] == len(
        tracer.find_spans(name="compaction"))
    barrier_only = summarize_trace(events, cat="barrier")
    assert {row["name"] for row in barrier_only} <= {"fsync", "fdatasync"}
    tracks = thread_rows(events)
    assert tracks and all(row["spans"] > 0 for row in tracks)


def test_traceview_cli(tmp_path, bolt_trace, capsys):
    from repro.tools import traceview

    tracer, _ = bolt_trace
    path = tmp_path / "cli.json"
    write_chrome_trace(tracer, path)
    rows = traceview.main([str(path), "--slowest", "3", "--threads"])
    out = capsys.readouterr().out
    assert rows and "compaction" in out and "slowest 3 spans" in out


# -- unified snapshot ---------------------------------------------------------


def test_unified_snapshot_sections():
    config = tiny_config(record_count=500)
    tracer = Tracer()
    stack = new_stack(config, tracer=tracer)
    spec = SYSTEMS["bolt"]
    db = spec.engine_cls.open_sync(stack.env, stack.fs, spec.options(256), "db")
    for i in range(500):
        db.put_sync(b"k%06d" % i, b"v" * 64)
    stack.env.run_until(stack.env.process(db.flush_all()))
    snap = unified_snapshot(stack, db)
    assert set(snap) == {"clock", "device", "fs", "engine", "health",
                         "metrics"}
    # simcheck: waive[SIM004] - snapshot must equal the clock exactly
    assert snap["clock"]["virtual_seconds"] == stack.env.now
    assert snap["fs"]["num_barrier_calls"] == stack.fs.stats.num_barrier_calls
    assert snap["engine"]["compactions"] == db.stats.compactions
    assert snap["device"]["bytes_written"] == stack.device.stats.bytes_written
    assert snap["metrics"] == tracer.metrics.snapshot()


def test_unified_snapshot_without_tracer_or_db():
    stack = new_stack(tiny_config())
    snap = unified_snapshot(stack)
    assert set(snap) == {"clock", "device", "fs"}  # no engine, no metrics

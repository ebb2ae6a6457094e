"""Tests for the benchmark harness, metrics and reporting."""

import pytest

from repro.bench import (
    BenchConfig,
    LatencyRecorder,
    PhaseResult,
    SYSTEMS,
    format_markdown_table,
    format_table,
    new_stack,
    open_engine,
    percentile,
    run_suite,
)
from repro.bench.harness import load_database

TINY = BenchConfig(record_count=1200, ops_per_phase=400, value_size=96,
                   scale=1024)


class TestMetrics:
    def test_percentile_nearest_rank(self):
        samples = list(range(1, 101))
        assert percentile(samples, 50) == 50
        assert percentile(samples, 99) == 99
        assert percentile(samples, 100) == 100
        assert percentile(samples, 0) == 1

    def test_percentile_empty(self):
        assert percentile([], 99) == 0.0

    def test_recorder_kinds(self):
        rec = LatencyRecorder()
        rec.record("read", 0.001)
        rec.record("read", 0.003)
        rec.record("insert", 0.002)
        assert rec.count() == 3
        assert rec.count("read") == 2
        assert rec.kinds() == ["insert", "read"]
        assert rec.mean("read") == pytest.approx(0.002)

    def test_recorder_cdf_monotone(self):
        rec = LatencyRecorder()
        for i in range(1000):
            rec.record("op", i / 1000.0)
        cdf = rec.cdf("op")
        latencies = [latency for _p, latency in cdf]
        assert latencies == sorted(latencies)

    def test_phase_result_derived_metrics(self):
        rec = LatencyRecorder()
        rec.record("insert", 0.001)
        result = PhaseResult(system="x", workload="load_a", operations=1000,
                             elapsed=2.0, latencies=rec,
                             bytes_written=5000, logical_bytes=1000)
        assert result.throughput == 500.0
        assert result.write_amplification == 5.0
        row = result.summary_row()
        assert row["system"] == "x" and row["kops"] == 0.5

    def test_zero_division_guards(self):
        rec = LatencyRecorder()
        result = PhaseResult(system="x", workload="w", operations=0,
                             elapsed=0.0, latencies=rec)
        assert result.throughput == 0.0
        assert result.write_amplification == 0.0


class TestReport:
    def test_format_table_aligns(self):
        rows = [{"name": "a", "value": 1}, {"name": "bbbb", "value": 22.5}]
        text = format_table(rows, "Title")
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], "T")

    def test_markdown_table(self):
        rows = [{"a": 1, "b": 2}]
        md = format_markdown_table(rows)
        assert md.splitlines()[0] == "| a | b |"
        assert md.splitlines()[2] == "| 1 | 2 |"


class TestBenchConfig:
    def test_defaults_resolve(self):
        config = BenchConfig()
        assert config.dataset_bytes > 0
        assert config.resolved_page_cache_bytes() >= 1 << 20

    def test_page_cache_ratio_is_one_sixth(self):
        config = BenchConfig(record_count=60_000, value_size=1024,
                             page_cache_bytes=None)
        assert config.resolved_page_cache_bytes() == pytest.approx(
            config.dataset_bytes / 6, rel=0.01)

    def test_copy(self):
        config = BenchConfig().copy(record_count=7)
        assert config.record_count == 7


class TestHarness:
    def test_all_seven_systems_registered(self):
        assert set(SYSTEMS) == {"leveldb", "lvl64mb", "hyperleveldb",
                                "pebblesdb", "rocksdb", "bolt", "hyperbolt"}
        labels = {spec.label for spec in SYSTEMS.values()}
        assert labels == {"Level", "LVL64MB", "Hyper", "Pebbles", "Rocks",
                          "BoLT", "HBoLT"}

    def test_load_database(self):
        stack = new_stack(TINY)
        db = open_engine(stack, SYSTEMS["bolt"], TINY)
        proc = stack.env.process(load_database(stack, db, TINY))
        result, counter = stack.env.run_until(proc)
        assert result.operations == TINY.record_count
        assert counter.count == TINY.record_count
        assert result.throughput > 0
        assert result.fsync_calls > 0
        db.close_sync()

    def test_run_suite_minimal(self):
        results = run_suite(SYSTEMS["bolt"], TINY,
                            ("load_a", "a", "c", "delete", "load_e", "e"))
        assert set(results) == {"load_a", "a", "c", "load_e", "e"}
        for result in results.values():
            assert result.throughput > 0
        # workload C is read-only: no inserts recorded
        assert results["c"].latencies.count("read") > 0
        assert results["c"].latencies.count("insert") == 0
        # scans actually ran in E
        assert results["e"].latencies.count("scan") > 0

    def test_run_suite_uniform_distribution(self):
        results = run_suite(SYSTEMS["leveldb"],
                            TINY.copy(record_count=600, ops_per_phase=200),
                            ("load_a", "b"), request_dist="uniform")
        assert results["b"].operations == 200

    def test_delete_phase_resets_database(self):
        results = run_suite(SYSTEMS["leveldb"],
                            TINY.copy(record_count=500, ops_per_phase=100),
                            ("load_a", "delete", "load_e"))
        # Load E starts from an empty tree: same op count, fresh stack.
        assert results["load_e"].operations == 500

"""Tests for the operator tools: dbbench, dump, repair."""

import json
import random

import pytest

from repro.engines import bolt_options, leveldb_options
from repro.lsm import LSMEngine
from repro.sim import Environment
from repro.storage import BlockDevice, PageCache, SimFS
from repro.tools import (
    describe_database,
    dump_manifest,
    dump_table,
    dump_wal,
    repair_database,
)
from repro.tools.dbbench import _parser, run_benchmarks
from repro.tools.dbbench import main as dbbench_main
from repro.tools.repair import scan_container_for_tables

SCALE = 1024


def fresh_stack():
    env = Environment()
    fs = SimFS(env, BlockDevice(env), PageCache(16 << 20))
    return env, fs


def load_db(engine_cls, options, n=1500, seed=5):
    env, fs = fresh_stack()
    db = engine_cls.open_sync(env, fs, options, "db")
    rng = random.Random(seed)
    model = {}

    def writer():
        for i in range(n):
            key = b"user%08d" % rng.randrange(800)
            value = b"v" * 64 + b"%d" % i
            model[key] = value
            yield from db.put(key, value)
        yield from db.flush_all()

    env.run_until(env.process(writer()))
    return env, fs, db, model


class TestDbBench:
    def test_full_run_produces_rows(self, capsys):
        rows = dbbench_main([
            "--engine", "bolt", "--num", "600", "--scale", "1024",
            "--benchmarks", "fillrandom,readrandom,readseq,compact,stats",
        ])
        names = [row["benchmark"] for row in rows]
        assert names == ["fillrandom", "readrandom", "readseq",
                         "compact", "stats"]
        fill = rows[0]
        assert fill["ops"] == 600
        assert fill["kops_per_s"] > 0
        stats = rows[-1]
        assert stats["fsync"] > 0
        out = capsys.readouterr().out
        assert "micros/op" in out

    def test_every_engine_runs(self):
        for engine in ("leveldb", "hyperleveldb", "rocksdb", "pebblesdb",
                       "hyperbolt"):
            rows = dbbench_main([
                "--engine", engine, "--num", "300", "--scale", "1024",
                "--benchmarks", "fillrandom,readrandom",
            ])
            assert rows[1]["ops"] == 300

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            dbbench_main(["--benchmarks", "flymetothemoon"])

    # Every mode, at the smallest size that exercises it; the verdict
    # is the line a passing run of a harness mode must end with.
    @pytest.mark.parametrize("argv,verdict", [
        pytest.param(["--num", "300", "--scale", "1024"], None,
                     id="db_bench"),
        pytest.param(["--server", "--num", "200", "--scale", "1024"], None,
                     id="server"),
        pytest.param(["--cluster", "--num", "120", "--shards", "2",
                      "--clients", "2", "--workload", "b", "--scale", "1024"],
                     None, id="cluster"),
        pytest.param(["--cluster", "--chaos", "--num", "160"],
                     "cluster chaos: PASS", id="cluster-chaos"),
        pytest.param(["--cluster", "--nemesis", "--num", "320"],
                     "nemesis: PASS", id="cluster-nemesis"),
        pytest.param(["--chaos", "--num", "120"], "chaos: PASS", id="chaos"),
        pytest.param(["--crash-sweep", "--num", "40"], "crash sweep: PASS",
                     id="crash-sweep"),
        pytest.param(["--tiered", "--num", "1500", "--scale", "1024"], None,
                     id="tiered"),
        pytest.param(["--tiered", "--crash-sweep", "--num", "80"],
                     "crash sweep: PASS", id="tiered-crash-sweep"),
        pytest.param(["--tier-report", "--num", "1500", "--scale", "1024"],
                     None, id="tier-report"),
    ])
    def test_every_mode_is_deterministic(self, argv, verdict):
        """One protocol for every mode: print lines, return rows, and do
        both identically when run again (CI cmp's the same outputs)."""
        def run_cli():
            lines = []
            rows = run_benchmarks(_parser().parse_args(argv),
                                  out=lines.append)
            return lines, rows

        lines, rows = run_cli()
        assert (lines, rows) == run_cli()
        assert lines and rows
        assert all("benchmark" in row for row in rows)
        if verdict is not None:
            assert lines[-1] == verdict
        if argv[:2] == ["--cluster", "--num"]:
            # An unconfigured cluster runs on the perfect wire: every
            # ship is accepted first time, nothing is lost or duplicated.
            net = [line for line in lines if line.startswith("net: ")]
            assert len(net) == 1
            assert net[0].endswith("sends_refused 0  retransmits 0  "
                                   "duplicates 0  probes_lost 0")

    @pytest.mark.parametrize("argv,flag,mode", [
        (["--nemesis"], "--nemesis", "db_bench"),
        (["--server", "--tiered"], "--tiered", "--server"),
        (["--cluster", "--trace", "t.json"], "--trace", "--cluster"),
        (["--chaos", "--sanitize"], "--sanitize", "--chaos"),
        (["--tier-report", "--sanitize"], "--sanitize", "--tier-report"),
        (["--cluster", "--nemesis", "--chaos"], "--chaos",
         "--cluster --nemesis"),
    ])
    def test_flag_the_mode_does_not_read_is_an_error(self, argv, flag, mode,
                                                     capsys):
        """A flag the selected mode would ignore exits 2, naming both."""
        with pytest.raises(SystemExit) as exit_info:
            dbbench_main(argv)
        assert exit_info.value.code == 2
        assert f"{flag} is not read by the {mode} mode" in \
            capsys.readouterr().err


class TestDump:
    def test_dump_manifest(self):
        env, fs, db, _model = load_db(LSMEngine, leveldb_options(SCALE))
        name = f"db/MANIFEST-{db.versions.manifest_file_number:06d}"
        lines = env.run_until(env.process(dump_manifest(fs, name)))
        assert lines
        assert any("add(L0" in line for line in lines)

    def test_dump_wal(self):
        env, fs, db, _model = load_db(LSMEngine, leveldb_options(SCALE))
        db.put_sync(b"fresh-key", b"fresh-value")
        wal_name = f"db/{db._wal_number:06d}.log"
        lines = env.run_until(env.process(dump_wal(fs, wal_name)))
        assert any(b"fresh-key" in line.encode("unicode_escape")
                   or "fresh-key" in line for line in lines)

    def test_dump_table(self):
        env, fs, db, _model = load_db(LSMEngine, leveldb_options(SCALE))
        meta = next(iter(db.versions.current.live_numbers().values()))
        summary = env.run_until(env.process(dump_table(
            fs, meta.container, meta.offset, meta.length,
            db.options, include_entries=True)))
        assert summary["num_entries"] == meta.num_entries
        assert len(summary["entries"]) == meta.num_entries

    def test_describe_database(self):
        env, fs, db, _model = load_db(LSMEngine, bolt_options(SCALE))
        lines = env.run_until(env.process(describe_database(fs, "db",
                                                            db.options)))
        text = "\n".join(lines)
        assert "last_sequence" in text
        assert "L" in text

    def test_describe_missing_database(self, env, fs, run):
        lines = run(describe_database(fs, "nope"))
        assert any("no CURRENT" in line for line in lines)


class TestScanContainer:
    def test_finds_all_logical_tables(self):
        env, fs, db, _model = load_db(LSMEngine, bolt_options(SCALE))
        live = list(db.versions.current.live_numbers().values())
        containers = {}
        for meta in live:
            containers.setdefault(meta.container, []).append(meta)
        container, metas = max(containers.items(), key=lambda kv: len(kv[1]))
        found = env.run_until(env.process(
            scan_container_for_tables(fs, container, db.options)))
        found_offsets = {base for base, _length, _r in found}
        for meta in metas:
            assert meta.offset in found_offsets

    def test_skips_corrupt_tables(self):
        env, fs, db, _model = load_db(LSMEngine, leveldb_options(SCALE))
        metas = list(db.versions.current.live_numbers().values())
        victim = metas[0]

        def corrupt():
            handle = yield from fs.open(victim.container)
            handle.write_at(victim.offset + 20, b"\xba\xad")
            return (yield from scan_container_for_tables(
                fs, victim.container, db.options))

        found = env.run_until(env.process(corrupt()))
        assert all(base != victim.offset for base, _l, _r in found)


class TestRepair:
    def _wreck_and_repair(self, engine_cls, options, n=1200):
        env, fs, db, model = load_db(engine_cls, options, n=n)
        db.kill()
        # Destroy the metadata: the MANIFEST chain and CURRENT.
        def destroy():
            for name in list(fs.listdir("db/")):
                if "MANIFEST" in name or name.endswith("CURRENT"):
                    yield from fs.unlink(name)

        env.run_until(env.process(destroy()))
        report = env.run_until(env.process(
            repair_database(env, fs, options, "db")))
        db2 = engine_cls.open_sync(env, fs, options, "db")
        return env, db2, model, report

    def test_repair_leveldb(self):
        env, db, model, report = self._wreck_and_repair(
            LSMEngine, leveldb_options(SCALE))
        assert report.tables_recovered > 0

        def verify():
            for key, value in model.items():
                got = yield from db.get(key)
                assert got == value, key

        env.run_until(env.process(verify()))

    def test_repair_bolt_logical_tables(self):
        """The hard case: logical SSTable boundaries only existed in the
        destroyed MANIFEST; the footer scan must rediscover them."""
        env, db, model, report = self._wreck_and_repair(
            LSMEngine, bolt_options(SCALE))
        assert report.tables_recovered > 0

        def verify():
            for key, value in model.items():
                got = yield from db.get(key)
                assert got == value, key

        env.run_until(env.process(verify()))

    def test_repair_salvages_wal(self):
        env, fs, db, model = load_db(LSMEngine, leveldb_options(SCALE))
        db.put_sync(b"wal-only-key", b"wal-only-value")
        # WAL contents are in the page cache; sync so they survive.
        env.run_until(env.process(db._wal_handle.fsync()))
        db.kill()

        def destroy():
            for name in list(fs.listdir("db/")):
                if "MANIFEST" in name or name.endswith("CURRENT"):
                    yield from fs.unlink(name)

        env.run_until(env.process(destroy()))
        report = env.run_until(env.process(
            repair_database(env, fs, leveldb_options(SCALE), "db")))
        assert report.wal_records_salvaged > 0
        db2 = LSMEngine.open_sync(env, fs, leveldb_options(SCALE), "db")
        assert db2.get_sync(b"wal-only-key") == b"wal-only-value"

    def test_repair_honours_quarantine_intent(self):
        """A table the scrubber quarantined must stay out of the rebuilt
        tree even when its bytes verify during the scavenge (the mark
        models intermittent media faults the CRC pass cannot see)."""
        env, fs, db, _model = load_db(LSMEngine, leveldb_options(SCALE))
        live = list(db.versions.current.live_numbers().values())
        victim = live[0]
        db._quarantine(victim, "operator: intermittent read failures")

        def settle():
            yield env.timeout(0.05)  # let the quarantine record commit

        env.run_until(env.process(settle()))
        db.close_sync()
        report = env.run_until(env.process(
            repair_database(env, fs, leveldb_options(SCALE), "db")))
        assert report.tables_quarantined == 1
        db2 = LSMEngine.open_sync(env, fs, leveldb_options(SCALE), "db")
        rebuilt = db2.versions.current.live_numbers().values()
        assert all((m.container, m.offset)
                   != (victim.container, victim.offset) for m in rebuilt)
        db2.close_sync()

    def test_repair_preserves_version_order(self):
        """Overwrites across many tables: repair's recency renumbering
        must keep the newest value on top."""
        env, fs = fresh_stack()
        options = leveldb_options(SCALE)
        db = LSMEngine.open_sync(env, fs, options, "db")
        for generation in range(5):
            for i in range(200):
                db.put_sync(b"key%04d" % i, b"gen-%d" % generation)
            env.run_until(env.process(db.flush_all()))
        db.kill()

        def destroy():
            for name in list(fs.listdir("db/")):
                if "MANIFEST" in name or name.endswith("CURRENT"):
                    yield from fs.unlink(name)

        env.run_until(env.process(destroy()))
        env.run_until(env.process(repair_database(env, fs, options, "db")))
        db2 = LSMEngine.open_sync(env, fs, options, "db")
        for i in range(0, 200, 17):
            assert db2.get_sync(b"key%04d" % i) == b"gen-4"


class TestPerfBench:
    """repro.tools.perfbench: wall-clock harness with deterministic digests."""

    def test_benchmarks_registered(self):
        from repro.tools.perfbench import BENCHMARKS
        assert set(BENCHMARKS) == {"kernel", "codec", "skiplist",
                                   "histogram", "objstore_cache", "version",
                                   "lsst_meta", "build", "compact_read",
                                   "point_read", "commit", "serve_cluster",
                                   "ycsb_a"}

    def test_fingerprints_stable_across_runs(self):
        """Each benchmark's fingerprint is a pure function of the code."""
        from repro.tools.perfbench import BENCHMARKS
        for name in ("kernel", "codec", "skiplist", "histogram", "build",
                     "compact_read", "point_read", "commit"):
            _, first = BENCHMARKS[name]()
            _, second = BENCHMARKS[name]()
            assert first == second, name

    def test_json_and_floor_gate(self, tmp_path, capsys):
        from repro.tools.perfbench import main as perfbench_main
        path = tmp_path / "BENCH_perf.json"
        subset = "codec,histogram"
        perfbench_main(["--benchmarks", subset, "--repeat", "1",
                        "--json", str(path)])
        payload = json.loads(path.read_text())
        assert payload["schema"] == "perfbench-v1"
        assert payload["calibration_seconds"] > 0
        assert set(payload["benchmarks"]) == {"codec", "histogram"}
        for row in payload["benchmarks"].values():
            assert row["seconds"] >= 0
            assert len(row["fingerprint"]) == 64
        # The gate passes against a baseline this same host just wrote.
        perfbench_main(["--benchmarks", subset, "--repeat", "1",
                        "--assert-floor", str(path), "--tolerance", "5.0"])
        out = capsys.readouterr().out
        assert "perfbench: floor + fingerprints ok" in out

    def test_floor_gate_fails_on_fingerprint_drift(self, tmp_path, capsys):
        from repro.tools.perfbench import main as perfbench_main
        path = tmp_path / "BENCH_perf.json"
        perfbench_main(["--benchmarks", "histogram", "--repeat", "1",
                        "--json", str(path)])
        payload = json.loads(path.read_text())
        payload["benchmarks"]["histogram"]["fingerprint"] = "0" * 64
        path.write_text(json.dumps(payload))
        with pytest.raises(SystemExit):
            perfbench_main(["--benchmarks", "histogram", "--repeat", "1",
                            "--assert-floor", str(path)])
        assert "results changed" in capsys.readouterr().out

    def test_digest_mode_emits_only_fingerprints(self, capsys):
        from repro.tools.perfbench import main as perfbench_main
        perfbench_main(["--benchmarks", "histogram", "--digest"])
        emitted = json.loads(capsys.readouterr().out)
        assert set(emitted) == {"histogram"}
        assert len(emitted["histogram"]) == 64

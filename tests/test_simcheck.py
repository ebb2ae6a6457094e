"""Fixture-snippet tests for every simcheck rule, plus the self-check.

Each rule gets at least one deliberately broken snippet (must be
flagged) and one clean snippet (must not be).  The final test asserts
the library itself is simcheck-clean modulo the committed baseline,
which is what the CI job enforces.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.simcheck import (
    BaselineError,
    RULES,
    _parse_waivers,
    apply_baseline,
    check_paths,
    check_source,
    check_sources,
    load_baseline,
    main,
)

SRC_REPRO = Path(__file__).resolve().parent.parent / "src" / "repro"
REPO_ROOT = SRC_REPRO.parent.parent
BASELINE = REPO_ROOT / "simcheck_baseline.json"


def rules_hit(source):
    return {f.rule for f in check_source(source)}


def rules_hit_multi(sources):
    return {f.rule for f in check_sources(sources)}


class TestSIM001WallClock:
    def test_flags_time_time(self):
        assert "SIM001" in rules_hit(
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n")

    def test_flags_datetime_now_and_aliased_import(self):
        assert "SIM001" in rules_hit(
            "import datetime\n"
            "t = datetime.datetime.now()\n")
        assert "SIM001" in rules_hit(
            "from time import perf_counter as pc\n"
            "t = pc()\n")

    def test_clean_virtual_clock(self):
        assert "SIM001" not in rules_hit(
            "def stamp(env):\n"
            "    return env.now\n")

    def test_clean_unrelated_attribute_named_time(self):
        # foo.time() is not the time module unless `foo` imports it.
        assert "SIM001" not in rules_hit(
            "def stamp(recorder):\n"
            "    return recorder.time()\n")


class TestSIM002UnseededRandom:
    def test_flags_bare_random_constructor(self):
        assert "SIM002" in rules_hit(
            "import random\n"
            "rng = random.Random()\n")

    def test_flags_module_level_functions_and_urandom(self):
        assert "SIM002" in rules_hit(
            "import random\n"
            "x = random.randrange(10)\n")
        assert "SIM002" in rules_hit(
            "import os\n"
            "salt = os.urandom(8)\n")

    def test_clean_seeded_constructor_and_instance_calls(self):
        assert "SIM002" not in rules_hit(
            "import random\n"
            "rng = random.Random(42)\n"
            "x = rng.randrange(10)\n")

    def test_clean_aliased_instance(self):
        assert "SIM002" not in rules_hit(
            "def draw(self):\n"
            "    return self.rng.random()\n")


class TestSIM003SetIteration:
    def test_flags_for_loop_over_set_literal(self):
        assert "SIM003" in rules_hit(
            "for table in {3, 1, 2}:\n"
            "    print(table)\n")

    def test_flags_iteration_over_set_typed_name(self):
        assert "SIM003" in rules_hit(
            "live = set()\n"
            "live.add(1)\n"
            "names = [n for n in live]\n")

    def test_flags_list_materialization_and_set_methods(self):
        assert "SIM003" in rules_hit(
            "a = {1, 2}\n"
            "b = {2, 3}\n"
            "order = list(a.union(b))\n")

    def test_clean_sorted_iteration(self):
        assert "SIM003" not in rules_hit(
            "live = {3, 1, 2}\n"
            "for table in sorted(live):\n"
            "    print(table)\n")

    def test_clean_order_insensitive_consumers(self):
        assert "SIM003" not in rules_hit(
            "live = {3, 1, 2}\n"
            "total = sum(x for x in live)\n"
            "count = len(live)\n"
            "biggest = max(live)\n")

    def test_clean_dict_iteration(self):
        # Python dicts are insertion-ordered; values() is deterministic.
        assert "SIM003" not in rules_hit(
            "d = {'a': 1}\n"
            "for v in d.values():\n"
            "    print(v)\n")


class TestSIM004ClockEquality:
    def test_flags_equality_against_now(self):
        assert "SIM004" in rules_hit(
            "def check(env, deadline):\n"
            "    return env.now == deadline\n")
        assert "SIM004" in rules_hit(
            "def check(env, t0):\n"
            "    assert env.now != t0\n")

    def test_clean_inequalities_and_arithmetic(self):
        assert "SIM004" not in rules_hit(
            "def check(env, deadline):\n"
            "    return env.now >= deadline\n")
        assert "SIM004" not in rules_hit(
            "def elapsed(env, t0):\n"
            "    return env.now - t0\n")


class TestSIM005BarrierDominance:
    BROKEN = (
        "def compact(self, entries, sink, edit, meter):\n"
        "    for entry in entries:\n"
        "        handle, name = yield from sink.next_handle(1)\n"
        "        handle.append(entry)\n"
        "    yield from self.versions.log_and_apply(edit, meter)\n")

    FIXED = (
        "def compact(self, entries, sink, edit, meter):\n"
        "    for entry in entries:\n"
        "        handle, name = yield from sink.next_handle(1)\n"
        "        handle.append(entry)\n"
        "    yield from sink.seal()\n"
        "    yield from self.versions.log_and_apply(edit, meter)\n")

    def test_flags_commit_without_barrier(self):
        assert "SIM005" in rules_hit(self.BROKEN)

    def test_clean_sealed_commit(self):
        assert "SIM005" not in rules_hit(self.FIXED)

    def test_helper_that_seals_internally_dominates(self):
        # _build_tables writes AND seals; callers need no extra barrier.
        assert "SIM005" not in rules_hit(
            "def _build_tables(self, entries, sink):\n"
            "    for entry in entries:\n"
            "        handle, _ = yield from sink.next_handle(1)\n"
            "    yield from sink.seal()\n"
            "\n"
            "def flush(self, edit, meter):\n"
            "    yield from self._build_tables([], None)\n"
            "    yield from self.versions.log_and_apply(edit, meter)\n")

    def test_helper_that_only_writes_taints_the_caller(self):
        assert "SIM005" in rules_hit(
            "def _build_tables(self, entries, sink):\n"
            "    for entry in entries:\n"
            "        handle, _ = yield from sink.next_handle(1)\n"
            "\n"
            "def flush(self, edit, meter):\n"
            "    yield from self._build_tables([], None)\n"
            "    yield from self.versions.log_and_apply(edit, meter)\n")

    def test_clean_commit_with_no_write(self):
        # Quarantine persistence commits an edit without table writes.
        assert "SIM005" not in rules_hit(
            "def persist(self, edit, meter):\n"
            "    yield from self.versions.log_and_apply(edit, meter)\n")


# -- interprocedural fixtures (SIM006-SIM010) -------------------------------

#: A module whose commit helper leaves an unsealed durable write.
SIM006_ENGINE = (
    "class Engine:\n"
    "    def commit(self, sink, record):\n"
    "        handle, _ = yield from sink.next_handle(1)\n"
    "        handle.append(record)\n")

#: Server in a *different* module acks right after the unsealed commit.
SIM006_SERVER_BROKEN = (
    "class Server:\n"
    "    def __init__(self):\n"
    "        self.db = Engine()\n"
    "    def put(self, sink, record, waiter):\n"
    "        yield from self.db.commit(sink, record)\n"
    "        waiter.succeed()\n")

SIM006_SERVER_FIXED = (
    "class Server:\n"
    "    def __init__(self):\n"
    "        self.db = Engine()\n"
    "    def put(self, sink, record, waiter):\n"
    "        yield from self.db.commit(sink, record)\n"
    "        yield from sink.seal()\n"
    "        waiter.succeed()\n")

SIM007_BROKEN = (
    "class Pool:\n"
    "    def __init__(self, env):\n"
    "        self.env = env\n"
    "        self._lock = Resource(env)\n"
    "    def drain(self):\n"
    "        yield self._lock.acquire()\n"
    "        try:\n"
    "            yield self.env.timeout(0.5)\n"
    "        finally:\n"
    "            self._lock.release()\n")

SIM007_FIXED_RETEST = (
    "class Pool:\n"
    "    def __init__(self, env):\n"
    "        self.env = env\n"
    "        self._lock = Resource(env)\n"
    "    def drain(self):\n"
    "        yield self._lock.acquire()\n"
    "        try:\n"
    "            while self._busy:\n"
    "                yield self.env.timeout(0.5)\n"
    "        finally:\n"
    "            self._lock.release()\n")

SIM008_BROKEN = (
    "class Pool:\n"
    "    def __init__(self, env):\n"
    "        self._lock = Resource(env)\n"
    "    def fill(self):\n"
    "        yield self._lock.acquire()\n"
    "        refill()\n"
    "        self._lock.release()\n")

SIM008_FIXED = (
    "class Pool:\n"
    "    def __init__(self, env):\n"
    "        self._lock = Resource(env)\n"
    "    def fill(self):\n"
    "        yield self._lock.acquire()\n"
    "        try:\n"
    "            refill()\n"
    "        finally:\n"
    "            self._lock.release()\n")

SIM009_ENGINE = (
    "class Engine:\n"
    "    def write(self, batch):\n"
    "        handle, _ = yield from self.sink.next_handle(1)\n"
    "        handle.append(batch)\n")

SIM009_LINK_BROKEN = (
    "class Link:\n"
    "    def __init__(self, shard):\n"
    "        self.db = Engine()\n"
    "        self.shard = shard\n"
    "        self.epoch = 1\n"
    "    def apply(self, batch):\n"
    "        yield from self.db.write(batch)\n")

SIM009_LINK_FIXED = (
    "class Link:\n"
    "    def __init__(self, shard):\n"
    "        self.db = Engine()\n"
    "        self.shard = shard\n"
    "        self.epoch = 1\n"
    "    def apply(self, batch):\n"
    "        if self.epoch < self.shard.epoch:\n"
    "            return\n"
    "        yield from self.db.write(batch)\n")

SIM010_BROKEN = (
    "def pump(env):\n"
    "    yield env.timeout(1)\n"
    "def boot(env):\n"
    "    pump(env)\n")

SIM010_FIXED = (
    "def pump(env):\n"
    "    yield env.timeout(1)\n"
    "def boot(env):\n"
    "    yield from pump(env)\n")

SIM011_BROKEN = {
    "src/repro/util.py":
        "import time\nt = time.time()  # simcheck: waive[SIM001]\n"}

SIM011_FIXED = {
    "src/repro/util.py":
        "import time\n"
        "t = time.time()  # simcheck: waive[SIM001] - wall clock feeds"
        " the report header only\n"}


class TestSIM006InterprocAckBeforeBarrier:
    def test_two_module_ack_path_that_sim005_misses(self):
        # The write is in engine.py, the ack in server.py: per-file
        # SIM005 sees neither half...
        assert "SIM005" not in rules_hit(SIM006_SERVER_BROKEN)
        assert "SIM006" not in rules_hit(SIM006_SERVER_BROKEN)
        # ...but the project-wide walk connects them.
        hits = rules_hit_multi({"engine.py": SIM006_ENGINE,
                                "server.py": SIM006_SERVER_BROKEN})
        assert "SIM006" in hits

    def test_clean_when_caller_seals_before_acking(self):
        hits = rules_hit_multi({"engine.py": SIM006_ENGINE,
                                "server.py": SIM006_SERVER_FIXED})
        assert "SIM006" not in hits

    def test_direct_ack_after_unsealed_write_same_function(self):
        assert "SIM006" in rules_hit(
            "def put(sink, record, waiter):\n"
            "    handle, _ = yield from sink.next_handle(1)\n"
            "    handle.append(record)\n"
            "    waiter.succeed()\n")

    def test_clean_ack_after_barrier_same_function(self):
        assert "SIM006" not in rules_hit(
            "def put(sink, record, waiter):\n"
            "    handle, _ = yield from sink.next_handle(1)\n"
            "    handle.append(record)\n"
            "    yield from sink.seal()\n"
            "    waiter.succeed()\n")


class TestSIM007SleepWhileHoldingLock:
    def test_flags_direct_sleep_under_lock(self):
        assert "SIM007" in rules_hit(SIM007_BROKEN)

    def test_clean_retest_loop_counts_as_revalidation(self):
        assert "SIM007" not in rules_hit(SIM007_FIXED_RETEST)

    def test_clean_release_before_sleep(self):
        assert "SIM007" not in rules_hit(
            "class Pool:\n"
            "    def __init__(self, env):\n"
            "        self.env = env\n"
            "        self._lock = Resource(env)\n"
            "    def drain(self):\n"
            "        yield self._lock.acquire()\n"
            "        self._lock.release()\n"
            "        yield self.env.timeout(0.5)\n")

    def test_flags_sleep_reached_through_a_callee(self):
        assert "SIM007" in rules_hit(
            "class Pool:\n"
            "    def __init__(self, env):\n"
            "        self.env = env\n"
            "        self._lock = Resource(env)\n"
            "    def _backoff(self):\n"
            "        yield self.env.timeout(0.5)\n"
            "    def drain(self):\n"
            "        yield self._lock.acquire()\n"
            "        try:\n"
            "            yield from self._backoff()\n"
            "        finally:\n"
            "            self._lock.release()\n")

    def test_clean_capacity_two_semaphore_is_not_a_mutex(self):
        assert "SIM007" not in rules_hit(
            "class Pool:\n"
            "    def __init__(self, env):\n"
            "        self.env = env\n"
            "        self._chan = Resource(env, capacity=2)\n"
            "    def drain(self):\n"
            "        yield self._chan.acquire()\n"
            "        try:\n"
            "            yield self.env.timeout(0.5)\n"
            "        finally:\n"
            "            self._chan.release()\n")


#: A lock taken in place (fast path) or through the queue (fallback).
IN_PLACE_POOL = (
    "class Pool:\n"
    "    def __init__(self, env):\n"
    "        self.env = env\n"
    "        self._lock = Resource(env)\n"
    "    def fill(self):\n"
    "        if not self._lock.acquire_in_place():\n"
    "            yield self._lock.acquire()\n"
    "        try:\n"
    "            yield self.env.timeout(0.5)\n"
    "        finally:\n"
    "            self._lock.release()\n"
    "    def peek(self):\n"
    "        if self._lock.acquire_in_place():\n"
    "            self._lock.release()\n"
    "        yield self.env.timeout(0.1)\n")


class TestInPlaceGrants:
    def test_in_place_grant_is_modelled_as_try_acquire(self, tmp_path, capsys):
        path = tmp_path / "pool.py"
        path.write_text(IN_PLACE_POOL)
        assert main([str(path), "--effects"]) == 0
        peek = json.loads(capsys.readouterr().out)["pool.Pool.peek"]
        assert peek["acquires"] == ["self._lock"]
        assert peek["sleep_shield"] == ["self._lock"]

    def test_sleep_under_a_lock_with_an_in_place_fast_path_is_flagged(self):
        findings = [f for f in check_source(IN_PLACE_POOL) if f.rule == "SIM007"]
        assert [f.line for f in findings] == [9]


class TestSIM008ExceptionUnsafeRelease:
    def test_flags_release_outside_finally(self):
        assert "SIM008" in rules_hit(SIM008_BROKEN)

    def test_clean_release_in_finally(self):
        assert "SIM008" not in rules_hit(SIM008_FIXED)

    def test_clean_lock_handoff_with_no_release(self):
        # _stall-style helpers re-acquire for the caller: acquire with
        # no matching release in the same function is a handoff.
        assert "SIM008" not in rules_hit(
            "class Pool:\n"
            "    def __init__(self, env):\n"
            "        self._lock = Resource(env)\n"
            "    def handoff(self):\n"
            "        yield self._lock.acquire()\n")


class TestSIM009UnfencedClusterIngestion:
    def test_flags_unfenced_cross_layer_write(self):
        hits = rules_hit_multi({"engine.py": SIM009_ENGINE,
                                "cluster.py": SIM009_LINK_BROKEN})
        assert "SIM009" in hits

    def test_clean_with_upstream_epoch_check(self):
        hits = rules_hit_multi({"engine.py": SIM009_ENGINE,
                                "cluster.py": SIM009_LINK_FIXED})
        assert "SIM009" not in hits

    def test_rule_is_scoped_to_cluster_code(self):
        # The same unfenced shape outside cluster/ modules is fine.
        hits = rules_hit_multi({"engine.py": SIM009_ENGINE,
                                "pipeline.py": SIM009_LINK_BROKEN})
        assert "SIM009" not in hits


class TestSIM010UndrivenGenerator:
    def test_flags_bare_statement_call_to_generator(self):
        assert "SIM010" in rules_hit(SIM010_BROKEN)

    def test_clean_yield_from(self):
        assert "SIM010" not in rules_hit(SIM010_FIXED)

    def test_clean_unresolved_call_is_not_flagged(self):
        assert "SIM010" not in rules_hit(
            "def boot(env):\n"
            "    launch(env)\n")


class TestSIM011UnjustifiedWaiver:
    def test_flags_bare_waiver_in_library_code(self):
        assert rules_hit_multi(SIM011_BROKEN) == {"SIM011"}

    def test_clean_justified_waiver_in_library_code(self):
        assert rules_hit_multi(SIM011_FIXED) == set()

    def test_test_code_needs_no_justification(self):
        sources = {"tests/test_x.py":
                   "import time\nt = time.time()  # simcheck: waive[SIM001]\n"}
        assert rules_hit_multi(sources) == set()


class TestWaivers:
    def test_waiver_suppresses_named_rule(self):
        assert rules_hit(
            "import random\n"
            "rng = random.Random()  # simcheck: waive[SIM002]\n") == set()

    def test_waiver_star_suppresses_all(self):
        assert rules_hit(
            "import time\n"
            "t = time.time()  # simcheck: waive[*]\n") == set()

    def test_waiver_for_other_rule_does_not_suppress(self):
        assert "SIM002" in rules_hit(
            "import random\n"
            "rng = random.Random()  # simcheck: waive[SIM001]\n")

    def test_comma_list_waives_each_named_rule(self):
        assert rules_hit(
            "import time\n"
            "import random\n"
            "x = (time.time(), random.Random())"
            "  # simcheck: waive[SIM001, SIM002]\n") == set()

    def test_decorator_line_waiver_covers_the_def_line(self):
        waivers = _parse_waivers(
            "@retry  # simcheck: waive[SIM007]\n"
            "def f():\n"
            "    pass\n")
        assert waivers[1] == {"SIM007"}
        assert waivers[2] == {"SIM007"}

    def test_standalone_comment_waiver_covers_the_next_code_line(self):
        assert rules_hit(
            "import time\n"
            "# simcheck: waive[SIM001] - report header timestamp\n"
            "t = time.time()\n") == set()

    def test_docstring_mention_is_not_a_waiver(self):
        # The waiver syntax inside a string literal (e.g. this very
        # test, or the linter's own rule table) must not suppress
        # anything — and must not demand a justification either.
        hits = rules_hit_multi({
            "src/repro/doc.py":
                '"""Docs quoting # simcheck: waive[SIM001] syntax."""\n'
                "import time\n"
                "t = time.time()\n"})
        assert hits == {"SIM001"}


class TestDriver:
    def test_findings_carry_location_and_rule(self):
        findings = check_source("import time\nt = time.time()\n", path="x.py")
        assert len(findings) == 1
        f = findings[0]
        assert (f.path, f.line, f.rule) == ("x.py", 2, "SIM001")
        assert f.render().startswith("x.py:2:")

    def test_every_rule_id_is_exercised_by_fixtures(self):
        broken = {
            "SIM001": {"m.py": "import time\nt = time.time()\n"},
            "SIM002": {"m.py": "import random\nr = random.Random()\n"},
            "SIM003": {"m.py": "for x in {1, 2}:\n    print(x)\n"},
            "SIM004": {"m.py": "def f(env):\n    return env.now == 0.0\n"},
            "SIM005": {"m.py": TestSIM005BarrierDominance.BROKEN},
            "SIM006": {"engine.py": SIM006_ENGINE,
                       "server.py": SIM006_SERVER_BROKEN},
            "SIM007": {"m.py": SIM007_BROKEN},
            "SIM008": {"m.py": SIM008_BROKEN},
            "SIM009": {"engine.py": SIM009_ENGINE,
                       "cluster.py": SIM009_LINK_BROKEN},
            "SIM010": {"m.py": SIM010_BROKEN},
            "SIM011": SIM011_BROKEN,
        }
        assert set(broken) == set(RULES)
        for rule, sources in broken.items():
            assert rule in rules_hit_multi(sources), rule

    def test_main_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import time\nt = time.time()\n")
        assert main([str(clean)]) == 0
        assert main([str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "SIM001" in out

    def test_syntax_error_is_reported_not_raised(self):
        findings = check_source("def broken(:\n", path="bad.py")
        assert findings and findings[0].rule == "SIM000"


class TestCLI:
    @pytest.fixture
    def dirty(self, tmp_path):
        path = tmp_path / "dirty.py"
        path.write_text("import time\nimport random\n"
                        "t = time.time()\nr = random.Random()\n")
        return path

    def test_json_output_is_machine_readable(self, dirty, capsys):
        assert main([str(dirty), "--json", "--no-baseline"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 2
        assert {f["rule"] for f in payload["findings"]} == {"SIM001",
                                                            "SIM002"}
        assert all(f["line"] > 0 for f in payload["findings"])

    def test_gha_annotations(self, dirty, capsys):
        assert main([str(dirty), "--gha", "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "::error file=" in out
        assert "title=SIM001" in out

    def test_rule_filter(self, dirty, capsys):
        assert main([str(dirty), "--rule", "SIM002",
                     "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "SIM002" in out and "SIM001" not in out

    def test_unknown_rule_filter_is_a_usage_error(self, dirty):
        with pytest.raises(SystemExit) as exc:
            main([str(dirty), "--rule", "SIM999"])
        assert exc.value.code == 2

    def test_exit_2_on_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        assert main([str(bad), "--no-baseline"]) == 2
        assert "SIM000" in capsys.readouterr().out

    def test_effects_dump_is_deterministic(self, capsys):
        target = str(SRC_REPRO / "cluster")
        assert main([target, "--effects"]) == 0
        first = capsys.readouterr().out
        assert main([target, "--effects"]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert any("ReplicationLink" in name for name in payload)


class TestBaseline:
    def test_load_rejects_unjustified_entries(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"entries": [
            {"rule": "SIM009", "path": "x.py", "justification": "short"}]}))
        with pytest.raises(BaselineError):
            load_baseline(str(path))

    def test_load_rejects_malformed_files(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("{\"entries\": 7}")
        with pytest.raises(BaselineError):
            load_baseline(str(path))

    def test_apply_subtracts_matches_and_reports_stale(self):
        findings = check_source(
            "import time\nt = time.time()\n", path="src/repro/x.py")
        entries = [
            {"rule": "SIM001", "path": "src/repro/x.py",
             "justification": "wall clock feeds the report header only"},
            {"rule": "SIM005", "path": "src/repro/gone.py",
             "justification": "this entry is stale and must be reported"},
        ]
        kept, suppressed, stale = apply_baseline(findings, entries)
        assert kept == [] and suppressed == 1
        assert [e["rule"] for e in stale] == ["SIM005"]

    def test_cli_baseline_suppresses_and_unbaselined_fails(self, tmp_path,
                                                           capsys):
        dirty = tmp_path / "mod.py"
        dirty.write_text("import time\nt = time.time()\n"
                         "import random\nr = random.Random()\n")
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"entries": [
            {"rule": "SIM001", "path": "mod.py",
             "justification": "wall clock feeds the report header only"}]}))
        rc = main([str(dirty), "--baseline", str(baseline)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "SIM002" in out and "SIM001" not in out

    def test_committed_baseline_entries_are_all_live_and_justified(self):
        entries = load_baseline(str(BASELINE))
        for entry in entries:
            assert len(entry["justification"].strip()) >= 20
        findings = check_paths([str(SRC_REPRO), str(REPO_ROOT / "tests"),
                                str(REPO_ROOT / "benchmarks")])
        _kept, suppressed, stale = apply_baseline(findings, entries)
        assert stale == [], "baseline entries that no longer fire"
        assert suppressed > 0


class TestSelfCheck:
    def test_src_repro_is_simcheck_clean_modulo_baseline(self):
        findings = check_paths([str(SRC_REPRO)])
        entries = load_baseline(str(BASELINE))
        kept, _suppressed, _stale = apply_baseline(findings, entries)
        assert kept == [], "\n".join(f.render() for f in kept)

    def test_tests_and_benchmarks_are_simcheck_clean(self):
        findings = check_paths([str(REPO_ROOT / "tests"),
                                str(REPO_ROOT / "benchmarks")])
        entries = load_baseline(str(BASELINE))
        kept, _suppressed, _stale = apply_baseline(findings, entries)
        assert kept == [], "\n".join(f.render() for f in kept)

    def test_cli_module_runs_clean_on_the_tree(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.tools.simcheck", str(SRC_REPRO)],
            capture_output=True, text=True,
            cwd=str(SRC_REPRO.parent.parent),
            env={"PYTHONPATH": str(SRC_REPRO.parent), "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 0, proc.stdout + proc.stderr

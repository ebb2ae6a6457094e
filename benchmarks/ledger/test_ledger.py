"""Self-test of the ledger at ``--smoke`` scale (1/20 of the operations).

Not in tier-1 ``testpaths``; run it explicitly:

    PYTHONPATH=src python3 -m pytest benchmarks/ledger -q
"""

import copy
import json
import os
import re
import subprocess
import sys

import pytest

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, LEDGER_DIR)

import catalogue  # noqa: E402
import compare  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(LEDGER_DIR, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=catalogue.REPO_ROOT, stdout=subprocess.PIPE, text=True, check=False)
    assert done.returncode == 0, done.stdout[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def smoke_results():
    return {name: _run(name, 0) for name in catalogue.WORKLOAD_NAMES}


def test_contract_file_is_well_formed():
    contract = catalogue.CONTRACT
    assert sorted(contract) == ["command", "end_to_end", "paths", "per_layer",
                                "run_seconds", "workloads"]
    names = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    names += catalogue.WORKLOAD_NAMES
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in contract["end_to_end"] + contract["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    assert catalogue.END_TO_END["setup_s"]["unit"] == "s"
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in contract["workloads"])


def test_every_end_to_end_metric_is_emitted_with_its_unit(smoke_results):
    for workload, result in smoke_results.items():
        assert result["correct"] and result["failed"] == 0, workload
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == list(catalogue.END_TO_END), workload
        for name, entry in result["metrics"].items():
            assert entry["unit"] == catalogue.END_TO_END[name]["unit"]
            assert isinstance(entry["value"], (int, float))


def test_every_per_layer_metric_is_emitted_with_its_unit():
    result = _run("cluster-repl", 1)
    assert result["correct"]
    assert list(result["metrics"]) == list(catalogue.PER_LAYER)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == catalogue.PER_LAYER[name]["unit"]
    shares = [entry["value"] for name, entry in result["metrics"].items()
              if name.endswith(".host_share")]
    assert abs(sum(shares) - 1.0) < 1e-9
    # The offered-rate sweep belongs to serve-mixed alone.
    assert all(result["metrics"][name]["value"] == 0 for name in catalogue.SWEEP_METRICS)
    trace = os.path.join(catalogue.REPO_ROOT, ".ledger_out", "cluster-repl-seed5.trace.json")
    with open(trace, encoding="utf-8") as handle:
        events = json.load(handle)["traceEvents"]
    assert {"open_sync", "preload", "timed", "quiesce", "read_back", "close_sync"} <= {
        event["name"] for event in events if event["cat"] == "driver"}
    assert any(event["cat"] == "request" for event in events)


def _ledger(smoke_results):
    return {"schema": "ledger-v1", "claim": None, "seed": 5, "workloads": {
        name: {"inputs_sha256": "same", "runs": [compare.run_entry(result)]}
        for name, result in smoke_results.items()}}


def test_a_result_compared_with_itself_is_unchanged(smoke_results):
    ledger = _ledger(smoke_results)
    table = compare.rows(ledger, ledger)
    # Every end-to-end metric plus the failed_ops row, per workload.
    assert len(table) == len(catalogue.WORKLOAD_NAMES) * (len(catalogue.END_TO_END) + 1)
    assert {row["verdict"] for row in table} == {"unchanged"}


def test_a_slower_result_is_flagged_regressed(smoke_results):
    base = _ledger(smoke_results)
    slower = copy.deepcopy(base)
    for entry in slower["workloads"].values():
        for run in entry["runs"]:
            run["host_ops_per_s"] *= 0.7
    verdicts = {(row["workload"], row["metric"]): row["verdict"]
                for row in compare.rows(base, slower)}
    for workload in catalogue.WORKLOAD_NAMES:
        assert verdicts[workload, "host_ops_per_s"] == "regressed"
        assert verdicts[workload, "sim_kops"] == "unchanged"


def test_more_failed_operations_are_flagged_regressed(smoke_results):
    base = _ledger(smoke_results)
    failing = copy.deepcopy(base)
    failing["workloads"]["serve-mixed"]["runs"][0]["failed"] += 1
    verdicts = {(row["workload"], row["metric"]): row["verdict"]
                for row in compare.rows(base, failing)}
    assert verdicts["serve-mixed", "failed_ops"] == "regressed"
    assert verdicts["cluster-repl", "failed_ops"] == "unchanged"
    fewer = [row for row in compare.rows(failing, base) if row["metric"] == "failed_ops"]
    assert {row["verdict"] for row in fewer} == {"unchanged"}


def test_a_doubled_p99_between_suite_files_is_flagged_regressed(smoke_results):
    base = _ledger(smoke_results)
    for entry in base["workloads"].values():
        entry["per_layer"] = {name: 1.0 for name in compare.TAIL_BOUNDS}
    slower = copy.deepcopy(base)
    slower["workloads"]["serve-mixed"]["per_layer"]["client.sim_p99_ms"] = 2.0
    verdicts = {(row["workload"], row["metric"]): row["verdict"]
                for row in compare.rows(base, slower)}
    assert verdicts["serve-mixed", "client.sim_p99_ms"] == "regressed"
    assert verdicts["serve-mixed", "client.sim_p999_ms"] == "unchanged"
    assert verdicts["cluster-repl", "client.sim_p99_ms"] == "unchanged"
    assert verdicts["serve-mixed", "sim_mean_ms"] == "unchanged"


def test_a_wide_spread_is_unresolved_not_unchanged():
    noisy = [100.0, 60.0, 140.0, 100.0, 90.0, 150.0]
    assert compare.verdict(noisy, noisy, "higher", 0.15) == "unresolved"
    assert compare.verdict([100.0] * 5, [120.0] * 5, "higher", 0.15) == "improved"
    assert compare.verdict([100.0] * 5, [120.0] * 5, "lower", 0.15) == "regressed"

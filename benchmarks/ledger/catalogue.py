"""Metric and workload names, read from the one place they are fixed.

``BENCHMARK.json`` at the repository root is the contract every later
performance PR is judged by; the runner, ``compare`` and the tests all
take names, units, directions and bounds from it so they cannot drift.
"""

import json
import os
import statistics

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))

with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    CONTRACT = json.load(_handle)

#: name -> {"unit", "better", "bound"}
END_TO_END = {m["name"]: m for m in CONTRACT["end_to_end"]}
#: name -> {"unit", "better"}
PER_LAYER = {m["name"]: m for m in CONTRACT["per_layer"]}
WORKLOAD_NAMES = [w["name"] for w in CONTRACT["workloads"]]
RUN_SECONDS = CONTRACT["run_seconds"]
#: The offered-rate sweep is ``serve-mixed``'s; the other workloads report these as 0.
SWEEP_WORKLOAD = "serve-mixed"
SWEEP_METRICS = [name for name in PER_LAYER if name.startswith(("svc.p99_ms.", "svc.slo_rate"))]


def clock(name):
    """``host`` for wall-clock, memory and profile numbers, ``sim`` for the rest."""
    host = (name.startswith(("host", "trace.")) or ".probe_" in name
            or name.endswith((".host_share", ".calls_per_op"))
            or name in ("setup_s", "sim.events_per_op", "sim.resumes_per_op"))
    return "host" if host else "sim"


def with_units(values, catalogue):
    """``{name: {"value", "unit"}}`` for exactly the catalogue's names."""
    missing = sorted(set(catalogue) - set(values))
    if missing:
        raise KeyError(f"metrics named in BENCHMARK.json but not measured: {missing}")
    return {name: {"value": values[name], "unit": catalogue[name]["unit"]}
            for name in catalogue}


def quartiles(values):
    """(q1, median, q3) as the contract takes them; one value has no spread."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3

"""``compare A.json B.json``: one row per (workload, end-to-end metric).

A is the base, B the change.  Each row gives both medians with their
quartiles, the ratio B/A, the bound from ``BENCHMARK.json`` and a verdict:

``regressed``   B's median is worse than A's by more than the bound
``unresolved``  not regressed, but a side's quartile spread exceeds the bound
                (or the two sides ran different inputs)
``improved``    B's median is better by more than either side's quartile spread
``unchanged``   anything else

Two files written by ``suite`` also get a row for each latency percentile
of ``TAIL_BOUNDS``, and every workload a last row, ``failed_ops``, that is
``regressed`` when B's runs failed more operations than A's: a gain does
not count if the tail grows or more operations fail.

``--pairs N DIR_A DIR_B`` first makes the two result sets itself: N pairs
of runs per workload in two checkouts, alternating which side goes first.
"""

import argparse
import json
import subprocess
import sys

import catalogue

#: ISSUE 11's bounds for the percentiles that cannot be end-to-end metrics of
#: BENCHMARK.json (README.md, "Tail percentiles").  ``suite`` records them in its traced
#: run; with one seed they are exact, so any difference between two files is real.
TAIL_BOUNDS = {"client.sim_p50_ms": 0.02, "client.sim_p99_ms": 0.05,
               "client.sim_p999_ms": 0.05}


def verdict(base, change, better, bound):
    """Classify one metric from the two lists of per-run values."""
    q1a, med_a, q3a = catalogue.quartiles(base)
    q1b, med_b, q3b = catalogue.quartiles(change)
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    spread = max((q3a - q1a) / abs(med_a) if med_a else 0.0,
                 (q3b - q1b) / abs(med_b) if med_b else 0.0)
    if gain < -bound:
        return "regressed"
    if spread > bound:
        return "unresolved"
    if gain > 0 and abs(med_b - med_a) > max(q3a - q1a, q3b - q1b):
        return "improved"
    return "unchanged"


def _row(workload, name, unit, base, change, bound, outcome):
    q1a, med_a, q3a = catalogue.quartiles(base)
    q1b, med_b, q3b = catalogue.quartiles(change)
    return {"workload": workload, "metric": name, "unit": unit,
            "base": med_a, "base_q1": q1a, "base_q3": q3a, "n_base": len(base),
            "change": med_b, "change_q1": q1b, "change_q3": q3b, "n_change": len(change),
            "ratio": med_b / med_a if med_a else float("nan"),
            "bound": bound, "verdict": outcome}


def rows(ledger_a, ledger_b):
    """The comparison table as a list of dicts."""
    table = []
    for workload in catalogue.WORKLOAD_NAMES:
        side_a = ledger_a["workloads"].get(workload)
        side_b = ledger_b["workloads"].get(workload)
        if side_a is None or side_b is None:
            continue
        same_inputs = side_a["inputs_sha256"] == side_b["inputs_sha256"]
        metrics = [(name, metric["unit"], metric["better"], metric["bound"],
                    [run[name] for run in side_a["runs"]],
                    [run[name] for run in side_b["runs"]])
                   for name, metric in catalogue.END_TO_END.items()]
        if "per_layer" in side_a and "per_layer" in side_b:
            metrics += [(name, catalogue.PER_LAYER[name]["unit"], "lower", bound,
                         [side_a["per_layer"][name]], [side_b["per_layer"][name]])
                        for name, bound in TAIL_BOUNDS.items()]
        for name, unit, better, bound, base, change in metrics:
            outcome = verdict(base, change, better, bound)
            if not same_inputs and outcome != "regressed":
                outcome = "unresolved"
            table.append(_row(workload, name, unit, base, change, bound, outcome))
        base = [run["failed"] for run in side_a["runs"]]
        change = [run["failed"] for run in side_b["runs"]]
        table.append(_row(workload, "failed_ops", "count", base, change, 0.0,
                          "regressed" if sum(change) > sum(base) else "unchanged"))
    return table


def run_entry(result):
    """One contract result as a ``runs`` entry of a ledger file."""
    entry = {name: metric["value"] for name, metric in result["metrics"].items()}
    entry["attempted"], entry["failed"] = result["attempted"], result["failed"]
    return entry


def render(table):
    """Plain-text rendering of :func:`rows`."""
    lines = [f"{'workload':13s} {'metric':24s} {'base [q1,q3]':>34s} "
             f"{'change [q1,q3]':>34s} {'B/A':>8s} {'bound':>6s} verdict"]
    for row in table:
        base = f"{row['base']:.5g} [{row['base_q1']:.5g},{row['base_q3']:.5g}]"
        change = f"{row['change']:.5g} [{row['change_q1']:.5g},{row['change_q3']:.5g}]"
        lines.append(f"{row['workload']:13s} {row['metric']:24s} {base:>34s} {change:>34s} "
                     f"{row['ratio']:8.4f} {row['bound']:6.3f} {row['verdict']}")
    return "\n".join(lines)


def run_pairs(pairs, dir_a, dir_b, seed):
    """N alternating-order pairs of contract runs in two checkouts."""
    ledgers = [{"schema": "ledger-v1", "claim": None, "seed": seed, "workloads": {}}
               for _ in range(2)]
    for workload in catalogue.WORKLOAD_NAMES:
        for pair in range(pairs):
            order = (0, 1) if pair % 2 == 0 else (1, 0)
            for side in order:
                done = subprocess.run(
                    [sys.executable, "benchmarks/ledger/run.py", "--workload", workload,
                     "--seed", str(seed), "--no-check"],
                    cwd=(dir_a, dir_b)[side], text=True, stdout=subprocess.PIPE, check=True)
                result = json.loads(done.stdout.splitlines()[-1])
                sha = done.stdout.splitlines()[-2].rsplit(" ", 1)[1]
                entry = ledgers[side]["workloads"].setdefault(
                    workload, {"inputs_sha256": sha, "runs": []})
                entry["runs"].append(run_entry(result))
    return ledgers


def main(argv=None):
    """CLI: print the table; exit 1 on any ``regressed`` or ``unresolved`` row."""
    parser = argparse.ArgumentParser(prog="run.py compare", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", help="base result file (or checkout with --pairs)")
    parser.add_argument("b", help="change result file (or checkout with --pairs)")
    parser.add_argument("--pairs", type=int, default=0)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    if args.pairs:
        ledger_a, ledger_b = run_pairs(args.pairs, args.a, args.b, args.seed)
    else:
        with open(args.a, encoding="utf-8") as handle:
            ledger_a = json.load(handle)
        with open(args.b, encoding="utf-8") as handle:
            ledger_b = json.load(handle)
    table = rows(ledger_a, ledger_b)
    print(render(table))
    return 1 if any(r["verdict"] in ("regressed", "unresolved") for r in table) else 0

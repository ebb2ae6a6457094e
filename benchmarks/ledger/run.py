"""The perf ledger: one command, five workloads, both clocks.

    python3 benchmarks/ledger/run.py --workload fill-bolt --seed 42 --seconds 10 --trace 0
    python3 benchmarks/ledger/run.py suite --out A.json
    python3 benchmarks/ledger/run.py compare A.json B.json

A run repeats *rounds* of one workload, each in a fresh child process
(``onepass.py``), one at a time, until the timed sections add up to
``--seconds``.  Host-clock metrics are medians over the rounds; sim-clock
metrics must be bit-identical across rounds or the run fails.  The last
line of stdout is the result as one JSON object.  See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import catalogue
import compare

ONEPASS = os.path.join(catalogue.LEDGER_DIR, "onepass.py")
HOSTSPEED = os.path.join(catalogue.LEDGER_DIR, "hostspeed.py")
OUT_DIR = os.path.join(catalogue.REPO_ROOT, ".ledger_out")
MIN_ROUNDS = 3
MAX_ROUNDS = 12
#: No round starts after this much wall time, so a run ends well inside 180 s.
WALL_CAP_S = 75.0
#: Rounds after the first read back every 16th key; the first reads all.
LATER_CHECK_EVERY = 16
#: What ``hostspeed.py`` reports on the host the bounds were measured on, in a quiet spell.
CALIBRATION_REFERENCE_S = 0.27


class LedgerError(Exception):
    """A child failed or a determinism check did not hold."""


def onepass(*flags):
    """Run ``onepass.py`` to completion and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run([sys.executable, ONEPASS, *flags], env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False)
    if done.returncode != 0:
        raise LedgerError(f"onepass {' '.join(flags)} exited {done.returncode}:\n"
                          f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def calibrate():
    """Host seconds of ``hostspeed.py``'s loop, in a process of its own: a child's
    ``ru_maxrss`` starts at its parent's size, so this process must stay small."""
    done = subprocess.run([sys.executable, HOSTSPEED], text=True, stdout=subprocess.PIPE,
                          check=True)
    return float(done.stdout)


def run_rounds(flags, seconds, max_rounds):
    """Untraced rounds until their timed sections add up to ``seconds``.

    Returns the rounds and the calibrations taken before, between and after them.
    """
    started = time.perf_counter()  # simcheck: waive[SIM001] host-time harness
    rounds, timed_total, calibrations = [], 0.0, [calibrate()]
    while len(rounds) < max_rounds:
        every = 1 if not rounds else LATER_CHECK_EVERY
        rounds.append(onepass(*flags, "--check-every", str(every)))
        calibrations.append(calibrate())
        timed_total += rounds[-1]["timed_s"]
        wall = time.perf_counter() - started  # simcheck: waive[SIM001] host-time harness
        if len(rounds) >= MIN_ROUNDS and (timed_total + timed_total / len(rounds) > seconds
                                          or wall > WALL_CAP_S):
            break
    for later in rounds[1:]:
        for key in ("inputs_sha256", "end_to_end", "acked"):
            if later[key] != rounds[0][key]:
                raise LedgerError(f"{key} differs between rounds of one seed: "
                                  f"{rounds[0][key]} != {later[key]}")
    return rounds, calibrations


def end_to_end(rounds, calibrations):
    """Every end-to-end metric: the exact sim-clock values, and host-clock medians with
    the two times brought to the reference host speed (README.md, "Host speed")."""
    values = dict(rounds[0]["end_to_end"])
    ops_per_s = statistics.median(r["acked"] / r["timed_s"] for r in rounds)
    setup_s = statistics.median(r["setup_s"] for r in rounds)
    slowdown = statistics.median(calibrations) / CALIBRATION_REFERENCE_S
    print(f"raw host ops/s {ops_per_s:.6g}, raw setup s {setup_s:.6g}, host slowdown "
          f"{slowdown:.4f} (median of {len(calibrations)} calibrations / "
          f"{CALIBRATION_REFERENCE_S} s)")
    values["host_ops_per_s"] = ops_per_s * slowdown
    values["setup_s"] = setup_s / slowdown
    values["host_peak_rss_mb"] = statistics.median(r["rss_mb"] for r in rounds)
    return values


def per_layer(workload, flags, untraced, traced):
    """Every per-layer metric: the traced round, the probes and the rate sweep."""
    if traced["end_to_end"] != untraced["end_to_end"]:
        raise LedgerError("tracing changed the simulation")
    values = traced["per_layer"]
    values["trace.overhead_ratio"] = traced["timed_s"] / untraced["timed_s"]
    probes = onepass("--task", "probes")
    if probes["fingerprint_drift"]:
        raise LedgerError(f"probe fingerprints differ from BENCH_perf.json: "
                          f"{probes['fingerprint_drift']}")
    values.update(probes["per_layer"])
    if workload == catalogue.SWEEP_WORKLOAD:
        values.update(onepass("--task", "sweep", *flags)["per_layer"])
    else:
        values.update(dict.fromkeys(catalogue.SWEEP_METRICS, 0.0))
    return values


def run(args):
    """One contract run: measure, check, print; returns (result, inputs_sha256)."""
    flags = ["--workload", args.workload, "--seed", str(args.seed)]
    flags += ["--smoke"] if args.smoke else []
    # A smoke run is one round; the traced pass needs one untraced round to compare against.
    rounds, calibrations = run_rounds(
        flags, args.seconds, max_rounds=1 if args.smoke or args.trace else MAX_ROUNDS)
    checked = list(rounds)
    if args.trace:
        trace_out = os.path.join(args.out, f"{args.workload}-seed{args.seed}.trace.json")
        traced = onepass(*flags, "--trace-out", trace_out,
                         "--check-every", str(LATER_CHECK_EVERY))
        checked.append(traced)
        values = per_layer(args.workload, flags, rounds[0], traced)
        metrics = catalogue.with_units(values, catalogue.PER_LAYER)
    else:
        metrics = catalogue.with_units(end_to_end(rounds, calibrations), catalogue.END_TO_END)
    attempted = sum(r["submitted"] + r["checked"] for r in checked)
    failed = sum(r["failed"] for r in checked)
    correct = failed == 0
    if args.check:
        correct = correct and onepass("--task", "crash")["ok"]
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    for name, entry in metrics.items():
        print(f"{name:40s} {entry['value']:>16.6g} {entry['unit']:12s} {catalogue.clock(name)}")
    print(f"workload {args.workload} seed {args.seed} rounds {len(rounds)} "
          f"inputs_sha256 {rounds[0]['inputs_sha256']}")
    print(json.dumps(result))
    return result, rounds[0]["inputs_sha256"]


def _run_parser():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=catalogue.WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=catalogue.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="1/20 of the operations, one round")
    parser.add_argument("--no-check", dest="check", action="store_false",
                        help="skip the crash-sweep gate (read-back always runs)")
    parser.add_argument("--out", default=OUT_DIR,
                        help="directory for trace files (default .ledger_out/)")
    return parser


def suite(argv):
    """Run every workload ``--repeats`` times plus one traced run; write one file."""
    parser = argparse.ArgumentParser(prog="run.py suite")
    parser.add_argument("--out", required=True, help="result file for `compare`")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=catalogue.RUN_SECONDS)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    ledger = {"schema": "ledger-v1", "claim": None, "seed": args.seed, "workloads": {}}
    ok = True
    for workload in catalogue.WORKLOAD_NAMES:
        flags = ["--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds)] + (["--smoke"] if args.smoke else [])
        passes = []
        for extra in [[]] + [["--no-check"]] * (args.repeats - 1) + [["--trace", "1"]]:
            result, sha = run(_run_parser().parse_args(flags + extra))
            ok = ok and result["correct"]
            passes.append(compare.run_entry(result))
        ledger["workloads"][workload] = {"inputs_sha256": sha, "runs": passes[:-1],
                                         "per_layer": passes[-1]}
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=1)
    return 0 if ok else 1


def main(argv=None):
    """Dispatch ``suite`` / ``compare``; anything else is one contract run."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv[:1] == ["suite"]:
            return suite(argv[1:])
        if argv[:1] == ["compare"]:
            return compare.main(argv[1:])
        result, _sha = run(_run_parser().parse_args(argv))
        return 0 if result["correct"] else 1
    except LedgerError as error:
        print(f"ledger: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

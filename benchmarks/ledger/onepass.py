"""One pass of one workload in a fresh process; prints one JSON line.

``run.py`` starts this file once per round so that set-up time and peak
memory are those of a clean interpreter.  ``--task`` selects the pass:
``round`` (set-up, timed section, read-back), ``probes`` (the perfbench
microbenchmarks as a library), ``sweep`` (the svc offered-rate sweep) or
``crash`` (the smoke crash-consistency sweep).
"""

import argparse
import dataclasses
import json
import os
import resource
import sys
import time

STARTED = time.perf_counter()  # simcheck: waive[SIM001] host-time harness

import catalogue  # noqa: E402

sys.path.insert(0, os.path.join(catalogue.REPO_ROOT, "src"))

from repro.bench.metrics import percentile  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

PROBES = {"kernel": "sim.probe_kernel_s", "codec": "lsm.probe_codec_s",
          "skiplist": "lsm.probe_skiplist_s", "histogram": "bench.probe_histogram_s",
          "objstore_cache": "objstore.probe_cache_s"}
#: Offered rates of the sweep; the last is above the knee, so ``slo_rate_kops`` can rise.
SWEEP_RATES = (10_000, 20_000, 40_000, 80_000)
SWEEP_REQUESTS = 20_000
SLO_P99_MS = 2.0


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def end_to_end(spec, timed, life, life_ops, user_bytes, live_bytes):
    """The sim-clock end-to-end metrics (host-clock ones are the parent's)."""
    lat = timed.latencies
    work = life["engine.compactions"] + life["engine.memtable_flushes"]
    wal_barriers = life["engine.group_commits"] if spec.wal_sync else 0
    return {
        "sim_kops": len(lat) / timed.elapsed / 1e3,
        "sim_mean_ms": sum(lat) / len(lat) * 1e3,
        "fsyncs_per_kop": life["fs.num_barrier_calls"] / life_ops * 1e3,
        "barriers_per_compaction": (life["fs.num_barrier_calls"] - wal_barriers) / work,
        "write_amp": life["device.bytes_written"] / user_bytes,
        "dev_read_kb_per_op": life["device.bytes_read"] / 1024 / life_ops,
        "space_amp": life["fs.allocated"] / live_bytes,
    }


def per_layer(timed, win, final, writes, machines):
    """Counter-derived layer metrics over the timed window ``win``."""
    ops = max(1, len(timed.latencies))
    elapsed = win["clock.virtual_seconds"]
    work = win["engine.compactions"] + win["engine.memtable_flushes"]
    lat = timed.latencies
    return {
        "client.sim_p50_ms": percentile(lat, 50.0) * 1e3,
        "client.sim_p99_ms": percentile(lat, 99.0) * 1e3,
        "client.sim_p999_ms": percentile(lat, 99.9) * 1e3,
        "client.latency_samples": len(lat),
        "storage.dev_writes_per_op": win["device.num_writes"] / ops,
        "storage.dev_write_kb_per_op": win["device.bytes_written"] / 1024 / ops,
        "storage.dev_reads_per_op": win["device.num_reads"] / ops,
        "storage.barriers_per_kop": win["device.num_barriers"] / ops * 1e3,
        "storage.barrier_time_share": _ratio(win["device.barrier_time"], elapsed * machines),
        "storage.busy_share": _ratio(win["device.busy_time"], elapsed * machines),
        "storage.page_cache_hit_ratio": _ratio(win["pc.hits"],
                                               win["pc.hits"] + win["pc.misses"]),
        "storage.page_cache_evictions": win["pc.evictions"],
        "storage.metadata_ops_per_compaction": _ratio(win["device.num_metadata_ops"], work),
        "storage.fs_creates_per_compaction": _ratio(win["fs.num_creates"], work),
        "storage.fs_unlinks_per_compaction": _ratio(win["fs.num_unlinks"], work),
        "storage.fs_opens_per_kop": win["fs.num_opens"] / ops * 1e3,
        "storage.hole_punches": win["fs.num_hole_punches"],
        "storage.punched_mb": win["fs.bytes_punched"] / 1e6,
        "storage.eio_retries": win["device.num_eio_retries"],
        "lsm.group_size_mean": _ratio(win["engine.grouped_writes"], win["engine.group_commits"]),
        "lsm.barriers_saved_per_kop": win["engine.barriers_saved"] / ops * 1e3,
        "lsm.write_wait_share": _ratio(win["engine.write_wait_time"], sum(lat)),
        "lsm.stall_s": win["engine.stall_time"],
        "lsm.stall_events": win["engine.stall_events"],
        "lsm.slowdown_s": win["engine.slowdown_time"],
        "lsm.flushes": win["engine.memtable_flushes"],
        "lsm.compactions": win["engine.compactions"],
        "lsm.seek_compactions": win["engine.seek_compactions"],
        "lsm.trivial_moves": win["engine.trivial_moves"],
        "lsm.compaction_mb_read": win["engine.compaction_bytes_read"] / 1e6,
        "lsm.compaction_mb_written": win["engine.compaction_bytes_written"] / 1e6,
        "lsm.compaction_time_share": _ratio(win["engine.compaction_time"], elapsed * machines),
        "lsm.tables_probed_per_get": _ratio(win["engine.tables_probed"], win["engine.gets"]),
        "lsm.table_cache_hit_ratio": _ratio(win["tc.hits"], win["tc.hits"] + win["tc.misses"]),
        "lsm.block_cache_hit_ratio": _ratio(win["bc.hits"], win["bc.hits"] + win["bc.misses"]),
        "core.settled_promotions": win["engine.settled_promotions"],
        "core.group_victims_per_compaction": _ratio(win["engine.group_victims"],
                                                    win["engine.compactions"]),
        "core.fd_cache_hit_ratio": _ratio(win.get("fd.hits", 0),
                                          win.get("fd.hits", 0) + win.get("fd.misses", 0)),
        "svc.queue_time_share": _ratio(win.get("svc.queue_time", 0.0), sum(lat)),
        "svc.peak_queue_depth": final.get("svc.peak_queue_depth", 0),
        "svc.rejected_share": _ratio(win.get("svc.rejected", 0), win.get("svc.submitted", 0)),
        "svc.shed_writes": win.get("svc.shed_writes", 0),
        "svc.gen_lateness_p99_ms": percentile(timed.lateness, 99.0) * 1e3,
        "cluster.records_applied_per_write": _ratio(win.get("replication.records_applied", 0),
                                                    writes),
        "cluster.max_lag_ms": final.get("replication.max_lag", 0.0) * 1e3,
        "cluster.backlog_end": win.get("replication.backlog", 0),
        "cluster.failovers": win.get("replication.failovers", 0),
        "cluster.fenced_writes": win.get("replication.fenced_writes", 0),
    }


def run_round(args):
    """Set-up, timed section, quiesce, read-back; returns the result dict."""
    spec = workloads.SPECS[args.workload]
    traced = args.trace_out is not None
    tracer = spans.Spans(profile=traced)
    inputs = workloads.build_inputs(spec, args.seed, args.smoke)
    with tracer.span("open_sync"):
        rig = workloads.build_rig(spec, args.smoke)
    tracer.env = rig.env
    with tracer.span("preload"):
        workloads.preload(rig, inputs)
    start = workloads.counters(rig)
    observed = tracer.observe(rig.db) if traced and not spec.rate else None
    timed_started = time.perf_counter()  # simcheck: waive[SIM001] host-time harness
    with tracer.span("timed", profiled=True):
        timed = workloads.run_timed(rig, spec, inputs, db=observed,
                                    on_request=tracer.on_request if traced else None)
    timed_s = time.perf_counter() - timed_started  # simcheck: waive[SIM001] host-time harness
    end = workloads.counters(rig)
    with tracer.span("quiesce"):
        workloads.drive(rig.env, workloads.quiesce(rig))
    final = workloads.counters(rig)
    with tracer.span("read_back"):
        checked, bad = workloads.read_back(rig, inputs, spec, args.check_every)
    with tracer.span("close_sync"):
        workloads.close(rig)
    win = {key: end[key] - start.get(key, 0) for key in end}
    acked = len(timed.latencies)
    life_ops = len(inputs.preload) + acked
    user_bytes = (len(inputs.preload) + inputs.writes) * workloads.RECORD_BYTES
    live_keys = len(inputs.preload) + (len(inputs.timed) if spec.mix == "load_a" else 0)
    result = {
        "inputs_sha256": inputs.sha256,
        "setup_s": timed_started - STARTED,
        "timed_s": timed_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "acked": acked,
        "submitted": timed.submitted,
        "failed": timed.failed + bad,
        "checked": checked,
        "end_to_end": end_to_end(spec, timed, final, life_ops, user_bytes,
                                 live_keys * workloads.RECORD_BYTES),
        "per_layer": per_layer(timed, win, final, inputs.writes, len(rig.nodes)),
    }
    if traced:
        result["per_layer"].update(tracer.attribution(acked))
        tracer.write(args.trace_out)
    return result


def run_probes(_args):
    """The perfbench microbenchmarks as a library, best of 3, fingerprints checked."""
    from repro.tools import perfbench
    with open(os.path.join(catalogue.REPO_ROOT, "BENCH_perf.json"),
              encoding="utf-8") as handle:
        committed = json.load(handle)["benchmarks"]
    out, drifted = {}, []
    for name, metric in PROBES.items():
        best = None
        for _ in range(3):
            seconds, fingerprint = perfbench.BENCHMARKS[name]()
            best = seconds if best is None else min(best, seconds)
            if fingerprint != committed[name]["fingerprint"]:
                drifted.append(name)
        out[metric] = best
    out["host.calibration_s"] = perfbench.calibrate()
    return {"per_layer": out, "fingerprint_drift": sorted(set(drifted))}


def run_sweep(args):
    """serve-mixed's server at four offered rates; the highest that meets the SLO."""
    base = workloads.SPECS["serve-mixed"]
    out, slo_rate = {}, 0.0
    for total in SWEEP_RATES:
        spec = dataclasses.replace(base, ops=SWEEP_REQUESTS, rate=total / base.clients)
        inputs = workloads.build_inputs(spec, args.seed, args.smoke)
        rig = workloads.build_rig(spec, args.smoke)
        workloads.preload(rig, inputs)
        timed = workloads.run_timed(rig, spec, inputs)
        drained = rig.server.stats.peak_queue_depth < workloads.QUEUE_DEPTH
        workloads.close(rig)
        p99_ms = percentile(timed.latencies, 99.0) * 1e3
        out[f"svc.p99_ms.at_{total // 1000}k"] = p99_ms
        failed_share = timed.failed / timed.submitted
        if p99_ms <= SLO_P99_MS and failed_share <= 0.001 and drained:
            slo_rate = max(slo_rate, total / 1e3)
    out["svc.slo_rate_kops"] = slo_rate
    return {"per_layer": out}


def run_crash(_args):
    """The durability gate: the smoke crash sweep on BoLT and stock LevelDB."""
    from repro.bench import run_crash_sweep
    return {"ok": run_crash_sweep(engines=("bolt", "leveldb"), smoke=True).ok}


TASKS = {"round": run_round, "probes": run_probes, "sweep": run_sweep, "crash": run_crash}


def main(argv=None):
    """Run one task and print its result as the last line of stdout."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--task", choices=sorted(TASKS), default="round")
    parser.add_argument("--workload", choices=sorted(workloads.SPECS), default="fill-bolt")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-out", default=None,
                        help="run the traced pass and write its spans to this file")
    parser.add_argument("--check-every", type=int, default=1)
    args = parser.parse_args(argv)
    print(json.dumps(TASKS[args.task](args)))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Barrier anatomy: watch where fsync() calls come from, engine by engine.

This example reproduces the paper's core argument interactively: it
loads the same workload into stock LevelDB and into BoLT with each
feature enabled in turn (+LS, +GC, +STL, +FC — the Fig 12 ablation) and
prints the barrier counts, bytes written, and modelled time.

Run:  python examples/barrier_anatomy.py
"""

import random

from repro import LSMEngine, bolt_ablation_options
from repro.bench import BenchConfig, new_stack
from repro.engines import ABLATION_STAGES

RECORDS = 10_000
SCALE = 256


def load(options, label):
    config = BenchConfig(scale=SCALE, record_count=RECORDS, value_size=256)
    stack = new_stack(config)
    db = LSMEngine.open_sync(stack.env, stack.fs, options, "db")
    rng = random.Random(1234)

    def writer():
        for i in range(RECORDS):
            key = b"user%012d" % rng.randrange(RECORDS)
            yield from db.put(key, b"x" * 256)
        yield from db.flush_all()

    stack.env.run_until(stack.env.process(writer()))
    stats = db.stats
    print(f"{label:8s} | fsync {stack.fs.stats.num_barrier_calls:5d} "
          f"| MB written {stack.device.stats.bytes_written / 1e6:6.1f} "
          f"| compactions {stats.compactions:4d} "
          f"| settled {stats.settled_promotions:4d} "
          f"| hole punches {stack.fs.stats.num_hole_punches:4d} "
          f"| modelled time {stack.env.now * 1e3:7.1f} ms")
    db.close_sync()


def main() -> None:
    print(f"Loading {RECORDS} records into each configuration "
          f"(scale 1/{SCALE} of the paper's setup)\n")
    print("stage    | barriers    | write volume | background work")
    print("-" * 76)
    for stage in ABLATION_STAGES:
        options = bolt_ablation_options(stage, SCALE)
        load(options, stage)
    print("\nReading Fig 12 left to right: the compaction file (+LS) cuts")
    print("barriers per compaction to two; group compaction (+GC) cuts the")
    print("number of compactions; settled compaction (+STL) skips rewrites")
    print("entirely (watch 'settled' and the byte column); the descriptor")
    print("cache (+FC) removes filesystem metadata traffic.")


if __name__ == "__main__":
    main()

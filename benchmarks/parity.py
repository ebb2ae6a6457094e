"""Model fingerprint for `make parity`: figure rows and YCSB phase results
that a change claiming "nothing moved" must leave byte-equal.

    PYTHONPATH=<tree>/src python benchmarks/parity.py > out.txt

Deterministic (fixed sizes and seed; environment overrides ignored), so
two trees are compared with ``cmp``.  ~20 s at 3 000 records (one case at
10 000).
"""

from repro.bench import BenchConfig, run_suite
from repro.bench.experiments import fig11_group_compaction_sweep, fig12_ablation
from repro.bench.harness import EXTRA_SYSTEMS, SYSTEMS
from repro import bolt_ablation_options

CONFIG = BenchConfig(scale=256, record_count=3000, ops_per_phase=1000, seed=42)


def print_suite(tag, results):
    """One line per phase: every result field, unrounded."""
    for phase, result in results.items():
        fields = {k: v for k, v in vars(result).items() if k != "latencies"}
        tail = [result.latencies.percentile(p) for p in (50.0, 99.0, 99.9)]
        print(tag, phase, fields, tail, result.latencies.mean())


for row in fig11_group_compaction_sweep(CONFIG):
    print("fig11", row)
for base in ("leveldb", "hyperleveldb"):
    for row in fig12_ablation(CONFIG, base=base):
        print("fig12", base, row)
for key, system in {**SYSTEMS, **EXTRA_SYSTEMS}.items():
    print_suite(f"suite {key}", run_suite(system, CONFIG, ("load_a", "a", "e")))
# HyperBoLT's +GC stage picks victims round-robin, not by least overlap.
# At 3 000 records the two orders never part; at 10 000 they do, so a
# change to that stage's order shows here (~2 s).
print_suite("hyperbolt+GC", run_suite(
    SYSTEMS["hyperbolt"], CONFIG.copy(record_count=10000), ("load_a",),
    options=bolt_ablation_options("+GC", CONFIG.scale, base="hyperleveldb")))

"""Model fingerprint for `make parity`: figure rows and YCSB phase results
that a change claiming "nothing moved" must leave byte-equal.

    PYTHONPATH=<tree>/src python benchmarks/parity.py > out.txt

Deterministic (fixed sizes and seed; environment overrides ignored), so
two trees are compared with ``cmp``.  ~20 s at 3 000 records.
"""

from repro.bench import BenchConfig, run_suite
from repro.bench.experiments import fig11_group_compaction_sweep, fig12_ablation
from repro.bench.harness import EXTRA_SYSTEMS, SYSTEMS

CONFIG = BenchConfig(scale=256, record_count=3000, ops_per_phase=1000, seed=42)

for row in fig11_group_compaction_sweep(CONFIG):
    print("fig11", row)
for base in ("leveldb", "hyperleveldb"):
    for row in fig12_ablation(CONFIG, base=base):
        print("fig12", base, row)
for key, system in {**SYSTEMS, **EXTRA_SYSTEMS}.items():
    for phase, result in run_suite(system, CONFIG, ("load_a", "a", "e")).items():
        fields = {k: v for k, v in vars(result).items() if k != "latencies"}
        tail = [result.latencies.percentile(p) for p in (50.0, 99.0, 99.9)]
        print("suite", key, phase, fields, tail, result.latencies.mean())

"""The chaos harnesses have teeth: a broken contract turns each one FAIL.

Four test-side mutants — monkeypatches, no branch in library code — each
break one promise the harnesses exist to check.  Every run a mutant is
named against must end FAIL at the size CI runs it (``make smoke``) and
dbbench's default seed 301:

* A — ``MemTable.add`` drops every 7th put: acked writes are lost.
* B — failover's WAL-tail read finds no records: writes acked on the
  killed primary but not yet shipped vanish with it.
* C — replication never notices a stale epoch: a fenced ex-primary's
  late writes are not rejected (only the nemesis's ``[no-fencing]``
  evidence check sees this; the history stays clean).
* D — a write refused with ``ReadOnlyError`` is applied to the MemTable
  first: a refused value becomes readable.

Run as a script, the module prints the whole kill table — every mutant
against every run, with the violation count and the clauses that fired
— as docs/FAULT_MODEL.md shows it::

    PYTHONPATH=src python tests/test_harness_teeth.py
"""

import itertools
from collections import Counter

import pytest

from repro.cluster import ReplicationLink, failover
from repro.health import ReadOnlyError
from repro.lsm import VALUE_TYPE_VALUE, LSMEngine, MemTable
from repro.tools.dbbench import _chaos, _cluster_chaos, _nemesis, _parser, run_benchmarks

#: The harness runs as ``make smoke`` spells them, at seed 301.
CI_RUNS = {
    "chaos": ["--chaos", "--num", "300"],
    "cluster-chaos": ["--cluster", "--chaos", "--num", "400"],
    "nemesis": ["--cluster", "--nemesis"],
}


def drop_every_7th_put(monkeypatch):
    original = MemTable.add
    puts = itertools.count(1)

    def add(self, sequence, value_type, user_key, value):
        if value_type == VALUE_TYPE_VALUE and next(puts) % 7 == 0:
            return
        original(self, sequence, value_type, user_key, value)

    monkeypatch.setattr(MemTable, "add", add)


def empty_wal_tail(monkeypatch):
    def read_wal_tail(fs, dbname):
        return []
        yield  # a coroutine, like the real one

    monkeypatch.setattr(failover, "read_wal_tail", read_wal_tail)


def never_stale_epoch(monkeypatch):
    monkeypatch.setattr(ReplicationLink, "_stale_epoch", lambda self: False)


def refused_write_applied(monkeypatch):
    original = LSMEngine.write

    def write(self, batch):
        try:
            return (yield from original(self, batch))
        except ReadOnlyError:
            for value_type, key, value in batch.ops:
                self.versions.last_sequence += 1
                self._memtable.add(self.versions.last_sequence, value_type,
                                   key, value)
            raise

    monkeypatch.setattr(LSMEngine, "write", write)


def run_harness(name):
    """``(passed, lines)`` of one CI harness run."""
    lines = []
    try:
        run_benchmarks(_parser().parse_args(CI_RUNS[name] + ["--seed", "301"]),
                       out=lines.append)
    except SystemExit as exit_info:
        assert exit_info.code == 1
        return False, lines
    return True, lines


@pytest.mark.parametrize("mutant,run", [
    (drop_every_7th_put, "chaos"),
    (drop_every_7th_put, "cluster-chaos"),
    (drop_every_7th_put, "nemesis"),
    (empty_wal_tail, "cluster-chaos"),
    (empty_wal_tail, "nemesis"),
    (never_stale_epoch, "nemesis"),
    (refused_write_applied, "chaos"),
], ids=lambda value: getattr(value, "__name__", value))
def test_mutant_fails_the_run(mutant, run, monkeypatch):
    mutant(monkeypatch)
    passed, lines = run_harness(run)
    assert not passed, "\n".join(lines)
    assert lines[-1].endswith(": FAIL")


def test_never_stale_epoch_is_seen_by_the_fencing_evidence(monkeypatch):
    never_stale_epoch(monkeypatch)
    _passed, lines = run_harness("nemesis")
    assert any("[no-fencing]" in line for line in lines), "\n".join(lines)


@pytest.mark.parametrize("run", sorted(CI_RUNS))
def test_unmutated_runs_pass(run):
    passed, lines = run_harness(run)
    assert passed, "\n".join(lines)


MUTANTS = (drop_every_7th_put, empty_wal_tail, never_stale_epoch,
           refused_write_applied)
HARNESSES = {"chaos": _chaos, "cluster-chaos": _cluster_chaos,
             "nemesis": _nemesis}


def violations(name):
    """Every violation one CI harness run reports, unabridged."""
    config, harness = HARNESSES[name](
        _parser().parse_args(CI_RUNS[name] + ["--seed", "301"]))
    result = harness(config)
    return [violation for run in getattr(result, "results", [result])
            for violation in run.violations]


def clause(violation):
    """``[tag]`` of an evidence check, or the history clause's label."""
    if violation.startswith("["):
        return violation[:violation.index("]") + 1]
    return violation[:violation.index(":")]


def kill_table():
    """The mutants x runs table of docs/FAULT_MODEL.md, in markdown."""
    lines = ["| mutant | " + " | ".join(CI_RUNS) + " |",
             "|---" * (len(CI_RUNS) + 1) + "|"]
    for mutant in MUTANTS:
        cells = []
        for name in CI_RUNS:
            with pytest.MonkeyPatch.context() as patch:
                mutant(patch)
                found = violations(name)
            fired = Counter(clause(violation) for violation in found)
            cells.append(f"**{len(found)}**: " + ", ".join(
                f"`{label}` ×{count}" for label, count in sorted(fired.items()))
                if found else "0 — survives")
        lines.append(f"| {mutant.__name__} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


if __name__ == "__main__":
    print(kill_table())

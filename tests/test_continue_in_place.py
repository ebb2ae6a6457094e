"""Continuing in place changes nothing but the kernel's entry count.

``Resource.acquire_in_place`` and ``Environment.sleep_in_place`` let a
process carry on without yielding when the entry it would yield is the
running loop's very next dispatch.  These differential tests run three
whole stacks twice — in place on, and with ``continues_in_place``
monkeypatched to False — and require bit-equal latencies, every stats
counter and every file's bytes, plus fewer kernel entries with it on (so
an edit that silently disables the path fails here too).
"""

import random
from dataclasses import asdict

import pytest

from repro.bench import SYSTEMS, BenchConfig, new_stack, open_engine, unified_snapshot
from repro.cluster import ClusterConfig, ClusterStore
from repro.sim import Environment
from repro.svc import Request, Server
from repro.ycsb import WORKLOADS, InsertCounter, WorkloadRunner, build_key, run_operations

CONFIG = BenchConfig(scale=256, record_count=300, value_size=100)
OPTIONS = SYSTEMS["bolt"].options(CONFIG.scale).copy(wal_sync=True, memtable_size=16 << 10)


def _open_loop(env, server, clients, requests, rate, seed):
    """``clients`` Poisson clients of YCSB A; every outcome, in completion order."""
    counter = InsertCounter(CONFIG.record_count)
    outcomes = []

    def client(index):
        runner = WorkloadRunner(WORKLOADS["a"], CONFIG.record_count,
                                value_size=CONFIG.value_size,
                                seed=seed + index, insert_counter=counter)
        arrivals = random.Random(seed * 31 + index)
        due, pending = env.now, []
        for kind, key, payload in runner.operations(requests):
            due += arrivals.expovariate(rate)
            if env.now < due:
                yield env.timeout(due - env.now)
            pending.append((yield from server.submit(Request(
                kind=kind, key=key, payload=payload, client_id=index,
                intended_start=due))))
        for outcome in (yield env.all_of(pending)):
            outcomes.append((index, outcome.status, outcome.started,
                             outcome.finished, outcome.latency))

    env.run_until(env.all_of([env.process(client(i)) for i in range(clients)]))
    return outcomes


def _machines(nodes):
    """Every counter and every file's bytes of each (fs, engine) machine."""
    return [{"fs": asdict(fs.stats), "device": asdict(fs.device.stats),
             "engine": asdict(db.stats),
             "files": {name: bytes(fs._files[name].data) for name in fs.listdir()}}
            for fs, db in nodes]


def served_engine():
    stack = new_stack(CONFIG)
    db = open_engine(stack, SYSTEMS["bolt"], CONFIG, OPTIONS)
    for i in range(CONFIG.record_count):
        db.put_sync(build_key(i), bytes(CONFIG.value_size))
    server = Server(stack.env, db, num_workers=4)
    seq = stack.env._seq
    latencies = _open_loop(stack.env, server, 2, 200, 20_000.0, seed=5)
    seq = stack.env._seq - seq
    server.close_sync()
    return seq, {"latencies": latencies,
                 "snapshot": unified_snapshot(stack, db=db, server=server),
                 "machines": _machines([(stack.fs, db)])}


def served_cluster():
    env = Environment()
    cluster = ClusterStore(env, SYSTEMS["bolt"].engine_cls, OPTIONS, ClusterConfig(
        num_shards=2, replicas_per_shard=1, scale=CONFIG.scale))
    for i in range(CONFIG.record_count):
        cluster.put_sync(build_key(i), bytes(CONFIG.value_size))
    server = Server(env, cluster, num_workers=4)
    seq = env._seq
    latencies = _open_loop(env, server, 2, 200, 10_000.0, seed=9)
    seq = env._seq - seq
    server.close_sync()
    return seq, {"latencies": latencies,
                 "snapshot": unified_snapshot(None, db=cluster, server=server),
                 "machines": _machines([(n.fs, n.db) for n in cluster.nodes()])}


def closed_loop_fill():
    stack = new_stack(CONFIG)
    db = open_engine(stack, SYSTEMS["bolt"], CONFIG, OPTIONS.copy(wal_sync=False))
    runner = WorkloadRunner(WORKLOADS["load_a"], 0, value_size=CONFIG.value_size,
                            seed=3, insert_counter=InsertCounter(0))
    ops = list(runner.operations(2_000))
    seq = stack.env._seq
    recorder = stack.env.run_until(stack.env.process(
        run_operations(stack.env, db, ops, num_clients=4)))
    stack.env.run_until(stack.env.process(db.flush_all()))
    seq = stack.env._seq - seq
    return seq, {"latencies": {kind: recorder.samples(kind)
                               for kind in ("insert", "insert.wait")},
                 "snapshot": unified_snapshot(stack, db=db),
                 "machines": _machines([(stack.fs, db)])}


@pytest.mark.parametrize("stack", [served_engine, served_cluster, closed_loop_fill])
def test_in_place_changes_nothing_but_the_entry_count(stack, monkeypatch):
    seq_on, on = stack()
    with monkeypatch.context() as patch:
        patch.setattr(Environment, "continues_in_place", lambda self, at: False)
        seq_off, off = stack()
    assert on["latencies"] and on["machines"][0]["files"]
    assert on["latencies"] == off["latencies"]
    assert on["snapshot"] == off["snapshot"]
    assert on["machines"] == off["machines"]
    assert seq_on < seq_off

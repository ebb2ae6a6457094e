"""Differential testing: every engine must agree on every history.

A reproduction that compares seven storage engines lives or dies on
their *semantic equivalence*: whatever their compaction policies do,
identical operation histories must yield identical read results.  These
tests run randomized histories through all engines (and a dict model)
and require bit-exact agreement — on point reads, scans, snapshot reads,
and after crash+recovery of the quiesced prefix.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.engines import (
    HyperLevelDBEngine,
    PebblesDBEngine,
    RocksDBEngine,
    bolt_options,
    hyperbolt_options,
    hyperleveldb_options,
    leveldb_options,
    pebblesdb_options,
    rocksbolt_options,
    rocksdb_options,
)
from repro.lsm import LSMEngine
from repro.sim import Environment
from repro.storage import BlockDevice, PageCache, SimFS

SCALE = 1024

ENGINES = [
    (LSMEngine, leveldb_options),
    (HyperLevelDBEngine, hyperleveldb_options),
    (RocksDBEngine, rocksdb_options),
    (PebblesDBEngine, pebblesdb_options),
    (LSMEngine, bolt_options),
    (HyperLevelDBEngine, hyperbolt_options),
    (RocksDBEngine, rocksbolt_options),
]


def generate_history(seed, n=1200, keyspace=400):
    rng = random.Random(seed)
    ops = []
    for i in range(n):
        roll = rng.random()
        key = b"user%08d" % rng.randrange(keyspace)
        if roll < 0.75:
            ops.append(("put", key, b"v%d-" % i + b"x" * rng.randrange(120)))
        elif roll < 0.9:
            ops.append(("del", key, None))
        else:
            ops.append(("flush", None, None))
    return ops


def run_history(engine_cls, factory, ops, snapshots=None):
    """Apply ``ops`` and quiesce; a ``("snap", None, None)`` op appends
    ``db.snapshot()`` to ``snapshots`` at that point of the stream."""
    env = Environment()
    fs = SimFS(env, BlockDevice(env), PageCache(16 << 20))
    db = engine_cls.open_sync(env, fs, factory(SCALE), "db")

    def apply_all():
        for kind, key, value in ops:
            if kind == "put":
                yield from db.put(key, value)
            elif kind == "del":
                yield from db.delete(key)
            elif kind == "snap":
                snapshots.append(db.snapshot())
            else:
                yield from db.flush_all()
        yield from db.flush_all()

    env.run_until(env.process(apply_all()))
    return env, fs, db


def model_of(ops):
    model = {}
    for kind, key, value in ops:
        if kind == "put":
            model[key] = value
        elif kind == "del":
            model.pop(key, None)
    return model


class TestAllEnginesAgree:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_point_reads_match_model(self, seed):
        """Live reads against the model, and — through a snapshot taken
        mid-stream, with every later write, flush and compaction on top
        of it — reads against the model as it stood at that point."""
        ops = generate_history(seed)
        cut = len(ops) // 2
        frozen = model_of(ops[:cut])
        ops = ops[:cut] + [("snap", None, None)] + ops[cut:]
        model = model_of(ops)
        keys = [b"user%08d" % i for i in range(400)]
        for engine_cls, factory in ENGINES:
            snapshots = []
            env, _fs, db = run_history(engine_cls, factory, ops, snapshots)
            (snapshot,) = snapshots

            def verify():
                for key in keys:
                    got = yield from db.get(key)
                    assert got == model.get(key), (factory.__name__, key)
                    got = yield from db.get(key, snapshot)
                    assert got == frozen.get(key), (factory.__name__, key, "snapshot")

            env.run_until(env.process(verify()))
            snapshot.release()

    @pytest.mark.parametrize("seed", [7, 8])
    def test_scans_match_model(self, seed):
        ops = generate_history(seed)
        expected = sorted(model_of(ops).items())
        for engine_cls, factory in ENGINES:
            env, _fs, db = run_history(engine_cls, factory, ops)
            result = db.scan_sync(b"user", len(expected) + 10)
            assert result == expected, factory.__name__

    @pytest.mark.parametrize("seed", [5, 6])
    def test_short_scans_match_model(self, seed):
        """Scans asking for fewer rows than exist, from seeded start keys,
        after a delete-heavy prefix: tombstones and shadowed versions
        must not eat the row budget.  Live, and through a snapshot taken
        mid-stream against the model as it stood then."""
        rng = random.Random(seed)
        keys = [b"user%08d" % i for i in range(400)]
        prefix = [("put", key, b"p%d" % i) for i, key in enumerate(keys)]
        prefix += [("flush", None, None)]
        prefix += [("del", key, None) for key in keys if rng.random() < 0.8]
        ops = prefix + generate_history(seed, n=600)
        cut = len(ops) * 3 // 4
        frozen = sorted(model_of(ops[:cut]).items())
        ops = ops[:cut] + [("snap", None, None)] + ops[cut:]
        live = sorted(model_of(ops).items())
        starts = [b"user"] + rng.sample(keys, 8)
        for engine_cls, factory in ENGINES:
            snapshots = []
            env, _fs, db = run_history(engine_cls, factory, ops, snapshots)
            (snapshot,) = snapshots

            def verify():
                for start in starts:
                    for count in (1, 5, 20):
                        for snap, model in ((None, live), (snapshot, frozen)):
                            got = yield from db.scan(start, count, snap)
                            want = [row for row in model
                                    if row[0] >= start][:count]
                            assert got == want, (factory.__name__, start,
                                                 count, snap is not None)

            env.run_until(env.process(verify()))
            snapshot.release()

    @pytest.mark.parametrize("seed", [11])
    def test_recovery_matches_model(self, seed):
        ops = generate_history(seed, n=800)
        model = model_of(ops)
        for engine_cls, factory in ENGINES:
            env, fs, db = run_history(engine_cls, factory, ops)
            db.kill()
            fs.crash(survive_probability=0.0)
            db2 = engine_cls.open_sync(env, fs, factory(SCALE), "db")

            def verify():
                for key, value in model.items():
                    got = yield from db2.get(key)
                    assert got == value, (factory.__name__, key)

            env.run_until(env.process(verify()))

    def test_snapshots_agree_across_engines(self):
        first = [("put", b"key%04d" % i, b"old") for i in range(150)]
        second = [("put", b"key%04d" % i, b"new") for i in range(150)]
        for engine_cls, factory in ENGINES:
            env, _fs, db = run_history(engine_cls, factory, first)
            snap = db.snapshot()

            def churn():
                for _kind, key, value in second:
                    yield from db.put(key, value)
                yield from db.flush_all()

            env.run_until(env.process(churn()))
            assert db.get_sync(b"key0077") == b"new", factory.__name__
            assert db.get_sync(b"key0077", snapshot=snap) == b"old", \
                factory.__name__
            snap.release()


class TestHypothesisDifferential:
    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10_000))
    def test_bolt_agrees_with_leveldb(self, seed):
        """The contribution must be a drop-in: BoLT and stock LevelDB
        return identical answers for any history."""
        ops = generate_history(seed, n=600, keyspace=150)
        keys = [b"user%08d" % i for i in range(150)]
        answers = []
        for engine_cls, factory in ((LSMEngine, leveldb_options),
                                    (LSMEngine, bolt_options)):
            env, _fs, db = run_history(engine_cls, factory, ops)

            def collect():
                result = []
                for key in keys:
                    value = yield from db.get(key)
                    result.append(value)
                scan = yield from db.scan(b"user", 500)
                return result, scan

            answers.append(env.run_until(env.process(collect())))
        assert answers[0] == answers[1]

#!/usr/bin/env python3
"""Crash-recovery torture: the MANIFEST-as-commit-mark story, live.

The paper's §2.4 explains why LSM stores fsync every new SSTable before
appending to the MANIFEST: the filesystem preserves no write ordering,
so after power loss *any subset* of unsynced dirty pages may survive.
This example crashes a BoLT store at random points under load, recovers,
and verifies that every acknowledged-durable key survives — hundreds of
times.

Run:  python examples/crash_recovery.py
"""

import random

from repro import LSMEngine, bolt_options
from repro.sim import Environment
from repro.storage import BlockDevice, PageCache, SimFS

ROUNDS = 25
OPS_PER_ROUND = 400
SCALE = 1024


def main() -> None:
    rng = random.Random(2026)
    env = Environment()
    fs = SimFS(env, BlockDevice(env), PageCache(16 << 20))
    options = bolt_options(SCALE)
    db = LSMEngine.open_sync(env, fs, options, "db")

    durable = {}   # what we are owed after any crash
    pending = {}   # key -> every value written since the last quiesce

    for round_no in range(1, ROUNDS + 1):
        for _ in range(OPS_PER_ROUND):
            key = b"user%06d" % rng.randrange(2_000)
            if rng.random() < 0.1:
                db.delete_sync(key)
                pending.setdefault(key, []).append(None)
            else:
                value = b"r%d-%d" % (round_no, rng.randrange(10**6))
                db.put_sync(key, value)
                pending.setdefault(key, []).append(value)

        if rng.random() < 0.5:
            # Quiesce: flush + compactions drain; pending becomes durable.
            env.run_until(env.process(db.flush_all()))
            for key, history in pending.items():
                if history[-1] is None:
                    durable.pop(key, None)
                else:
                    durable[key] = history[-1]
            pending.clear()

        # Power loss: the process dies mid-compaction, then each
        # unsynced dirty page independently survives or not — the §2.4
        # no-ordering hazard.
        db.kill()
        fs.crash(rng=rng, survive_probability=rng.random())
        db = LSMEngine.open_sync(env, fs, options, "db")
        # Make whatever recovery salvaged durable before checking.
        env.run_until(env.process(db.flush_all()))

        # Unacknowledged writes may have survived (lucky WAL pages, or
        # a mid-round flush durably committed a prefix of the round) or
        # vanished — any value from the key's recent history is legal;
        # whatever recovery observed is the new baseline.
        for key, history in pending.items():
            got = db.get_sync(key)
            acceptable = set(h for h in history if h is not None)
            acceptable.add(durable.get(key))
            acceptable.add(None)
            assert got in acceptable, (round_no, key, got)
            if got is None:
                durable.pop(key, None)
            else:
                durable[key] = got
        for key, value in durable.items():
            got = db.get_sync(key)
            assert got == value, (round_no, key, value, got)
        pending.clear()
        print(f"round {round_no:2d}: crash + recovery OK "
              f"({len(durable)} durable keys verified, "
              f"{fs.stats.num_hole_punches} holes punched so far)")

    print(f"\n{ROUNDS} crash/recovery rounds survived. The commit-mark "
          f"protocol (fsync data, then fsync MANIFEST) holds for BoLT's "
          f"logical SSTables exactly as it does for stock LevelDB files.")


if __name__ == "__main__":
    main()

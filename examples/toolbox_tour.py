#!/usr/bin/env python3
"""Toolbox tour: snapshots, inspection tools, and disaster repair.

A walk through the operational surface of the library:

1. pinned snapshots that survive compactions;
2. ``repro.tools.dump`` — look inside MANIFESTs, WALs and tables;
3. ``repro.tools.repair`` — destroy the MANIFEST, scavenge every
   logical SSTable back out of BoLT's compaction files, and verify
   nothing was lost.

Run:  python examples/toolbox_tour.py
"""

from repro import LSMEngine, bolt_options
from repro.sim import Environment
from repro.storage import BlockDevice, PageCache, SimFS
from repro.tools import describe_database, dump_manifest, repair_database
from repro.tools.dump import dump_table

SCALE = 512


def main() -> None:
    env = Environment()
    fs = SimFS(env, BlockDevice(env), PageCache(16 << 20))
    options = bolt_options(SCALE)
    db = LSMEngine.open_sync(env, fs, options, "db")

    # -- populate -----------------------------------------------------------
    for i in range(4_000):
        db.put_sync(b"user%08d" % (i * 31 % 4000), b"gen1-" + b"x" * 100)
    env.run_until(env.process(db.flush_all()))

    # -- 1. snapshots --------------------------------------------------------
    snap = db.snapshot()
    for i in range(0, 4_000, 3):
        db.put_sync(b"user%08d" % (i * 31 % 4000), b"gen2-" + b"y" * 100)
    env.run_until(env.process(db.flush_all()))  # compactions churn

    latest = db.get_sync(b"user%08d" % 0)
    pinned = db.get_sync(b"user%08d" % 0, snapshot=snap)
    print(f"latest read:   {latest[:5]}...")
    print(f"snapshot read: {pinned[:5]}...  (pinned across compactions)")
    assert latest.startswith(b"gen2-") and pinned.startswith(b"gen1-")
    snap.release()

    # -- 2. inspection ------------------------------------------------------
    print("\n--- describe_database ---")
    for line in env.run_until(env.process(describe_database(fs, "db",
                                                            options))):
        print(line)

    manifest = f"db/MANIFEST-{db.versions.manifest_file_number:06d}"
    print(f"\n--- last 3 edits of {manifest} ---")
    edits = env.run_until(env.process(dump_manifest(fs, manifest)))
    for line in edits[-3:]:
        print(" ", line[:110])

    meta = next(iter(db.versions.current.live_numbers().values()))
    summary = env.run_until(env.process(dump_table(
        fs, meta.container, meta.offset, meta.length, options)))
    print(f"\n--- one logical SSTable ---\n  {summary}")

    # -- 3. disaster + repair ---------------------------------------------------
    print("\nDestroying MANIFEST and CURRENT...")
    db.kill()

    def destroy():
        for name in list(fs.listdir("db/")):
            if "MANIFEST" in name or name.endswith("CURRENT"):
                yield from fs.unlink(name)

    env.run_until(env.process(destroy()))
    report = env.run_until(env.process(
        repair_database(env, fs, options, "db")))
    print(f"repair: {report}")

    db2 = LSMEngine.open_sync(env, fs, options, "db")
    checked = 0
    for i in range(0, 4_000, 7):
        key = b"user%08d" % (i * 31 % 4000)
        value = db2.get_sync(key)
        assert value is not None and value.startswith((b"gen1-", b"gen2-"))
        checked += 1
    print(f"verified {checked} keys after repair — logical SSTable "
          f"boundaries were rediscovered by footer scanning.")


if __name__ == "__main__":
    main()

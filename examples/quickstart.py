#!/usr/bin/env python3
"""Quickstart: open a BoLT store, write, read, scan, crash, recover.

Run:  python examples/quickstart.py

Everything executes on a simulated machine — virtual clock, modelled
SATA SSD, crash-consistent filesystem — so the timings printed at the
end are *modelled* device time, not Python wall time.
"""

from repro import open_database


def main() -> None:
    db, stack = open_database("bolt", scale=256)

    # -- basic operations -------------------------------------------------
    db.put_sync(b"user:alice", b"{'city': 'Seoul'}")
    db.put_sync(b"user:bob", b"{'city': 'Suwon'}")
    db.put_sync(b"user:carol", b"{'city': 'Daejeon'}")
    db.delete_sync(b"user:bob")

    assert db.get_sync(b"user:alice") == b"{'city': 'Seoul'}"
    assert db.get_sync(b"user:bob") is None

    print("point reads OK")

    # -- range scan ------------------------------------------------------
    listing = db.scan_sync(b"user:", 10)
    print(f"scan found {len(listing)} users:",
          [key.decode() for key, _value in listing])

    # -- write enough to trigger flushes and compactions -------------------
    for i in range(8_000):
        db.put_sync(b"key%08d" % (i * 37 % 8000), b"p" * 200 + b"%d" % i)
    stack.env.run_until(stack.env.process(db.flush_all()))

    status = db.describe()
    print(f"tree levels (tables per level): {status['levels']}")
    print(f"compactions: {status['stats']['compactions']}, "
          f"settled promotions: {status['stats']['settled_promotions']}")
    print(f"fsync()/fdatasync() calls so far: "
          f"{stack.fs.stats.num_barrier_calls}")
    print(f"modelled time elapsed: {stack.env.now * 1e3:.1f} ms "
          f"(virtual, on a modelled SATA SSD)")

    # -- crash and recover --------------------------------------------------
    db.put_sync(b"volatile", b"never-synced")
    stack.fs.crash(survive_probability=0.0)  # pull the plug

    db2, _ = open_database("bolt", scale=256)  # fresh stack for contrast
    recovered, recovered_stack = open_recovered(stack)
    assert recovered.get_sync(b"user:alice") == b"{'city': 'Seoul'}"
    assert recovered.get_sync(b"volatile") is None
    print("crash recovery OK: flushed data intact, unsynced write gone")


def open_recovered(stack):
    """Re-open the crashed database from the same simulated disk."""
    from repro import LSMEngine, bolt_options
    engine = LSMEngine.open_sync(stack.env, stack.fs,
                                  bolt_options(256), "db")
    return engine, stack


if __name__ == "__main__":
    main()

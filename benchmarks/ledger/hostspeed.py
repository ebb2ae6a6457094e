"""Host-speed calibration: prints the host seconds a fixed loop takes.

This shared VM slows by 25-60 % for spells of half a minute to ten minutes.
The simulator's host cost is allocation and cache misses, so a
register-only loop (``perfbench.calibrate``) does not feel those spells.
This loop fills a dict with byte keys, pushes and pops a heap and resumes
a generator, and does; it runs none of the repository's code, so a change
to the simulator cannot move it.  ``run.py`` scales ``host_ops_per_s`` by
it (README.md, "Host speed").
"""

import heapq
import time


def calibrate():
    """Seconds the loop takes on this host now."""
    started = time.perf_counter()  # simcheck: waive[SIM001] host-time harness
    heap, table, state = [], {}, 1

    def resumed():
        while True:
            yield state

    generator = resumed()
    for index in range(200_000):
        state = (state * 1103515245 + 12345) & 0xFFFFFFFF
        key = b"user%019d" % state
        table[key] = (state, index, key)
        heapq.heappush(heap, (state & 0xFFFF, index, key))
        next(generator)
        if index & 1:
            table.get(heapq.heappop(heap)[2])
    return time.perf_counter() - started  # simcheck: waive[SIM001] host-time harness


if __name__ == "__main__":
    print(calibrate())

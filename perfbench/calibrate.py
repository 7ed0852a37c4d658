"""A fixed pure-Python reference workload: the host-speed yardstick.

On a shared host the CPU speed a process gets drifts between plateaus
up to 1.6x apart, each lasting tens of seconds.  Timing this routine
right before and right after a unit of work, in the same process,
measures the speed the unit ran at; the unit's wall time divided by
it tracks the program and not the host.  The routine does what the
program spends its time on (hashing tuples, dict updates, allocation,
sorting, building sets) but runs none of the program's code, so a
change to the program cannot change it.
"""

from __future__ import annotations

import time

ROUNDS = 7


def _round() -> int:
    table = {}
    for i in range(12000):
        key = (i % 997, i % 89, i >> 3)
        table[key] = table.get(key, 0) + i
    ordered = sorted(table.items(), key=lambda item: (item[1], item[0]))
    return len({key[:2] for key, _ in ordered})


def reference_seconds() -> float:
    """Median time of one round of the reference workload (~10 ms)."""
    times = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        _round()
        times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2]

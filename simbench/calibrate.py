"""Host-speed calibration for the timed runs.

On a shared host the speed of pure-Python code drifts by up to 2x over
minutes (neighbours, frequency scaling), which would swamp any change
the benchmark is meant to see.  So every measured run is bracketed by a
fixed pure-Python event loop -- a heap of timestamps, generator
resumes and dict updates, the same kinds of work as the simulator's
kernel -- that owes nothing to the code under test.  A run's times are
scaled by ``REFERENCE_S / loop time``: they read as host seconds on a
host where the loop takes ``REFERENCE_S``, and the drift cancels.
"""

from __future__ import annotations

import heapq
import time

#: The reference host's loop time: a round figure inside the 11-24 ms
#: the loop took on the 2-core x86 VM (CPython 3.11) the benchmark was
#: tuned on, as that VM's load varied.
REFERENCE_S = 0.015

_EVENTS = 20_000
_PROCESSES = 64


def _process(steps: int):
    total = 0
    for step in range(steps):
        total += yield step
    return total


def loop_s() -> float:
    """Host seconds the fixed calibration loop takes right now."""
    start = time.perf_counter()
    heap = []
    processes = {}
    for pid in range(_PROCESSES):
        process = _process(_EVENTS // _PROCESSES + 1)
        next(process)
        processes[pid] = process
        heapq.heappush(heap, (pid * 0.5, pid, pid))
    sequence = _PROCESSES
    counts = {}
    fired = 0
    while heap and fired < _EVENTS:
        t, _, pid = heapq.heappop(heap)
        try:
            processes[pid].send(1)
        except StopIteration:
            continue
        counts[pid % 7] = counts.get(pid % 7, 0) + 1
        sequence += 1
        heapq.heappush(heap, (t + (pid % 13) * 0.1 + 0.01, sequence, pid))
        fired += 1
    return time.perf_counter() - start

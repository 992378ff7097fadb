"""CPU-bound timings scaled to a reference host speed.

On a host that shares its cores, the same pure-Python loop takes from
one to two times its best time, in phases that last seconds; a whole
run can fall into a slow phase. So a call whose time is CPU work in this
process is timed together with a fixed loop run just before and just
after it, and reported as::

    seconds * REF_LOOP_S / mean(loop before, loop after)

that is, in seconds on a host that runs the loop in ``REF_LOOP_S``. A
program change moves the call, not the loop, so it shows in full; a
slow phase of the host moves both. The raw seconds go to the run record.
Calls that wait on another process, a socket or the disk (HTTP
latencies, closed-loop throughput) are reported as measured.
"""

from __future__ import annotations

import time

__all__ = ["REF_LOOP_S", "loop_s", "timed"]

#: Iterations of the reference loop.
LOOP = 50_000
#: The loop's fastest time on the host the benchmark was defined on
#: (2-core Intel Xeon at 2.0 GHz, CPython 3.11).
REF_LOOP_S = 0.0044


def loop_s() -> float:
    """Seconds the reference loop takes now."""
    started = time.perf_counter()
    total = 0
    for i in range(LOOP):
        total += i * i
    return time.perf_counter() - started


def timed(call, *args, **kwargs):
    """``(result, seconds, scaled seconds)`` of ``call(*args, **kwargs)``."""
    before = loop_s()
    started = time.perf_counter()
    result = call(*args, **kwargs)
    seconds = time.perf_counter() - started
    after = loop_s()
    return result, seconds, seconds * 2 * REF_LOOP_S / (before + after)

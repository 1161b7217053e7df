"""A fixed pure-Python reference loop that gauges the host's current speed.

On a shared 2-vCPU x86 VM the host's speed swings by up to 1.8x, in phases
of a few seconds that recur for minutes at a time. Timed next to a
measurement, in the same process, the loop tells how fast the host ran just
then: the measured time, times the loop's time at full speed over its time
now, is the time the measured work would take at full speed.

The loop runs with the garbage collector off: a collection would scan
whatever heap the program left, and the gauge would then depend on the
program it gauges. This module imports nothing but ``gc`` and ``time``, so
a fresh interpreter can load it without loading anything that the set-up
measurement times.
"""

from __future__ import annotations

import gc
import time


def loop_s(n: int) -> float:
    """Seconds the reference loop of size n takes now."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        d = {}
        for i in range(n):
            d[str(i)] = [i, i * 2]
        s = 0
        for k, v in d.items():
            s += len(k) + v[1]
        return time.perf_counter() - t
    finally:
        if was_enabled:
            gc.enable()


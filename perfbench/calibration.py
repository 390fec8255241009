"""Machine-speed calibration for host-time metrics.

The benchmark runs on shared machines whose speed moves in phases of
seconds to minutes: a fixed pure-Python loop on the 2-core machine the
benchmark was defined on ran in 0.064-0.126 s over four minutes, and
the median over 20 s windows spread by 14% (interquartile range over
median).  The serving passes slow down with those phases, so a raw
median over one run mostly tells which phase the run fell in.

:func:`calibrate` times a fixed loop shaped like the simulator's hot
path (heap pushes and pops of tuples, dict inserts and deletes of
small lists).  Each pass is bracketed by two calibrations; host times
are then reported at the reference speed ``REFERENCE_S``::

    reported = measured * REFERENCE_S / mean(calibration before, after)

On a 150 s serve run this cut the spread of 20 s window medians of the
pass time from 0.275 to 0.076.  The loop uses no code of the program
under test, so a change to the program moves the reported time exactly
as it moves the measured one.  Raw times and the calibration factor
are printed alongside (see README.md).
"""

from __future__ import annotations

import gc
import heapq
import time

#: Seconds the calibration loop takes at the reference speed (about
#: its median on the machine the benchmark was defined on).
REFERENCE_S = 0.07
_ITEMS = 40_000


def calibrate() -> float:
    """Seconds one run of the calibration loop takes right now.

    The cyclic collector is off for the loop, so the program's heap
    (which a later pass could grow) cannot slow the loop down and hide
    a regression.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        heap: list[tuple[float, int]] = []
        table: dict[str, list] = {}
        for i in range(_ITEMS):
            heapq.heappush(heap, (i * 7919 % 1000003 * 1e-6, i))
            table[f"j{i}"] = [i, i * 0.5]
            if i % 3 == 0:
                _, k = heapq.heappop(heap)
                table.pop(f"j{k}", None)
        sum(v[1] for v in table.values())
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def at_reference(seconds: float, calibration_s: float) -> float:
    """``seconds`` measured while the loop took ``calibration_s``,
    scaled to the reference speed."""
    return seconds * REFERENCE_S / calibration_s

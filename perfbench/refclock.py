"""Reference clock: wall time rescaled by the speed of a fixed loop.

The CPUs of a small shared host change speed with their neighbours' load:
the same single-threaded rotation of instances takes anywhere from 1x to
1.4x as long within one minute, and CPU time tracks wall time, so neither
clock is steady.  The benchmark therefore runs a short fixed loop of exact
rational arithmetic between instances and reports every timing in
reference seconds: wall seconds times NOMINAL_S over the loop's duration
measured next to it.  A reference second is the time in which the loop runs
1 / NOMINAL_S = 250 times; on an idle 2-CPU Xeon VM with Python 3.11 it is
close to one wall second.

The loop touches no riesz_lab code and pauses the garbage collector, so a
change to the library cannot change how long the loop takes.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

NOMINAL_S = 0.004


def reference_loop() -> float:
    """Wall duration of one run of the fixed loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = Fraction(0)
        table = {}
        for i in range(1, 600):
            acc += Fraction(i % 7 - 3, 1 + i % 4) * Fraction(i % 5 + 1, 3)
            table[(i, i % 3)] = acc.numerator % 97
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(before: float, after: float) -> float:
    """Factor from wall to reference seconds for work bracketed by two loop runs."""
    return NOMINAL_S / ((before + after) / 2)

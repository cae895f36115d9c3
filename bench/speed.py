"""A fixed reference loop that tracks how fast the machine runs Python right now.

On a shared host the speed of a pure-Python loop drifts by up to 1.8x between
processes and over seconds, and processor time drifts with it, so neither wall
nor processor time of the program is steady from run to run.  The benchmark
therefore runs this loop between verdicts and reports each processor time
scaled to the speed at which the loop takes ``NOMINAL_S`` of processor time:

    normalised = measured * NOMINAL_S / median(reference samples around it)

The loop uses only the standard library (``Fraction``, ``frozenset``,
``dict``), never finsem, so a change to the program moves the scaled times
and a change of the machine's speed does not.  Raw times are kept in the
stamp.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import thread_time

NOMINAL_S = 0.004     # the loop's time on a 2-core VM with Python 3.11, idle
SAMPLE_EVERY_S = 0.1  # at most this long between two samples during a round
PASSES = 3            # passes of the loop per sample


def reference_s():
    """Processor seconds of one pass of the fixed loop, the median of
    ``PASSES``.  The collector is off while it runs: a collection of the
    program's heap would be timed as machine speed."""
    gc.disable()
    try:
        return statistics.median(_loop() for _ in range(PASSES))
    finally:
        gc.enable()


def _loop():
    t0 = thread_time()
    acc = Fraction(0)
    seen = {}
    for i in range(1, 800):
        acc += Fraction(i % 7 + 1, i % 11 + 2)
        key = frozenset((i % 13, i % 17, i % 19))
        seen[key] = seen.get(key, 0) + 1
    return thread_time() - t0


def scale(samples):
    """The factor that turns a time measured while ``samples`` were taken into
    a time at nominal speed."""
    return NOMINAL_S / statistics.median(samples)

"""The benchmark's speed gauge: a fixed piece of pure-Python work.

The machines this benchmark runs on are shared, and their speed drifts
by 10-60% over tens of seconds as other tenants' load comes and goes,
which moves every timing of a run together.  A run therefore reads the
gauge (times ``work``) between its ops, and divides each op's time by
the mean of the readings around it (see ``scaled``).  Times are reported
in seconds of a machine on which ``work`` takes exactly ``NOMINAL_S``,
about what it takes on the baseline's machine when that is quiet, so
they read close to a quiet machine's wall time.  A change to frobcx
cannot move a reading: ``work`` calls nothing of it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

NOMINAL_S = 0.03
_MASK = (1 << 127) - 1
_BIG = 3**25000  # about 40,000 bits, the size of far counts


def work() -> int:
    """Small-int interpreter loop plus linear big-int updates, the two kinds of
    work frobcx's engines do."""
    x = 1
    for i in range(80000):
        x = (x * 1103515245 + i) & _MASK
    y = _BIG
    for i in range(5000):
        y = (y * 5 + _BIG) >> 2
    return x ^ y


def read() -> float:
    """Seconds ``work`` takes now."""
    start = perf_counter()
    work()
    return perf_counter() - start


def scaled(seconds: list[float], before: list[int], readings: list[float]) -> list[float]:
    """Op times in seconds of the nominal machine.

    ``before[i]`` is the index of the last reading taken before op i, and
    ``readings`` ends with a reading taken after the last op.  An op is
    scaled by the mean of the two readings before it and the two after it
    (fewer at either end of the run): one 30 ms reading is itself 10-20%
    noisy, while the drift it tracks moves over seconds.
    """
    return [s * NOMINAL_S / statistics.fmean(readings[max(k - 1, 0):k + 3])
            for s, k in zip(seconds, before)]

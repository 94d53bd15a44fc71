"""A fixed computation that gauges how fast the machine runs right now.

On a shared machine the CPU itself runs up to a third faster or slower in
spells of seconds to minutes, and a spell can cover whole runs.  The worker
and the cold starts run this computation next to every measurement and
scale the measured time by NOMINAL_S / (its time), so the reported seconds
are seconds at the speed where this computation takes NOMINAL_S.  It mixes
big-integer products with Python-level object churn, like psikit's own work,
and imports nothing, so running it in a fresh interpreter before psikit is
imported leaves psikit's import time unchanged.
"""

import gc
from time import perf_counter, process_time

NOMINAL_S = 0.02  # its typical time on the machine the bounds were set on


class _Pair:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def combine(self, other):
        return _Pair(self.left + other.right, self.right ^ other.left)


def _work() -> int:
    m = (1 << 3000) + 1
    x = 3**1800
    for _ in range(200):
        x = x * x % m
    acc = _Pair(1, 2)
    table = {}
    for i in range(15000):
        acc = acc.combine(_Pair(i, i & 7))
        table[i & 1023] = [acc.left, str(i)]
    return x % 7 + len(table) + acc.right


def measure() -> tuple[float, float]:
    """(wall s, CPU s) of one run of the fixed computation, gc paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0, c0 = perf_counter(), process_time()
        _work()
        return perf_counter() - t0, process_time() - c0
    finally:
        if enabled:
            gc.enable()

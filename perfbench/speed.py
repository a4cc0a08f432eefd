"""The machine's speed at the moment, read off a fixed piece of work.

The benchmark's reference machine is a shared VM whose two vCPUs each switch,
every fraction of a second, between a fast level and one about 1.7 to 1.9
times slower; the share of time spent slow changes from minute to minute.  A
raw time therefore says as much about the neighbours as about the program.

``probe(budget)`` repeats a fixed unit of pure-Python work for ``budget``
seconds and returns the mean seconds per unit.  The benchmark probes right
before and right after every timed interval and rescales the interval to the
reference speed:

    scaled = raw * REF_UNIT_S / mean(unit before, unit after)

so a figure reads what the interval would take on the reference machine at
its fast level.  The unit belongs to the benchmark, not to packfour, so a
change to the program moves the scaled figures exactly as it moves the raw
ones.  Half of the unit is breadth-first balls over a small graph, half is
sorting and hashing; on the reference machine the mix slows down on the slow
level by about as much as packfour's own code does on small graphs (1.7 and
1.6 times), where each half alone slows by 1.9 and 1.5 times.  It only tracks
intervals short against the machine's switches: up to a few hundred ms.
"""

from __future__ import annotations

import random
from time import perf_counter

from check import ball
from gen import adjacency, necklace

# seconds per unit on the reference machine (2 vCPUs, Intel Xeon, CPython
# 3.11.7) at its fast level: the 10th percentile of many probes
REF_UNIT_S = 6.6e-5

_ADJ = adjacency(*necklace(4))
_rng = random.Random(0)
_PAIRS = [(_rng.random(), i) for i in range(150)]
del _rng


def unit() -> int:
    total = 0
    for v in range(len(_ADJ)):
        total += len(ball(_ADJ, v, 2))
    index = {}
    for x, i in sorted(_PAIRS):
        index[i] = x
    return total + len(set(index))


def probe(budget: float) -> float:
    """Seconds per unit, over at least one unit and about ``budget`` s."""
    units = 0
    t0 = perf_counter()
    while True:
        unit()
        units += 1
        spent = perf_counter() - t0
        if spent >= budget:
            return spent / units


def scale(raw: float, before: float, after: float) -> float:
    """``raw`` seconds rescaled to the reference speed."""
    return raw * REF_UNIT_S * 2 / (before + after)

"""The reference job that the program's times are divided by.

The host this benchmark runs on is shared, and its speed drifts by up to
a factor of two over seconds to minutes. The probe is fixed work in the
benchmark's own code: the re-check of a fixed quadtree (parsing, owner
grid, chain enumeration, integer orientations) and a Gaussian
elimination over Fractions, the two kinds of work the program does. A
program change cannot move it, while a slow phase of the host slows it
about as much as the program, so the ratio of an item's time to the
probe's time, measured side by side, keeps the program's speed and
mostly drops the host's.
"""

import random
from fractions import Fraction
from time import perf_counter

import gen
import recheck

_QUADTREE = gen.partition_text(2, 64, gen.balanced_tree(2, 6, 300,
                                                        random.Random(0)))
# one probe run's wall time on the reference host, one core of a shared
# 2-vCPU x86-64 VM under CPython 3.11; relative times are reported as
# seconds on that host
NOMINAL_S = 0.05
_rng = random.Random(0)
_MATRIX = [[Fraction(_rng.randrange(-50, 50), _rng.randrange(1, 20))
            for _ in range(18)] for _ in range(18)]


def _recheck():
    d, n, boxes = recheck.parse_partition(_QUADTREE)
    tops, _ = recheck.top_simplices(d, n, boxes)
    centers = [tuple(a + b for a, b in zip(lo, hi)) for lo, hi in boxes]
    return len(recheck.violations(tops, centers))


def _eliminate():
    m = [row[:] for row in _MATRIX]
    for k in range(len(m)):
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            for j in range(k, len(m)):
                m[i][j] -= f * m[k][j]
    return m[-1][-1]


def probe():
    """Run the reference job once; returns its wall time in seconds."""
    t = perf_counter()
    _recheck()
    _eliminate()
    return perf_counter() - t


def block(at_least):
    """Probe runs back to back, at least one, until they add up to
    at_least seconds; returns (total seconds, number of runs)."""
    total, runs = probe(), 1
    while total < at_least:
        total += probe()
        runs += 1
    return total, runs


class Meter:
    """Times calls against the probe.

    Each measured call is followed by a block of probe runs lasting at
    least share times as long as the call. The call's time is reported
    in reference seconds: its wall time over the mean probe run of the
    blocks just before and just after it, times NOMINAL_S.
    """

    def __init__(self, share):
        self.share = share
        self.last = block(0.0)

    def measure(self, took):
        """Reference seconds of a call that took `took` wall seconds and
        has just ended, and the wall seconds spent on probes after it."""
        after = block(took * self.share)
        mean = (self.last[0] + after[0]) / (self.last[1] + after[1])
        self.last = after
        return took / mean * NOMINAL_S, after[0]

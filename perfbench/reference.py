"""A fixed reference block that measures how fast the machine is right now.

Wall time on a shared host swings by up to 2x in phases of seconds to
minutes, for every process alike.  `run_ops` times one reference block
before the first op and after every op; an op's time divided by the mean
of the two blocks around it is nearly free of those swings, while a
change to the program moves it as much as the op time itself.

The block mixes the kinds of work an op does: an interpreter-bound
integer loop, a cache-missing pointer chase through a 4 MB array, and
sorting, hashing and summing `Fraction`s.  It uses nothing from abset, so
no change to the package changes it.
"""

import random
import time
from array import array
from fractions import Fraction

# Seconds one block takes on the machine the benchmark was written on
# (2-vCPU Xeon, Python 3.11) in a quiet phase; it only gives the
# normalised op time a unit.
NOMINAL_S = 0.05

_CHASE_LEN = 1 << 19
_FRACTIONS = 4000


class Reference:
    """The block's data, built once per process (about 6 MB)."""

    def __init__(self, seed: int = 20260823):
        rng = random.Random(seed)
        self.chase = array("l", range(_CHASE_LEN))
        rng.shuffle(self.chase)
        self.fractions = [Fraction(rng.randrange(1, 10 ** 6),
                                   rng.randrange(1, 10 ** 6))
                          for _ in range(_FRACTIONS)]

    def block(self) -> int:
        s = 0
        for i in range(100_000):
            s += i * i % 7
        j = 0
        chase = self.chase
        for _ in range(60_000):
            j = chase[j]
        xs = sorted(self.fractions)
        index = {x: i for i, x in enumerate(xs)}
        total = sum(xs[:800], Fraction(0))
        return s + j + len(index) + total.numerator % 7

    def time(self) -> float:
        """Seconds one block takes now."""
        start = time.perf_counter()
        self.block()
        return time.perf_counter() - start

"""The deletion tower's deleted set of time indices.

The final word W_K = W_(K-1)^(L_(K-1)) V_(K-1) is peeled level by level,
top down: j - 1 divided by N_lev gives the copy of W_lev it falls in,
and a copy count that reaches L_lev puts j in the balancing block
V_lev.  The set holds the times 1..N_K that meet such a block at one of
its levels.  `peel` hands a kept time's copy counts and W_n0 prefix to
the thin-orbit survey, which reads its letter counts off them;
membership and counting follow the same peel exactly.  The horizons
run to around 10**24 indices, so nothing here sweeps members.
"""

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple


class IndexSet:
    """Times 1..horizon inside a balancing block of one of `levels`, the
    (N_lev, L_lev) pairs of the peeled levels, top level first; each is
    held with D_lev, the deleted count in one copy of W_lev."""

    __slots__ = ("horizon", "levels")

    def __init__(self, horizon: int, levels: Sequence[Tuple[int, int]]):
        # bottom up: D_n0 = 0, D_(lev+1) = L_lev D_lev + N_(lev+1) - L_lev N_lev
        outers = [horizon] + [n_lev for n_lev, _ in levels[:-1]]
        full = 0
        peel = []
        for (n_lev, reps), outer in reversed(list(zip(levels, outers))):
            peel.append((n_lev, reps, full))
            full = reps * full + outer - reps * n_lev
        self.horizon = horizon
        self.levels = peel[::-1]

    def peel(self, j: int) -> Optional[Tuple[List[int], int]]:
        """None when j, 1 <= j <= horizon, is deleted; otherwise its copy
        counts c_lev of W_lev, top level first, and the length p of the
        W_n0 prefix left under them, 1 <= p <= N_n0."""
        p = j - 1
        copies = []
        for n_lev, reps, _ in self.levels:
            c, p = divmod(p, n_lev)
            if c >= reps:
                return None
            copies.append(c)
        return copies, p + 1

    def contains(self, j: int) -> bool:
        return 1 <= j <= self.horizon and self.peel(j) is None

    __contains__ = contains

    def count_up_to(self, h: int) -> int:
        """|set ∩ [1, h]|, exact: full copies of W_lev below h each hold
        D_lev, and a peel that reaches L_lev adds the block's part."""
        p = min(h, self.horizon)
        if p < 1:
            return 0
        total = 0
        for n_lev, reps, full in self.levels:
            c, p = divmod(p, n_lev)
            if c >= reps:
                return total + reps * full + (c - reps) * n_lev + p
            total += c * full
        return total

    def density_up_to(self, h: int) -> Fraction:
        if h < 1:
            raise ValueError("density needs a horizon >= 1")
        return Fraction(self.count_up_to(h), h)

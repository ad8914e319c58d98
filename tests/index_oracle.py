"""The deletion tower's deleted set as a union of nested periodic blocks,
kept as the oracle of `index_sets.IndexSet`, the level peel that
replaced it.

Each level's balancing blocks are one nested block: V_i sits at offset
L_i N_i inside W_(i+1), with |V_i| taken from the stage's own block, and
W_(i+1) is repeated along the copies of every level above.  Membership
and counting go through each block's layers, not through the peel.
"""

from fractions import Fraction
from typing import Sequence, Tuple


class _NestedBlocks:
    """One block of block_len letters sitting at 0-based offset `origin`
    inside an innermost unit, replicated along nested layers.

    layers are (period, count) pairs, outermost first: a 0-based position
    p belongs iff at every layer p = q*period + r with q < count, and the
    final remainder lands inside [origin, origin + block_len).
    Index j (1-based) maps to position p = j - 1.
    """

    __slots__ = ("origin", "block_len", "layers", "_unit_counts")

    def __init__(self, origin: int, block_len: int,
                 layers: Sequence[Tuple[int, int]]):
        if origin < 0 or block_len < 1:
            raise ValueError("bad nested block")
        layers = tuple((int(p), int(c)) for p, c in layers)
        span = origin + block_len
        for period, count in reversed(layers):
            if period < span or count < 1:
                raise ValueError("layer period shorter than its content")
            span = period * count  # content that must fit in the next layer out
        self.origin = origin
        self.block_len = block_len
        self.layers = layers
        # members inside one full unit at each depth, innermost first
        counts = [block_len]
        for period, count in reversed(layers):
            counts.append(counts[-1] * count)
        self._unit_counts = counts[::-1]  # [full at depth 0, ..., block_len]

    def contains(self, j: int) -> bool:
        p = j - 1
        if p < 0:
            return False
        for period, count in self.layers:
            q, p = divmod(p, period)
            if q >= count:
                return False
        return self.origin <= p < self.origin + self.block_len

    def count_up_to(self, h: int) -> int:
        return self._count_positions(h)  # positions 0..h-1 == indices 1..h

    def _count_positions(self, limit: int, depth: int = 0) -> int:
        """Members with 0-based position < limit, below layer `depth`."""
        if limit <= 0:
            return 0
        if depth == len(self.layers):
            return max(0, min(limit, self.origin + self.block_len) - self.origin)
        period, count = self.layers[depth]
        full = min(limit // period, count)
        res = full * self._unit_counts[depth + 1]
        if full < count:
            res += self._count_positions(limit - full * period, depth + 1)
        return res

    def describe(self):
        return ("nested_blocks", self.origin, self.block_len, self.layers)


class NestedUnion:
    """Union of pairwise-disjoint nested-block components; `nested_blocks`
    and `union` are the construction paths."""

    __slots__ = ("components",)

    def __init__(self, components=()):
        self.components = tuple(components)

    @classmethod
    def nested_blocks(cls, origin: int, block_len: int,
                      layers: Sequence[Tuple[int, int]]) -> "NestedUnion":
        return cls([_NestedBlocks(origin, block_len, layers)])

    @staticmethod
    def union(*sets: "NestedUnion") -> "NestedUnion":
        """Union of sets the caller vouches are pairwise disjoint; counts
        are additive under that assumption."""
        comps = []
        for s in sets:
            comps.extend(s.components)
        return NestedUnion(comps)

    def contains(self, j: int) -> bool:
        return any(c.contains(j) for c in self.components)

    __contains__ = contains

    def count_up_to(self, h: int) -> int:
        """|set ∩ [1, h]|, exact, assuming disjoint components."""
        return sum(c.count_up_to(h) for c in self.components)

    def density_up_to(self, h: int) -> Fraction:
        if h < 1:
            raise ValueError("density needs a horizon >= 1")
        return Fraction(self.count_up_to(h), h)

    def describe(self):
        """Structural description: one tuple per component."""
        return tuple(c.describe() for c in self.components)


def deleted_sets(stages):
    """J_i = 1-based letter indices of the balancing block V_i, across
    the whole final word.  Pairwise disjoint by construction."""
    K = len(stages)
    out = {}
    for i in range(1, K):
        st = stages[i]                       # stage i+1 holds L_i, V_i
        layers = [(stages[j - 1].N, stages[j].L) for j in range(K - 1, i, -1)]
        out[i] = NestedUnion.nested_blocks(origin=st.L * stages[i - 1].N,
                                           block_len=st.V.length,
                                           layers=layers)
    return out


def deleted_union(stages, from_level: int) -> NestedUnion:
    """Union of J_i for i >= from_level."""
    sets = deleted_sets(stages)
    return NestedUnion.union(*(sets[i] for i in sorted(sets) if i >= from_level))

"""Deleted-set checks.

The nested-block union of `index_oracle` is checked against a
brute-force sweep; the tower's deleted set, the level peel of
`index_sets.IndexSet`, is checked against that union and against its
own counts.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import index_oracle as oracle
from abset.errors import InvariantViolation, UsageError
from abset.thin_orbit import ThinConfig, build_stages, deleted_union

NestedUnion = oracle.NestedUnion


def sweep_members(s, h: int):
    return [j for j in range(1, h + 1) if s.contains(j)]


def small_tower(m, e, r, k):
    try:
        return build_stages(ThinConfig(m=m, eps1=Fraction(1, 2 ** e),
                                       rho=lambda n, r=r: r), k)
    except (UsageError, InvariantViolation):
        assume(False)


def oracle_edges(stages, copies=range):
    """The first and last index of oracle blocks, each +-1, and the
    horizon +-1; copies(count) picks the copies along each layer, by
    default every one, so every block."""
    horizon = stages[-1].N
    probes = {horizon - 1, horizon, horizon + 1}
    for comp in oracle.deleted_union(stages, 1).components:
        starts = [comp.origin]
        for period, count in reversed(comp.layers):
            starts = [q * period + b for q in copies(count) for b in starts]
        for b in starts:
            for end in (b + 1, b + comp.block_len):
                probes.update((end - 1, end, end + 1))
    return sorted(probes)


# -- frozen examples ----------------------------------------------------------

def test_interval_counts():
    # an interval is a nested block without layers: indices 5..9
    s = NestedUnion.nested_blocks(origin=4, block_len=5, layers=[])
    assert s.count_up_to(4) == 0
    assert s.count_up_to(7) == 3
    assert s.count_up_to(100) == 5
    assert s.density_up_to(10) == Fraction(1, 2)


def test_strided_counts_match_sweep():
    # blocks of 2 from index 3 with period 5, four times: one layer
    s = NestedUnion.nested_blocks(origin=2, block_len=2, layers=[(5, 4)])
    members = sweep_members(s, 40)
    assert members == [3, 4, 8, 9, 13, 14, 18, 19]
    for h in range(1, 41):
        assert s.count_up_to(h) == len([m for m in members if m <= h])


def test_multiples_infinite():
    # multiples of 3, far past any horizon the counts are asked about
    s = NestedUnion.nested_blocks(origin=2, block_len=1, layers=[(3, 10 ** 18)])
    assert s.count_up_to(10) == 3
    assert s.count_up_to(3 * 10 ** 17) == 10 ** 17


def test_nested_blocks_basic():
    # inner unit of period 10 holds positions 6..9; two layers:
    # outer period 100 x 3 units, inner period 10 x 7 units
    s = NestedUnion.nested_blocks(origin=6, block_len=4,
                                  layers=[(100, 3), (10, 7)])
    members = sweep_members(s, 400)
    expect = [o * 100 + i * 10 + r + 1
              for o in range(3) for i in range(7) for r in range(6, 10)]
    assert members == [m for m in expect if m <= 400]
    for h in (1, 9, 10, 77, 99, 100, 250, 299, 300, 400):
        assert s.count_up_to(h) == len([m for m in members if m <= h])


def test_nested_blocks_rejects_overflowing_layers():
    with pytest.raises(ValueError):
        NestedUnion.nested_blocks(origin=8, block_len=5, layers=[(10, 2)])


def test_union_counts_additive_when_disjoint():
    s = NestedUnion.union(NestedUnion.nested_blocks(0, 3, []),
                          NestedUnion.nested_blocks(9, 1, []),
                          NestedUnion.nested_blocks(19, 1, []),
                          NestedUnion.nested_blocks(5, 2, [(10, 6)]))
    assert s.count_up_to(100) == 3 + 1 + 1 + 12
    assert sweep_members(s, 100) == [1, 2, 3, 6, 7, 10, 16, 17, 20, 26, 27,
                                     36, 37, 46, 47, 56, 57]


# -- property tests -----------------------------------------------------------

@st.composite
def random_sets(draw):
    comps = []
    for _ in range(draw(st.integers(1, 3))):
        blen = draw(st.integers(1, 3))
        origin = draw(st.integers(0, 4))
        inner = origin + blen + draw(st.integers(0, 3))
        inner_count = draw(st.integers(1, 3))
        outer = inner * inner_count + draw(st.integers(0, 5))
        layers = [(outer, draw(st.integers(1, 3))), (inner, inner_count)]
        comps.append(NestedUnion.nested_blocks(
            origin, blen, layers[draw(st.integers(0, 2)):]))
    return NestedUnion.union(*comps)


@settings(max_examples=100)
@given(random_sets(), st.integers(1, 120))
def test_single_component_count_matches_sweep(s, h):
    # membership-based count is always exact; the additive fast path is
    # only claimed for disjoint unions, so compare per component
    for comp in s.components:
        single = NestedUnion([comp])
        assert single.count_up_to(h) == len(sweep_members(single, h))


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 4), e=st.integers(6, 20), r=st.integers(2, 3),
       k=st.integers(2, 3), data=st.data())
def test_contains_matches_count_differences(m, e, r, k, data):
    # membership against the closed-form count, one index either side of
    # both edges of every deleted block of a small thin-orbit tower
    stages = small_tower(m, e, r, k)
    s = deleted_union(stages, data.draw(st.integers(1, k)))
    for j in [-1, 0, 1] + oracle_edges(stages):
        assert s.contains(j) == (s.count_up_to(j) - s.count_up_to(j - 1) == 1)
        assert (j in s) == s.contains(j)
    assert not any(deleted_union(stages, k).contains(j)
                   for j in [-1, 0, 1, 2] + oracle_edges(stages))


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 4), e=st.integers(6, 20), r=st.integers(2, 3),
       k=st.integers(2, 4), data=st.data())
def test_level_peel_matches_nested_union(m, e, r, k, data):
    # at every oracle block edge +-1 and the horizon +-1, for every n0
    # (and one either side of the levels, which give all or nothing);
    # a four-stage tower has millions of level-1 blocks, so along a layer
    # of more than 64 copies only the first two, the middle, the last and
    # one drawn copy are probed
    stages = small_tower(m, e, r, k)

    def copies(count):
        if count <= 64:
            return range(count)
        return {0, 1, count // 2, count - 1,
                data.draw(st.integers(0, count - 1))}

    probes = oracle_edges(stages, copies)
    for n0 in range(0, k + 2):
        peel = deleted_union(stages, n0)
        nested = oracle.deleted_union(stages, n0)
        for j in probes:
            assert peel.contains(j) == nested.contains(j), (n0, j)
            assert peel.count_up_to(j) == nested.count_up_to(j), (n0, j)

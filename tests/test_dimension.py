"""Dimension-module checks.

Covering oracles are direct enumerations (integer cell arithmetic or
brute-force distance scans) computed independently of the module code.
"""

import bisect
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from abset.dimension import (
    assouad_probe_windows,
    box_dim_series,
    grid_covering,
    maximal_separated_subset,
    min_gap,
    successive_slopes,
)

F = Fraction


def brute_covering(points, rho):
    """Oracle: distinct floor(p/rho) via raw integer arithmetic, with the
    circle reduction applied first."""
    rho = F(rho)
    cells = set()
    for p in points:
        p = F(p) % 1
        cells.add((p.numerator * rho.denominator) // (p.denominator * rho.numerator))
    return len(cells)


def optimal_interval_covering(points, rho):
    """Oracle: exact minimum number of closed arcs of length rho covering
    the set, O(n^2) over first-arc anchors.  Some optimal covering has
    every arc start at a point of the set, so anchoring at points loses
    nothing."""
    pts = sorted({F(p) % 1 for p in points})
    n = len(pts)
    if rho >= 1 or n == 1:
        return 1
    ext = pts + [p + 1 for p in pts]  # unrolled circle
    best = n
    for start in range(n):
        # each of the n points appears exactly once in ext[start:start+n]
        count = 0
        pos = start
        while pos < start + n and count < best:
            count += 1
            reach = ext[pos] + rho  # arc [ext[pos], ext[pos] + rho], closed
            pos = bisect.bisect_right(ext, reach, lo=pos + 1, hi=start + n)
        if pos >= start + n:
            best = min(best, count)
    return best


# -- frozen examples ----------------------------------------------------------

def test_grid_covering_example():
    pts = [F(0), F(1, 10), F(15, 100), F(8, 10)]
    assert grid_covering(pts, F(1, 5)) == 2


def test_grid_covering_small_orbit_set():
    pts = [F(0), F(1, 10), F(2, 10), F(3, 10), F(4, 10), F(7, 10)]
    assert grid_covering(pts, F(1, 10)) == 6


def test_min_gap_wraps():
    assert min_gap([F(1, 20), F(19, 20)]) == F(1, 10)
    with pytest.raises(ValueError):
        min_gap([F(1, 2)])


def test_maximal_separated_example():
    got = maximal_separated_subset([F(0), F(1, 20), F(1, 5)], F(1, 10))
    assert got == [F(0), F(1, 5)]


def test_reciprocal_fixture_counts():
    k_max = 10 ** 4
    pts = [F(1, k) for k in range(1, k_max + 1)]
    for j in (2, 3, 4, 5):
        rho = F(1, 4 ** j)
        # 1/1 wraps to 0 on the circle, so k = 1 lands in cell 0
        oracle = len({4 ** j // k for k in range(2, k_max + 1)} | {0})
        assert grid_covering(pts, rho) == oracle


def test_box_dim_series_slopes_near_half():
    k_max = 10 ** 4
    pts = [F(1, k) for k in range(1, k_max + 1)]
    rep = box_dim_series(pts, [F(1, 4 ** j) for j in range(2, 7)])
    assert rep.nested_scales and rep.monotone_checked
    slopes = successive_slopes(rep.rows)
    for s in slopes[2:]:  # once the scale is fine enough
        assert 0.45 <= s <= 0.55


def test_box_dim_series_rejects_non_decreasing():
    with pytest.raises(ValueError):
        box_dim_series([F(0)], [F(1, 4), F(1, 4)])


def test_probe_singleton_is_zero():
    rep = assouad_probe_windows([F(1, 3)], [(F(1, 10), F(1, 10))])
    assert rep[0]["max_cells"] == 1
    assert rep[0]["log_ratio_float"] == 0.0


def test_probe_uniform_grid_is_one():
    pts = [F(k, 100) for k in range(100)]
    rep = assouad_probe_windows(pts, [(F(1, 10), F(1, 10))])
    assert rep[0]["max_cells"] == 10
    assert abs(rep[0]["log_ratio_float"] - 1.0) < 1e-9


def test_probe_reciprocal_fixture_localizes_high():
    pts = [F(1, k) for k in range(1, 10 ** 4 + 1)] + [F(0)]
    rep = assouad_probe_windows(pts, [(F(1, 100), F(1, 100))])
    assert rep[0]["log_ratio_float"] >= 0.8


def test_optimal_covering_examples():
    pts = [F(0), F(1, 10), F(2, 10), F(3, 10), F(4, 10), F(7, 10)]
    # one arc of length 0.4 takes 0..0.4, one takes 0.7
    assert optimal_interval_covering(pts, F(2, 5)) == 2
    assert optimal_interval_covering(pts, F(1, 100)) == 6
    assert optimal_interval_covering([F(1, 2)], F(1, 10)) == 1


# -- property tests -----------------------------------------------------------

point_sets = st.lists(st.fractions(min_value=0, max_value=1, max_denominator=60),
                      min_size=1, max_size=40)
rhos = st.fractions(min_value=F(1, 64), max_value=F(1, 2), max_denominator=64)


@settings(max_examples=120)
@given(point_sets, rhos)
def test_grid_matches_brute_oracle(pts, rho):
    assert grid_covering(pts, rho) == brute_covering(pts, rho)


@settings(max_examples=100)
@given(point_sets, rhos)
def test_separated_subset_is_separated_and_maximal(pts, rho):
    chosen = maximal_separated_subset(pts, rho)
    n = len(chosen)
    for i in range(n):
        for j in range(i + 1, n):
            d = abs(chosen[i] - chosen[j])
            assert min(d, 1 - d) >= rho
    distinct = sorted({F(p) % 1 for p in pts})
    for p in distinct:
        if p in chosen:
            continue
        conflicts = any(min(abs(p - q), 1 - abs(p - q)) < rho for q in chosen)
        assert conflicts, f"{p} could have been added"


@settings(max_examples=80, deadline=None)
@given(point_sets, rhos)
def test_grid_vs_optimal_factor_two(pts, rho):
    opt = optimal_interval_covering(pts, rho)
    grid = grid_covering(pts, rho)
    assert opt <= grid
    if (1 / rho).denominator == 1:
        assert grid <= 2 * opt
    else:
        # one wrap-crossing arc can clip the short final cell as a third
        assert grid <= 2 * opt + 1

"""Dimension-module checks.

Covering oracles are direct enumerations (integer cell arithmetic or
brute-force distance scans) computed independently of the module code.
`brute_covering` and the `fraction_*` oracles are the estimators as they
stood before the integer-key core: every point reduced into [0, 1) as a
Fraction, sorted, and scanned with Fraction arithmetic.
"""

import bisect
import math
from fractions import Fraction
from itertools import repeat

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from abset import dimension
from abset.exact import mod1
from abset.dimension import (
    DEFAULT_PREC_BITS,
    KEY_GUARD_BITS,
    LOG_DIGITS,
    CirclePoints,
    _cells,
    _log_inverse,
    _window_counts,
    assouad_probe_windows,
    box_dim_series,
    circle_points,
    grid_covering,
    maximal_separated_subset,
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


def fraction_points(points):
    return sorted({F(p) % 1 for p in points})


def fraction_separated_subset(points, rho):
    rho = F(rho)
    chosen = []
    for p in fraction_points(points):
        if not chosen:
            chosen.append(p)
            continue
        gap_prev = p - chosen[-1]
        if min(gap_prev, 1 - gap_prev) < rho:
            continue
        gap_wrap = 1 - p + chosen[0]
        if min(gap_wrap, 1 - gap_wrap) < rho:
            continue
        chosen.append(p)
    return chosen


def fraction_box_counts(points, scales):
    """-> (counts, nested) as box_dim_series reports them."""
    scales = [F(s) for s in scales]
    counts = [brute_covering(points, rho) for rho in scales]
    nested = all((a / b).denominator == 1 for a, b in zip(scales, scales[1:]))
    return counts, nested


def fraction_window_counts(points, anchors, big_r, delta):
    """The cells each anchor's window [p, p + R) hits, walked cell by cell."""
    pts = fraction_points(points)
    ext = pts + [p + 1 for p in pts]
    cell = F(big_r) * F(delta)
    counts = []
    for ai in anchors:
        p = pts[ai]
        hi = bisect.bisect_left(ext, p + big_r, lo=ai)
        count = 0
        pos = ai
        while pos < hi:
            count += 1
            c = (ext[pos] - p) // cell
            pos = bisect.bisect_left(ext, p + (c + 1) * cell, lo=pos + 1, hi=hi)
        counts.append(count)
    return counts


def fraction_probe_windows(points, window_scales, anchor_cap=4096):
    pts = fraction_points(points)
    # the ten extremes kept at each end already take every anchor of a
    # set of at most 20 points
    if len(pts) <= max(anchor_cap, 20):
        anchors = list(range(len(pts)))
    else:
        step = len(pts) / anchor_cap
        anchors = sorted({int(i * step) for i in range(anchor_cap)}
                         | set(range(10)) | set(range(len(pts) - 10, len(pts))))
    reports = []
    for big_r, delta in window_scales:
        big_r = F(big_r)
        delta = F(delta)
        counts = fraction_window_counts(pts, anchors, big_r, delta)
        best_count = max(counts)
        best_anchor = pts[anchors[counts.index(best_count)]]
        with mpmath.workprec(DEFAULT_PREC_BITS):
            ratio = mpmath.log(best_count) / _log_inverse(delta)
            ratio_str = mpmath.nstr(ratio, LOG_DIGITS)
            ratio_val = float(ratio)
        reports.append({
            "window_width": big_r,
            "delta": delta,
            "max_cells": best_count,
            "witness_anchor": best_anchor,
            "log_ratio": ratio_str,
            "log_ratio_float": ratio_val,
            "anchors_probed": len(anchors),
            "anchors_total": len(pts),
        })
    return reports


# -- frozen examples ----------------------------------------------------------

def test_grid_covering_example():
    pts = [F(0), F(1, 10), F(15, 100), F(8, 10)]
    assert grid_covering(pts, F(1, 5)) == 2


def test_grid_covering_small_orbit_set():
    pts = [F(0), F(1, 10), F(2, 10), F(3, 10), F(4, 10), F(7, 10)]
    assert grid_covering(pts, F(1, 10)) == 6


def test_min_gap_wraps():
    # the smallest gap of {1/20, 19/20} is 1/10, through 0: the pair is
    # 1/10-separated and no more
    pts = [F(1, 20), F(19, 20)]
    assert maximal_separated_subset(pts, F(1, 10)) == pts
    assert maximal_separated_subset(pts, F(1, 10) + F(1, 10 ** 9)) == [F(1, 20)]


def test_maximal_separated_example():
    got = maximal_separated_subset([F(0), F(1, 20), F(1, 5)], F(1, 10))
    assert got == [F(0), F(1, 5)]


def test_maximal_separated_keeps_gaps_equal_to_rho():
    # separation is >= rho, so gaps of exactly rho (the wrap gap too) stay
    quarters = [F(k, 4) for k in range(4)]
    assert maximal_separated_subset(quarters, F(1, 4)) == quarters
    # no common denominator: fixed-point keys with a one-unit radius
    assert maximal_separated_subset([F(0), F(1, 7), F(1, 3), F(2, 3)], F(1, 3)) \
        == [F(0), F(1, 3), F(2, 3)]


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


@pytest.mark.parametrize("scales", [[F(1)], [F(1), F(1, 2)]])
def test_box_dim_series_rejects_unit_scale(scales):
    # log(1/scale) = 0 at scale 1, so its log ratio is undefined
    with pytest.raises(ValueError):
        box_dim_series([F(0)], scales)


def test_box_dim_series_refuses_an_empty_set():
    # an empty set once counted 0 cells with a log ratio of '-inf'
    with pytest.raises(ValueError, match="nonempty set"):
        box_dim_series([], [F(1, 4)])


@pytest.mark.parametrize("gap_bits", [65, 128, 140, 400])
def test_log_inverse_next_to_one_matches_high_precision(gap_bits):
    # log(den) - log(num) at 128 bits cancels to 0 within 2^-128 of 1
    q = 1 - F(1, 2 ** gap_bits)
    with mpmath.workprec(DEFAULT_PREC_BITS):
        got = _log_inverse(q)
    with mpmath.workprec(gap_bits + 200):
        want = -mpmath.log(1 - mpmath.mpf(2) ** -gap_bits)
        assert abs(got - want) <= want * mpmath.mpf(2) ** -120


def test_scale_and_delta_next_to_one_keep_a_log_ratio():
    near = 1 - F(1, 2 ** 140)
    pts = [F(0), 1 - F(1, 2 ** 141)]
    with mpmath.workprec(400):
        want = float(mpmath.log(2) / -mpmath.log(1 - mpmath.mpf(2) ** -140))
    (row,) = box_dim_series(pts, [near]).rows
    assert row.count == 2
    assert float(row.log_ratio) == pytest.approx(want, rel=1e-11)
    (rep,) = assouad_probe_windows(pts, [(F(1), near)])
    assert rep["max_cells"] == 2
    assert rep["log_ratio_float"] == pytest.approx(want, rel=1e-11)
    assert box_dim_series([0, F(1, 3)], [near]).rows[0].log_ratio == "0.0"
    assert assouad_probe_windows([0, F(1, 3)], [(F(1, 2), near)])[0]["log_ratio"] == "0.0"


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


def test_keys_pick_integers_exactly_when_denominators_divide_the_largest():
    def triple(points):
        circle = circle_points(points)
        return list(circle.keys), circle.den, circle.exact

    assert triple([F(3, 4), F(1, 2), 2, F(-1, 4), F(7, 4)]) == ([0, 2, 3], 4, None)
    assert triple([3, -1]) == ([0], 1, None)
    assert triple([]) == ([], 1, None)
    # no common denominator: fixed point over 2^(2 bits(4) + guard), one
    # unit of radius, the exact points kept beside the keys
    keys, den, exact = triple([F(1, 3), F(1, 4), F(4, 3)])
    assert den == 2 ** (2 * 3 + KEY_GUARD_BITS)
    assert keys == [den // 4, den // 3]
    assert [F(p) % 1 for p in exact] == [F(1, 4), F(1, 3)]
    assert all(type(k) is int for k in keys)
    # a set already in key form is used as it is
    circle = CirclePoints([1, 5], 8)
    assert circle_points(circle) is circle


def test_returned_points_are_fractions():
    pts = [F(1, 8), F(5, 8), 1]
    assert maximal_separated_subset(pts, F(1, 4)) == [F(0), F(5, 8)]
    assert all(type(p) is Fraction for p in maximal_separated_subset(pts, F(1, 4)))
    rep = assouad_probe_windows([0, 1], [(F(1, 2), F(1, 2))])
    assert type(rep[0]["witness_anchor"]) is Fraction
    # read by index, on both kinds of keys
    assert type(maximal_separated_subset(pts, F(1, 4))[1]) is Fraction
    fixed = maximal_separated_subset([F(1, 3), F(1, 4)], F(1, 100))
    assert fixed.exact is not None and fixed[-1] == F(1, 3)


def grid_cells(points, rho):
    """Sorted distinct indices of the rho-grid cells the set hits."""
    return _cells(circle_points(points), rho)


def test_grid_cells_sorted_distinct():
    assert grid_cells([F(9, 10), F(1, 10), F(19, 10), F(-9, 10)], F(1, 5)) == [0, 4]
    assert grid_cells([F(9, 10), F(1, 3)], F(1, 5)) == [1, 4]


def test_probe_small_set_under_tiny_cap_takes_every_anchor():
    # a cap below the set size used to add anchor indices past its end
    rep = assouad_probe_windows([F(0), F(1, 3)], [(F(1, 2), F(1, 4))], anchor_cap=1)
    assert rep[0]["anchors_probed"] == rep[0]["anchors_total"] == 2


@pytest.mark.parametrize("cap", [0, -1])
def test_probe_refuses_a_cap_below_one(cap):
    # on more than 20 points a cap of 0 once divided by zero, and a
    # negative cap probed only the 20 extremes
    pts = [F(k, 50) for k in range(50)]
    with pytest.raises(ValueError, match="anchor_cap"):
        assouad_probe_windows(pts, [(F(1, 2), F(1, 4))], anchor_cap=cap)


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


# -- the integer-key core against the Fraction oracles ------------------------

# Lattice sets share one denominator; numerators run past [0, den) on both
# sides, so negatives, points outside [0, 1) and duplicates mod 1 occur.
lattice_sets = st.integers(min_value=1, max_value=97).flatmap(
    lambda den: st.lists(st.integers(min_value=-2 * den, max_value=3 * den)
                         .map(lambda k: F(k, den)), min_size=1, max_size=60))


def _no_lattice(pts):
    """True when some denominator does not divide the largest one."""
    dens = [F(p).denominator for p in pts]
    return any(max(dens) % d for d in dens)


# Mixed sets have no common denominator among their own denominators.
mixed_sets = st.lists(
    st.one_of(st.fractions(min_value=-2, max_value=3, max_denominator=40),
              st.integers(min_value=-3, max_value=3)),
    min_size=2, max_size=60).filter(_no_lattice)


def _farey_pair(q, a):
    """a/q and its Farey neighbour c/s (s < q), 1/(qs) apart: as close as
    two points with denominators <= q can be."""
    if math.gcd(a, q) != 1:
        a = 1
    s = -pow(a, -1, q) % q
    return [F(a, q), F((1 + a * s) // q, s)]


# Guard sets make keys meet edges within their one-unit radius:
# - points on the cell edges of non-dyadic scales (i/b, b not a power of 2);
# - Farey neighbours;
# - denominators up to 2^200;
# - or a few points of denominator <= 16, whose gaps can differ by less
#   than a unit at guard 0.
# A point of prime denominator keeps the structured sets off any lattice.
edge_points = st.tuples(st.sampled_from([3, 5, 6, 7, 9, 12, 15, 25, 27, 45, 60, 81]),
                        st.integers(min_value=-100, max_value=200)).map(
    lambda t: [F(t[1], t[0])])
farey_pairs = st.builds(_farey_pair, st.integers(min_value=2, max_value=10 ** 6),
                        st.integers(min_value=1, max_value=10 ** 6))
huge_points = st.builds(F, st.integers(min_value=-2 ** 200, max_value=2 ** 201),
                        st.integers(min_value=1, max_value=2 ** 200)).map(lambda p: [p])
structured_sets = st.builds(
    lambda parts, prime: [p for part in parts for p in part] + [F(1, prime)],
    st.lists(st.one_of(edge_points, farey_pairs, huge_points), min_size=1, max_size=30),
    st.sampled_from([11, 13, 17, 19, 23]))
few_small_sets = st.lists(st.fractions(min_value=0, max_value=1, max_denominator=16),
                          min_size=3, max_size=8)
guard_sets = st.one_of(structured_sets, few_small_sets).filter(_no_lattice)
# Run sets: arithmetic progressions of up to 40 points with steps from
# 1/8 down to 1/4096, so that a progression often steps below the cell
# width of a drawn window while spanning several cells, among isolated
# points; window ends then cut through runs.
progressions = st.builds(
    lambda start, step, length: [start + i * step for i in range(length)],
    st.fractions(min_value=0, max_value=1, max_denominator=60),
    st.integers(min_value=3, max_value=12).flatmap(
        lambda j: st.integers(min_value=2 ** j, max_value=2 ** (j + 1)))
    .map(lambda m: F(1, m)),
    st.integers(min_value=2, max_value=40))
run_sets = st.builds(
    lambda runs, isolated: [p for run in runs for p in run] + isolated,
    st.lists(progressions, min_size=1, max_size=3),
    st.lists(st.fractions(min_value=0, max_value=1, max_denominator=60), max_size=10))
SET_FAMILIES = {
    "lattice": lattice_sets,
    "mixed": mixed_sets,
    "lattice+int": lattice_sets.map(lambda pts: pts + [int(p) for p in pts]),
    "guard": guard_sets,
    "runs": run_sets,
}
# Guard 0 keys points over 2^(2 bits(D)) alone, so edges fall within a
# key's unit often and the exact fallback runs; results must not change.
# Lattice sets have exact keys and no guard.
FAMILY_GUARDS = ([(f, KEY_GUARD_BITS) for f in sorted(SET_FAMILIES)]
                 + [("guard", 0), ("mixed", 0), ("runs", 0)])
families = pytest.mark.parametrize(
    "family, guard", FAMILY_GUARDS,
    ids=[f if g else f"{f}-guard0" for f, g in FAMILY_GUARDS])
windows = st.lists(
    st.tuples(st.fractions(min_value=F(1, 64), max_value=1, max_denominator=64),
              st.fractions(min_value=F(1, 64), max_value=F(63, 64),
                           max_denominator=64)),
    min_size=1, max_size=3)
scale_lists = st.one_of(
    st.lists(st.fractions(min_value=F(1, 300), max_value=F(299, 300),
                          max_denominator=300), min_size=1, max_size=5, unique=True)
    .map(lambda ss: sorted(ss, reverse=True)),
    st.tuples(st.integers(min_value=2, max_value=5),
              st.integers(min_value=1, max_value=3),
              st.integers(min_value=1, max_value=4))
    .map(lambda t: [F(1, t[0] ** j) for j in range(t[1], t[1] + t[2])]))


@families
@settings(max_examples=80)
@given(data=st.data(), rho=rhos)
def test_grid_and_separated_match_fraction_oracle(family, guard, data, rho):
    pts = data.draw(SET_FAMILIES[family])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dimension, "KEY_GUARD_BITS", guard)
        covering, cells = grid_covering(pts, rho), grid_cells(pts, rho)
        got = maximal_separated_subset(pts, rho)
    assert covering == brute_covering(pts, rho)
    assert cells == sorted(
        {p.numerator * rho.denominator // (p.denominator * rho.numerator)
         for p in fraction_points(pts)})
    assert got == fraction_separated_subset(pts, rho)
    assert all(type(p) is Fraction for p in got)


@families
@settings(max_examples=60)
@given(data=st.data(), scales=scale_lists)
def test_box_dim_series_matches_fraction_oracle(family, guard, data, scales):
    pts = data.draw(SET_FAMILIES[family])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dimension, "KEY_GUARD_BITS", guard)
        rep = box_dim_series(pts, scales)
    counts, nested = fraction_box_counts(pts, scales)
    assert rep.counts() == counts
    assert [r.scale for r in rep.rows] == scales
    assert rep.nested_scales == rep.monotone_checked == nested


@families
@settings(max_examples=60, deadline=None)
@given(data=st.data(), window_scales=windows, cap=st.integers(min_value=1, max_value=80))
def test_probe_matches_fraction_oracle(family, guard, data, window_scales, cap):
    pts = data.draw(SET_FAMILIES[family])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dimension, "KEY_GUARD_BITS", guard)
        got = assouad_probe_windows(pts, window_scales, anchor_cap=cap)
    want = fraction_probe_windows(pts, window_scales, anchor_cap=cap)
    assert got == want
    assert all(type(r["witness_anchor"]) is Fraction for r in got)


# Lattice sets in key form, as enumerate_E hands them over: distinct
# numerators in [0, den), den up to 2^30; empty sets, single points and
# den = 1 occur.
lattice_circles = st.one_of(st.integers(min_value=1, max_value=12),
                            st.integers(min_value=1, max_value=2 ** 30)).flatmap(
    lambda den: st.lists(st.integers(min_value=0, max_value=den - 1),
                         max_size=40, unique=True)
    .map(lambda nums: CirclePoints(sorted(nums), den)))


@settings(max_examples=200, deadline=None)
@given(circle=lattice_circles, rho=rhos, scales=scale_lists, window_scales=windows,
       cap=st.integers(min_value=1, max_value=80))
def test_lattice_points_match_fraction_path(circle, rho, scales, window_scales, cap):
    # the same points as a list of Fractions are keyed afresh, on a
    # lattice or in fixed point, and must give the same results
    pts = list(map(Fraction, circle.keys, repeat(circle.den)))
    assert circle == pts and list(circle) == pts and len(circle) == len(pts)
    assert grid_covering(circle, rho) == grid_covering(pts, rho)
    assert grid_cells(circle, rho) == grid_cells(pts, rho)
    chosen = maximal_separated_subset(circle, rho)
    assert type(chosen) is CirclePoints and chosen.den == circle.den
    assert list(chosen) == list(maximal_separated_subset(pts, rho))
    if pts:
        assert box_dim_series(circle, scales) == box_dim_series(pts, scales)
        got = assouad_probe_windows(circle, window_scales, anchor_cap=cap)
        assert got == assouad_probe_windows(pts, window_scales, anchor_cap=cap)
    else:
        for points in (circle, pts):
            with pytest.raises(ValueError):
                box_dim_series(points, scales)
            with pytest.raises(ValueError):
                assouad_probe_windows(points, window_scales)


@families
@settings(max_examples=40)
@given(data=st.data())
def test_min_gap_matches_fraction_scan(family, guard, data):
    # a set is rho-separated exactly when its smallest circular gap is at
    # least rho: the separated subset keeps every point at the smallest
    # gap of a Fraction scan, and drops one a third of a key unit above it
    pts = data.draw(SET_FAMILIES[family])
    ps = fraction_points(pts)
    assume(len(ps) >= 2)
    gap = min([1 + ps[0] - ps[-1]] + [b - a for a, b in zip(ps, ps[1:])])
    tiny = F(1, 3 << (2 * max(p.denominator for p in ps).bit_length() + guard))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dimension, "KEY_GUARD_BITS", guard)
        at_gap = maximal_separated_subset(pts, gap)
        above = maximal_separated_subset(pts, gap + tiny)
    assert at_gap == ps
    assert len(above) < len(ps)
    assert above == fraction_separated_subset(pts, gap + tiny)


@pytest.mark.parametrize("guard", [KEY_GUARD_BITS, 0])
def test_edges_within_a_unit_fall_back_to_exact_points(guard, monkeypatch):
    # 1/3 sits on the edge of the 1/3-grid, and its key floor(2^K / 3)
    # sits one unit below it: the keys alone cannot place it
    calls = []

    def counted(p):
        calls.append(p)
        return mod1(p)

    monkeypatch.setattr(dimension, "KEY_GUARD_BITS", guard)
    monkeypatch.setattr(dimension, "mod1", counted)
    assert grid_cells([F(1, 7), F(1, 3)], F(1, 3)) == [0, 1]
    assert calls == [F(1, 3)]
    # the window [0, 1/3) ends within a unit of the key of 1/3, which it
    # excludes, and 1/7 = 3/21 sits on an edge of its 1/21-cells
    calls.clear()
    pts, window = [F(0), F(1, 7), F(1, 3)], [(F(1, 3), F(1, 7))]
    rep = assouad_probe_windows(pts, window)
    assert calls
    assert rep[0]["max_cells"] == 2
    assert rep == fraction_probe_windows(pts, window)


@pytest.mark.parametrize("guard", [KEY_GUARD_BITS, 0])
@settings(max_examples=80, deadline=None)
@given(pts=guard_sets, data=st.data())
def test_edges_a_third_of_a_unit_from_points_match_fraction_oracles(guard, pts, data):
    # scales, separations and windows whose edges fall on a point or a
    # third of a key unit to either side of it
    ps = fraction_points(pts)
    tiny = F(1, 3 << (2 * max(p.denominator for p in ps).bit_length() + guard))

    def near(x):
        return x + data.draw(st.sampled_from([-tiny, 0, tiny]))

    def difference():
        i, j = data.draw(st.lists(st.integers(min_value=0, max_value=len(ps) - 1),
                                  min_size=2, max_size=2, unique=True))
        return (ps[j] - ps[i]) % 1

    rho = near(data.draw(st.sampled_from(ps))) / data.draw(st.integers(1, 8))
    d = difference()
    sep = near(min(d, 1 - d))
    big_r = near(difference())
    cell = near(difference()) / data.draw(st.integers(1, 8))
    assume(0 < rho and 0 < cell < big_r)
    window = [(big_r, cell / big_r)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dimension, "KEY_GUARD_BITS", guard)
        covering = grid_covering(pts, rho)
        chosen = maximal_separated_subset(pts, sep)
        probe = assouad_probe_windows(pts, window)
    assert covering == brute_covering(pts, rho)
    assert chosen == fraction_separated_subset(pts, sep)
    assert probe == fraction_probe_windows(pts, window)


@pytest.mark.parametrize("guard, pts, window", [
    (0, [F(0), F(4, 11), F(2, 3), F(12, 13)], (F(63, 143), F(28303, 145152))),
    (KEY_GUARD_BITS, [F(1, 9), F(2, 9), F(3, 8), F(2, 3), F(11, 12)],
     (F(25, 36), F(18889465931478580854787, 118059162071741130342400))),
])
def test_probe_offset_below_a_cell_edge_with_key_offset_past_it(guard, pts, window):
    # a point's offset from an anchor lies a third of a unit below a cell
    # edge, and its key offset lies past it: only the exact points put it
    # in the lower cell, and a later point one cell on shows the difference
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dimension, "KEY_GUARD_BITS", guard)
        got = assouad_probe_windows(pts, [window])
    assert got == fraction_probe_windows(pts, [window])


def test_probe_decides_a_gap_within_a_unit_of_the_cell_on_exact_points(monkeypatch):
    # At guard 0 keys are over 2^8 and the cell 1/96 is 2.67 keys wide.
    # 1/11 and 1/10 are 2 keys apart, within a unit of a cell: only the
    # exact gap 1/110 < 1/96 keeps them in one run.  From the anchor 1/11
    # both lie in cell 0; cut between them, they would count as 2 cells.
    monkeypatch.setattr(dimension, "KEY_GUARD_BITS", 0)
    pts, big_r, delta = [F(1, 11), F(1, 10), F(2, 3)], F(1, 16), F(1, 6)
    circle = circle_points(pts)
    assert abs(circle.keys[1] - circle.keys[0] - big_r * delta * circle.den) < 1
    exact, calls = dimension._exact, []

    def counted(c, i):
        calls.append(i)
        return exact(c, i)

    monkeypatch.setattr(dimension, "_exact", counted)
    _window_counts(circle, [], big_r, delta)   # no anchor: only the cuts
    assert calls == [1, 0]
    assert _window_counts(circle, [0, 1, 2], big_r, delta) == [1, 1, 1]
    assert fraction_window_counts(pts, [0, 1, 2], big_r, delta) == [1, 1, 1]
    window = [(big_r, delta)]
    assert assouad_probe_windows(pts, window) == fraction_probe_windows(pts, window)


@pytest.mark.parametrize("guard", [KEY_GUARD_BITS, 0])
def test_probe_every_anchor_of_reciprocals_matches_fraction_oracle(guard, monkeypatch):
    # the dense run from 1/500 to 1/64 crosses about 60 cells of 1/4096
    monkeypatch.setattr(dimension, "KEY_GUARD_BITS", guard)
    pts = [F(0)] + [F(1, k) for k in range(1, 501)]
    big_r, delta = F(1, 16), F(1, 256)
    circle = circle_points(pts)
    anchors = list(range(len(circle)))
    counts = _window_counts(circle, anchors, big_r, delta)
    assert counts == fraction_window_counts(pts, anchors, big_r, delta)
    assert max(counts) >= 60
    window = [(big_r, delta)]
    got = assouad_probe_windows(pts, window, anchor_cap=len(circle))
    assert got[0]["anchors_probed"] == len(circle) == 500
    assert got == fraction_probe_windows(pts, window, anchor_cap=len(circle))


@pytest.mark.parametrize("pts", [[F(0), F(1, 2), F(99, 100)],
                                 [F(0), F(1, 3), F(1, 2), F(99, 100)]])
def test_separated_subset_drops_a_wrap_conflict_with_the_first_pick(pts):
    # 99/100 lies far past the last pick 1/2 but 1/100 from 0 across the wrap
    assert maximal_separated_subset(pts, F(1, 50)) == pts[:-1]
    assert fraction_separated_subset(pts, F(1, 50)) == pts[:-1]


def test_min_gap_candidates_within_two_units():
    # at guard 0 the unit is 1/64: the gaps 2/35 and 1/20 differ by less,
    # and the larger one has the smaller key gap (3 units against 4), so
    # only the exact points tell that 1/5 and 1/4 are the pair 1/20 apart
    pts = [F(1, 7), F(1, 5), F(1, 4), F(2, 3)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dimension, "KEY_GUARD_BITS", 0)
        assert maximal_separated_subset(pts, F(1, 20)) == pts
        assert maximal_separated_subset(pts, F(2, 35)) == [F(1, 7), F(1, 5), F(2, 3)]


def test_reciprocal_counts_at_100000():
    # criterion 6's set: 1/k for k <= 100,000, at scales 4^-4 .. 4^-8
    k_max = 10 ** 5
    pts = [F(1, k) for k in range(1, k_max + 1)]
    scales = [F(1, 4 ** j) for j in range(4, 9)]
    counts = box_dim_series(pts, scales).counts()
    assert counts == [31, 63, 127, 255, 511]
    assert counts == [len({4 ** j // k for k in range(2, k_max + 1)} | {0})
                      for j in range(4, 9)]

"""Covering numbers, separated subsets and dimension probes for finite
circle sets.

Every estimator runs on the set's sorted distinct integer circle keys, a
`CirclePoints`; one passed in, as `katznelson.enumerate_E` and
`circle_points` make them, is used as it is.  Else when every
denominator divides the largest one, D, a point is exactly its key over D.  Otherwise keys are fixed point
over 2^K with K = 2 bits(D) + KEY_GUARD_BITS, and a point lies in
[key, key + 1) over 2^K: one unit of radius.  Distinct points differ by
at least 1/D^2, so such keys stay distinct and keep the circle order.
The estimators decide on keys and compare exact rationals only where a
cell or window edge falls within a key's unit.

Counts and distances are exact rationals; only the log-ratio columns of
a report go through mpmath, at a pinned working precision, and are
rendered once into strings so reports are byte-stable.
"""

import bisect
import operator
from dataclasses import dataclass
from collections.abc import Sequence
from fractions import Fraction
from typing import List, Tuple

import mpmath

from .exact import mod1

DEFAULT_PREC_BITS = 128
LOG_DIGITS = 12
# Fixed-point bits past 2 bits(D), so an edge rarely falls within a key's
# unit and the exact fallback rarely runs.
KEY_GUARD_BITS = 64


class CirclePoints(Sequence):
    """A finite circle set as its sorted distinct integer keys over den,
    read as Fractions in [0, 1), each built when read: keys[i] / den when
    exact is None, else exact[i] mod 1, where den is a power of two and
    the point lies in [keys[i], keys[i] + 1) / den."""

    __slots__ = ("keys", "den", "exact")

    def __init__(self, keys, den: int, exact=None):
        self.keys = tuple(keys)
        self.den = den
        self.exact = None if exact is None else tuple(exact)

    def __len__(self):
        return len(self.keys)

    def __getitem__(self, i: int) -> Fraction:
        if self.exact is None:
            return Fraction(self.keys[i], self.den)
        return mod1(self.exact[i])

    def __eq__(self, other):
        if isinstance(other, (CirclePoints, list)):
            return list(self) == list(other)
        return NotImplemented


def circle_points(points) -> CirclePoints:
    """The set as its sorted distinct circle keys over den: the largest
    denominator when every denominator divides it, else a power of two
    with the exact points kept beside the keys.  Key a set once to pass
    it to several estimators."""
    if isinstance(points, CirclePoints):
        return points
    pts = [p if isinstance(p, (int, Fraction)) else Fraction(p) for p in points]
    dens = [p.denominator for p in pts]
    den = max(dens, default=1)
    if all(den % d == 0 for d in dens):
        keys = {p.numerator * (den // d) % den for p, d in zip(pts, dens)}
        return CirclePoints(sorted(keys), den)
    shift = 2 * den.bit_length() + KEY_GUARD_BITS
    by_key = {((p.numerator % d) << shift) // d: p for p, d in zip(pts, dens)}
    keys = sorted(by_key)
    return CirclePoints(keys, 1 << shift, [by_key[k] for k in keys])


def _exact(circle: CirclePoints, i) -> Fraction:
    """The exact point of index i in the unrolled circle, keys followed by
    [k + den for k in keys]; the second lap is one more."""
    return circle[i % len(circle)] + (i >= len(circle))


def _ceil_div(num: int, den: int) -> int:
    return -(-num // den)


def _cells(circle: CirclePoints, rho: Fraction) -> List[int]:
    keys, den, exact = circle.keys, circle.den, circle.exact
    rho = Fraction(rho)
    if not 0 < rho <= 1:
        raise ValueError("scale must lie in (0, 1]")
    rd, rn = rho.denominator, rho.numerator
    unit = den * rn              # a cell is unit / rd keys wide
    r = 0 if exact is None else 1
    cells: List[int] = []
    last = None
    nxt = 0    # fixed-point keys below nxt lie in the last cell
    for i, k in enumerate(keys):
        if k < nxt:
            continue
        c = k * rd // unit
        if r and (k + 1) * rd // unit != c:   # an edge within the key's unit
            p = mod1(exact[i])
            c = p.numerator * rd // (p.denominator * rn)
        if c != last:
            cells.append(c)
            last = c
            if r:
                nxt = -(-(c + 1) * unit // rd) - 1
    return cells


def _covering(circle: CirclePoints, rho: Fraction) -> int:
    rho = Fraction(rho)
    n = len(_cells(circle, rho))
    assert n <= _ceil_div(rho.denominator, rho.numerator), "more cells than the grid has"
    return n


def grid_covering(points, rho: Fraction) -> int:
    """Number of rho-grid cells needed for the set (grid anchored at 0)."""
    return _covering(circle_points(points), rho)


def maximal_separated_subset(points, rho: Fraction) -> CirclePoints:
    """Greedy maximal rho-separated subset, scanning from the smallest
    point upward with the wrap distance checked against the first pick.
    The subset is returned over the input's circle keys.

    Maximality holds because a point skipped for conflicting with the
    set keeps conflicting as the set only grows.
    """
    rho = Fraction(rho)
    if rho <= 0:
        raise ValueError("separation must be positive")
    circle = circle_points(points)
    keys, den, exact = circle.keys, circle.den, circle.exact
    rd = rho.denominator
    reach = rho.numerator * den   # a key distance d is below rho when d * rd < reach
    # a key distance is within one unit of the true distance: between lo
    # and hi only the exact points decide
    slack = 0 if exact is None else rd
    lo, hi = reach - slack, reach + slack

    def near(a, b):
        d = circle[bisect.bisect_left(keys, b)] - circle[bisect.bisect_left(keys, a)]
        return min(d, 1 - d) < rho

    # A key distance of sure or more is at least rho.  A wrap conflict
    # with the last pick implies one with the first, which lies before
    # it, so the wrap check runs only for keys past wrap.
    sure = _ceil_div(hi, rd)
    chosen: List[int] = []
    for k in keys:
        if chosen:
            gap = k - chosen[-1]
            if gap < sure and (min(gap, den - gap) * rd < lo or near(chosen[-1], k)):
                continue
            gap = k - chosen[0]
            if k > wrap and (min(gap, den - gap) * rd < lo or near(chosen[0], k)):
                continue
        else:
            wrap = k + den - sure
        chosen.append(k)
    picks = None if exact is None else [exact[bisect.bisect_left(keys, k)] for k in chosen]
    return CirclePoints(chosen, den, picks)


@dataclass(frozen=True)
class CoveringRow:
    scale: Fraction
    count: int
    log_ratio: str  # log(count)/log(1/scale) at pinned precision


@dataclass(frozen=True)
class CoveringReport:
    rows: Tuple[CoveringRow, ...]
    nested_scales: bool          # every scale divides the previous one
    monotone_checked: bool       # count monotonicity verified (nested only)

    def counts(self):
        return [r.count for r in self.rows]


def _log_inverse(q: Fraction):
    """log(1/q) for 0 < q < 1 at the working precision.  Within 2^-64 of 1,
    log(den) - log(num) cancels toward 0, so log1p of -(1 - q) is used."""
    gap = q.denominator - q.numerator
    if gap << 64 < q.denominator:
        return -mpmath.log1p(-mpmath.mpf(gap) / q.denominator)
    return mpmath.log(q.denominator) - mpmath.log(q.numerator)


def _log_ratio(count: int, scale: Fraction) -> str:
    with mpmath.workprec(DEFAULT_PREC_BITS):
        return mpmath.nstr(mpmath.log(count) / _log_inverse(scale), LOG_DIGITS)


def successive_slopes(rows: Sequence[CoveringRow]):
    """Slopes log(N_{i+1}/N_i) / log(scale_i/scale_{i+1}) between
    consecutive rows, as floats (diagnostic values, not report fields)."""
    out = []
    with mpmath.workprec(DEFAULT_PREC_BITS):
        for a, b in zip(rows, rows[1:]):
            num = mpmath.log(b.count) - mpmath.log(a.count)
            den = mpmath.log(a.scale / b.scale)
            out.append(float(num / den))
    return out


def box_dim_series(points, scales) -> CoveringReport:
    """Covering counts across a strictly decreasing list of scales in (0, 1).

    Count monotonicity is a theorem only when each scale divides its
    predecessor (nested grids); for other scale lists it is reported
    unchecked.
    """
    scales = [Fraction(s) for s in scales]
    if any(b >= a for a, b in zip(scales, scales[1:])):
        raise ValueError("scales must be strictly decreasing")
    if any(not 0 < s < 1 for s in scales):
        # log(1/scale) divides the log ratio, and it is 0 at scale 1
        raise ValueError("box-counting scales must lie in (0, 1)")
    circle = circle_points(points)
    if not len(circle):
        raise ValueError("box-counting needs a nonempty set")
    rows = []
    for rho in scales:
        count = _covering(circle, rho)
        rows.append(CoveringRow(rho, count, _log_ratio(count, rho)))
    nested = all((a / b).denominator == 1 for a, b in zip(scales, scales[1:]))
    if nested:
        for a, b in zip(rows, rows[1:]):
            assert a.count <= b.count, (
                f"covering count dropped from {a.count} to {b.count} on nested grids")
    return CoveringReport(tuple(rows), nested, nested)


def _window_counts(circle: CirclePoints, anchors, big_r: Fraction, delta: Fraction):
    """For each anchor index, the delta*R-grid cells from its point p that
    the window [p, p + R) hits, counted by runs: the circle is cut where
    neighbours lie a cell or more apart, so a cut starts a new cell and
    within a run the cell index rises by 0 or 1 per point.  A run from s
    to e thus hits cell(e) - cell(s) + 1 cells."""
    keys, den, exact = circle.keys, circle.den, circle.exact
    n = len(keys)
    ext = list(keys) + [k + den for k in keys]
    # gaps[i - 1] = ext[i] - ext[i - 1] for 0 < i <= n; the second lap repeats them
    gaps = list(map(operator.sub, keys[1:], keys)) + [keys[0] + den - keys[-1]]
    # a key offset is within r units of the true offset (r = 0 on a
    # lattice, else 1); the exact points decide within r units of an edge
    r = 0 if exact is None else 1
    cell = big_r * delta
    cd, cn = cell.denominator, cell.numerator
    unit = cn * den              # a cell is unit / cd keys wide
    width = _ceil_div(big_r.numerator * den, big_r.denominator)
    # cut before i when gaps[i - 1] is a cell or more: surely so from
    # sure keys on, and decided on the exact points 2r keys below that
    sure = _ceil_div(unit, cd) + r
    cuts = [i for i, g in enumerate(gaps, 1) if g >= sure - 2 * r and (
        g >= sure or _exact(circle, i) - _exact(circle, i - 1) >= cell)]
    cuts += [i + n for i in cuts if i < n]
    bounds = [0] + cuts + [2 * n]
    # the first (even entries) and last (odd) index of each run of two or
    # more points
    edges = [i for s, t in zip(bounds, bounds[1:]) if t - s > 1 for i in (s, t - 1)]
    counts = []
    for ai in anchors:
        k = keys[ai]
        end = k + width
        # of keys below end - r, all lie in the window; past end, none
        hi = bisect.bisect_left(ext, end - r, ai)
        if r and ext[hi] <= end:
            x = _exact(circle, ai)
            while ext[hi] <= end and _exact(circle, hi) - x < big_r:
                hi += 1
        # one cell per run meeting [ai, hi), and one per cell each run
        # rises by: its clipped end's cell less its clipped start's, where
        # the anchor's own cell is 0
        lo = bisect.bisect_right(edges, ai)
        up = bisect.bisect_left(edges, hi, lo)
        pos = edges[lo:up] + [hi - 1] * (up & 1)
        cells = [(ext[p] - k - r) * cd // unit for p in pos]
        if r and cells != [(ext[p] - k + r) * cd // unit for p in pos]:
            for t, p in enumerate(pos):    # an edge within a key's unit
                y = _exact(circle, p) - _exact(circle, ai)
                cells[t] = y.numerator * cd // (y.denominator * cn)
        counts.append(bisect.bisect_left(cuts, hi) - bisect.bisect_right(cuts, ai) + 1
                      + sum(cells[1 - lo % 2::2]) - sum(cells[lo % 2::2]))
    return counts


def assouad_probe_windows(points, window_scales, anchor_cap: int = 4096):
    """Localized covering probe.

    For each (R, delta) pair, slide a window [p, p+R) over anchors p
    drawn from the set, count delta*R-grid cells hit inside the window,
    and report max over windows of log(count)/log(1/delta) with its first
    anchor.  Anchors are thinned deterministically to anchor_cap (keeping
    the extremes) when the set is large; the reported maximum is then a
    lower bound for the all-anchors maximum.  Windows are counted by runs
    of points less than a cell apart, not cell by cell (`_window_counts`).
    """
    if anchor_cap < 1:
        raise ValueError("need anchor_cap >= 1")
    circle = circle_points(points)
    n = len(circle)
    if not n:
        raise ValueError("probe needs a nonempty set")
    # the ten extremes kept at each end already take every anchor of a
    # set of at most 20 points
    if n <= max(anchor_cap, 20):
        anchors = list(range(n))
    else:
        step = n / anchor_cap
        anchors = sorted({int(i * step) for i in range(anchor_cap)}
                         | set(range(10)) | set(range(n - 10, n)))
    reports = []
    for big_r, delta in window_scales:
        big_r = Fraction(big_r)
        delta = Fraction(delta)
        if not (0 < big_r <= 1 and 0 < delta < 1):
            raise ValueError("need 0 < R <= 1 and 0 < delta < 1")
        counts = _window_counts(circle, anchors, big_r, delta)
        best_count = max(counts)
        best_anchor = anchors[counts.index(best_count)]
        with mpmath.workprec(DEFAULT_PREC_BITS):
            ratio = mpmath.log(best_count) / _log_inverse(delta)
            ratio_str = mpmath.nstr(ratio, LOG_DIGITS)
            ratio_val = float(ratio)
        reports.append({
            "window_width": big_r,
            "delta": delta,
            "max_cells": best_count,
            "witness_anchor": circle[best_anchor],
            "log_ratio": ratio_str,
            "log_ratio_float": ratio_val,
            "anchors_probed": len(anchors),
            "anchors_total": n,
        })
    return reports

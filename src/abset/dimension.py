"""Covering numbers, separated subsets and dimension probes for finite
circle sets.

Every estimator runs on the set's sorted distinct integer circle keys, a
`CirclePoints`; one passed in, as `katznelson.enumerate_E` makes them,
is used as it is.  Else when every denominator divides the largest one,
D, a point is exactly its key over D.  Otherwise keys are fixed point
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


def _keys(points) -> CirclePoints:
    """The set as its sorted distinct circle keys over den: the largest
    denominator when every denominator divides it, else a power of two
    with the exact points kept beside the keys."""
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
    return _covering(_keys(points), rho)


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
    circle = _keys(points)
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

    chosen: List[int] = []
    for k in keys:
        if chosen:
            gap = k - chosen[-1]
            d = min(gap, den - gap) * rd
            if d < hi and (d < lo or near(chosen[-1], k)):
                continue
            gap = k - chosen[0]   # the wrap distance to the first pick
            d = min(gap, den - gap) * rd
            if d < hi and (d < lo or near(chosen[0], k)):
                continue
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


def _log_ratio(count: int, scale: Fraction, prec_bits: int) -> str:
    with mpmath.workprec(prec_bits):
        return mpmath.nstr(mpmath.log(count) / _log_inverse(scale), LOG_DIGITS)


def successive_slopes(rows: Sequence[CoveringRow], prec_bits: int = DEFAULT_PREC_BITS):
    """Slopes log(N_{i+1}/N_i) / log(scale_i/scale_{i+1}) between
    consecutive rows, as floats (diagnostic values, not report fields)."""
    out = []
    with mpmath.workprec(prec_bits):
        for a, b in zip(rows, rows[1:]):
            num = mpmath.log(b.count) - mpmath.log(a.count)
            den = mpmath.log(a.scale / b.scale)
            out.append(float(num / den))
    return out


def box_dim_series(points, scales, prec_bits: int = DEFAULT_PREC_BITS) -> CoveringReport:
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
    circle = _keys(points)
    rows = []
    for rho in scales:
        count = _covering(circle, rho)
        rows.append(CoveringRow(rho, count, _log_ratio(count, rho, prec_bits)))
    nested = all((a / b).denominator == 1 for a, b in zip(scales, scales[1:]))
    if nested:
        for a, b in zip(rows, rows[1:]):
            assert a.count <= b.count, (
                f"covering count dropped from {a.count} to {b.count} on nested grids")
    return CoveringReport(tuple(rows), nested, nested)


def assouad_probe_windows(points, window_scales, prec_bits: int = DEFAULT_PREC_BITS,
                          anchor_cap: int = 4096):
    """Localized covering probe.

    For each (R, delta) pair, slide a window [p, p+R) over anchors p
    drawn from the set, count delta*R-grid cells hit inside the window,
    and report max over windows of log(count)/log(1/delta).  Anchors are
    thinned deterministically to anchor_cap (keeping the extremes) when
    the set is large; the reported maximum is then a lower bound for the
    all-anchors maximum.
    """
    circle = _keys(points)
    keys, den, exact = circle.keys, circle.den, circle.exact
    if not keys:
        raise ValueError("probe needs a nonempty set")
    # the ten extremes kept at each end already take every anchor of a
    # set of at most 20 points
    if len(keys) <= max(anchor_cap, 20):
        anchors = list(range(len(keys)))
    else:
        step = len(keys) / anchor_cap
        anchors = sorted({int(i * step) for i in range(anchor_cap)}
                         | set(range(10)) | set(range(len(keys) - 10, len(keys))))
    ext = list(keys) + [k + den for k in keys]
    # A key offset from an anchor is within r units of the true offset
    # (r = 0 on a lattice, else 1).  Of an edge rounded up to a key, keys
    # below edge - r lie before it, keys past edge lie after it, and the
    # keys between are settled on their exact points.
    r = 0 if exact is None else 1

    def settle(a, pos, hi, edge, bound):
        """Skip the keys from pos up to edge whose exact offset from
        anchor a is below bound."""
        p = _exact(circle, a)
        while pos < hi and ext[pos] <= edge and _exact(circle, pos) - p < bound:
            pos += 1
        return pos

    reports = []
    for big_r, delta in window_scales:
        big_r = Fraction(big_r)
        delta = Fraction(delta)
        if not (0 < big_r <= 1 and 0 < delta < 1):
            raise ValueError("need 0 < R <= 1 and 0 < delta < 1")
        cell = big_r * delta
        cd, cn = cell.denominator, cell.numerator
        unit = cn * den              # a cell is unit / cd keys wide
        width = _ceil_div(big_r.numerator * den, big_r.denominator)
        best_count = 0
        best_anchor = 0
        for ai in anchors:
            k = keys[ai]
            end = k + width
            hi = bisect.bisect_left(ext, end - r, ai)
            if r and ext[hi] <= end:
                hi = settle(ai, hi, len(ext), end, big_r)
            count, c, pos = 0, 0, ai   # the anchor lies in cell 0
            while pos < hi:
                count += 1
                # jump past the rest of cell c
                edge = k - (-(c + 1) * unit // cd)
                pos = bisect.bisect_left(ext, edge - r, pos + 1, hi)
                if r and pos < hi and ext[pos] <= edge:
                    pos = settle(ai, pos, hi, edge, (c + 1) * cell)
                if pos < hi:
                    d = ext[pos] - k
                    c = (d - r) * cd // unit
                    if r and (d + r) * cd // unit != c:
                        y = _exact(circle, pos) - _exact(circle, ai)
                        c = y.numerator * cd // (y.denominator * cn)
            if count > best_count:
                best_count = count
                best_anchor = ai
        with mpmath.workprec(prec_bits):
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
            "anchors_total": len(keys),
        })
    return reports

"""Covering numbers, gaps and dimension probes for finite circle sets.

Counts and distances are exact rationals; only the log-ratio columns of
a report go through mpmath, at a pinned working precision, and are
rendered once into strings so reports are byte-stable.
"""

import bisect
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

import mpmath

from .exact import mod1

DEFAULT_PREC_BITS = 128
LOG_DIGITS = 12


def _keys(points):
    """-> (keys, den): the set's sorted distinct circle keys, point = key / den.

    When every denominator divides the largest one, den is that
    denominator and the keys are integers in [0, den); otherwise den = 1
    and the keys are the points reduced into [0, 1) as Fractions.  The
    estimators below run one loop over either kind of key.
    """
    pts = [p if isinstance(p, (int, Fraction)) else Fraction(p) for p in points]
    den = max((p.denominator for p in pts), default=1)
    if all(den % p.denominator == 0 for p in pts):
        keys = {p.numerator * (den // p.denominator) % den for p in pts}
    else:
        den = 1
        keys = {mod1(p) for p in pts}
    return sorted(keys), den


def _ceil_div(num: int, den: int) -> int:
    return -(-num // den)


def _cells(keys, den: int, rho: Fraction) -> List[int]:
    rho = Fraction(rho)
    if not 0 < rho <= 1:
        raise ValueError("scale must lie in (0, 1]")
    rd, unit = rho.denominator, den * rho.numerator
    cells: List[int] = []
    last = None
    for k in keys:  # sorted keys give sorted cells; an int key has denominator 1
        c = k.numerator * rd // (k.denominator * unit)
        if c != last:
            cells.append(c)
            last = c
    return cells


def _covering(keys, den: int, rho: Fraction) -> int:
    rho = Fraction(rho)
    n = len(_cells(keys, den, rho))
    assert n <= _ceil_div(rho.denominator, rho.numerator), "more cells than the grid has"
    return n


def grid_cells(points, rho: Fraction) -> List[int]:
    """Sorted distinct indices of grid cells [i*rho, (i+1)*rho) hit by the
    set; the grid is anchored at 0."""
    return _cells(*_keys(points), rho)


def grid_covering(points, rho: Fraction) -> int:
    """Number of rho-grid cells needed for the set (grid anchored at 0)."""
    return _covering(*_keys(points), rho)


def min_gap(points) -> Fraction:
    """Smallest circular distance between distinct points; needs >= 2."""
    keys, den = _keys(points)
    if len(keys) < 2:
        raise ValueError("min_gap needs at least two distinct points")
    best = den + keys[0] - keys[-1]  # wrap gap
    for a, b in zip(keys, keys[1:]):
        if b - a < best:
            best = b - a
    return Fraction(best, den)


def maximal_separated_subset(points, rho: Fraction) -> List[Fraction]:
    """Greedy maximal rho-separated subset, scanning from the smallest
    point upward with the wrap distance checked against the first pick.

    Maximality holds because a point skipped for conflicting with the
    set keeps conflicting as the set only grows.
    """
    rho = Fraction(rho)
    if rho <= 0:
        raise ValueError("separation must be positive")
    keys, den = _keys(points)
    rd, reach = rho.denominator, rho.numerator * den
    chosen = []
    for k in keys:
        if chosen:
            gap = k - chosen[-1]
            if min(gap, den - gap) * rd < reach:
                continue
            gap = den - k + chosen[0]
            if min(gap, den - gap) * rd < reach:
                continue
        chosen.append(k)
    return [Fraction(k, den) for k in chosen]


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


def _log_ratio(count: int, scale: Fraction, prec_bits: int) -> str:
    with mpmath.workprec(prec_bits):
        num = mpmath.log(count)
        den = mpmath.log(scale.denominator) - mpmath.log(scale.numerator)
        return mpmath.nstr(num / den, LOG_DIGITS)


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
    keys, den = _keys(points)
    rows = []
    for rho in scales:
        count = _covering(keys, den, rho)
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
    keys, den = _keys(points)
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
    ext = keys + [k + den for k in keys]
    # an offset num/d in key units; on integer keys its ceiling bisects to
    # the same first key at or past the exact offset
    offset = _ceil_div if isinstance(keys[0], int) else Fraction
    reports = []
    for big_r, delta in window_scales:
        big_r = Fraction(big_r)
        delta = Fraction(delta)
        if not (0 < big_r <= 1 and 0 < delta < 1):
            raise ValueError("need 0 < R <= 1 and 0 < delta < 1")
        cell = big_r * delta
        cd, unit = cell.denominator, cell.numerator * den
        width = offset(big_r.numerator * den, big_r.denominator)
        best_count = 0
        best_anchor = keys[0]
        for ai in anchors:
            k = keys[ai]
            hi = bisect.bisect_left(ext, k + width, lo=ai)
            count = 0
            pos = ai
            while pos < hi:
                count += 1
                # jump past the rest of this cell
                c = (ext[pos] - k) * cd // unit
                pos = bisect.bisect_left(ext, k + offset((c + 1) * unit, cd),
                                         lo=pos + 1, hi=hi)
            if count > best_count:
                best_count = count
                best_anchor = k
        with mpmath.workprec(prec_bits):
            ratio = mpmath.log(best_count) / (mpmath.log(delta.denominator)
                                              - mpmath.log(delta.numerator))
            ratio_str = mpmath.nstr(ratio, LOG_DIGITS)
            ratio_val = float(ratio)
        reports.append({
            "window_width": big_r,
            "delta": delta,
            "max_cells": best_count,
            "witness_anchor": Fraction(best_anchor, den),
            "log_ratio": ratio_str,
            "log_ratio_float": ratio_val,
            "anchors_probed": len(anchors),
            "anchors_total": len(keys),
        })
    return reports

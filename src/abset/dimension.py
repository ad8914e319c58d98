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


def _normalize(points) -> List[Fraction]:
    """Sorted distinct circle points in [0, 1)."""
    return sorted({mod1(p) for p in points})


def grid_cells(points, rho: Fraction) -> List[int]:
    """Sorted distinct indices of grid cells [i*rho, (i+1)*rho) hit by the
    set; the grid is anchored at 0."""
    rho = Fraction(rho)
    if not 0 < rho <= 1:
        raise ValueError("scale must lie in (0, 1]")
    cells = set()
    rn, rd = rho.numerator, rho.denominator
    for p in _normalize(points):
        cells.add(p.numerator * rd // (p.denominator * rn))
    return sorted(cells)


def grid_covering(points, rho: Fraction) -> int:
    """Number of rho-grid cells needed for the set (grid anchored at 0)."""
    n = len(grid_cells(points, rho))
    rho = Fraction(rho)
    assert n <= -(-rho.denominator // rho.numerator), "more cells than the grid has"
    return n


def min_gap(points) -> Fraction:
    """Smallest circular distance between distinct points; needs >= 2."""
    pts = _normalize(points)
    if len(pts) < 2:
        raise ValueError("min_gap needs at least two distinct points")
    best = 1 + pts[0] - pts[-1]  # wrap gap
    for a, b in zip(pts, pts[1:]):
        if b - a < best:
            best = b - a
    return Fraction(best)


def maximal_separated_subset(points, rho: Fraction) -> List[Fraction]:
    """Greedy maximal rho-separated subset, scanning from the smallest
    point upward with the wrap distance checked against the first pick.

    Maximality holds because a point skipped for conflicting with the
    set keeps conflicting as the set only grows.
    """
    rho = Fraction(rho)
    if rho <= 0:
        raise ValueError("separation must be positive")
    pts = _normalize(points)
    chosen: List[Fraction] = []
    for p in pts:
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
    """Covering counts across a strictly decreasing list of scales.

    Count monotonicity is a theorem only when each scale divides its
    predecessor (nested grids); for other scale lists it is reported
    unchecked.
    """
    scales = [Fraction(s) for s in scales]
    if any(b >= a for a, b in zip(scales, scales[1:])):
        raise ValueError("scales must be strictly decreasing")
    rows = []
    for rho in scales:
        count = grid_covering(points, rho)
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
    pts = _normalize(points)
    if not pts:
        raise ValueError("probe needs a nonempty set")
    if len(pts) <= anchor_cap:
        anchors = list(range(len(pts)))
    else:
        step = len(pts) / anchor_cap
        anchors = sorted({int(i * step) for i in range(anchor_cap)}
                         | set(range(10)) | set(range(len(pts) - 10, len(pts))))
    ext = pts + [p + 1 for p in pts]
    reports = []
    for big_r, delta in window_scales:
        big_r = Fraction(big_r)
        delta = Fraction(delta)
        if not (0 < big_r <= 1 and 0 < delta < 1):
            raise ValueError("need 0 < R <= 1 and 0 < delta < 1")
        cell = big_r * delta
        best_count = 0
        best_anchor = pts[0]
        for ai in anchors:
            p = pts[ai]
            hi = bisect.bisect_left(ext, p + big_r, lo=ai)
            count = 0
            pos = ai
            while pos < hi:
                count += 1
                # jump past the rest of this cell
                c = (ext[pos] - p) // cell
                pos = bisect.bisect_left(ext, p + (c + 1) * cell, lo=pos + 1, hi=hi)
            if count > best_count:
                best_count = count
                best_anchor = p
        with mpmath.workprec(prec_bits):
            ratio = mpmath.log(best_count) / (mpmath.log(delta.denominator)
                                              - mpmath.log(delta.numerator))
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

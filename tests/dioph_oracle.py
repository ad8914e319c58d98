"""Test oracle: the Fraction interval arithmetic and the dichotomy, horizon
and probe scans that ran on it before they moved onto integer units, and
the separation check's loop over every pair of orbit points, which ran
before the check moved onto letter counts.  The dichotomy and the
probe's case-1 separation visit every pair of points, with no budget:
they are the references for the letter-count dichotomy and the sorted
sweep.  `integer_ratio_scan_pairwise` is the integer-ratio scan's loop
over every pair of minima records, with its float prefilter, the
reference for the windowed scan over sorted values.  `window_groups`
and `window_pairs` are the letter-count groups as they were before each
group became one int bit mask: a list of every window's x-count per gap.

Every value here is an `Interval` of two exact Fractions, and every
power threshold goes through `cmp_products`.  The scans read the minima
records' `delta` and the points as given, so they share nothing with
the integer-unit code but the minima scan itself, which has its own
oracles.  The integer-unit scans must agree with these field for field.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import sub
from typing import List, Optional, Sequence, Tuple

import mpmath

from abset.diophantine import (
    DEC_PREC_BITS,
    GUARD_BITS,
    LOG_DIGITS,
    ApproxReal,
    AssouadProbeReport,
    GapDichotomyReport,
    ProbeCase,
    QualifyingScan,
    RatioPair,
    RatioScanReport,
    RatioViolation,
    SeparationReport,
    WindowWitness,
)
from abset.errors import InsufficientPrecision, UsageError
from abset.exact import ceil_root_ratio, dec_sci, mod1

_ZERO = Fraction(0)


@dataclass(frozen=True)
class Interval:
    """A real number known to lie in [mid - rad, mid + rad]."""

    mid: Fraction
    rad: Fraction = _ZERO

    @property
    def lo(self) -> Fraction:
        return self.mid - self.rad

    @property
    def hi(self) -> Fraction:
        return self.mid + self.rad

    def __sub__(self, other) -> "Interval":
        o = as_interval(other)
        return Interval(self.mid - o.mid, self.rad + o.rad)

    def scaled(self, q) -> "Interval":
        q = Fraction(q)
        return Interval(self.mid * q, self.rad * abs(q))

    def times(self, other) -> "Interval":
        o = as_interval(other)
        corners = [self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi]
        return from_bounds(min(corners), max(corners))

    def pow_int(self, k: int) -> "Interval":
        if k == 0:
            return Interval(Fraction(1))
        lo, hi = self.lo, self.hi
        if lo >= 0:
            return from_bounds(lo ** k, hi ** k)
        if hi <= 0:
            if k % 2 == 0:
                return from_bounds(hi ** k, lo ** k)
            return from_bounds(lo ** k, hi ** k)
        if k % 2 == 0:
            return from_bounds(_ZERO, max(lo ** k, hi ** k))
        return from_bounds(lo ** k, hi ** k)

    def dist_to_nearest_int(self) -> "Interval":
        # distance-to-Z is 1-Lipschitz, so the radius carries over
        m = mod1(self.mid)
        return Interval(min(m, 1 - m), self.rad)


def from_bounds(lo: Fraction, hi: Fraction) -> Interval:
    return Interval((lo + hi) / 2, (hi - lo) / 2)


def as_interval(x) -> Interval:
    if isinstance(x, Interval):
        return x
    if isinstance(x, ApproxReal):
        return Interval(x.mid, x.rad)
    return Interval(Fraction(x))


def try_cmp(a, b) -> Optional[int]:
    """-1, 0, +1 when the order of a and b is certain, else None."""
    d = as_interval(a) - as_interval(b)
    if d.rad and abs(d.mid) <= d.rad * (1 << GUARD_BITS):
        return None
    return (d.mid > 0) - (d.mid < 0)


def cmp_products(left, right) -> Optional[int]:
    """Certified comparison of two products of integer powers."""
    def side(factors):
        acc = Interval(Fraction(1))
        for base, k in factors:
            acc = acc.times(as_interval(base).pow_int(k))
        return acc
    return try_cmp(side(left), side(right))


def is_zero(delta) -> bool:
    return isinstance(delta, Fraction) and delta == 0


def scan_horizon(delta, s: Fraction) -> int:
    """N = ceil((1/delta)**s) for a certified-positive minimum."""
    s = Fraction(s)
    p, q = s.numerator, s.denominator
    if isinstance(delta, (int, Fraction)):
        delta = Fraction(delta)
        if delta <= 0:
            raise UsageError("scan horizon needs delta > 0")
        return ceil_root_ratio(delta.denominator ** p, delta.numerator ** p, q)
    delta = as_interval(delta)
    lo, hi = delta.lo, delta.hi
    if lo <= 0:
        raise InsufficientPrecision("scan-horizon", "minimum not certified positive")
    n_hi = ceil_root_ratio(lo.denominator ** p, lo.numerator ** p, q)
    n_lo = ceil_root_ratio(hi.denominator ** p, hi.numerator ** p, q)
    if n_lo != n_hi:
        raise InsufficientPrecision("scan-horizon", f"N lies in [{n_lo}, {n_hi}]")
    return n_hi


def orbit_separation_check(points, records) -> SeparationReport:
    """d(t_i, t_j) >= delta_(j-i), one pair at a time, on the lcm of the
    reduced denominators of the points, the deltas and their radii."""
    n_pts = len(points)
    if n_pts < 2:
        return SeparationReport(0, (), 0, None)
    if len(records) < n_pts - 1:
        raise UsageError(f"need minima up to gap {n_pts - 1}, got {len(records)}")
    for g, rec in enumerate(records[:n_pts - 1], start=1):
        if rec.n != g:
            raise UsageError("minima records must cover gaps 1, 2, ... in order")
    vals = [as_interval(v) for v in points] + \
        [as_interval(r.delta) for r in records[:n_pts - 1]]
    one = math.lcm(*(x.denominator for v in vals for x in (v.mid, v.rad)))
    units = [(int(v.mid * one), int(v.rad * one)) for v in vals]
    pu, du = units[:n_pts], units[n_pts:]
    violations: List[Tuple[int, int]] = []
    undecided = 0
    worst: Optional[int] = None
    for i in range(n_pts):
        for j in range(i + 1, n_pts):
            r = (pu[j][0] - pu[i][0]) % one
            gap = min(r, one - r) - du[j - i - 1][0]
            radsum = pu[i][1] + pu[j][1] + du[j - i - 1][1]
            if radsum and abs(gap) <= radsum << GUARD_BITS:
                undecided += 1
            elif gap < 0:
                violations.append((i + 1, j + 1))
            elif radsum:                # an exact pair carries no margin
                bits = gap.bit_length() - radsum.bit_length()
                if worst is None or bits < worst:
                    worst = bits
    return SeparationReport(n_pts * (n_pts - 1) // 2, tuple(violations),
                            undecided, worst)


def _dec(value) -> str:
    return dec_sci(as_interval(value).mid)


def gap_dichotomy(points, recs, n, m, params) -> GapDichotomyReport:
    def refuse(reason, horizon=None):
        return GapDichotomyReport(n, m, True, reason, horizon)

    if n < 1 or m < 1:
        return refuse("indices must be >= 1")
    if len(recs) < max(n, m):
        return refuse(f"minima sequence terminates at n={recs[-1].n} with value 0")
    rec_n, rec_m = recs[n - 1], recs[m - 1]
    if not rec_n.minimal:
        return refuse(f"delta at n={n} is not minimal")
    if not rec_m.minimal:
        return refuse(f"delta at m={m} is not minimal")
    if is_zero(rec_n.delta):
        return refuse("delta_n is zero")
    tp, tq = params.t.numerator, params.t.denominator
    sp, sq = params.s.numerator, params.s.denominator
    c = cmp_products([(rec_m.delta, tq)], [(rec_n.delta, tp)])
    if c is None:
        return refuse("delta_m vs delta_n**t undecidable at working precision")
    if c >= 0:
        return refuse("delta_m is not below delta_n**t")
    try:
        horizon = scan_horizon(rec_n.delta, params.s)
    except InsufficientPrecision as exc:
        return refuse(f"horizon undecidable: {exc.detail}")
    if m > horizon:
        return refuse(f"m={m} exceeds the horizon {horizon}", horizon)
    if len(points) < horizon:
        return refuse(f"orbit has {len(points)} points, horizon needs {horizon}",
                      horizon)

    d_n, d_m = rec_n.delta, rec_m.delta
    separated = clustered = 0
    violations: List[Tuple[int, int]] = []
    undecided: List[Tuple[int, int]] = []
    min_gap_bad: List[Tuple[int, int]] = []
    pairs = 0
    vals = [as_interval(points[k]) for k in range(horizon)]
    for i in range(horizon):
        for j in range(i + 1, horizon):
            pairs += 1
            d = (vals[j] - vals[i]).dist_to_nearest_int()
            if try_cmp(d, d_m) == -1:
                min_gap_bad.append((i + 1, j + 1))
            sep = cmp_products([(d, tq)], [(d_n, tp)])
            if sep is not None and sep >= 0:
                separated += 1
                continue
            clu = cmp_products([(d, sq), (d_n, sp)], [(d_m, sq)])
            if clu is not None and clu <= 0:
                clustered += 1
            elif sep is None or clu is None:
                undecided.append((i + 1, j + 1))
            else:
                violations.append((i + 1, j + 1))
    return GapDichotomyReport(n, m, False, None, horizon,
                              _dec(d_n), _dec(d_m), pairs, separated, clustered,
                              tuple(violations), tuple(undecided),
                              tuple(min_gap_bad))


def dichotomy_scan(points, recs, params) -> QualifyingScan:
    tp, tq = params.t.numerator, params.t.denominator
    qualifying, reports, refusals, notes = [], [], [], []
    total = 0
    for rec in recs:
        if not rec.minimal:
            continue
        if is_zero(rec.delta):
            notes.append(f"n={rec.n}: zero minimum, no horizon")
            continue
        try:
            horizon = scan_horizon(rec.delta, params.s)
        except InsufficientPrecision as exc:
            notes.append(f"n={rec.n}: {exc}")
            continue
        for other in recs:
            mm = other.n
            if mm <= rec.n or mm > horizon or not other.minimal:
                continue
            c = cmp_products([(other.delta, tq)], [(rec.delta, tp)])
            if c is None:
                notes.append(f"(n={rec.n}, m={mm}): closeness undecidable")
                continue
            if c < 0:
                qualifying.append((rec.n, mm))
                rep = gap_dichotomy(points, recs, rec.n, mm, params)
                reports.append(rep)
                if rep.refused:
                    refusals.append((rec.n, mm, rep.reason))
                else:
                    total += len(rep.violations)
    return QualifyingScan(tuple(qualifying), tuple(reports), total,
                          tuple(refusals), tuple(notes))


def _log_of(value):
    v = as_interval(value).mid
    return mpmath.log(v.numerator) - mpmath.log(v.denominator)


def _probe_exponent(count: int, neg_log_scale) -> str:
    with mpmath.workprec(DEC_PREC_BITS):
        if count <= 1 or neg_log_scale <= 0:
            return mpmath.nstr(mpmath.mpf(0), LOG_DIGITS)
        return mpmath.nstr(mpmath.log(count) / neg_log_scale, LOG_DIGITS)


def assouad_lower_probe(points, indices, recs, params,
                        n_list: Sequence[int]) -> AssouadProbeReport:
    if not n_list:
        raise UsageError("probe needs a nonempty n_list")
    if any(r.n != g for g, r in enumerate(recs, start=1)):
        raise UsageError("minima records must run n = 1, 2, ... in order")
    tp, tq = params.t.numerator, params.t.denominator
    sp, sq = params.s.numerator, params.s.denominator
    rp, rq = params.r.numerator, params.r.denominator
    cases: List[ProbeCase] = []

    for n in n_list:
        if n < 1 or n > len(recs):
            cases.append(ProbeCase(n, "skipped", "outside the computed minima range"))
            continue
        rec = recs[n - 1]
        if not rec.minimal:
            cases.append(ProbeCase(n, "skipped", "not a minimal index"))
            continue
        if is_zero(rec.delta):
            cases.append(ProbeCase(n, "skipped", "zero minimum"))
            continue
        try:
            horizon = scan_horizon(rec.delta, params.s)
        except InsufficientPrecision as exc:
            cases.append(ProbeCase(n, "skipped", f"horizon undecidable: {exc.detail}"))
            continue
        if len(points) < horizon:
            cases.append(ProbeCase(n, "skipped",
                                   f"orbit has {len(points)} points, horizon "
                                   f"needs {horizon}", horizon))
            continue
        if horizon > len(recs) and not is_zero(recs[-1].delta):
            cases.append(ProbeCase(n, "skipped", f"minima end at n={len(recs)}, "
                                   f"horizon needs {horizon}", horizon))
            continue
        if indices is None:
            sel = list(range(1, horizon + 1))
        else:
            sel = sorted(k for k in indices if 1 <= k <= horizon)
        if not sel:
            cases.append(ProbeCase(n, "skipped", "no surviving indices below the "
                                                 "horizon", horizon))
            continue
        rho = Fraction(len(sel), horizon)
        d_n = rec.delta
        d_n_dec = _dec(d_n)
        ent = [(k, as_interval(points[k - 1])) for k in sel]
        note_bits: List[str] = []

        close_m = None
        for other in recs[:horizon]:
            if other.n == n or not other.minimal:
                continue
            c = cmp_products([(other.delta, tq)], [(d_n, tp)])
            if c is None:
                note_bits.append(f"m={other.n} closeness undecidable")
            elif c < 0:
                close_m = other.n
                break
        with mpmath.workprec(DEC_PREC_BITS):
            neg_log_dn = -_log_of(d_n)

        if close_m is None:
            sep_bad = sep_und = 0
            for ai in range(len(ent)):
                for bi in range(ai + 1, len(ent)):
                    d = (ent[bi][1] - ent[ai][1]).dist_to_nearest_int()
                    c = cmp_products([(d, tq)], [(d_n, tp)])
                    if c is None:
                        sep_und += 1
                    elif c < 0:
                        sep_bad += 1
            with mpmath.workprec(DEC_PREC_BITS):
                log_scale = neg_log_dn * tp / tq
                scale_dec = mpmath.nstr(mpmath.e ** (-log_scale), LOG_DIGITS)
                expo = _probe_exponent(len(ent), log_scale)
            cases.append(ProbeCase(n, "case1", "; ".join(note_bits), horizon, rho,
                                   d_n_dec, None, len(ent), scale_dec, sep_bad,
                                   sep_und, None, None, expo))
            continue

        net: List[Tuple[int, Interval]] = []
        net_und = 0
        for k, v in ent:
            ok = True
            for _, f in net:
                d = (v - f).dist_to_nearest_int()
                c = cmp_products([(d.scaled(2), tq)], [(d_n, tp)])
                if c is None:
                    net_und += 1
                    ok = False
                    break
                if c < 0:
                    ok = False
                    break
            if ok:
                net.append((k, v))
        if net_und:
            note_bits.append(f"{net_und} net decisions undecided, kept out")
        big_net = cmp_products([(len(net), rq), (d_n, rp)], [(1, 1)])
        with mpmath.workprec(DEC_PREC_BITS):
            half_scale = neg_log_dn * tp / tq + mpmath.log(2)
        if big_net == 1:
            with mpmath.workprec(DEC_PREC_BITS):
                scale_dec = mpmath.nstr(mpmath.e ** (-half_scale), LOG_DIGITS)
                expo = _probe_exponent(len(net), half_scale)
            cases.append(ProbeCase(n, "case2a", "; ".join(note_bits), horizon, rho,
                                   d_n_dec, close_m, len(net), scale_dec, 0, 0,
                                   True, None, expo))
            continue
        if big_net is None:
            note_bits.append("net size vs delta**-r undecidable, fell through to 2b")

        d_m = recs[close_m - 1].delta
        best_k, best_v, best_count = net[0][0], net[0][1], -1
        for k, f in net:
            cnt = 0
            for _, v in ent:
                d = (v - f).dist_to_nearest_int()
                c = cmp_products([(d.scaled(2), tq)], [(d_n, tp)])
                if c is not None and c < 0:
                    cnt += 1
            if cnt > best_count:
                best_k, best_v, best_count = k, f, cnt
        in_window_orbit = 0
        for _, v in ent:
            d = (v - best_v).dist_to_nearest_int()
            c = cmp_products([(d, sq), (d_n, sp)], [(d_m, sq)])
            if c is not None and c <= 0:
                in_window_orbit += 1
        with mpmath.workprec(DEC_PREC_BITS):
            w_mp = mpmath.e ** (_log_of(d_m) + neg_log_dn * sp / sq)
        w_f = float(w_mp)
        exact = not (as_interval(d_n).rad or as_interval(d_m).rad)
        in_window_full = 0
        for pt in points:
            d = (as_interval(pt) - best_v).dist_to_nearest_int()
            if w_f > 0.0:
                if exact and not d.rad and float(d.hi) < w_f * (1.0 - 1e-9):
                    in_window_full += 1
                    continue
                if float(d.lo) > w_f * (1.0 + 1e-9):
                    continue
            c = cmp_products([(d, sq), (d_n, sp)], [(d_m, sq)])
            if c is not None and c <= 0:
                in_window_full += 1
        thr = cmp_products([(in_window_orbit, rq)],
                           [(rho * horizon, rq), (d_n, rp)])
        with mpmath.workprec(DEC_PREC_BITS):
            neg_log_w = -_log_of(d_m) - neg_log_dn * sp / sq
            radius_dec = mpmath.nstr(mpmath.e ** (-neg_log_w), LOG_DIGITS)
            expo = _probe_exponent(in_window_full, neg_log_w)
        witness = WindowWitness(best_k, _dec(best_v), radius_dec,
                                in_window_orbit, in_window_full, expo)
        cases.append(ProbeCase(n, "case2b", "; ".join(note_bits), horizon, rho,
                               d_n_dec, close_m, len(net), None, 0, 0,
                               None if thr is None else thr >= 0,
                               witness, expo))
    return AssouadProbeReport(params, tuple(cases),
                              params.exponent_at_params,
                              params.implied_exponent_limit)


# float prefilter: pairs whose ratio is farther than this from every
# integer cannot be within any tolerance up to _SCREEN / 2.  It applies
# only where the float ratio is accurate to well below _SCREEN: the base
# value is at least _TINY (so a ratio over an underflowed value is tiny
# too) and the ratio is below _SCREEN_MAX.
_SCREEN = 1e-9
_SCREEN_MAX = float(1 << 20)
_TINY = 2.0 ** -1000


def _decide(gap, rad) -> Optional[int]:
    """The sign of gap, or None when rad > 0 and |gap| <= rad * 2**GUARD_BITS."""
    if rad and abs(gap) <= rad * (1 << GUARD_BITS):
        return None
    return (gap > 0) - (gap < 0)


def integer_ratio_scan_pairwise(records, tol=Fraction(1, 1 << 64)) -> RatioScanReport:
    """Every pair i < j of the records over a base decided nonzero,
    through the float prefilter and then the exact test."""
    tol = Fraction(tol)
    if tol <= 0:
        raise UsageError("tolerance must be positive")
    qualifying: List[RatioPair] = []
    violations: List[RatioViolation] = []
    undecided: List[Tuple[int, int]] = []
    pairs = 0

    def audit(ri, rj, ell: int):
        div_ok = rj.n % ri.n == 0
        vec_ok = rj.u == (ell * ri.u[0], ell * ri.u[1])
        qualifying.append(RatioPair(ri.n, rj.n, ell, div_ok, vec_ok))
        if not div_ok:
            violations.append(RatioViolation(ri.n, rj.n, ell, "divisibility",
                                             ri.u, rj.u))
        if not vec_ok:
            violations.append(RatioViolation(ri.n, rj.n, ell, "vector-multiple",
                                             ri.u, rj.u))

    tp, tq = tol.numerator, tol.denominator
    screen = tol <= _SCREEN / 2
    fl = [r.d_units / r.den for r in records]
    for i in range(len(records)):
        d_i, r_i = records[i].d_units, records[i].rad_units
        c = _decide(d_i, r_i)
        if c is None:
            undecided.append((records[i].n, 0))
        if not c:
            continue
        f_i = fl[i] if screen and fl[i] >= _TINY else None
        for j in range(i + 1, len(records)):
            pairs += 1
            if f_i is not None:
                ratio = fl[j] / f_i
                if ratio < 0.5 or (ratio < _SCREEN_MAX
                                   and abs(ratio - round(ratio)) > _SCREEN):
                    continue
            d_j, r_j = records[j].d_units, records[j].rad_units
            ell = (2 * d_j + d_i) // (2 * d_i)          # nearest integer
            if ell < 1:
                continue
            off = abs(d_j - ell * d_i)
            c = _decide(tq * off - tp * d_i, tq * (r_j + ell * r_i) + tp * r_i)
            if c is None:
                undecided.append((records[i].n, records[j].n))
            elif c <= 0:
                audit(records[i], records[j], ell)
    return RatioScanReport(tol, tuple(qualifying), tuple(violations),
                           tuple(undecided), pairs,
                           records[-1].n if records[-1].is_zero else None)


def window_groups(is_x: List[bool], steps, one: int):
    """(g, a, d, counts, radius) per group of the pairs i < j of the points
    t_1..t_n that a word with letters `is_x` (True for x) visits, grouped
    by gap g = j - i and window x-count a = X_j - X_i.

    With steps = (a_mid, a_rad, b_mid, b_rad), the letters' steps and
    radii in units of 1/one, t_j - t_i = a*alpha + (g - a)*beta has circle
    distance d units.  counts[k] is the x-count of the pair
    (k + 1, k + 1 + g) and radius(k) its radius R_i + R_j, with
    R_k = X_k a_rad + Y_k b_rad, which never falls as k grows.
    """
    a_mid, a_rad, b_mid, b_rad = steps
    xs = list(accumulate(is_x, initial=0))               # X_0..X_n
    radii = [x * a_rad + (k - x) * b_rad for k, x in enumerate(xs)]
    n = len(is_x)
    for g in range(1, n):
        counts = list(map(sub, xs[g + 1:], xs[1:n - g + 1]))

        def radius(k, g=g):
            return radii[k + 1] + radii[k + 1 + g]
        for a in set(counts):
            r = (a * a_mid + (g - a) * b_mid) % one
            yield g, a, min(r, one - r), counts, radius


def window_pairs(counts: List[int], a: int, g: int, lo: int, hi: int):
    """The pairs (k + 1, k + 1 + g) of a window_groups group with
    counts[k] == a and lo <= k < hi."""
    return [(k + 1, k + 1 + g) for k in range(lo, hi) if counts[k] == a]

"""Diophantine-module checks.

Minima oracles are exhaustive scans over nonnegative splits a + b = n done
with raw Fraction arithmetic, independent of the module's scan code, and
the quadratic integer-unit scan the sorted scan replaced.  Surd
instances are checked against high-precision mpmath evaluations.  Frozen
counts come from oracle runs of the same instances.
"""

import functools
import math
import random
import time
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from abset import diophantine
from abset.diophantine import (
    DEFAULT_PREC,
    GUARD_BITS,
    ApproxReal,
    MinimaRecord,
    ProbeParams,
    RealValue,
    SeparationReport,
    assouad_lower_probe,
    dichotomy_scan,
    integer_ratio_scan,
    minima_sequence,
    orbit_of_word,
    orbit_separation_check,
    parse_value,
    scan_horizon,
    _close_pairs,
    _cmp_powers,
    _decide,
    _first,
    _gap,
    _power_sign,
    _resolve_pair,
)
from abset.errors import InsufficientPrecision, UsageError
from abset.exact import ceil_root_ratio
from abset.thin_orbit import ThinConfig, build_stages
from abset.words import EMPTY, X, Y, concat, format_word, power

import dioph_oracle as oracle

F = Fraction

S2M1 = "sqrt(2) - 1"
S3M1 = "sqrt(3) - 1"

# engineered pair with minima at 1, 4, 7, 10 and an exact 1e-8 dip at 10
EA = F(1, 10) + F(1, 10**9)
EB = F(1, 4) + F(8, 10**4)

# engineered pair with exact doubling delta_8 = 2 * delta_4
DA = F(1, 200) + F(1, 10**7)
DB = F(1, 4) + F(1, 10**9)


def brute_delta(alpha, beta, n):
    """Oracle: exhaustive min over a + b = n of the circle distance of
    a*alpha + b*beta, smallest first coordinate on ties."""
    best = None
    for a in range(n + 1):
        v = (a * alpha + (n - a) * beta) % 1
        d = min(v, 1 - v)
        if best is None or d < best[0]:
            best = (d, (a, n - a))
    return best


def circle_dist(x, y):
    d = (x - y) % 1
    return min(d, 1 - d)


def fraction_minima(alpha, beta, n_max):
    """Oracle: the running scan in Fraction arithmetic.  Per n the smallest
    a wins ties, a tie with the running minimum counts as minimal, and an
    exact zero ends the scan.  -> ([(delta, u, minimal)], zero_at)"""
    out = []
    best = None
    for n in range(1, n_max + 1):
        d, u = brute_delta(alpha, beta, n)
        minimal = best is None or d <= best
        out.append((d, u, minimal))
        if minimal:
            best = d
        if d == 0:
            return out, n
    return out, None


def fraction_ratio_pairs(values, tol):
    """Oracle: (i, j, ell) with |d_j - ell*d_i| <= tol*d_i, ell the nearest
    integer to d_j/d_i (halves round up) and ell >= 1, 1-based indices."""
    out = []
    for i, di in enumerate(values):
        if di == 0:
            continue
        for j in range(i + 1, len(values)):
            dj = values[j]
            ell = math.floor(dj / di + F(1, 2))
            if ell >= 1 and abs(dj - ell * di) <= tol * di:
                out.append((i + 1, j + 1, ell))
    return out


def split_distances(one, a_mid, b_mid, n):
    """Oracle: circle distances in units of a*alpha + (n - a)*beta for
    every a = 0..n, from the integer midpoints on denominator one."""
    half = one >> 1
    out = []
    for a in range(n + 1):
        r = (a * a_mid + (n - a) * b_mid) % one
        out.append(r if r <= half else one - r)
    return out


def quadratic_minima(alpha, beta, n_max, prec_bits):
    """Oracle: the quadratic integer-unit scan, trying all n + 1 splits per
    n.  The smallest a wins ties; with a radius, any other split within
    the guarded radii of the minimum raises "minima-argmin", and a tie
    with the running minimum raises "minima-flag".
    -> records"""
    one, (a_mid, a_rad), (b_mid, b_rad) = _resolve_pair(alpha, beta, prec_bits)
    records = []
    best = None
    for n in range(1, n_max + 1):
        dists = split_distances(one, a_mid, b_mid, n)
        d_min = min(dists)
        a_min = dists.index(d_min)

        def rad_of(a):
            return (n - a) * b_rad + a * a_rad
        rad_min = rad_of(a_min)
        if a_rad or b_rad:
            for a, d in enumerate(dists):
                if a != a_min and d - d_min <= (rad_min + rad_of(a)) << GUARD_BITS:
                    raise InsufficientPrecision(
                        "minima-argmin",
                        f"n={n}: candidates a={a_min} and a={a} are not separable")
        if best is None:
            minimal = True
        else:
            c = _decide(best[0] - d_min, best[1] + rad_min)
            if c is None:
                raise InsufficientPrecision(
                    "minima-flag", f"n={n}: tie with the running minimum")
            minimal = c >= 0
        records.append(MinimaRecord(n, (a_min, n - a_min), minimal,
                                    d_min, rad_min, one))
        if minimal:
            best = (d_min, rad_min)
        if d_min == 0 and rad_min == 0:
            break
    return records


def scan_outcome(scan, alpha, beta, n_max, prec_bits):
    """The records, or the raised context and detail."""
    try:
        out = scan(alpha, beta, n_max, prec_bits)
    except InsufficientPrecision as exc:
        return "raised", exc.context, exc.detail
    return out


# -- comparison layer ---------------------------------------------------------

def test_sqrt_of_int_bracket():
    x = ApproxReal.sqrt_of_int(2, 128)
    assert (x.mid - x.rad) ** 2 < 2 < (x.mid + x.rad) ** 2
    assert x.rad == F(1, 2 ** 129)


def test_interval_products_contain_truth():
    # the oracle's interval arithmetic, which the integer-unit scans match
    x = oracle.as_interval(ApproxReal.sqrt_of_int(2, 128))
    sq = x.times(x)
    assert sq.lo <= 2 <= sq.hi
    p4 = x.pow_int(4)
    assert p4.lo <= 4 <= p4.hi
    neg = oracle.Interval(F(-3, 2), F(1, 2 ** 140)).pow_int(3)
    assert neg.lo <= F(-27, 8) <= neg.hi


def test_try_cmp_decisions():
    # one power each side is a plain comparison on a common denominator
    den = 3 << 135
    third = den // 3
    assert _cmp_powers([(third, 0, 1)], [(third, 0, 1)], den) == 0
    assert _cmp_powers([(third, 0, 1)], [(den // 2, 0, 1)], den) == -1
    # radii of 2^-130 hide a gap of 2^-135: unknown, not decided
    rad = den >> 130
    assert _cmp_powers([(third, rad, 1)], [(third + (den >> 135), rad, 1)],
                       den) is None


def test_cmp_products_integer_powers():
    assert _cmp_powers([(3, 0, 2)], [(2, 0, 3)], 1) == 1      # 9 vs 8
    assert _cmp_powers([(2, 0, 3)], [(3, 0, 2)], 1) == -1
    assert _cmp_powers([(6, 0, 2)], [(4, 0, 1)], 9) == 0      # (2/3)^2 vs 4/9


def test_cmp_products_overlap_is_unknown():
    one, (mid, rad), _ = _resolve_pair("sqrt(2)", 0, 160)
    # x**2 brackets 2, so no certified verdict exists
    assert _cmp_powers([(mid, rad, 2)], [(2 * one, 0, 1)], one) is None


def test_coarse_input_rejected():
    coarse = ApproxReal(F(1, 3), F(1, 2 ** 100))
    with pytest.raises(UsageError):
        minima_sequence(coarse, F(1, 4), 3)


# -- value parsing ------------------------------------------------------------

GOOD_VALUES = [
    ("sqrt(2) - 1", False),
    ("2 - sqrt(3)", False),
    ("1/3", True),
    ("0.25", True),
    ("3", True),
    ("-1/7 + sqrt(5)", False),
    ("2*sqrt(2) - 1", False),
    ("+1/2", True),
]


@pytest.mark.parametrize("text,rational", GOOD_VALUES)
def test_parse_value_accepts(text, rational):
    v = parse_value(text)
    assert v.is_rational is rational
    assert parse_value(str(v)) == v


def test_parse_value_decimals_and_fractions():
    assert parse_value("0.25").as_fraction() == F(1, 4)
    assert parse_value("1/3").as_fraction() == F(1, 3)
    assert parse_value("3").as_fraction() == 3
    assert parse_value("1/2 + 1/3").as_fraction() == F(5, 6)


def test_square_factors_fold():
    assert str(parse_value("sqrt(8)")) == "2*sqrt(2)"
    assert str(parse_value("sqrt(12)")) == "2*sqrt(3)"
    assert str(parse_value("sqrt(20402)")) == "101*sqrt(2)"
    assert parse_value("sqrt(9)").as_fraction() == 3
    assert str(parse_value("sqrt(45) + sqrt(5)")) == "4*sqrt(5)"
    z = parse_value("sqrt(8) - 2*sqrt(2)")
    assert z.is_rational and z.as_fraction() == 0


BAD_VALUES = [
    ("", "empty value expression"),
    ("1 +", "trailing sign"),
    ("++1", "'+'"),
    ("* sqrt(2)", "'*'"),
    ("2*3", "followed by sqrt"),
    ("sqrt(x)", "sqrt(x)"),
    ("1 & 2", "'&'"),
    ("2 2", "missing '+' or '-'"),
    ("sqrt(2", "sqrt(2"),
    ("1.2.3", "'.'"),
    ("3 * ", "dangling '*'"),
]


@pytest.mark.parametrize("text,fragment", BAD_VALUES)
def test_parse_value_rejects(text, fragment):
    with pytest.raises(UsageError) as exc:
        parse_value(text)
    assert fragment in str(exc.value)


def test_approx_radius_and_accuracy():
    ap = parse_value(S2M1).approx(256)
    assert ap.rad <= F(1, 2 ** 256)
    with mpmath.workprec(320):
        truth = mpmath.sqrt(2) - 1
        assert abs(mpmath.mpf(ap.mid.numerator) / ap.mid.denominator - truth) \
            <= mpmath.mpf(ap.rad.numerator) / ap.rad.denominator


def test_surd_rational_queries():
    v = parse_value(S2M1)
    assert not v.is_rational
    with pytest.raises(UsageError):
        v.as_fraction()


# -- minima sequence ----------------------------------------------------------

def test_minima_frozen_small_pair():
    r1, r2 = minima_sequence(F(2, 7), F(3, 7), 2)
    assert (r1.delta, r1.u, r1.minimal) == (F(2, 7), (1, 0), True)
    assert (r2.delta, r2.u, r2.minimal) == (F(1, 7), (0, 2), True)


def test_minima_tie_takes_smallest_first_coordinate():
    r = minima_sequence(F(2, 7), F(2, 7), 5)[4]
    assert r.delta == F(3, 7)
    assert r.u == (0, 5)
    assert not r.minimal


def test_minima_terminates_at_zero():
    recs = minima_sequence(F(1, 4), F(1, 3), 9)
    assert len(recs) == 3
    last = recs[-1]
    assert (last.n, last.delta, last.u, last.minimal) == (3, F(0), (0, 3), True)


@pytest.mark.parametrize("alpha,beta,n", [
    (F(89, 144), F(34, 144), 8),
    (F(1, 97), F(34, 97), 9),
    (F(5, 101), F(17, 101), 7),
    (F(1, 10) + F(1, 10**9), F(1, 4) + F(8, 10**4), 10),
])
def test_minima_match_brute_force(alpha, beta, n):
    d, u = brute_delta(alpha, beta, n)
    rec = minima_sequence(alpha, beta, n)[n - 1]
    assert rec.delta == d
    assert rec.u == u


def test_minima_surd_pair_frozen_to_50():
    recs = minima_sequence(S2M1, S3M1, 50)
    mins = [(r.n, r.u) for r in recs if r.minimal]
    assert mins == [(1, (0, 1)), (2, (1, 1)), (3, (1, 2)), (4, (3, 1)),
                    (5, (2, 3)), (9, (5, 4)), (37, (16, 21)), (46, (21, 25))]
    d1 = recs[0].delta
    with mpmath.workprec(320):
        truth = 2 - mpmath.sqrt(3)          # |sqrt(3) - 1| to nearest integer
        mid = mpmath.mpf(d1.mid.numerator) / d1.mid.denominator
        assert abs(mid - truth) <= mpmath.mpf(d1.rad.numerator) / d1.rad.denominator


def test_minima_identical_surds_tie_raises():
    with pytest.raises(InsufficientPrecision) as exc:
        minima_sequence(S2M1, S2M1, 2)
    assert exc.value.context == "minima-argmin"


def test_engineered_pair_minimal_set():
    recs = minima_sequence(EA, EB, 10)
    assert [(r.n, r.u, r.delta) for r in recs if r.minimal] == [
        (1, (1, 0), F(1, 10) + F(1, 10**9)),
        (4, (0, 4), F(32, 10**4)),
        (7, (5, 2), F(16, 10**4) + F(5, 10**9)),
        (10, (10, 0), F(1, 10**8)),
    ]


def test_scan_horizon_values():
    assert scan_horizon(1, 0, 10, F(49, 100)) == 4
    assert scan_horizon(1, 0, 16, F(1, 2)) == 4          # exact boundary
    assert scan_horizon(1, 0, 2 ** 10, F(1, 2)) == 32
    assert scan_horizon(2 ** 140, 1, 10 * 2 ** 140, F(49, 100)) == 4
    with pytest.raises(InsufficientPrecision):
        scan_horizon(2 ** 130, 1, 16 * 2 ** 130, F(1, 2))
    with pytest.raises(InsufficientPrecision):
        scan_horizon(1, 1, 16, F(1, 2))                   # not certified positive
    with pytest.raises(UsageError):
        scan_horizon(0, 0, 16, F(1, 2))


# -- integer ratio scan -------------------------------------------------------

def test_ratio_scan_structural_doublings():
    rep = integer_ratio_scan(minima_sequence(DA, DB, 9))
    assert rep.pairs_examined == 36
    assert rep.zero_at is None
    assert not rep.undecided
    flat = [(p.i, p.j, p.ell, p.divisibility_ok, p.vector_ok)
            for p in rep.qualifying]
    assert (1, 2, 2, True, True) in flat       # delta_2 = 2 delta_1 exactly
    assert (1, 3, 3, True, True) in flat
    assert (4, 8, 2, True, True) in flat       # delta_8 = 2 delta_4 exactly
    # the rational pair honestly breaks the lemma on mixed pairs; every
    # break is anchored at i=4 and reported, not raised
    assert len(rep.violations) == 8
    assert {(v.i, v.j) for v in rep.violations} == {(4, 5), (4, 6), (4, 7),
                                                    (4, 9)}
    assert {v.reason for v in rep.violations} == {"divisibility",
                                                  "vector-multiple"}


def test_ratio_scan_rational_violation_frozen():
    rep = integer_ratio_scan(minima_sequence(F(9, 20), F(1, 5), 3))
    assert len(rep.qualifying) == 1
    p = rep.qualifying[0]
    assert (p.i, p.j, p.ell, p.divisibility_ok, p.vector_ok) == \
        (2, 3, 1, False, False)
    assert [(v.reason, v.u_i, v.u_j) for v in rep.violations] == [
        ("divisibility", (2, 0), (2, 1)),
        ("vector-multiple", (2, 0), (2, 1)),
    ]


def test_ratio_scan_surd_pair_clean():
    rep = integer_ratio_scan(minima_sequence(S2M1, S3M1, 60))
    assert rep.pairs_examined == 1770
    assert len(rep.qualifying) == 18
    assert not rep.violations and not rep.undecided
    first = [(p.i, p.j, p.ell) for p in rep.qualifying[:4]]
    assert first == [(4, 8, 2), (9, 18, 2), (9, 27, 3), (9, 36, 4)]
    assert all(p.divisibility_ok and p.vector_ok for p in rep.qualifying)


def test_ratio_scan_precision_past_float_range():
    # at 1100 bits the dyadic units exceed the float range
    lo = integer_ratio_scan(minima_sequence(S2M1, S3M1, 30))
    hi = integer_ratio_scan(minima_sequence(S2M1, S3M1, 30, 1100))
    assert [(p.i, p.j, p.ell) for p in hi.qualifying] == \
        [(p.i, p.j, p.ell) for p in lo.qualifying]
    assert hi.qualifying and not hi.violations and not hi.undecided


def test_ratio_scan_zero_termination():
    recs = minima_sequence(F(1, 4), F(1, 3), 9)
    rep = integer_ratio_scan(recs)
    assert rep.zero_at == 3 == len(recs)
    assert not rep.qualifying and not rep.violations
    empty = integer_ratio_scan([])
    assert (empty.pairs_examined, empty.zero_at) == (0, None)
    assert not empty.qualifying and not empty.violations and not empty.undecided


@pytest.mark.parametrize("sign", [-1, 1])
@pytest.mark.parametrize("past", [0, 1])
def test_ratio_scan_window_keeps_the_last_undecided_offset(sign, past):
    # base d = 1000003 within 5; j at 3 * d + sign * off within 7, the
    # largest radius; off = 6633 is the last offset the guarded test
    # leaves undecided at tol = 1/1000, 6634 is certified out
    d, r_i, r_j, tol = 1000003, 5, 7, F(1, 1000)
    off = (d + (1000 * (r_j + 3 * r_i) + r_i << GUARD_BITS)) // 1000 + past
    fillers = [MinimaRecord(n, (n, 0), False, 1, 0, 1 << 40) for n in range(2, 12)]
    recs = [MinimaRecord(1, (1, 0), True, d, r_i, 1 << 40)] + fillers + \
        [MinimaRecord(12, (3, 0), False, 3 * d + sign * off, r_j, 1 << 40)]
    rep = integer_ratio_scan(recs, tol)
    assert ((1, 12) in rep.undecided) == (past == 0)
    assert rep == oracle.integer_ratio_scan_pairwise(recs, tol)


def test_ratio_scan_window_work_bound(monkeypatch):
    # the windows over sorted values send a few thousand pairs of the
    # 1,999,000 to the exact test
    n = 2000
    recs = minima_sequence(S2M1, S3M1, n, 256)
    calls = 0

    def counting(gap, rad):
        nonlocal calls
        calls += 1
        return _decide(gap, rad)
    monkeypatch.setattr(diophantine, "_decide", counting)
    rep = integer_ratio_scan(recs)
    assert calls <= 5 * n
    assert rep.pairs_examined == 1_999_000
    assert len(rep.qualifying) == 403
    assert not rep.violations and not rep.undecided


# -- gap dichotomy ------------------------------------------------------------

def dichotomy_report(scan, n, m):
    """The report of the qualifying pair (n, m) of a dichotomy scan."""
    return scan.reports[scan.qualifying.index((n, m))]


def test_gap_dichotomy_matches_brute_force():
    pts = orbit_of_word("x" * 17, EA, EB)
    recs = minima_sequence(EA, EB, 10)
    rep = dichotomy_report(dichotomy_scan("x" * 17, EA, EB, recs, ProbeParams()),
                           4, 10)
    assert not rep.refused
    assert (rep.horizon, rep.pairs_total) == (17, 136)
    assert (rep.separated, rep.clustered) == (129, 7)
    assert not rep.violations and not rep.undecided
    assert not rep.min_gap_violations

    # oracle: classify every pair directly with exact Fractions
    dn, dm = recs[3].delta, recs[9].delta
    s, t = ProbeParams().s, ProbeParams().t
    sep = clu = vio = 0
    for i in range(17):
        for j in range(i + 1, 17):
            d = circle_dist(pts[j], pts[i])
            if d ** t.denominator >= dn ** t.numerator:
                sep += 1
            elif d ** s.denominator * dn ** s.numerator <= dm ** s.denominator:
                clu += 1
            else:
                vio += 1
    assert (sep, clu, vio) == (129, 7, 0)


def test_gap_dichotomy_flags_band_distances():
    # synthetic points, which no word orbit visits, on the pair-loop
    # oracle: two distances fall between the clustered window and the
    # separation scale, one duplicate trips the min-gap bound
    syn = [F(k, 17) for k in range(1, 18)]
    syn[1] = syn[0] + F(1, 10**6)
    syn[2] = syn[0]
    scan = oracle.dichotomy_scan(syn, minima_sequence(EA, EB, 10), ProbeParams())
    rep = dichotomy_report(scan, 4, 10)
    assert (rep.separated, rep.clustered) == (133, 1)
    assert rep.violations == ((1, 2), (2, 3))
    assert rep.min_gap_violations == ((1, 3),)


@pytest.mark.parametrize("npts,n,m,reason", [
    (3, 1, 4, "orbit has 3 points, horizon needs 4"),
], ids=["short-orbit"])
def test_dichotomy_scan_refusals(npts, n, m, reason):
    scan = dichotomy_scan("x" * npts, EA, EB, minima_sequence(EA, EB, m),
                          ProbeParams())
    rep = dichotomy_report(scan, n, m)
    assert (rep.refused, rep.reason) == (True, reason)
    assert (n, m, reason) in scan.refusals


def test_dichotomy_scan_engineered():
    scan = dichotomy_scan("x" * 17, EA, EB, minima_sequence(EA, EB, 10),
                          ProbeParams())
    assert scan.qualifying == ((1, 4), (4, 10), (7, 10))
    assert scan.violation_total == 0
    assert scan.refusals == ((7, 10, "orbit has 17 points, horizon needs 24"),)


def test_dichotomy_scan_surds_has_no_qualifying_pairs():
    scan = dichotomy_scan("xy" * 10, S2M1, S3M1, minima_sequence(S2M1, S3M1, 20),
                          ProbeParams())
    assert scan.qualifying == ()
    assert scan.violation_total == 0


# -- orbits and separation ----------------------------------------------------

def test_orbit_exact_values():
    assert orbit_of_word("xyx", F(1, 4), F(1, 3)) == [F(1, 4), F(7, 12),
                                                      F(5, 6)]
    assert orbit_of_word("xx", F(3, 4), F(1, 2)) == [F(3, 4), F(1, 2)]
    assert orbit_of_word("( ( x y ) ^ 2 )", F(1, 4), F(1, 3)) == \
        [F(1, 4), F(7, 12), F(5, 6), F(1, 6)]


def test_orbit_bad_word():
    with pytest.raises(UsageError) as exc:
        orbit_of_word("xz", F(1, 4), F(1, 3))
    assert "bad word expression" in str(exc.value)


@pytest.mark.parametrize("word", [EMPTY, "()", ""], ids=["expr", "grammar", "plain"])
def test_empty_word_has_no_points(word):
    assert orbit_of_word(word, F(1, 4), F(1, 3)) == []
    recs = minima_sequence(F(1, 4), F(1, 3), 1)
    assert orbit_separation_check(word, F(1, 4), F(1, 3), recs) == \
        SeparationReport(0, (), 0, None)


def test_orbit_surd_matches_mpmath():
    pts = orbit_of_word("xy", S2M1, S3M1)
    with mpmath.workprec(320):
        t2 = mpmath.sqrt(2) + mpmath.sqrt(3) - 3
        mid = mpmath.mpf(pts[1].mid.numerator) / pts[1].mid.denominator
        assert abs(mid - t2) <= mpmath.mpf(pts[1].rad.numerator) / \
            pts[1].rad.denominator


@pytest.mark.parametrize("al", [F(89, 144), F(89, 128)], ids=["89-144", "89-128"])
def test_separation_exact_orbit_all_equalities(al):
    # at (alpha, alpha) every gap distance equals the minima value exactly;
    # exact equalities are decided whatever the denominator
    pts = orbit_of_word("x" * 10, al, al)
    recs = minima_sequence(al, al, 9)
    rep = orbit_separation_check("x" * 10, al, al, recs)
    assert rep.pairs_checked == 45
    assert not rep.violations
    assert rep.undecided == 0
    assert rep.worst_margin_bits is None
    for gap in range(1, 10):
        assert circle_dist(pts[gap], pts[0]) == recs[gap - 1].delta


def test_separation_surd_orbit_frozen():
    recs = minima_sequence(S2M1, S3M1, 49)
    rep = orbit_separation_check("xy" * 25, S2M1, S3M1, recs)
    assert rep.pairs_checked == 1225
    assert not rep.violations
    assert rep.undecided == 153     # exact-equality pairs stay undecided
    assert rep.worst_margin_bits == 251


def test_separation_requires_gap_coverage():
    al = F(89, 144)
    recs = minima_sequence(al, al, 9)
    with pytest.raises(UsageError) as exc:
        orbit_separation_check("x" * 10, al, al, recs[:5])
    assert "need minima up to gap 9" in str(exc.value)
    with pytest.raises(UsageError):
        orbit_separation_check("x" * 10, al, al, list(reversed(recs)))


# -- localized probe ----------------------------------------------------------

def test_probe_params_fields():
    p = ProbeParams()
    assert (p.s, p.t, p.r) == (F(49, 100), F(2), F(1, 2))
    assert p.exponent_at_params == F(49, 200)
    assert p.implied_exponent_limit == F(1, 4)
    assert ProbeParams(F(49, 100), F(2), F(1, 3)).implied_exponent_limit == \
        F(1, 6)


@pytest.mark.parametrize("s,t,r", [
    (F(1, 2), F(21, 10), F(1, 2)),     # s not below 1/2
    (F(49, 100), F(198, 100), F(1, 2)),  # t not above 1 + 2s
    (F(49, 100), F(2), F(1)),          # r not below 1
    (F(0), F(2), F(1, 2)),             # s not positive
])
def test_probe_params_validation(s, t, r):
    with pytest.raises(UsageError):
        ProbeParams(s, t, r)


def test_probe_case1_surd():
    pts = orbit_of_word("xx", S2M1, S3M1)
    rep = assouad_lower_probe(pts, None, minima_sequence(S2M1, S3M1, 2),
                              ProbeParams(), [1])
    c = rep.cases[0]
    assert c.outcome == "case1"
    assert (c.horizon, c.sep_count, c.sep_violations, c.sep_undecided) == \
        (2, 2, 0, 0)
    assert c.close_m is None
    assert float(c.exponent_dec) == pytest.approx(0.263162240106, rel=1e-9)
    assert rep.exponent_at_params == F(49, 200)
    assert rep.implied_exponent_limit == F(1, 4)


def test_probe_real_orbit_checks_every_case1_pair():
    # the 14 minimal n <= 2000 of the 2,000-point orbit: every case is
    # case 1, and its separation covers all of its pairs (about 1.16
    # million in all, 835,278 at n = 700)
    t0 = time.monotonic()
    points = orbit_of_word("xy" * 1000, S2M1, S3M1)
    recs = minima_sequence(S2M1, S3M1, 2000)
    n_list = [r.n for r in recs if r.minimal]
    rep = assouad_lower_probe(points, None, recs, ProbeParams(), n_list)
    elapsed = time.monotonic() - t0
    assert n_list == [1, 2, 3, 4, 5, 9, 37, 46, 76, 122, 129, 339, 468, 700]
    assert [c.horizon for c in rep.cases][-4:] == [361, 488, 528, 1293]
    for c in rep.cases:
        assert (c.outcome, c.note, c.sep_count) == ("case1", "", c.horizon)
        assert c.sep_violations == c.sep_undecided == 0
    assert elapsed < 5.0, f"budget 5 s exceeded: {elapsed:.2f} s"


def test_probe_case1_sweep_wraps_and_ties():
    # a pair 2e-14 apart across 0, a duplicate, and a pair 2^-192 farther
    # apart than delta_9**2, certified so at radius zero but not at its
    # radii of 2^-200, among the orbit's 35 points below the horizon of
    # n = 9: the sweep's band is set at twice the largest point radius
    points = orbit_of_word("xy" * 20, S2M1, S3M1)
    recs = minima_sequence(S2M1, S3M1, 40)
    d_9 = recs[8].delta.mid
    points[:6] = [F(1, 10 ** 14), 1 - F(1, 10 ** 14),
                  ApproxReal(F(1, 3), F(1, 2 ** 200)),
                  ApproxReal(F(1, 3) + d_9 ** 2 + F(1, 2 ** 192), F(1, 2 ** 200)),
                  points[5], points[5]]
    rep = assouad_lower_probe(points, None, recs, ProbeParams(), [9])
    assert rep == oracle.assouad_lower_probe(points, None, recs, ProbeParams(), [9])
    c, = rep.cases
    assert (c.outcome, c.horizon, c.sep_violations, c.sep_undecided) == \
        ("case1", 35, 2, 1)


def test_probe_case2a_spread_net():
    spread = [F(1, 2), F(1, 3), F(1, 5), F(1, 7)]
    rep = assouad_lower_probe(spread, None, minima_sequence(EA, EB, 4),
                              ProbeParams(), [1])
    c = rep.cases[0]
    assert c.outcome == "case2a"
    assert (c.horizon, c.close_m, c.sep_count) == (4, 4, 4)
    assert float(c.exponent_dec) == pytest.approx(0.261648042283, rel=1e-9)


def test_probe_case2b_window_counts():
    # head of the fixture clusters below the net scale, forcing the
    # pigeonhole window; the window then captures 1/k for all k >= 101
    # plus the wraparound point 1/1 = 0 on the circle: 9901 points
    fixture = [F(1, k) for k in range(10**4, 0, -1)]
    rep = assouad_lower_probe(fixture, None, minima_sequence(EA, EB, 4),
                              ProbeParams(), [1])
    c = rep.cases[0]
    assert c.outcome == "case2b"
    assert c.close_m == 4
    assert c.threshold_ok is True
    w = c.window
    assert w.center_index == 1
    assert (w.count_orbit, w.count_full) == (4, 9901)
    assert float(w.exponent_dec) == pytest.approx(1.99300646585, rel=1e-9)
    assert float(w.exponent_dec) >= 0.8


def test_probe_index_subset():
    fixture = [F(1, k) for k in range(10**4, 0, -1)]
    rep = assouad_lower_probe(fixture, [2, 1], minima_sequence(EA, EB, 4),
                              ProbeParams(), [1])
    c = rep.cases[0]
    assert c.outcome == "case2b"
    assert c.rho_n == F(1, 2)
    assert c.sep_count == 1
    assert c.window.count_orbit == 2
    assert c.window.count_full == 9901


def test_probe_window_count_leaves_an_undecided_point_out():
    # a point whose interval ends 10^-3 of the radius inside the case-2b
    # window: a float screen puts it inside, the certified test leaves it
    # undecided, so it is not counted
    fixture = [F(1, k) for k in range(10**4, 0, -1)]
    recs = minima_sequence(EA, EB, 4)
    w = F("0.00988894533559")           # the window radius, as rendered
    r = w / 10**5
    points = fixture + [ApproxReal(fixture[0] + w * (1 - F(1, 1000)) - r, r)]
    d = (oracle.as_interval(points[-1]) - fixture[0]).dist_to_nearest_int()
    s = ProbeParams().s
    assert oracle.cmp_products([(d, s.denominator), (recs[0].delta, s.numerator)],
                               [(recs[3].delta, s.denominator)]) is None
    rep = assouad_lower_probe(points, None, recs, ProbeParams(), [1])
    assert rep == oracle.assouad_lower_probe(points, None, recs, ProbeParams(), [1])
    window = rep.cases[0].window
    assert (window.center_index, window.radius_dec, window.count_full) == \
        (1, "0.00988894533559", 9901)


def test_probe_skips_never_raise():
    fixture = [F(1, k) for k in range(100, 0, -1)]
    recs = minima_sequence(EA, EB, 99)
    rep = assouad_lower_probe(fixture, None, recs, ProbeParams(), [2, 99])
    assert [c.outcome for c in rep.cases] == ["skipped", "skipped"]
    assert all("not a minimal index" in c.note for c in rep.cases)
    rep = assouad_lower_probe(fixture, None, minima_sequence(F(2, 7), F(3, 7), 99),
                              ProbeParams(), [99])
    assert rep.cases[0].outcome == "skipped"
    assert "outside the computed minima range" in rep.cases[0].note
    # an n_list below 1 reads no minima
    rep = assouad_lower_probe(fixture, None, [], ProbeParams(), [0, -1])
    assert [c.note for c in rep.cases] == ["outside the computed minima range"] * 2
    with pytest.raises(UsageError):
        assouad_lower_probe(fixture, None, recs, ProbeParams(), [])
    with pytest.raises(UsageError, match="must run n = 1, 2"):
        assouad_lower_probe(fixture, None, recs[1:], ProbeParams(), [4])


def test_probe_skips_a_horizon_past_the_records_without_a_minima_pass(monkeypatch):
    # n = 1 of the engineered pair has horizon 4: records that end at
    # n = 3 skip it, and the probe runs no minima of its own
    recs = minima_sequence(EA, EB, 4)

    def no_minima(*args, **kw):
        raise AssertionError("the probe ran a minima pass")

    monkeypatch.setattr(diophantine, "minima_sequence", no_minima)
    fixture = [F(1, k) for k in range(100, 0, -1)]
    for probe in (assouad_lower_probe, oracle.assouad_lower_probe):
        c, = probe(fixture, None, recs[:3], ProbeParams(), [1]).cases
        assert (c.outcome, c.horizon) == ("skipped", 4)
        assert c.note == "minima end at n=3, horizon needs 4"
    c, = assouad_lower_probe(fixture, None, recs, ProbeParams(), [1]).cases
    assert (c.outcome, c.close_m) == ("case2b", 4)


def test_probe_skips_a_horizon_past_the_orbit_before_the_records():
    # delta_10 is about 1.4e-29, so the horizon is about 1.4e14 and no
    # exact zero ends the minima: the case is skipped on the orbit's
    # length, which comes before the records' length
    alpha = RealValue.from_fraction(F(1, 10)) + RealValue.sqrt(2, F(1, 10 ** 30))
    points = orbit_of_word("x" * 12, alpha, S3M1)
    c, = assouad_lower_probe(points, None, minima_sequence(alpha, S3M1, 10),
                             ProbeParams(), [10]).cases
    assert (c.outcome, c.horizon) == ("skipped", 136850897847463)
    assert c.note == "orbit has 12 points, horizon needs 136850897847463"


# -- properties ---------------------------------------------------------------

small_fractions = st.builds(
    lambda num, den: F(num, den),
    st.integers(min_value=1, max_value=39),
    st.integers(min_value=2, max_value=40),
).map(lambda q: q % 1).filter(lambda q: q != 0)


@settings(max_examples=60, deadline=None)
@given(small_fractions, small_fractions, st.integers(min_value=1, max_value=10))
def test_minima_agree_with_oracle(alpha, beta, n):
    recs = minima_sequence(alpha, beta, n)
    if len(recs) < n:
        # early zero: the oracle must confirm a zero at the last index
        assert recs[-1].delta == brute_delta(alpha, beta, recs[-1].n)[0] == 0
        return
    rec = recs[n - 1]
    d, _ = brute_delta(alpha, beta, n)
    assert rec.delta == d
    a, b = rec.u
    assert a + b == n and a >= 0 and b >= 0
    v = (a * alpha + b * beta) % 1
    assert min(v, 1 - v) == d


@settings(max_examples=40, deadline=None)
@given(small_fractions, small_fractions,
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=6))
def test_triangle_bound_never_violated(alpha, beta, i, j):
    # ||(u_i + u_j).(alpha, beta)|| <= delta_i + delta_j, in Fractions
    recs = minima_sequence(alpha, beta, max(i, j))
    if len(recs) < max(i, j):
        return
    ra, rb = recs[i - 1], recs[j - 1]
    v = (ra.u[0] + rb.u[0]) * alpha + (ra.u[1] + rb.u[1]) * beta
    assert circle_dist(v, 0) <= ra.delta + rb.delta


@settings(max_examples=40, deadline=None)
@given(small_fractions, small_fractions)
def test_ratio_scan_total_and_zero_consistency(alpha, beta):
    recs = minima_sequence(alpha, beta, 12)
    rep = integer_ratio_scan(recs)
    if rep.zero_at is not None:
        assert recs[-1].delta == 0
        assert recs[-1].n == rep.zero_at
    n = len(recs)
    assert rep.pairs_examined <= n * (n - 1) // 2


@settings(max_examples=30, deadline=None)
@given(small_fractions, small_fractions,
       st.integers(min_value=2, max_value=8))
def test_minimal_records_are_running_minima(alpha, beta, n):
    try:
        recs = minima_sequence(alpha, beta, n)
    except UsageError:
        return
    best = None
    for rec in recs:
        if best is None or rec.delta <= best:
            assert rec.minimal
            best = rec.delta
        else:
            assert not rec.minimal


exact_values = st.one_of(
    small_fractions,
    st.fractions(min_value=0, max_value=1, max_denominator=10**6),
    st.fractions(min_value=-3, max_value=3, max_denominator=128),
)


@settings(max_examples=80, deadline=None)
@given(exact_values, exact_values, st.integers(min_value=1, max_value=24))
def test_exact_minima_match_fraction_scan(alpha, beta, n):
    want, zero_at = fraction_minima(alpha, beta, n)
    recs = minima_sequence(alpha, beta, n)
    assert [(r.delta, r.u, r.minimal) for r in recs] == want
    assert all(isinstance(r.delta, Fraction) for r in recs)
    assert integer_ratio_scan(recs).zero_at == zero_at


@settings(max_examples=60, deadline=None)
@given(exact_values, exact_values, st.integers(min_value=2, max_value=24),
       st.sampled_from([F(1, 2 ** 64), F(1, 100)]))
def test_exact_ratio_scan_matches_fraction_oracle(alpha, beta, n, tol):
    recs = minima_sequence(alpha, beta, n)
    rep = integer_ratio_scan(recs, tol=tol)
    values = [r.delta for r in recs]
    assert [(p.i, p.j, p.ell) for p in rep.qualifying] == \
        fraction_ratio_pairs(values, tol)
    assert rep.pairs_examined == sum(len(values) - 1 - i
                                     for i, d in enumerate(values) if d != 0)
    assert rep.undecided == ()


surd_values = st.builds(
    lambda k, c, q: RealValue.sqrt(k, c) + RealValue.from_fraction(q),
    st.sampled_from([2, 3, 5, 7, 10]),
    st.sampled_from([1, -1, 2, F(1, 3)]),
    st.fractions(min_value=-2, max_value=2, max_denominator=12),
)
dyadic_values = st.builds(lambda num, e: F(num, 2 ** e),
                          st.integers(min_value=-4096, max_value=4096),
                          st.integers(min_value=0, max_value=12))
# dyadic midpoints with a radius: exact ties that cannot be certified
blurred_values = dyadic_values.map(lambda q: ApproxReal(q, F(1, 2 ** 130)))
scan_pairs = st.one_of(
    st.tuples(exact_values, exact_values),
    st.tuples(dyadic_values, dyadic_values),
    st.tuples(surd_values, exact_values | dyadic_values),
    st.tuples(exact_values | dyadic_values, surd_values),
    st.tuples(surd_values, surd_values),
    st.tuples(blurred_values, blurred_values | dyadic_values),
    # equal points a*gamma mod 1 or mirror-image splits: ties that must raise
    surd_values.flatmap(lambda s: st.sampled_from([
        (s, s), (s, -s), (s, s + RealValue.from_fraction(F(1, 2))),
        (s + RealValue.from_fraction(F(1, 3)), s)])),
)


@settings(max_examples=150, deadline=None)
@given(scan_pairs, st.integers(min_value=1, max_value=30),
       st.sampled_from([128, 256]))
def test_sorted_minima_scan_matches_quadratic_oracle(pair, n, prec):
    alpha, beta = pair
    assert scan_outcome(minima_sequence, alpha, beta, n, prec) == \
        scan_outcome(quadratic_minima, alpha, beta, n, prec)


@pytest.mark.parametrize("alpha,beta", [
    (S2M1, S2M1),                                   # every split ties
    (S2M1, "1 - sqrt(2)"),                          # a and n - a mirror
    (S2M1, "sqrt(2) - 1/2"),                        # points repeat at a + 2
    ("2*sqrt(2)", S2M1),                            # tie with the running minimum
    # n = 2 puts all three splits at distance 1/4; the smallest a is named
    (ApproxReal(F(7, 8), F(1, 2 ** 130)), ApproxReal(F(3, 8), F(1, 2 ** 130))),
])
def test_sorted_minima_scan_raises_where_oracle_does(alpha, beta):
    want = scan_outcome(quadratic_minima, alpha, beta, 12, 256)
    assert want[0] == "raised"
    assert scan_outcome(minima_sequence, alpha, beta, 12, 256) == want


ratio_pairs = st.one_of(
    st.tuples(exact_values, exact_values),
    st.tuples(surd_values, surd_values | exact_values),
    st.tuples(exact_values, surd_values),
    st.tuples(blurred_values, blurred_values | dyadic_values),
)


@settings(max_examples=200, deadline=None)
@given(ratio_pairs, st.integers(min_value=1, max_value=60),
       st.sampled_from([128, 256]),
       st.sampled_from([F(1, 2 ** 64), F(1, 2 ** 32), F(1, 1000), F(1, 10)]))
@example((F(1, 4), F(1, 3)), 9, 256, F(1, 2 ** 64))          # ends in a zero
@example((S2M1, S3M1), 60, 128, F(1, 10))
def test_ratio_scan_matches_pairwise_oracle(pair, n, prec, tol):
    try:
        recs = minima_sequence(*pair, n, prec)
    except InsufficientPrecision:
        return
    assert integer_ratio_scan(recs, tol) == \
        oracle.integer_ratio_scan_pairwise(recs, tol)


def test_minima_horizon_20000_matches_linear_evaluation():
    n_max = 20_000
    recs = minima_sequence(S2M1, S3M1, n_max, 256)
    assert len(recs) == n_max and not recs[-1].is_zero
    one, (a_mid, a_rad), (b_mid, b_rad) = _resolve_pair(S2M1, S3M1, 256)
    picks = random.Random(20_000).sample(range(1, n_max), 19) + [n_max]
    for n in picks:
        dists = split_distances(one, a_mid, b_mid, n)
        d_min = min(dists)
        a = dists.index(d_min)
        rad = (n - a) * b_rad + a * a_rad
        rec = recs[n - 1]
        assert (rec.n, rec.u, rec.d_units, rec.rad_units, rec.den) == \
            (n, (a, n - a), d_min, rad, one)
        assert rec.delta == ApproxReal(F(d_min, one), F(rad, one))


# denominators far beyond the float range: 3**700 and 7**400
HA = F(1, 3) + F(1, 3 ** 700)
HB = F(2, 7) + F(2, 7 ** 400)


def test_huge_denominators_minima_ratio_separation():
    want, zero_at = fraction_minima(HA, HB, 30)
    recs = minima_sequence(HA, HB, 30)
    assert [(r.delta, r.u, r.minimal) for r in recs] == want
    assert zero_at is None
    rep = integer_ratio_scan(recs)
    assert [(p.i, p.j, p.ell) for p in rep.qualifying] == \
        fraction_ratio_pairs([r.delta for r in recs], F(1, 2 ** 64))
    assert rep.pairs_examined == 435 and rep.undecided == ()
    sep = orbit_separation_check("xy" * 15, HA, HB, recs)
    assert (sep.pairs_checked, sep.violations, sep.undecided,
            sep.worst_margin_bits) == (435, (), 0, None)


# -- dichotomy, horizon and probe against the interval oracle -----------------

def outcome(fn, *args, **kw):
    """The result, or the raised error's type and message."""
    try:
        return fn(*args, **kw)
    except (InsufficientPrecision, UsageError) as exc:
        return "raised", type(exc).__name__, str(exc)


# factors near a tie: mids and radii on small denominators, of both signs
unit_factors = st.lists(
    st.tuples(st.integers(min_value=-40, max_value=40),
              st.sampled_from([0, 0, 1, 2, 5]),
              st.integers(min_value=1, max_value=5)),
    min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(unit_factors, unit_factors, st.integers(min_value=1, max_value=40),
       st.integers(min_value=0, max_value=12))
def test_cmp_powers_matches_interval_oracle(left, right, den, shift):
    # a radius of 2^-shift units puts many gaps inside the guard band
    def scaled(factors):
        return [(mid << shift, rad, k) for mid, rad, k in factors]

    def values(factors):
        return [(oracle.Interval(F(mid << shift, den << shift),
                                 F(rad, den << shift)), k)
                for mid, rad, k in factors]
    assert _cmp_powers(scaled(left), scaled(right), den << shift) == \
        oracle.cmp_products(values(left), values(right))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 20),
       st.sampled_from([0, 0, 1, 2 ** 8, 2 ** 12]),
       st.integers(min_value=1, max_value=2 ** 24),
       st.sampled_from([F(49, 100), F(1, 2), F(1, 4), F(2, 5), F(1)]))
def test_scan_horizon_matches_interval_oracle(mid, rad, den, s):
    value = oracle.Interval(F(mid, den), F(rad, den)) if rad else F(mid, den)
    assert outcome(scan_horizon, mid, rad, den, s) == \
        outcome(oracle.scan_horizon, value, s)


@st.composite
def horizon_boundaries(draw):
    """(mid, rad, den, s): mid/den within a few units of the minimum whose
    horizon (den/mid)**s is exactly an integer N, on denominators up to
    2^400, so a radius often leaves N undecided."""
    s = draw(st.sampled_from([F(49, 100), F(1, 2), F(1, 4), F(2, 5), F(1), F(3, 2)]))
    p, q = s.numerator, s.denominator
    den = draw(st.integers(min_value=1, max_value=2 ** 400))
    n = draw(st.integers(min_value=1, max_value=10 ** 4))
    mid = ceil_root_ratio(den ** p, n ** q, p) + draw(st.integers(-3, 3))
    return max(mid, 0), draw(st.sampled_from([0, 0, 1, 2, 3, 2 ** 8])), den, s


@settings(max_examples=300, deadline=None)
@given(horizon_boundaries())
@example((2 ** 130, 1, 16 * 2 ** 130, F(1, 2)))     # N lies in [4, 5]
def test_scan_horizon_one_root_matches_two_root_oracle(case):
    mid, rad, den, s = case
    value = oracle.Interval(F(mid, den), F(rad, den)) if rad else F(mid, den)
    assert outcome(scan_horizon, *case) == outcome(oracle.scan_horizon, value, s)


# pairs near a rational resonance: their minima dip far below the generic
# 1/n, so (n, m) pairs qualify and every dichotomy and probe branch runs
resonant_values = st.builds(
    lambda p, e, k, blur: (RealValue.from_fraction(p + F(k, 10 ** e))
                           + RealValue.sqrt(2, F(blur, 10 ** 30))),
    st.sampled_from([F(1, 10), F(1, 4), F(1, 3), F(2, 7), F(3, 5), F(5, 12)]),
    st.integers(min_value=3, max_value=9),
    st.integers(min_value=-9, max_value=9),
    st.sampled_from([0, 0, 1]))
# blurred minima whose horizon (1/delta)**s is an integer for s = 1/4:
# the radius leaves N undecided
blurred_boundaries = st.sampled_from([F(1, 16), F(1, 81), F(1, 256), F(3, 16)]) \
    .map(lambda q: ApproxReal(q, F(1, 2 ** 130)))
# perturbations of the engineered pair (EA, EB), whose pairs (1, 4),
# (4, 10) and (7, 10) qualify; some carry a radius on alpha
engineered_pairs = st.builds(
    lambda a, b, blur: (RealValue.from_fraction(EA + F(a, 10 ** 10))
                        + RealValue.sqrt(2, F(blur, 10 ** 30)),
                        EB + F(b, 10 ** 5)),
    st.integers(min_value=-5, max_value=5), st.integers(min_value=-5, max_value=5),
    st.sampled_from([0, 1]))
oracle_pairs = st.one_of(
    engineered_pairs,
    engineered_pairs,
    st.tuples(resonant_values, resonant_values),
    st.tuples(resonant_values, resonant_values | exact_values),
    st.tuples(exact_values, exact_values),
    st.tuples(dyadic_values, dyadic_values),
    st.tuples(surd_values, exact_values | dyadic_values),
    st.tuples(surd_values, surd_values),
    st.tuples(blurred_values, blurred_values | dyadic_values),
    st.tuples(blurred_boundaries, blurred_boundaries | blurred_values),
)
probe_params = st.builds(
    ProbeParams,
    st.sampled_from([F(49, 100), F(2, 5), F(1, 3), F(1, 4)]),
    st.sampled_from([F(2), F(5, 2), F(3)]),
    st.sampled_from([F(1, 2), F(1, 3), F(3, 4)]))
# synthetic points: ties, duplicates, points on both sides of 0, and
# blurred copies whose distances cannot be certified
pool_points = st.sampled_from([F(0), F(1, 12), F(1, 10), F(1, 4), F(1, 3),
                               F(1, 2), F(2, 3), F(9, 10), F(11, 12),
                               F(1, 10 ** 6), 1 - F(1, 10 ** 6), F(3, 2)])


def blur(draw, q):
    return ApproxReal(q, F(1, 2 ** 140)) if draw(st.booleans()) else q


@st.composite
def pair_and_points(draw):
    """(alpha, beta, prec, points, indices): an orbit of the pair,
    synthetic points, or points at the pair's minima and their squares and
    cubes from a base point, where the probe's thresholds tie; indices
    draw mostly the pair's minimal indices."""
    alpha, beta = draw(oracle_pairs)
    prec = draw(st.sampled_from([128, 256]))
    word = "".join(draw(st.lists(st.sampled_from("xy"), min_size=draw(
        st.integers(min_value=0, max_value=40)), max_size=40)))
    try:
        points = orbit_of_word(word, alpha, beta, prec)
        recs = minima_sequence(alpha, beta, 12, prec)
    except (InsufficientPrecision, UsageError):
        points, recs = [], []
    minimal = [r.n for r in recs if r.minimal]
    kind = draw(st.sampled_from(["orbit", "orbit", "pool", "threshold"]))
    if kind == "pool":
        pool = pool_points | st.fractions(min_value=0, max_value=1,
                                          max_denominator=10 ** 4)
        points = [blur(draw, q) for q in draw(st.lists(pool, min_size=draw(
            st.integers(min_value=0, max_value=30)), max_size=30))]
    elif kind == "threshold":
        mids = [r.delta.mid if isinstance(r.delta, ApproxReal) else r.delta
                for r in recs if r.minimal]
        base = draw(pool_points)
        ties = [base] + [base + d ** k for d in mids for k in (1, 2, 3)]
        points = draw(st.permutations([blur(draw, q) for q in ties])) + points
    indices = st.integers(min_value=0, max_value=12)
    if minimal:
        indices = st.sampled_from(minimal) | st.sampled_from(minimal) | indices
    return alpha, beta, prec, points, indices


def probe_records(alpha, beta, points, n_list, prec=DEFAULT_PREC):
    """Minima up to every n asked for and every horizon the points reach;
    where that run is undecidable, up to max(n_list), whose cases then
    skip a horizon past the records, or none."""
    for n_max in (max(*n_list, len(points)), max(n_list)):
        try:
            return minima_sequence(alpha, beta, n_max, prec)
        except (InsufficientPrecision, UsageError):
            pass
    return []


@settings(max_examples=200, deadline=None)
@given(pair_and_points(), probe_params, st.data(),
       st.one_of(st.none(), st.lists(st.integers(min_value=-2, max_value=40))))
def test_probe_matches_interval_oracle(case, params, data, indices):
    alpha, beta, prec, points, n_indices = case
    n_list = data.draw(st.lists(n_indices, min_size=1, max_size=4))
    recs = probe_records(alpha, beta, points, n_list, prec)
    assert outcome(assouad_lower_probe, points, indices, recs, params, n_list) == \
        outcome(oracle.assouad_lower_probe, points, indices, recs, params, n_list)


@pytest.mark.parametrize("blurred", [False, True], ids=["exact", "radius"])
@pytest.mark.parametrize("t", [F(2), F(3)])
def test_engineered_ties_match_interval_oracle(blurred, t):
    # points at the minima and their t-th powers from 1/12, where the
    # thresholds tie, and a quarter minimum to either side of 0, whose
    # distance wraps; with a radius the ties, and gaps 2^-136 past them,
    # are left undecided
    alpha = RealValue.from_fraction(EA)
    if blurred:
        alpha = alpha + RealValue.sqrt(2, F(1, 10 ** 30))
    params = ProbeParams(F(12, 25), t, F(1, 2))
    mids = [r.delta.mid if isinstance(r.delta, ApproxReal) else r.delta
            for r in minima_sequence(alpha, EB, 12) if r.minimal]
    base = F(1, 12)
    ties = [base] + [q for d in mids for q in (
        base + d, base + d ** int(t), base + d ** int(t) + F(1, 2 ** 136),
        d / 4, 1 - d / 4)]
    points = [ApproxReal(q, F(1, 2 ** 140)) if blurred else q for q in ties] \
        + orbit_of_word("x" * 11, alpha, EB)
    # no word orbit visits these points: the dichotomy half reads the
    # pair-loop oracle
    scan = oracle.dichotomy_scan(points, minima_sequence(alpha, EB, 12), params)
    # at t = 3 only delta_10 lies below delta_4**t
    assert scan.qualifying == (((1, 4), (4, 10), (7, 10)) if t == 2
                               else ((4, 10),))
    recs = probe_records(alpha, EB, points, [1, 4, 7, 10])
    probe = assouad_lower_probe(points, None, recs, params, [1, 4, 7, 10])
    assert probe == oracle.assouad_lower_probe(points, None, recs, params,
                                               [1, 4, 7, 10])
    assert all(r.min_gap_violations for r in scan.reports)
    assert any(r.undecided for r in scan.reports) == (blurred and t == 2)
    assert "case2b" in [c.outcome for c in probe.cases]


# -- separation on letter counts against the pair loop ------------------------

def word_form(draw, letters_: str):
    """The x/y letters plain, as a WordExpr or in the grammar."""
    if not draw(st.booleans()):
        return letters_
    expr = functools.reduce(concat, [X if c == "x" else Y for c in letters_],
                            EMPTY)
    return draw(st.sampled_from([expr, format_word(expr)]))


@st.composite
def separation_cases(draw):
    """(word, alpha, beta, prec, records): an x/y word of 0 to 60 letters,
    mostly cut to the prefix its minima cover, in any form; the pair's
    minima at this or another precision, some raised past real distances
    (a certified violation) or by one unit (a tie left undecided)."""
    alpha, beta = draw(oracle_pairs)
    prec = draw(st.sampled_from([128, 256]))
    rec_prec = draw(st.sampled_from([128, 256]))
    size = draw(st.integers(min_value=0, max_value=60))
    letters_ = draw(st.text("xy", min_size=size, max_size=size))
    try:
        recs = minima_sequence(alpha, beta, max(size - 1, 1), rec_prec)
    except (InsufficientPrecision, UsageError):
        recs = []
    if draw(st.integers(min_value=0, max_value=3)):
        letters_ = letters_[:len(recs) + 1]   # the prefix the minima cover
    if draw(st.booleans()):
        recs = [MinimaRecord(r.n, r.u, r.minimal, r.d_units + draw(st.sampled_from(
                    [0, 0, 1, r.den >> 2, r.den >> 8, r.den >> 40])),
                    r.rad_units, r.den) for r in recs]
    return word_form(draw, letters_), alpha, beta, prec, recs


@st.composite
def dichotomy_cases(draw):
    """(word, alpha, beta, prec, records): half the time a perturbed
    engineered pair, whose (1, 4), (4, 10) and (7, 10) qualify, with minima
    to n >= 10 and a word long enough for their horizons, else any oracle
    pair; a word of x only (the clustered gap-10 windows of the engineered
    pair repeat) or of x and y, in any form; the minima at this or another
    precision, one minimal record often forged: lowered 2^7-fold (clustered
    pairs become certified violations), raised past the real distances
    (min-gap violations), or by one unit or 2^14 units (a min-gap tie,
    certified for the leading pairs of a radius pair only)."""
    if draw(st.booleans()):
        alpha, beta = draw(engineered_pairs)
        n_max = draw(st.integers(min_value=10, max_value=16))
        size = draw(st.integers(min_value=17, max_value=40))
    else:
        alpha, beta = draw(oracle_pairs)
        n_max = draw(st.integers(min_value=1, max_value=16))
        size = draw(st.integers(min_value=0, max_value=40))
    prec = draw(st.sampled_from([128, 256]))
    letters_ = "x" * size if draw(st.booleans()) else \
        draw(st.text("xy", min_size=size, max_size=size))
    try:
        recs = minima_sequence(alpha, beta, n_max, draw(st.sampled_from([128, 256])))
    except (InsufficientPrecision, UsageError):
        recs = []
    minimal = [k for k, r in enumerate(recs) if r.minimal]
    if minimal and draw(st.integers(min_value=0, max_value=3)):
        k = minimal[-1] if draw(st.booleans()) else draw(st.sampled_from(minimal))
        r = recs[k]
        d = draw(st.sampled_from([r.d_units >> 7, r.d_units + (r.den >> 24),
                                  r.d_units + 1, r.d_units + (1 << 14)]))
        recs = recs[:k] + [MinimaRecord(r.n, r.u, True, d, r.rad_units, r.den)] \
            + recs[k + 1:]
    return word_form(draw, letters_), alpha, beta, prec, recs


def pair_loop_separation(word, alpha, beta, prec, recs):
    return oracle.orbit_separation_check(orbit_of_word(word, alpha, beta, prec), recs)


@settings(max_examples=200, deadline=None)
@given(separation_cases())
def test_separation_matches_pair_loop_oracle(case):
    assert outcome(orbit_separation_check, *case[:3], case[4], case[3]) == \
        outcome(pair_loop_separation, *case)


def pair_loop_dichotomy(word, alpha, beta, prec, recs, params):
    return oracle.dichotomy_scan(orbit_of_word(word, alpha, beta, prec), recs, params)


@settings(max_examples=200, deadline=None)
@given(dichotomy_cases(), probe_params)
def test_dichotomy_scan_matches_interval_oracle(case, params):
    word, alpha, beta, prec, recs = case
    assert outcome(dichotomy_scan, word, alpha, beta, recs, params, prec) == \
        outcome(pair_loop_dichotomy, *case, params)


# the engineered pair with a radius on alpha: (4, 10) has 7 clustered
# pairs of gap 10, each at distance delta_10
BLURRED_EA = RealValue.from_fraction(EA) + RealValue.sqrt(2, F(1, 10 ** 30))


@pytest.mark.parametrize("forge,clustered,violations,min_gap", [
    (lambda r: r.d_units >> 7, 0, 7, 0),
    (lambda r: r.d_units + (r.den >> 24), 7, 0, 7),
    # 2^14 units past the distance: certified while the pair radius is small
    (lambda r: r.d_units + (1 << 14), 7, 0, 5),
], ids=["lowered", "raised", "raised-to-the-guard"])
def test_dichotomy_forged_delta_m_matches_pair_loop_oracle(forge, clustered,
                                                           violations, min_gap):
    recs = minima_sequence(BLURRED_EA, EB, 10)
    r = recs[9]
    recs[9] = MinimaRecord(r.n, r.u, True, forge(r), r.rad_units, r.den)
    scan = dichotomy_scan("x" * 17, BLURRED_EA, EB, recs, ProbeParams())
    assert scan == pair_loop_dichotomy("x" * 17, BLURRED_EA, EB, DEFAULT_PREC,
                                       recs, ProbeParams())
    rep = dichotomy_report(scan, 4, 10)
    assert (rep.separated, rep.clustered, len(rep.violations)) == \
        (129, clustered, violations)
    assert rep.min_gap_violations == tuple((i, i + 10)
                                           for i in range(1, min_gap + 1))


def test_dichotomy_lists_pairs_of_several_gaps_in_pair_order():
    # t_k = k/4096 exactly, delta_1 forged to 307/12288 (horizon 7) and
    # delta_2 to 7/12288, between the gap-2 distance and delta_1**2: the
    # pairs of gaps 1 and 2 are clustered and below delta_2
    recs = [MinimaRecord(1, (1, 0), True, 307, 0, 12288),
            MinimaRecord(2, (2, 0), True, 7, 0, 12288)]
    scan = dichotomy_scan("x" * 8, F(1, 4096), F(1, 3), recs, ProbeParams())
    assert scan == pair_loop_dichotomy("x" * 8, F(1, 4096), F(1, 3),
                                       DEFAULT_PREC, recs, ProbeParams())
    rep = dichotomy_report(scan, 1, 2)
    assert (rep.horizon, rep.separated, rep.clustered) == (7, 10, 11)
    assert rep.min_gap_violations == tuple(sorted(
        (i, i + g) for g in (1, 2) for i in range(1, 8 - g)))


@pytest.mark.parametrize("mult,certified", [(5, 0), (11, 2), (100, 7)])
@pytest.mark.parametrize("side", [1, -1], ids=["above", "below"])
def test_dichotomy_separation_tie_splits_at_the_guard_edge(side, mult, certified):
    # t_k = k/4096 within a radius that grows with k, and delta_1 forged
    # just off 1/64, so each gap-1 distance misses delta_1**2 by a margin
    # that is certified for the leading pairs of the (gap, x-count) group
    # only.  Above 1/64 those are violations and the rest undecided; below
    # it, with delta_2 = 2^-13 widening the cluster window past them, they
    # are separated and the rest clustered.
    alpha, beta = ApproxReal(F(1, 4096), F(1, 2 ** 140)), F(1, 3)
    one, (_, a_rad), _ = _resolve_pair(alpha, beta, DEFAULT_PREC)
    recs = [MinimaRecord(1, (1, 0), True, one // 64 + side * 4096 * a_rad * mult,
                         0, one),
            MinimaRecord(2, (2, 0), True, 1 if side > 0 else one >> 13, 0, one)]
    scan = dichotomy_scan("x" * 8, alpha, beta, recs, ProbeParams())
    assert scan == pair_loop_dichotomy("x" * 8, alpha, beta, DEFAULT_PREC, recs,
                                       ProbeParams())
    rep = dichotomy_report(scan, 1, 2)
    gap_1 = tuple((i, i + 1) for i in range(1, 8))
    assert rep.horizon == 8 and rep.min_gap_violations == ()
    if side > 0:
        assert (rep.separated, rep.clustered) == (21, 0)
        assert (rep.violations, rep.undecided) == (gap_1[:certified],
                                                   gap_1[certified:])
    else:
        assert (rep.separated, rep.clustered) == (21 + certified, 7 - certified)
        assert rep.violations == rep.undecided == ()


def test_dichotomy_reaches_the_deletion_tower_pair(monkeypatch):
    # the deletion tower m = 1, eps1 = 2^-10, decay 3 at 3 stages (N = 2,
    # 980, 27,220): (490, 27220) and (13365, 27220) qualify with horizons
    # 37,381 and 52,499, past W_3 and within W_3^2.  The pair is rational,
    # so every point and minimum has radius 0, and each of the 35,440
    # close pairs, the closeness tests and the sweep's edge are decided by
    # integer compares: no call reaches `_cmp_powers`.
    final = build_stages(ThinConfig(m=1, eps1=F(1, 2 ** 10), rho=lambda n: 3),
                         3)[-1]
    recs = minima_sequence(final.alpha, final.beta, 52499)
    calls = []
    monkeypatch.setattr(diophantine, "_cmp_powers",
                        lambda *args: calls.append(args) or _cmp_powers(*args))
    t0 = time.monotonic()
    scan = dichotomy_scan(power(final.W, 2), final.alpha, final.beta, recs,
                          ProbeParams())
    elapsed = time.monotonic() - t0
    assert len(calls) == 0
    assert scan.qualifying == ((1, 2), (490, 27220), (13365, 27220))
    assert scan.refusals == () and scan.violation_total == 0
    assert [r.horizon for r in scan.reports] == [2, 37381, 52499]
    assert [r.clustered for r in scan.reports[1:]] == [10161, 25279]
    for r in scan.reports:
        assert r.violations == r.undecided == r.min_gap_violations == ()
        assert r.separated + r.clustered == r.pairs_total
    assert elapsed < 10, f"tower dichotomy took {elapsed:.1f} s"


@settings(max_examples=300, deadline=None)
@given(probe_params, st.data())
def test_close_pairs_leave_out_only_certified_separated_pairs(params, data):
    """The edge found at twice the largest point radius certifies every
    distance d >= edge at every radius r <= wide past delta_n**t; so every
    pair that `_close_pairs` leaves out is certified separated, and it
    yields each other pair once, in circle order.  Points are drawn
    mostly edge - 1, edge or edge + 1 from a base point, to either side
    and across 0."""
    one = data.draw(st.integers(min_value=2, max_value=2 ** 40))
    dn = data.draw(st.integers(min_value=1, max_value=one // 2))
    rn = data.draw(st.sampled_from([0, 1, dn >> 8, dn >> 1]))
    r_max = data.draw(st.sampled_from([0, 1, one >> 16, one >> 8]))
    radii = data.draw(st.lists(st.integers(0, r_max), min_size=1, max_size=30))
    tp, tq = params.t.numerator, params.t.denominator

    def separated(d, r):
        return _cmp_powers([(d, r, tq)], [(dn, rn, tp)], one) == 1

    wide = 2 * max(radii)
    edge = _first(one // 2 + 1, lambda d: separated(d, wide))
    for d in {edge, edge + 1, one // 2,
              data.draw(st.integers(min_value=edge, max_value=max(edge, one // 2)))}:
        if edge <= d <= one // 2:
            for r in {0, wide, data.draw(st.integers(min_value=0, max_value=wide))}:
                assert separated(d, r)
    base = data.draw(st.sampled_from([0, one - 1]) | st.integers(0, one - 1))
    units = st.integers(min_value=0, max_value=one - 1) | st.sampled_from(
        [(base + k) % one for k in (0, edge - 1, edge, edge + 1,
                                    1 - edge, -edge, -edge - 1)])
    circle = sorted((data.draw(units), r, k) for k, r in enumerate(radii))
    where = {p[2]: a for a, p in enumerate(circle)}
    close = [(p[2], q[2]) for p, q in _close_pairs(circle, one, dn, rn, params.t)]
    assert all(where[i] < where[j] for i, j in close)
    assert len(set(close)) == len(close)
    for a, p in enumerate(circle):
        for q in circle[a + 1:]:
            if (p[2], q[2]) not in close:
                assert separated(*_gap(p, q, one))


@settings(max_examples=200, deadline=None)
@given(probe_params, st.sampled_from(["separated", "clustered"]), st.data())
def test_power_sign_thresholds_match_cmp_powers(params, test, data):
    """At radius 0, `_power_sign` gives `_cmp_powers`'s sign at every d
    from two below the least d of sign >= 0 to two past the least of sign
    1, both found here by bisection on `_cmp_powers`, and at random d.
    The separation (and net) test has one factor on the left, the cluster
    (and window) test two.  Ties come from delta_n = 1 and from a lattice
    where (d/one)**tq == (dn/one)**tp for d = c a**tp b**tq.  With a
    radius on a fixed factor no root is taken, and with a radius anywhere
    every sign is `_cmp_powers`'s."""
    tp, tq = params.t.numerator, params.t.denominator
    sp, sq = params.s.numerator, params.s.denominator
    if data.draw(st.booleans()):
        a = data.draw(st.integers(min_value=1, max_value=8))
        b = a + data.draw(st.integers(min_value=1, max_value=8))
        c = data.draw(st.integers(min_value=1, max_value=2 ** 20))
        one, dn = c * b ** (tp + tq), c * a ** tq * b ** tp
    else:
        one = data.draw(st.integers(min_value=2, max_value=2 ** 40))
        dn = data.draw(st.integers(min_value=1, max_value=one) | st.just(one))
    dm = data.draw(st.integers(min_value=0, max_value=dn) | st.just(0))
    k, left, right = (tq, [], [(dn, 0, tp)]) if test == "separated" else \
        (sq, [(dn, 0, sp)], [(dm, 0, sq)])

    def oracle(d, r=0):
        return _cmp_powers([(d, r, k), *left], right, one)

    top = 1
    while oracle(top) != 1:
        top *= 2
    lo = _first(top + 1, lambda d: oracle(d) >= 0)
    hi = _first(top + 1, lambda d: oracle(d) == 1)
    assert hi - lo in (0, 1)
    sign = _power_sign(k, left, right, one)
    for d in {*range(max(lo - 2, 0), hi + 3),
              data.draw(st.integers(min_value=0, max_value=2 * top))}:
        assert sign(d, 0) == oracle(d)
    r = data.draw(st.integers(min_value=1, max_value=top))
    d = data.draw(st.integers(min_value=0, max_value=2 * top))
    assert sign(d, r) == oracle(d, r)
    # a radius on delta_n, or on delta_m in the cluster test
    j = data.draw(st.sampled_from([j for j, side in enumerate((left, right)) if side]))
    v, _, e = (left, right)[j][0]
    (left, right)[j][0] = (v, data.draw(st.integers(min_value=1, max_value=max(v >> 8, 1))
                                        | st.integers(min_value=1, max_value=one)), e)
    with mock.patch.object(diophantine, "ceil_root_ratio", side_effect=AssertionError):
        sign = _power_sign(k, left, right, one)
    for d, r in ((d, 0), (d, r), (lo, 0), (hi, 0)):
        assert sign(d, r) == oracle(d, r)


def test_separation_forged_records_match_pair_loop_oracle():
    # delta_g forged to half a turn puts every pair of gap g below it
    recs = minima_sequence(S2M1, S3M1, 29)
    forged = [MinimaRecord(r.n, r.u, r.minimal,
                           r.den >> 1 if r.n % 7 == 3 else r.d_units,
                           r.rad_units, r.den) for r in recs]
    word = "xyyxy" * 6
    rep = orbit_separation_check(word, S2M1, S3M1, forged)
    assert rep == pair_loop_separation(word, S2M1, S3M1, DEFAULT_PREC, forged)
    assert rep.violations == tuple(sorted(rep.violations))
    assert {j - i for i, j in rep.violations} == {3, 10, 17, 24}
    assert len(rep.violations) == 27 + 20 + 13 + 6


def test_separation_margin_on_units_that_share_an_odd_factor():
    # a mixed pair on den = 3 * 2^272 whose x-only orbit and (lowered)
    # minima all sit on multiples of 3 units: the margin in bits is read
    # on the lcm of the reduced denominators, den / 3 up to a power of 2,
    # and reads 81 on den itself
    alpha = ApproxReal(F(3, 64), F(1, 3 * 2 ** 151))
    beta = F(1, 3)
    recs = [MinimaRecord(r.n, r.u, r.minimal, r.d_units - (21 << 200),
                         r.rad_units, r.den)
            for r in minima_sequence(alpha, beta, 2)]
    assert all(r.d_units % 3 == r.rad_units % 3 == 0 for r in recs)
    rep = orbit_separation_check("xxx", alpha, beta, recs)
    assert rep == pair_loop_separation("xxx", alpha, beta, DEFAULT_PREC, recs)
    assert (rep.pairs_checked, rep.undecided, rep.worst_margin_bits) == (3, 0, 80)


@pytest.mark.parametrize("past", [-1, 0, 1], ids=["inside", "at", "past"])
@pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
def test_separation_guard_edge(past, side):
    # one pair t_1, t_2 of gap 1 whose gap to a forged delta_1 sits at
    # the guard edge |gap| = radius * 2^GUARD_BITS, or one unit to either
    # side; a record radius of one unit keeps the units unscaled
    one, (a_mid, a_rad), _ = _resolve_pair(S2M1, S3M1, DEFAULT_PREC)
    d = min(a_mid % one, one - a_mid % one)
    edge = (a_rad + 2 * a_rad + 1) << GUARD_BITS
    rec = MinimaRecord(1, (1, 0), True, d - side * (edge + past), 1, one)
    rep = orbit_separation_check("xx", S2M1, S3M1, [rec])
    assert rep == pair_loop_separation("xx", S2M1, S3M1, DEFAULT_PREC, [rec])
    assert rep.undecided == (past <= 0)
    assert rep.violations == (((1, 2),) if past > 0 and side < 0 else ())
    assert (rep.worst_margin_bits is not None) == (past > 0 and side > 0)

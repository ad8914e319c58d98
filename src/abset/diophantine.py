"""Simultaneous-approximation minima for a rotation pair, and the scans
built on them.

The basic object is delta_n = min ||a*alpha + b*beta|| over integer
pairs (a, b) >= 0 with a + b = n, together with the realizing vector
u_n.  An index n is *minimal* when delta_n improves on (or ties) every
earlier value.  `minima_sequence` computes the records once, and the
scans read them as an argument:

  * integer_ratio_scan: pairs of values whose ratio is within tolerance
    of an integer l must satisfy the structural lemma n_i | n_j and
    u_j = l * u_i; deviations are reported.  Over the values sorted, a
    pair is compared only inside a certified window around a multiple
    of the smaller index's value.
  * orbit_separation_check: points t_i, t_j of an orbit keep distance
    at least delta_(j-i).
  * dichotomy_scan: for each qualifying (n, m), pairwise distances on an
    orbit prefix either exceed delta_n^t or fall below
    delta_m / delta_n^s; nothing in between.  One sorted sweep compares
    only the pairs closer than a certified edge (`_close_pairs`).
  * assouad_lower_probe: the localized covering case analysis behind the
    min(s/t, r/t, r) lower-bound exponent, on given points.

Representation: every circle value is an integer midpoint and an integer
radius over one common denominator.  An exact rational pair sits on the
lcm of its two denominators with radius zero; any other pair is rounded
onto the dyadic grid 2**-(prec+16), and its radius covers the rounding
and the input error.  A minima record keeps its units and renders delta
on demand, as a Fraction when the radius is zero and as an ApproxReal
(midpoint plus radius) otherwise; orbit points leave orbit_of_word the
same way.  The probe puts its points on the lcm of the records'
denominator and their own, once per call.  The separation check works
on the word's letter counts, where the pairs of one gap and window
x-count share a distance (`words.window_groups`, one bit mask per
group); the dichotomy builds a qualifying pair's points from the word's
letter steps.  Logs render at `dimension`'s pinned precision.

Precision discipline: a comparison is certified only when the midpoints
differ by more than the summed radii times 2**GUARD_BITS; anything
closer is "unknown", which scans report and never resolve silently.
A power threshold d < delta**(p/q) is tested as d**q against delta**p:
a d of radius zero against the least d of sign >= 0 and of sign 1, found
once per scale of radius zero from one integer root (`_power_sign`), ties
included; anything else on its intervals' corner powers (`_cmp_powers`).
"""

import math
import re
from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import mpmath

from .dimension import DEFAULT_PREC_BITS as DEC_PREC_BITS, LOG_DIGITS
from .errors import InsufficientPrecision, UsageError
from .exact import ceil_root_ratio, dec_sci
from .words import WordExpr, letters, parse_word, window_groups, window_pairs

GUARD_BITS = 8
MIN_INPUT_BITS = 128            # coarser input radii are a usage error
DEFAULT_PREC = 256

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# certified values


@dataclass(frozen=True)
class ApproxReal:
    """A real number known to lie in [mid - rad, mid + rad].

    mid and rad are exact rationals (dyadic in practice).  The scans read
    it once, onto integer units, and render it back only for a record or
    a point that a caller reads.
    """

    mid: Fraction
    rad: Fraction = _ZERO

    def __post_init__(self):
        object.__setattr__(self, "mid", Fraction(self.mid))
        object.__setattr__(self, "rad", Fraction(self.rad))
        if self.rad < 0:
            raise UsageError("ApproxReal radius must be nonnegative")

    @classmethod
    def sqrt_of_int(cls, n: int, prec_bits: int) -> "ApproxReal":
        """sqrt(n) with radius 2**-(prec_bits+1)."""
        if n < 0:
            raise UsageError("sqrt of a negative integer")
        root = math.isqrt(n << (2 * prec_bits))
        half = Fraction(1, 1 << (prec_bits + 1))
        return cls(Fraction(2 * root + 1, 1 << (prec_bits + 1)), half)

    def __str__(self):
        return f"{dec_sci(self.mid)} +- {dec_sci(self.rad)}" if self.rad else dec_sci(self.mid)


def _decide(gap, rad) -> Optional[int]:
    """The sign of gap, or None when rad > 0 and |gap| <= rad * 2**GUARD_BITS."""
    if rad and abs(gap) <= rad * (1 << GUARD_BITS):
        return None
    return (gap > 0) - (gap < 0)


def _cmp_powers(left, right, den: int) -> Optional[int]:
    """Certified sign of the product of x**k over `left` minus that over
    `right`, or None.

    Each factor is (mid, rad, k) with k >= 1: a value mid/den within
    rad/den.  A side is bounded by the corner products of its factors'
    corner powers, and the two sides' midpoints and radii go to _decide.
    Fractional-power thresholds reduce to this form: d < delta**(p/q) iff
    d**q < delta**p for nonnegative operands.
    """
    sides = []
    for factors in (left, right):
        lo = hi = 1
        for mid, rad, k in factors:
            a, b = mid - rad, mid + rad
            p_lo = a ** k
            p_hi = b ** k if rad else p_lo
            if k % 2 == 0 and a < 0:    # an even power turns at 0
                p_lo, p_hi = (p_hi, p_lo) if b <= 0 else (0, max(p_lo, p_hi))
            corners = (lo * p_lo, lo * p_hi, hi * p_lo, hi * p_hi)
            lo, hi = min(corners), max(corners)
        sides.append((lo, hi, sum(k for _, _, k in factors)))
    (l_lo, l_hi, l_k), (r_lo, r_hi, r_k) = sides
    # both sides over den**max(l_k, r_k)
    ls, rs = den ** max(r_k - l_k, 0), den ** max(l_k - r_k, 0)
    return _decide((l_lo + l_hi) * ls - (r_lo + r_hi) * rs,
                   (l_hi - l_lo) * ls + (r_hi - r_lo) * rs)


def _power_sign(k: int, left, right, den: int):
    """sign(d, r): the certified sign of _cmp_powers([(d, r, k), *left],
    right, den).  With no radius on a fixed factor, one integer root gives
    the least d of sign >= 0 and the least of sign 1 (one more exactly when
    the root is exact), and a d of radius 0 is compared with them."""
    lo = hi = None
    if not any(rad for _, rad, _ in left + right):
        e = k + sum(x for *_, x in left) - sum(x for *_, x in right)
        num = math.prod(v ** x for v, _, x in right) * den ** max(e, 0)
        div = math.prod(v ** x for v, _, x in left) * den ** max(-e, 0)
        lo = ceil_root_ratio(num, div, k)
        hi = lo + (lo ** k * div == num)
    return lambda d, r: (d >= lo) + (d >= hi) - 1 if lo is not None and not r \
        else _cmp_powers([(d, r, k), *left], right, den)


# ---------------------------------------------------------------------------
# input values: rational +- sums of square roots

_TOKEN = re.compile(r"\s*(?:(?P<sign>[+-])|(?P<sqrt>sqrt\(\s*(?P<rad>\d+)\s*\))"
                    r"|(?P<dec>\d+\.\d+)|(?P<frac>\d+/\d+)|(?P<int>\d+)"
                    r"|(?P<star>\*)|(?P<bad>sqrt\([^)]*\)?|\S))")


@dataclass(frozen=True)
class RealValue:
    """rational + sum of coef * sqrt(radicand) with nonsquare radicands."""

    rational: Fraction = _ZERO
    surds: Tuple[Tuple[int, Fraction], ...] = ()

    @classmethod
    def from_fraction(cls, fr) -> "RealValue":
        return cls(Fraction(fr), ())

    @classmethod
    def sqrt(cls, n: int, coef=1) -> "RealValue":
        if n < 0:
            raise UsageError("sqrt of a negative integer")
        coef = Fraction(coef)
        root = math.isqrt(n)
        if root * root == n:
            return cls(coef * root, ())
        # pull out square factors so equal surds cancel exactly;
        # skipped for huge radicands where trial division would crawl
        if n <= 10**8:
            d = 2
            while d * d <= n:
                while n % (d * d) == 0:
                    n //= d * d
                    coef *= d
                d += 1
        return cls(_ZERO, ((n, coef),))

    def __add__(self, other: "RealValue") -> "RealValue":
        terms = dict(self.surds)
        for rad, c in other.surds:
            terms[rad] = terms.get(rad, _ZERO) + c
        surds = tuple(sorted((r, c) for r, c in terms.items() if c != 0))
        return RealValue(self.rational + other.rational, surds)

    def __neg__(self) -> "RealValue":
        return RealValue(-self.rational, tuple((r, -c) for r, c in self.surds))

    def __sub__(self, other: "RealValue") -> "RealValue":
        return self + (-other)

    @property
    def is_rational(self) -> bool:
        return not self.surds

    def as_fraction(self) -> Fraction:
        if self.surds:
            raise UsageError(f"{self} is not rational")
        return self.rational

    def approx(self, prec_bits: int = DEFAULT_PREC) -> ApproxReal:
        """Midpoint-radius value with radius below 2**-prec_bits."""
        head = sum(abs(c) for _, c in self.surds) + 1
        work = prec_bits + 8 + math.ceil(head).bit_length()
        mid, rad = self.rational, _ZERO
        for n, c in self.surds:
            root = ApproxReal.sqrt_of_int(n, work)
            mid += root.mid * c
            rad += root.rad * abs(c)
        return ApproxReal(mid, rad)

    def __str__(self):
        pieces = []
        for rad, c in self.surds:
            mag = abs(c)
            body = f"sqrt({rad})" if mag == 1 else f"{mag}*sqrt({rad})"
            pieces.append(("-" if c < 0 else "+", body))
        if self.rational != 0 or not pieces:
            pieces.append(("-" if self.rational < 0 else "+", str(abs(self.rational))))
        sign, body = pieces[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out


def parse_value(text: str) -> RealValue:
    """Parse a signed sum of sqrt(k), rationals p/q and decimal literals.

    An optional `coef*` prefix is accepted before sqrt so that rendered
    values round-trip.  Unknown tokens are named in the error.
    """
    out = RealValue()
    pos = 0
    expect_term = True
    have_sign = False
    sign = 1
    pending_coef: Optional[Fraction] = None
    n_terms = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            break
        pos = m.end()
        if m.group("bad"):
            raise UsageError(f"unexpected token {m.group('bad')!r} in value expression")
        if m.group("sign"):
            if have_sign or pending_coef is not None:
                raise UsageError(f"unexpected token {m.group('sign')!r} in value expression")
            expect_term = True
            sign = 1 if m.group("sign") == "+" else -1
            have_sign = True
            continue
        if m.group("star"):
            raise UsageError("unexpected token '*' in value expression")
        if not expect_term:
            raise UsageError(f"missing '+' or '-' before {m.group(0).strip()!r}")
        if m.group("sqrt"):
            coef = pending_coef if pending_coef is not None else _ONE
            out = out + RealValue.sqrt(int(m.group("rad")), sign * coef)
            pending_coef = None
        else:
            tok = m.group("dec") or m.group("frac") or m.group("int")
            if pending_coef is not None:
                raise UsageError("a '*' coefficient must be followed by sqrt(...)")
            value = Fraction(tok)
            nxt = _TOKEN.match(text, pos)
            if nxt is not None and nxt.group("star"):
                pos = nxt.end()
                pending_coef = value
                continue
            out = out + RealValue.from_fraction(sign * value)
        expect_term = False
        have_sign = False
        sign = 1
        n_terms += 1
    if pending_coef is not None:
        raise UsageError("dangling '*' without a sqrt term")
    if expect_term:
        raise UsageError("empty value expression" if n_terms == 0
                         else "trailing sign in value expression")
    return out


# ---------------------------------------------------------------------------
# minima of ||a*alpha + b*beta|| along a + b = n


@dataclass(frozen=True)
class MinimaRecord:
    """delta_n = d_units/den within rad_units/den, realized by u."""

    n: int
    u: Tuple[int, int]
    minimal: bool
    d_units: int
    rad_units: int
    den: int

    @property
    def delta(self) -> Union[Fraction, ApproxReal]:
        """delta_n as a Fraction when exact, else with its radius."""
        mid = Fraction(self.d_units, self.den)
        return ApproxReal(mid, Fraction(self.rad_units, self.den)) if self.rad_units else mid

    @property
    def is_zero(self) -> bool:
        return self.d_units == self.rad_units == 0


def _resolve_input(value, prec_bits: int):
    """-> Fraction (exact) or ApproxReal."""
    if isinstance(value, str):
        value = parse_value(value)
    if isinstance(value, RealValue):
        return value.as_fraction() if value.is_rational else value.approx(prec_bits)
    if isinstance(value, ApproxReal):
        return Fraction(value.mid) if value.rad == 0 else value
    return Fraction(value)


def _resolve_pair(alpha, beta, prec_bits: int):
    """-> (den, (a_mid, a_rad), (b_mid, b_rad)): the pair in integer units.

    den is the lcm of the exact members' denominators, shifted by
    prec+16 bits when a member is inexact.  Exact members sit on it with
    radius zero; an inexact one is rounded onto it.
    """
    a = _resolve_input(alpha, prec_bits)
    b = _resolve_input(beta, prec_bits)
    den = math.lcm(*(x.denominator for x in (a, b) if isinstance(x, Fraction)))
    if not (isinstance(a, Fraction) and isinstance(b, Fraction)):
        den <<= prec_bits + 16
    cap = Fraction(1, 1 << MIN_INPUT_BITS)
    units = []
    for x in (a, b):
        if isinstance(x, Fraction):
            units.append((x.numerator * (den // x.denominator), 0))
            continue
        if x.rad > cap:
            raise UsageError(f"input radius {dec_sci(x.rad)} is coarser than "
                             f"the required {MIN_INPUT_BITS} bits")
        num = x.mid.numerator * den
        u = (num + (x.mid.denominator >> 1)) // x.mid.denominator
        slack = Fraction(x.rad) * den + 1
        units.append((u, math.ceil(slack)))
    return den, units[0], units[1]


def _near(codes: List[int], width: int, target: int, reach: int,
          one: int) -> List[int]:
    """The sorted codes key * width + a whose key lies within circle
    distance reach of target."""
    if 2 * reach + 1 >= one:
        return codes
    lo = (target - reach) % one
    hi = lo + 2 * reach
    start = bisect_left(codes, lo * width)
    if hi < one:
        return codes[start:bisect_left(codes, (hi + 1) * width)]
    return codes[start:] + codes[:bisect_left(codes, (hi - one + 1) * width)]


def minima_sequence(alpha, beta, n_max: int,
                    prec_bits: int = DEFAULT_PREC) -> List[MinimaRecord]:
    """Records for n = 1..n_max; stops at an exact zero, its last record.

    With gamma = alpha - beta, the value at (a, n - a) is a*gamma + n*beta,
    so delta_n is the circle distance from the target -n*beta to the
    nearest of the points a*gamma mod 1, a <= n, and that nearest point is
    one of the target's two neighbours in circle order.  The points are
    kept sorted, each n inserts one and bisects for its target: O(n) list
    insertion and O(log n) comparisons per n.

    Ties between candidates are decided toward the smallest a when the
    radius is zero and refused otherwise; so are ties with the running
    minimum, which count as minimal when exact.
    """
    if n_max < 1:
        raise UsageError("minima scan needs n_max >= 1")
    one, (a_mid, a_rad), (b_mid, b_rad) = _resolve_pair(alpha, beta, prec_bits)
    half = one >> 1
    step = (a_mid - b_mid) % one
    # (rad_min + rad_a) << GUARD_BITS is at most n * guard for every a <= n
    guard = max(a_rad, b_rad) << (GUARD_BITS + 1)

    def dist(r):
        r %= one
        return r if r <= half else one - r

    # each point is one integer key * width + a, so sorting orders the
    # points by key a*gamma mod 1 and equal keys by a
    width = n_max + 1
    codes: List[int] = [0]
    key = 0
    records: List[MinimaRecord] = []
    best: Optional[Tuple[int, int]] = None      # (d_units, rad_units)
    for n in range(1, n_max + 1):
        key = (key + step) % one
        insort(codes, key * width + n)
        target = -n * b_mid % one
        i = bisect_left(codes, target * width)
        d_min = min(dist(codes[i % len(codes)] // width - target),
                    dist(codes[i - 1] // width - target))
        # the first code of a key at distance d_min, on either side, holds
        # its smallest a
        a_min = n
        for k in ((target + d_min) % one, (target - d_min) % one):
            j = bisect_left(codes, k * width)
            if j < len(codes) and codes[j] // width == k:
                a_min = min(a_min, codes[j] % width)
        rad_min = (n - a_min) * b_rad + a_min * a_rad
        if guard:                       # with radius zero the argmin is decided
            near = _near(codes, width, target, d_min + n * guard, one)
            for k, a in sorted((divmod(c, width) for c in near),
                               key=lambda p: p[1]):
                if a == a_min:
                    continue
                rad = (n - a) * b_rad + a * a_rad
                if dist(k - target) - d_min <= (rad_min + rad) << GUARD_BITS:
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


def scan_horizon(mid: int, rad: int, den: int, s: Fraction) -> int:
    """N = ceil((den/mid)**s) for a minimum mid/den within rad/den that is
    certified positive."""
    s = Fraction(s)
    p, q = s.numerator, s.denominator
    if mid <= rad:
        if not rad:
            raise UsageError("scan horizon needs delta > 0")
        raise InsufficientPrecision("scan-horizon", "minimum not certified positive")
    top = den ** p
    n_hi = ceil_root_ratio(top, (mid - rad) ** p, q)
    if rad and (n_hi - 1) ** q * (mid + rad) ** p >= top:  # N below n_hi fits too
        n_lo = ceil_root_ratio(top, (mid + rad) ** p, q)
        raise InsufficientPrecision("scan-horizon", f"N lies in [{n_lo}, {n_hi}]")
    return n_hi


# ---------------------------------------------------------------------------
# probe parameters


@dataclass(frozen=True)
class ProbeParams:
    s: Fraction = Fraction(49, 100)
    t: Fraction = Fraction(2)
    r: Fraction = Fraction(1, 2)

    def __post_init__(self):
        object.__setattr__(self, "s", Fraction(self.s))
        object.__setattr__(self, "t", Fraction(self.t))
        object.__setattr__(self, "r", Fraction(self.r))
        if not 0 < self.s < Fraction(1, 2):
            raise UsageError(f"need 0 < s < 1/2, got s={self.s}")
        if not self.t > 1 + 2 * self.s:
            raise UsageError(f"need t > 1 + 2s, got t={self.t} with s={self.s}")
        if not 0 < self.r < 1:
            raise UsageError(f"need 0 < r < 1, got r={self.r}")

    @property
    def exponent_at_params(self) -> Fraction:
        return min(self.s / self.t, self.r / self.t, self.r)

    @property
    def implied_exponent_limit(self) -> Fraction:
        # supremum of min(s/t, r/t, r) over 0 < s < 1/2, t > 1+2s at this r:
        # approach s -> 1/2, t -> 2
        return min(Fraction(1, 4), self.r / 2)


# ---------------------------------------------------------------------------
# integer-ratio scan


@dataclass(frozen=True)
class RatioPair:
    i: int
    j: int
    ell: int
    divisibility_ok: bool
    vector_ok: bool


@dataclass(frozen=True)
class RatioViolation:
    i: int
    j: int
    ell: int
    reason: str                  # "divisibility" | "vector-multiple"
    u_i: Tuple[int, int]
    u_j: Tuple[int, int]


@dataclass(frozen=True)
class RatioScanReport:
    tol: Fraction
    qualifying: Tuple[RatioPair, ...]
    violations: Tuple[RatioViolation, ...]
    undecided: Tuple[Tuple[int, int], ...]
    pairs_examined: int
    zero_at: Optional[int]


def integer_ratio_scan(records: Sequence[MinimaRecord],
                       tol=Fraction(1, 1 << 64)) -> RatioScanReport:
    """Flag pairs of the minima `records` with a near-integer ratio and
    audit the lemma n_i | n_j, u_j = l * u_i on each; raw rational inputs
    may genuinely violate it and are reported, not raised.

    `pairs_examined` counts every pair i < j over a base i whose value is
    decided nonzero.  Each such pair is either excluded by a certified
    window or compared exactly.  With the records sorted by value, base i
    looks at each multiple l <= max_(j>i) d_j / d_i + 1 and bisects for
    the values within w of l * d_i, where w bounds the offset at which the
    exact test can still come out non-positive: outside every window the
    test is certified positive, so such a pair neither qualifies nor is
    undecided.  A base with more multiples than later records compares
    every later record.
    """
    tol = Fraction(tol)
    if tol <= 0:
        raise UsageError("tolerance must be positive")
    qualifying: List[RatioPair] = []
    violations: List[RatioViolation] = []
    undecided: List[Tuple[int, int]] = []
    pairs = 0

    def audit(ri: MinimaRecord, rj: MinimaRecord, ell: int):
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
    m = len(records)
    order = sorted(range(m), key=lambda k: records[k].d_units)
    values = [records[k].d_units for k in order]
    r_max = max((r.rad_units for r in records), default=0)
    later_max = [0] * (m + 1)           # max d_j over j >= k
    for k in range(m - 1, -1, -1):
        later_max[k] = max(later_max[k + 1], records[k].d_units)
    for i in range(m):
        d_i, r_i = records[i].d_units, records[i].rad_units
        c = _decide(d_i, r_i)
        if c is None:
            # sign of the base value itself is unclear; flagged as (n, 0)
            undecided.append((records[i].n, 0))
        if not c:
            continue
        pairs += m - 1 - i
        ell_max = later_max[i + 1] // d_i + 1
        if ell_max > m - 1 - i:
            hits = range(i + 1, m)
        else:
            # a non-positive test needs tq * off <= tp * d_i + guarded radii
            guard = (tq * (r_max + ell_max * r_i) + tp * r_i) << GUARD_BITS
            w = -(-(tp * d_i + guard) // tq) + 1
            # window l is [l * d_i - w, l * d_i + w]; windows that overlap
            # resume where the last one ended
            found, lo, edge = [], 0, d_i - w
            for _ in range(ell_max):
                lo = bisect_left(values, edge, lo)
                while lo < m and values[lo] <= edge + 2 * w:
                    if order[lo] > i:
                        found.append(order[lo])
                    lo += 1
                edge += d_i
            hits = sorted(found)
        for j in hits:
            d_j, r_j = records[j].d_units, records[j].rad_units
            ell = (2 * d_j + d_i) // (2 * d_i)          # nearest integer
            if ell < 1:
                continue
            # |d_j - ell*d_i| <= tol*d_i, scaled by tq
            off = abs(d_j - ell * d_i)
            c = _decide(tq * off - tp * d_i, tq * (r_j + ell * r_i) + tp * r_i)
            if c is None:
                undecided.append((records[i].n, records[j].n))
            elif c <= 0:
                audit(records[i], records[j], ell)
    return RatioScanReport(tol, tuple(qualifying), tuple(violations),
                           tuple(undecided), pairs,
                           records[-1].n if records and records[-1].is_zero else None)


# ---------------------------------------------------------------------------
# orbits, their separation and the gap dichotomy


def _word_letters(word: Union[WordExpr, str]) -> Iterator[str]:
    """The letters of `word`, in any form orbit_of_word takes."""
    if not isinstance(word, str):
        return letters(word)
    if set(word) <= {"x", "y"}:
        return iter(word)
    try:
        return letters(parse_word(word))
    except ValueError as exc:
        raise UsageError(f"bad word expression: {exc}") from None


def orbit_of_word(word: Union[WordExpr, str], alpha, beta,
                  prec_bits: int = DEFAULT_PREC) -> List[Union[Fraction, ApproxReal]]:
    """Points t_1..t_|w| visited by the word, reduced mod 1.

    `word` may be a WordExpr, a plain string of x/y letters, or a string
    in the parenthesized grammar of `words.parse_word`.
    """
    seq = _word_letters(word)
    one, (a_mid, a_rad), (b_mid, b_rad) = _resolve_pair(alpha, beta, prec_bits)
    out: List[Union[Fraction, ApproxReal]] = []
    mid = rad = 0
    for ch in seq:
        mid += a_mid if ch == "x" else b_mid
        rad += a_rad if ch == "x" else b_rad
        mid %= one
        point = Fraction(mid, one)
        out.append(ApproxReal(point, Fraction(rad, one)) if rad else point)
    return out


def _gap(p: Tuple[int, int], q: Tuple[int, int], one: int) -> Tuple[int, int]:
    """Circle distance of two points in units, and its radius."""
    r = (p[0] - q[0]) % one
    return min(r, one - r), p[1] + q[1]


def _first(hi: int, pred) -> int:
    """The least k in [0, hi) with pred(k), or hi; pred is monotone."""
    lo = 0
    while lo < hi:
        mid = (lo + hi) >> 1
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _close_pairs(circle, one: int, dn: int, rn: int, t: Fraction):
    """The pairs (p, q), p first, of the sorted points (units, radius, ...)
    of `circle` closer, wrap included, than the edge from which on twice
    the largest radius still certifies a distance > ((dn +- rn)/one)**t."""
    wide = 2 * max(p[1] for p in circle)
    sep = _power_sign(t.denominator, [], [(dn, rn, t.numerator)], one)
    edge = _first(one // 2 + 1, lambda d: sep(d, wide) == 1)
    for a, p in enumerate(circle):
        hi = bisect_left(circle, (p[0] + edge,))
        lo = max(bisect_left(circle, (p[0] + one - edge + 1,)), hi)
        for q in circle[a + 1:hi] + circle[lo:]:
            yield p, q


def _split(cmp, radius, m):
    """The number of leading pairs k < m at whose radius(k) the comparison
    cmp is decided.  A wider interval only loses decisions, and keeps the
    sign of those it makes."""
    if cmp(radius(m - 1)) is not None:
        return m
    return 0 if cmp(0) is None else _first(m, lambda k: cmp(radius(k)) is None)


@dataclass(frozen=True)
class SeparationReport:
    pairs_checked: int
    violations: Tuple[Tuple[int, int], ...]
    undecided: int
    worst_margin_bits: Optional[int]


def orbit_separation_check(word: Union[WordExpr, str], alpha, beta,
                           records: Sequence[MinimaRecord],
                           prec_bits: int = DEFAULT_PREC) -> SeparationReport:
    """Audit d(t_i, t_j) >= delta_(j-i) over all pairs of the points
    t_1..t_|w| that `word` visits (any form orbit_of_word takes): true for
    every genuine orbit of the pair behind `records`.

    A (gap, x-count) group (`window_groups`, a bit mask) has one gap to
    delta_g, decided on its leading pairs only (`_split`); the undecided
    rest is the mask's high bits, and its worst margin sits at its highest
    decided bit.  Units are on the lcm of the reduced denominators, so
    margins in bits do not depend on the scale the inputs were held on.
    """
    is_x = [ch == "x" for ch in _word_letters(word)]
    one, step_x, step_y = _resolve_pair(alpha, beta, prec_bits)
    n_pts = len(is_x)
    if n_pts < 2:
        return SeparationReport(0, (), 0, None)
    if len(records) < n_pts - 1:
        raise UsageError(f"need minima up to gap {n_pts - 1}, got {len(records)}")
    recs = records[:n_pts - 1]
    for g, rec in enumerate(recs, start=1):
        if rec.n != g:
            raise UsageError("minima records must cover gaps 1, 2, ... in order")

    # every value on a common multiple of the denominators, then divided
    # by the gcd of all units: the lcm of the reduced denominators.  The
    # points' mids and radii are sums of their letters' steps, so the
    # letters that occur stand in for them in the gcd.
    big = math.lcm(one, *{r.den for r in recs})
    vals = [v * (big // one) for v in step_x + step_y] + \
        [v * (big // r.den) for r in recs for v in (r.d_units, r.rad_units)]
    used = vals[:2] * any(is_x) + vals[2:4] * (not all(is_x)) + vals[4:]
    unit = math.gcd(big, *used)
    one, vals = big // unit, [v // unit for v in vals]
    deltas = list(zip(vals[4::2], vals[5::2]))

    violations: List[Tuple[int, int]] = []
    undecided, margins = 0, []
    for g, a, d, members, radius in window_groups(is_x, vals[:4], one):
        dm, dr = deltas[g - 1]
        gap = d - dm
        p = _split(lambda rad: _decide(gap, rad + dr), radius, n_pts - g)
        undecided += (members >> p).bit_count()
        if gap < 0:
            violations.extend(window_pairs(members, g, 0, p))
            continue
        q = (members & ((1 << p) - 1)).bit_length() - 1    # last decided pair
        if q < 0:
            continue
        radsum = radius(q) + dr
        if radsum:                  # an exact pair carries no margin
            margins.append(gap.bit_length() - radsum.bit_length())
    return SeparationReport(n_pts * (n_pts - 1) // 2, tuple(sorted(violations)),
                            undecided, min(margins, default=None))


@dataclass(frozen=True)
class GapDichotomyReport:
    n: int
    m: int
    refused: bool
    reason: Optional[str] = None
    horizon: Optional[int] = None
    delta_n_dec: Optional[str] = None
    delta_m_dec: Optional[str] = None
    pairs_total: int = 0
    separated: int = 0
    clustered: int = 0
    violations: Tuple[Tuple[int, int], ...] = ()
    undecided: Tuple[Tuple[int, int], ...] = ()
    min_gap_violations: Tuple[Tuple[int, int], ...] = ()


@dataclass(frozen=True)
class QualifyingScan:
    qualifying: Tuple[Tuple[int, int], ...]
    reports: Tuple[GapDichotomyReport, ...]
    violation_total: int
    refusals: Tuple[Tuple[int, int, str], ...]
    notes: Tuple[str, ...]


def dichotomy_scan(word: Union[WordExpr, str], alpha, beta,
                   records: Sequence[MinimaRecord], params: ProbeParams,
                   prec_bits: int = DEFAULT_PREC) -> QualifyingScan:
    """Classify orbit pair distances for every qualifying (n, m) of the
    minima `records`: n and m minimal, n < m <= horizon(n) and
    delta_m < delta_n**t.

    Below the horizon each pair of the points that `word` visits (any
    form orbit_of_word takes) is separated (>= delta_n**t) or clustered
    (<= delta_m / delta_n**s), else a violation; a word too short for the
    horizon is refused.  Only the pairs that `_close_pairs` yields are
    compared; the rest are separated, so farther apart than delta_m.
    """
    is_x = [ch == "x" for ch in _word_letters(word)]
    one, step_x, step_y = _resolve_pair(alpha, beta, prec_bits)
    tp, tq = params.t.numerator, params.t.denominator
    sp, sq = params.s.numerator, params.s.denominator
    minimal = [r for r in records if r.minimal]
    reports: List[GapDichotomyReport] = []
    notes: List[str] = []
    # the comparisons do not depend on the denominator's scale
    den = math.lcm(one, *{r.den for r in minimal})
    steps = [v * (den // one) for v in step_x + step_y]
    units = {r.n: (r.d_units * (den // r.den), r.rad_units * (den // r.den))
             for r in minimal}

    def classify(rec_n, rec_m, horizon: int, sep_sign) -> GapDichotomyReport:
        n, m = rec_n.n, rec_m.n
        if len(is_x) < horizon:
            return GapDichotomyReport(n, m, True, f"orbit has {len(is_x)} "
                                      f"points, horizon needs {horizon}", horizon)
        (dn, rn), (dm, rm) = units[n], units[m]
        circle, mid, rad = [], 0, 0         # (units, radius, time k)
        for k, x in enumerate(is_x[:horizon], start=1):
            mid = (mid + steps[0 if x else 2]) % den
            rad += steps[1 if x else 3]
            circle.append((mid, rad, k))
        circle.sort()
        separated, clustered = horizon * (horizon - 1) // 2, 0
        violations, undecided, min_gap_bad = [], [], []
        clu_sign = _power_sign(sq, [(dn, rn, sp)], [(dm, rm, sq)], den)
        for p, q in _close_pairs(circle, den, dn, rn, params.t):
            d, r = _gap(p, q, den)
            pair = (p[2], q[2]) if p[2] < q[2] else (q[2], p[2])
            if _decide(d - dm, r + rm) == -1:
                min_gap_bad.append(pair)
            sep = sep_sign(d, r)
            if sep in (0, 1):
                continue
            separated -= 1
            clu = clu_sign(d, r)
            if clu in (-1, 0):
                clustered += 1
            else:
                (undecided if None in (sep, clu) else violations).append(pair)
        return GapDichotomyReport(n, m, False, None, horizon,
                                  dec_sci(Fraction(rec_n.d_units, rec_n.den)),
                                  dec_sci(Fraction(rec_m.d_units, rec_m.den)),
                                  horizon * (horizon - 1) // 2, separated,
                                  clustered, *(tuple(sorted(x)) for x in (
                                      violations, undecided, min_gap_bad)))

    for rec in minimal:
        if rec.is_zero:
            notes.append(f"n={rec.n}: zero minimum, no horizon")
            continue
        try:
            horizon = scan_horizon(rec.d_units, rec.rad_units, rec.den, params.s)
        except InsufficientPrecision as exc:
            notes.append(f"n={rec.n}: {exc}")
            continue
        sep_sign = _power_sign(tq, [], [(*units[rec.n], tp)], den)
        for other in minimal:
            if not rec.n < other.n <= horizon:
                continue
            c = sep_sign(*units[other.n])
            if c is None:
                notes.append(f"(n={rec.n}, m={other.n}): closeness undecidable")
            elif c < 0:
                reports.append(classify(rec, other, horizon, sep_sign))
    return QualifyingScan(tuple((r.n, r.m) for r in reports), tuple(reports),
                          sum(len(r.violations) for r in reports),
                          tuple((r.n, r.m, r.reason) for r in reports if r.refused),
                          tuple(notes))


# ---------------------------------------------------------------------------
# localized covering probe


@dataclass(frozen=True)
class WindowWitness:
    center_index: int
    center_dec: str
    radius_dec: str
    count_orbit: int
    count_full: int
    exponent_dec: str


@dataclass(frozen=True)
class ProbeCase:
    n: int
    outcome: str                 # "case1" | "case2a" | "case2b" | "skipped"
    note: str = ""
    horizon: Optional[int] = None
    rho_n: Optional[Fraction] = None
    delta_n_dec: Optional[str] = None
    close_m: Optional[int] = None
    sep_count: Optional[int] = None
    sep_scale_dec: Optional[str] = None
    sep_violations: int = 0
    sep_undecided: int = 0
    threshold_ok: Optional[bool] = None
    window: Optional[WindowWitness] = None
    exponent_dec: Optional[str] = None


@dataclass(frozen=True)
class AssouadProbeReport:
    params: ProbeParams
    cases: Tuple[ProbeCase, ...]
    exponent_at_params: Fraction
    implied_exponent_limit: Fraction


def _log_of(mid: int, den: int):
    """log(mid/den), from the reduced fraction so that it does not depend
    on the denominator the value was held on."""
    v = Fraction(mid, den)
    return mpmath.log(v.numerator) - mpmath.log(v.denominator)


def _probe_exponent(count: int, neg_log_scale) -> str:
    with mpmath.workprec(DEC_PREC_BITS):
        if count <= 1 or neg_log_scale <= 0:
            return mpmath.nstr(mpmath.mpf(0), LOG_DIGITS)
        return mpmath.nstr(mpmath.log(count) / neg_log_scale, LOG_DIGITS)


def assouad_lower_probe(points, indices, records: Sequence[MinimaRecord],
                        params: ProbeParams,
                        n_list: Sequence[int]) -> AssouadProbeReport:
    """Case analysis behind the localized lower bound, on the minima
    `records` (n = 1, 2, ... in order) of the pair behind `points`.

    For each minimal n: either no k <= N carries a value below
    delta_n**t (case 1: the whole index window is delta_n**t-separated),
    or the greedy delta_n**t/2-net is already large (case 2a), or
    pigeonholing concentrates points in a window of radius
    delta_m / delta_n**s (case 2b, reported with the witness window).
    The points go onto the lcm of the records' denominator and their own
    once.  Purely diagnostic: precondition failures, a horizon past the
    records among them, skip the entry, never raise.
    """
    if not n_list:
        raise UsageError("probe needs a nonempty n_list")
    if any(r.n != g for g, r in enumerate(records, start=1)):
        raise UsageError("minima records must run n = 1, 2, ... in order")
    tp, tq = params.t.numerator, params.t.denominator
    sp, sq = params.s.numerator, params.s.denominator
    rp, rq = params.r.numerator, params.r.denominator
    vals = [(v.mid, v.rad) if isinstance(v, ApproxReal) else (Fraction(v), _ZERO)
            for v in points]
    one = math.lcm(*{r.den for r in records}, *(x.denominator for v in vals for x in v))
    pts = [(m.numerator * (one // m.denominator), r.numerator * (one // r.denominator))
           for m, r in vals]

    def units(rec: MinimaRecord) -> Tuple[int, int]:
        return rec.d_units * (one // rec.den), rec.rad_units * (one // rec.den)

    def case_at(n: int) -> ProbeCase:
        if n < 1 or n > len(records):
            return ProbeCase(n, "skipped", "outside the computed minima range")
        rec = records[n - 1]
        if not rec.minimal:
            return ProbeCase(n, "skipped", "not a minimal index")
        if rec.is_zero:
            return ProbeCase(n, "skipped", "zero minimum")
        try:
            horizon = scan_horizon(rec.d_units, rec.rad_units, rec.den, params.s)
        except InsufficientPrecision as exc:
            return ProbeCase(n, "skipped", f"horizon undecidable: {exc.detail}")
        if len(points) < horizon:
            return ProbeCase(n, "skipped", f"orbit has {len(points)} points, "
                             f"horizon needs {horizon}", horizon)
        if horizon > len(records) and not records[-1].is_zero:
            return ProbeCase(n, "skipped", f"minima end at n={len(records)}, "
                             f"horizon needs {horizon}", horizon)
        if indices is None:
            sel = list(range(1, horizon + 1))
        else:
            sel = sorted(k for k in indices if 1 <= k <= horizon)
        if not sel:
            return ProbeCase(n, "skipped", "no surviving indices below the "
                                           "horizon", horizon)
        rho = Fraction(len(sel), horizon)
        d_n_dec = dec_sci(Fraction(rec.d_units, rec.den))
        note_bits: List[str] = []
        dn, rn = units(rec)
        sep_sign = _power_sign(tq, [], [(dn, rn, tp)], one)

        # nearest qualifying companion below the horizon
        close_m = None
        for other in records[:horizon]:
            if other.n == n or not other.minimal:
                continue
            c = sep_sign(*units(other))
            if c is None:
                note_bits.append(f"m={other.n} closeness undecidable")
            elif c < 0:
                close_m = other.n
                break
        neg_log_dn = -_log_of(rec.d_units, rec.den)
        ent = [(k, pts[k - 1]) for k in sel]

        if close_m is None:
            # every index pair below the horizon keeps distance >= delta_n**t;
            # only the pairs closer than the certified edge are compared
            circle = sorted((p % one, r) for _, (p, r) in ent)
            signs = [sep_sign(*_gap(p, q, one))
                     for p, q in _close_pairs(circle, one, dn, rn, params.t)]
            sep_bad, sep_und = signs.count(-1), signs.count(None)
            log_scale = neg_log_dn * tp / tq             # log(1/delta_n**t)
            return ProbeCase(n, "case1", "; ".join(note_bits), horizon, rho,
                             d_n_dec, None, len(ent),
                             mpmath.nstr(mpmath.e ** (-log_scale), LOG_DIGITS),
                             sep_bad, sep_und, None, None,
                             _probe_exponent(len(ent), log_scale))

        def below_net_scale(p, q):
            """Certified sign of 2 d(p, q) - delta_n**t, or None."""
            d, rad = _gap(p, q, one)
            return sep_sign(2 * d, 2 * rad)

        # greedy net at half the separation scale
        net: List[Tuple[int, Tuple[int, int]]] = []
        net_und = 0
        for k, v in ent:
            # the first net point that v is not certified far from, if any
            bad = next((c for c in (below_net_scale(v, f) for _, f in net)
                        if c is None or c < 0), 0)
            if bad is None:
                net_und += 1
            elif not bad:
                net.append((k, v))
        if net_und:
            note_bits.append(f"{net_und} net decisions undecided, kept out")
        # len(net)**rq * delta_n**rp against 1
        big_net = _cmp_powers([(len(net) * one, 0, rq), (dn, rn, rp)],
                              [(one, 0, 1)], one)
        half_scale = neg_log_dn * tp / tq + mpmath.log(2)
        if big_net == 1:
            return ProbeCase(n, "case2a", "; ".join(note_bits), horizon, rho,
                             d_n_dec, close_m, len(net),
                             mpmath.nstr(mpmath.e ** (-half_scale), LOG_DIGITS),
                             0, 0, True, None, _probe_exponent(len(net), half_scale))
        if big_net is None:
            note_bits.append("net size vs delta**-r undecidable, fell through to 2b")

        # pigeonhole: densest ball of the net, then the cluster-radius window
        best_k, best_v = max(net, key=lambda kf: sum(below_net_scale(v, kf[1]) == -1
                                                     for _, v in ent))
        dm, rm = units(records[close_m - 1])
        win_sign = _power_sign(sq, [(dn, rn, sp)], [(dm, rm, sq)], one)

        def in_window(p) -> bool:
            """Certified d(p, best)**sq * delta_n**sp <= delta_m**sq."""
            return win_sign(*_gap(p, best_v, one)) in (-1, 0)

        in_window_orbit = sum(in_window(v) for _, v in ent)
        in_window_full = sum(in_window(p) for p in pts)
        neg_log_w = -_log_of(dm, one) - neg_log_dn * sp / sq
        w_mp = mpmath.e ** (-neg_log_w)
        # count >= rho * N * delta_n**r, via count**rq >= (rho N)**rq delta**rp
        thr = _cmp_powers([(in_window_orbit * one, 0, rq)],
                          [(len(sel) * one, 0, rq), (dn, rn, rp)], one)
        expo = _probe_exponent(in_window_full, neg_log_w)
        witness = WindowWitness(best_k, dec_sci(Fraction(best_v[0], one)),
                                mpmath.nstr(w_mp, LOG_DIGITS),
                                in_window_orbit, in_window_full, expo)
        return ProbeCase(n, "case2b", "; ".join(note_bits), horizon, rho,
                         d_n_dec, close_m, len(net), None, 0, 0,
                         None if thr is None else thr >= 0, witness, expo)

    # every log and rendering at one pinned precision
    with mpmath.workprec(DEC_PREC_BITS):
        cases = tuple(case_at(n) for n in n_list)
    return AssouadProbeReport(params, cases, params.exponent_at_params,
                              params.implied_exponent_limit)

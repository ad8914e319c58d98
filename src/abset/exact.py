"""Exact integer and rational helpers: integer roots, square-root
brackets, circle reduction, and deterministic decimal rendering.

All functions are pure and deterministic.  Roots come with ceiling or
bracketing semantics so callers never touch floating point when a
threshold has to be exact.
"""

import math
from fractions import Fraction

# log10(2) lower bound used to seed decimal digit counts.
_LOG10_2_NUM = 30102
_LOG10_2_DEN = 100000


def iroot(n: int, k: int) -> int:
    """Largest x >= 0 with x**k <= n.  Requires n >= 0, k >= 1."""
    if n < 0:
        raise ValueError("iroot needs n >= 0")
    if k < 1:
        raise ValueError("iroot needs k >= 1")
    if n == 0:
        return 0
    if k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    # Newton iteration started from above converges monotonically down;
    # past 128*k bits it starts one unit over the root of the leading bits.
    s = (n.bit_length() - 64 * k) // k if n.bit_length() > 128 * k else 0
    x = (iroot(n >> k * s, k) + 1) << s if s else 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def ceil_root(n: int, k: int) -> int:
    """Smallest x >= 0 with x**k >= n."""
    r = iroot(n, k)
    return r if r ** k == n else r + 1


def ceil_root_ratio(num: int, den: int, k: int) -> int:
    """Smallest T >= 0 with T**k >= num/den.  Requires num >= 0, den >= 1."""
    return _ceil_root_ratio(num, den, k)[0]


def _ceil_root_ratio(num: int, den: int, k: int):
    """(T, T**k * den == num) for T = ceil_root_ratio(num, den, k)."""
    if den < 1:
        raise ValueError("ceil_root_ratio needs den >= 1")
    if num <= 0:
        return 0, num == 0
    cut = max(0, den.bit_length() - 64 - max(0, num.bit_length() - den.bit_length()) // k)
    t = ceil_root((num >> cut) // (den >> cut), k)  # near enough for the loops
    p = t ** k * den
    while p < num:
        t += 1
        p = t ** k * den
    while t > 0 and (q := (t - 1) ** k * den) >= num:
        t, p = t - 1, q
    return t, p == num


def sqrt_bracket(fr: Fraction, bits: int = 64):
    """Rational bracket (lo, hi) with lo <= sqrt(fr) <= hi and
    hi - lo == 2**-bits exactly.  Requires fr > 0."""
    if fr <= 0:
        raise ValueError("sqrt_bracket needs fr > 0")
    m = math.isqrt((fr.numerator << 2 * bits) // fr.denominator)
    return Fraction(m, 1 << bits), Fraction(m + 1, 1 << bits)


def exact_sqrt(fr: Fraction):
    """sqrt(fr) as a Fraction when fr is a perfect rational square, else None."""
    if fr < 0:
        return None
    if fr == 0:
        return Fraction(0)
    rn = iroot(fr.numerator, 2)
    rd = iroot(fr.denominator, 2)
    if rn * rn == fr.numerator and rd * rd == fr.denominator:
        return Fraction(rn, rd)
    return None


def mod1(fr) -> Fraction:
    """Reduce a rational into [0, 1)."""
    fr = Fraction(fr)
    return Fraction(fr.numerator % fr.denominator, fr.denominator)


def common_units(alpha, beta):
    """(den, a, b) with alpha = a / den and beta = b / den, den the lcm
    of their denominators."""
    da, db = alpha.denominator, beta.denominator
    g = math.gcd(da, db)
    return da // g * db, alpha.numerator * (db // g), beta.numerator * (da // g)


def round_half_even_div(a: int, b: int) -> int:
    """round(a / b) with ties to even, for a >= 0, b >= 1."""
    q, r = divmod(a, b)
    twice = 2 * r
    if twice < b:
        return q
    if twice > b:
        return q + 1
    return q + (q & 1)


def digit_len(n: int) -> int:
    """Number of decimal digits of n >= 1, without str() on huge ints."""
    if n < 1:
        raise ValueError("digit_len needs n >= 1")
    est = n.bit_length() * _LOG10_2_NUM // _LOG10_2_DEN  # never overshoots
    p = 10 ** est
    d = est
    while p <= n:
        p *= 10
        d += 1
    return d


def dec_sci(fr, sig: int = 12) -> str:
    """Exact scientific-notation rendering with round-half-even.

    Deterministic alternative to float formatting; safe for rationals far
    outside float range.
    """
    fr = Fraction(fr)
    if fr == 0:
        return "0"
    sign = "-" if fr < 0 else ""
    n, d = abs(fr.numerator), fr.denominator
    # exponent of the leading digit: 10**e <= n/d < 10**(e+1)
    e = digit_len(n) - digit_len(d)
    if 10 ** max(e, 0) * d > n * 10 ** max(-e, 0):
        e -= 1
    shift = sig - 1 - e
    if shift >= 0:
        m = round_half_even_div(n * 10 ** shift, d)
    else:
        m = round_half_even_div(n, d * 10 ** (-shift))
    if m >= 10 ** sig:  # rounding carried into a new digit
        m //= 10
        e += 1
    digits = str(m).rjust(sig, "0")
    mantissa = digits[0] + "." + digits[1:] if sig > 1 else digits
    return f"{sign}{mantissa}e{e:+03d}"

"""Integer-root, bracket, and decimal-rendering checks.

Oracles here are definitional: a root r is correct iff r**k <= n < (r+1)**k,
a bracket is correct iff its endpoints straddle the power when re-raised.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from abset.exact import (
    ceil_root,
    ceil_root_ratio,
    dec_sci,
    digit_len,
    exact_sqrt,
    iroot,
    mod1,
    pow_bracket,
    round_half_even_div,
    sqrt_bracket,
)
from tower_oracle import lift_half


@given(st.integers(min_value=0, max_value=10 ** 40), st.integers(min_value=1, max_value=17))
def test_iroot_definition(n, k):
    r = iroot(n, k)
    assert r ** k <= n < (r + 1) ** k


@given(st.integers(min_value=0, max_value=10 ** 30), st.integers(min_value=1, max_value=11))
def test_ceil_root_definition(n, k):
    r = ceil_root(n, k)
    assert r ** k >= n
    assert r == 0 or (r - 1) ** k < n


@given(st.integers(min_value=0, max_value=10 ** 20),
       st.integers(min_value=1, max_value=10 ** 10),
       st.integers(min_value=1, max_value=7))
def test_ceil_root_ratio_definition(num, den, k):
    t = ceil_root_ratio(num, den, k)
    assert t ** k * den >= num
    assert t == 0 or (t - 1) ** k * den < num


def newton_iroot(n, k):
    """Newton's iteration from 1 << ceil(bits/k): the oracle for square
    roots, and for the k >= 3 roots that start from their leading bits."""
    if n == 0:
        return 0
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


@settings(max_examples=60, deadline=None)
@given(bits=st.integers(min_value=1, max_value=20_000), data=st.data())
def test_iroot_square_matches_newton(bits, data):
    n = data.draw(st.integers(min_value=1 << (bits - 1), max_value=(1 << bits) - 1))
    if data.draw(st.booleans()):        # perfect squares and their neighbours
        r0 = newton_iroot(n, 2)
        n = max(1, r0 * r0 + data.draw(st.integers(-1, 1)))
    r = iroot(n, 2)
    assert r * r <= n < (r + 1) ** 2
    assert r == newton_iroot(n, 2)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(min_value=3, max_value=120), data=st.data())
def test_iroot_from_the_leading_bits_matches_newton(k, data):
    # radicands past 128*k bits, where Newton starts from the root of the
    # leading bits; perfect powers and their neighbours among them
    bits = data.draw(st.integers(min_value=128 * k + 1, max_value=20_000))
    n = data.draw(st.integers(min_value=1 << (bits - 1), max_value=(1 << bits) - 1))
    if data.draw(st.booleans()):
        n = newton_iroot(n, k) ** k + data.draw(st.integers(-1, 1))
    r = iroot(n, k)
    assert r ** k <= n < (r + 1) ** k
    assert r == newton_iroot(n, k)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(min_value=1, max_value=120), data=st.data())
def test_ceil_root_ratio_on_a_denominator_past_the_root(k, data):
    # den longer than the root by more than 64 bits, so the first guess
    # comes from a truncated quotient; exact ratios and their neighbours
    den = data.draw(st.integers(min_value=1 << 100, max_value=1 << 10_000))
    t = data.draw(st.integers(min_value=0, max_value=1 << min(den.bit_length() - 66, 20_000 // k)))
    num = max(0, t ** k * den + data.draw(st.sampled_from([-1, 0, 1]) |
                                          st.integers(-den, den)))
    got = ceil_root_ratio(num, den, k)
    assert got ** k * den >= num
    assert got == 0 or (got - 1) ** k * den < num


def test_iroot_examples():
    assert iroot(0, 3) == 0
    assert iroot(7, 1) == 7
    assert iroot(8, 3) == 2
    assert iroot(9, 3) == 2
    assert iroot(2 ** 128, 2) == 2 ** 64


@given(st.fractions(min_value=Fraction(1, 10 ** 6), max_value=Fraction(10 ** 6)),
       st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=5))
def test_pow_bracket_contains(fr, num, den):
    lo, hi = pow_bracket(fr, num, den, bits=48)
    z = fr ** num
    assert lo ** den <= z <= hi ** den
    assert hi - lo == Fraction(1, 2 ** 48)


def test_sqrt_bracket_tightness():
    lo, hi = sqrt_bracket(Fraction(2), bits=80)
    assert lo * lo <= 2 <= hi * hi
    assert hi - lo == Fraction(1, 2 ** 80)


def test_exact_sqrt():
    assert exact_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert exact_sqrt(Fraction(1, 2 ** 40)) == Fraction(1, 2 ** 20)
    assert exact_sqrt(Fraction(2)) is None


def test_mod1_and_lifts():
    assert mod1(Fraction(7, 3)) == Fraction(1, 3)
    assert mod1(Fraction(-1, 4)) == Fraction(3, 4)
    assert lift_half(Fraction(3, 4)) == Fraction(-1, 4)
    assert lift_half(Fraction(1, 2)) == Fraction(1, 2)
    assert abs(lift_half(Fraction(9, 10))) == Fraction(1, 10)
    assert abs(lift_half(Fraction(1, 20) - Fraction(19, 20))) == Fraction(1, 10)


@given(st.fractions(), st.fractions())
def test_circ_dist_symmetric_and_bounded(a, b):
    # the circle distance of two rationals is |lift_half| of their difference
    d = abs(lift_half(a - b))
    assert d == abs(lift_half(b - a))
    assert d == min(mod1(a - b), 1 - mod1(a - b))
    assert Fraction(0) <= d <= Fraction(1, 2)


def test_round_half_even():
    assert round_half_even_div(5, 2) == 2   # tie -> even
    assert round_half_even_div(7, 2) == 4   # tie -> even
    assert round_half_even_div(6, 4) == 2   # 1.5 -> 2
    assert round_half_even_div(10, 4) == 2  # 2.5 -> 2
    assert round_half_even_div(11, 4) == 3


@given(st.integers(min_value=1, max_value=10 ** 50))
def test_digit_len(n):
    assert digit_len(n) == len(str(n))


def test_dec_sci_examples():
    assert dec_sci(Fraction(0)) == "0"
    assert dec_sci(Fraction(1, 8), sig=4) == "1.250e-01"
    assert dec_sci(Fraction(1, 3), sig=6) == "3.33333e-01"
    assert dec_sci(Fraction(999999), sig=3) == "1.00e+06"  # carry into new digit
    assert dec_sci(Fraction(-5, 4), sig=3) == "-1.25e+00"
    # far outside float range, still rendered
    assert dec_sci(Fraction(1, 10 ** 2000), sig=3) == "1.00e-2000"


@given(st.fractions(min_value=Fraction(1, 10 ** 9), max_value=Fraction(10 ** 9)))
def test_dec_sci_close_to_value(fr):
    s = dec_sci(fr, sig=15)
    mant, _, exp = s.partition("e")
    approx = Fraction(mant) * Fraction(10) ** int(exp)
    assert abs(approx - fr) <= abs(fr) * Fraction(1, 10 ** 13)

"""Word-algebra checks.

The independent oracle is a naive letter walk: spell the word out (only
ever for words <= 10**4 letters) and accumulate counts or orbit points
letter by letter.  Structured results must match it exactly.  The
window groups' bit masks are checked against the list of every window's
x-count per gap in `dioph_oracle`.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import abset.words
from abset.exact import mod1
from abset.words import (
    EMPTY,
    X,
    Y,
    CountVector,
    block,
    concat,
    evaluate_end,
    format_word,
    letters,
    parse_word,
    power,
    prefix_counts,
    window_groups,
    window_pairs,
)

import dioph_oracle as oracle


# -- naive oracle -------------------------------------------------------------

def walk_counts(word_str: str, j: int) -> CountVector:
    pre = word_str[:j]
    return CountVector(pre.count("x"), pre.count("y"))


def walk_orbit(word_str: str, alpha: Fraction, beta: Fraction):
    pts = [Fraction(0)]
    acc = Fraction(0)
    for ch in word_str:
        acc += alpha if ch == "x" else beta
        pts.append(acc % 1)
    return pts


# -- strategies ---------------------------------------------------------------

def word_exprs(max_leaf_len=12, max_exp=6):
    atoms = st.sampled_from([X, Y, EMPTY])
    return st.recursive(
        atoms,
        lambda children: st.one_of(
            st.tuples(children, children).map(lambda ab: concat(*ab)),
            st.tuples(children, st.integers(0, max_exp)).map(lambda wk: power(*wk)),
        ),
        max_leaves=max_leaf_len,
    ).filter(lambda w: w.length <= 10 ** 4)


@st.composite
def window_words(draw):
    """0 to 200 letters as is_x flags: free letters, or blocks x^a y^b
    whose long runs put many windows of a gap in one group."""
    if draw(st.booleans()):
        return draw(st.lists(st.booleans(), max_size=200))
    blocks = draw(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                           max_size=10))
    return [c for a, b in blocks for c in [True] * a + [False] * b][:200]


# -- frozen examples ----------------------------------------------------------

def test_counts_of_big_block():
    w = block(1000, 1000)
    assert w.counts == CountVector(1000, 1000)
    assert w.length == 2000


def test_power_zero_is_empty():
    w = power(block(3, 5), 0)
    assert w is EMPTY
    assert w.counts == CountVector(0, 0)
    assert w.length == 0


def test_counts_x4y2():
    w = block(4, 2)
    assert w.counts == CountVector(4, 2)
    assert w.length == 6


def test_prefix_counts_examples():
    w = block(4, 2)
    assert prefix_counts(w, 5) == CountVector(4, 1)
    assert prefix_counts(w, 0) == CountVector(0, 0)
    big = power(concat(X, Y), 10 ** 9)
    assert prefix_counts(big, 10 ** 9 + 1) == CountVector(5 * 10 ** 8 + 1, 5 * 10 ** 8)


def test_prefix_counts_out_of_range():
    w = block(2, 2)
    with pytest.raises(ValueError):
        prefix_counts(w, 5)
    with pytest.raises(ValueError):
        prefix_counts(w, -1)


def test_evaluate_end_examples():
    a, b = Fraction(1, 10), Fraction(3, 10)
    assert evaluate_end(concat(X, power(Y, 3)), a, b) == 0
    assert evaluate_end(X, a, b) == a
    assert evaluate_end(X, Fraction(17, 10), b) == Fraction(7, 10)  # alpha mod 1
    assert evaluate_end(block(4, 2), a, b) == 0


def orbit(w, alpha, beta):
    """The points of w's trajectory at times 0..|w|, from prefix counts."""
    return [mod1(c.x * alpha + c.y * beta)
            for c in (prefix_counts(w, j) for j in range(w.length + 1))]


def test_orbit_example():
    w = block(4, 2)
    expect = [Fraction(0), Fraction(1, 10), Fraction(2, 10), Fraction(3, 10),
              Fraction(4, 10), Fraction(7, 10), Fraction(0)]
    assert orbit(w, Fraction(1, 10), Fraction(3, 10)) == expect


def test_words_imports_only_exact():
    # a fresh interpreter, so no other test has loaded the estimators yet
    src = str(Path(abset.words.__file__).resolve().parents[1])
    code = "import sys, abset.words; print(*sorted(m for m in sys.modules if 'abset' in m))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.split() == ["abset", "abset.exact", "abset.words"]


def test_parse_format_roundtrip_examples():
    w = concat(power(concat(X, power(Y, 3)), 5), X)
    s = format_word(w)
    back = parse_word(s)
    assert format_word(back) == s
    assert back.counts == w.counts and back.length == w.length
    assert parse_word("x").kind == "x"
    assert parse_word("( )".replace(" ", "")) is EMPTY
    assert parse_word("(x ^ 0)") is EMPTY


def test_parse_errors():
    for bad in ["", "(x", "(x y z)", "(x ^ )", "q"]:
        with pytest.raises(ValueError):
            parse_word(bad)


# -- property tests against the letter-walk oracle ----------------------------

@settings(max_examples=120)
@given(word_exprs(), st.data())
def test_prefix_counts_match_letter_walk(w, data):
    s = "".join(letters(w))
    assert len(s) == w.length
    j = data.draw(st.integers(0, w.length))
    assert prefix_counts(w, j) == walk_counts(s, j)


@settings(max_examples=60)
@given(word_exprs(), st.fractions(min_value=0, max_value=1, max_denominator=50),
       st.fractions(min_value=0, max_value=1, max_denominator=50))
def test_orbit_matches_letter_walk(w, alpha, beta):
    s = "".join(letters(w))
    oracle = walk_orbit(s, alpha, beta)
    assert orbit(w, alpha, beta) == oracle
    assert evaluate_end(w, alpha, beta) == oracle[-1]


@settings(max_examples=80)
@given(word_exprs(), word_exprs())
def test_concat_counts_add(a, b):
    w = concat(a, b)
    assert w.counts == a.counts.plus(b.counts)
    assert w.length == a.length + b.length


@settings(max_examples=80)
@given(word_exprs(), st.integers(0, 5))
def test_power_counts_scale(w, k):
    p = power(w, k)
    assert p.counts == w.counts.scaled(k)
    assert p.length == w.length * k


@settings(max_examples=60)
@given(word_exprs(),
       st.fractions(max_denominator=30), st.fractions(max_denominator=30),
       st.fractions(max_denominator=30), st.fractions(max_denominator=30))
def test_translation_linearity(w, alpha, beta, s, t):
    """Shifting (alpha, beta) by (s, t) shifts the end value by
    s*#x + t*#y, as circle points."""
    base = evaluate_end(w, alpha, beta)
    moved = evaluate_end(w, alpha + s, beta + t)
    assert moved == (base + s * w.counts.x + t * w.counts.y) % 1


@settings(max_examples=60)
@given(word_exprs())
def test_format_parse_roundtrip(w):
    back = parse_word(format_word(w))
    assert back.counts == w.counts
    assert back.length == w.length
    # same spelled-out letters
    assert "".join(letters(back)) == "".join(letters(w))


@settings(max_examples=100, deadline=None)
@given(window_words(), st.integers(1, 10 ** 6), st.data())
def test_window_masks_match_count_lists(is_x, one, data):
    """Per gap, the masks hold the same groups {a: (d, member k's)} as the
    x-count lists, with the same radius(k); window_pairs over [lo, hi),
    empty and out-of-order ranges included, matches a filter of the
    list."""
    steps = data.draw(st.tuples(st.integers(0, one - 1), st.integers(0, 5),
                                st.integers(0, one - 1), st.integers(0, 5)))
    rnd = data.draw(st.randoms(use_true_random=False))
    n = len(is_x)
    masks, lists, counts_of = {}, {}, {}
    for g, a, d, members, radius in window_groups(is_x, steps, one):
        assert members >> (n - g) == 0
        masks[g, a] = (d, [k for k in range(n - g) if members >> k & 1],
                       list(map(radius, range(n - g))), members)
    for g, a, d, counts, radius in oracle.window_groups(is_x, steps, one):
        lists[g, a] = (d, [k for k in range(n - g) if counts[k] == a],
                       list(map(radius, range(n - g))))
        counts_of[g, a] = counts
    assert {g for g, _ in masks} == set(range(1, n))
    assert {key: v[:3] for key, v in masks.items()} == lists
    for (g, a), (*_, members) in masks.items():
        end, counts = n - g, counts_of[g, a]
        ranges = [(0, end), (end, end), (end, 0)] + [
            (rnd.randint(0, end), rnd.randint(0, end)) for _ in range(3)]
        for lo, hi in ranges:
            expected = oracle.window_pairs(counts, a, g, lo, hi)
            assert window_pairs(members, g, lo, hi) == expected

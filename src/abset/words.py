"""Two-letter words as structured expressions, and their rotation orbits.

A word over the alphabet {x, y} is held as an immutable DAG of atoms,
concatenations and integer powers, so words with ~10**24 letters stay a
few nodes deep.  Letter counts and length are memoized eagerly at
construction; prefix counts descend the DAG instead of expanding it.

Evaluating a word at a rotation pair (alpha, beta) means: each x steps
the circle point by alpha, each y by beta.  The point reached after the
whole word is `evaluate_end`; `window_groups` groups the pairs of
visited points by gap and window x-count, each group one int bit mask,
for the orbit separation check, whose threshold changes with the gap.
"""

from fractions import Fraction
from itertools import accumulate
from operator import ge
from typing import Iterator, List, NamedTuple

from .dimension import CirclePoints
from .exact import common_units


class CountVector(NamedTuple):
    """Letter counts (#x, #y).  Tuple addition would concatenate, so the
    arithmetic lives in named methods."""

    x: int
    y: int

    def plus(self, other: "CountVector") -> "CountVector":
        return CountVector(self.x + other.x, self.y + other.y)

    def scaled(self, k: int) -> "CountVector":
        return CountVector(self.x * k, self.y * k)

    def total(self) -> int:
        return self.x + self.y


ZERO_COUNTS = CountVector(0, 0)


class WordExpr:
    """Immutable word expression node.

    kind is one of 'x', 'y', 'e' (empty), '.' (concat), '^' (power).
    Construct only through the module factories `concat` / `power` and
    the atoms X, Y, EMPTY; they keep counts and length coherent.
    """

    __slots__ = ("kind", "left", "right", "base", "exponent", "counts", "length")

    def __init__(self, kind, left=None, right=None, base=None, exponent=None,
                 counts=ZERO_COUNTS, length=0):
        self.kind = kind
        self.left = left
        self.right = right
        self.base = base
        self.exponent = exponent
        self.counts = counts
        self.length = length

    def __repr__(self):
        if self.length <= 40:
            return f"WordExpr({format_word(self)})"
        return f"WordExpr(kind={self.kind!r}, length={self.length})"


X = WordExpr("x", counts=CountVector(1, 0), length=1)
Y = WordExpr("y", counts=CountVector(0, 1), length=1)
EMPTY = WordExpr("e")


def concat(a: WordExpr, b: WordExpr) -> WordExpr:
    """Word a followed by word b."""
    if a is EMPTY:
        return b
    if b is EMPTY:
        return a
    return WordExpr(".", left=a, right=b,
                    counts=a.counts.plus(b.counts),
                    length=a.length + b.length)


def power(w: WordExpr, k: int) -> WordExpr:
    """w repeated k times, k >= 0.  power(w, 0) is the empty word."""
    if k < 0:
        raise ValueError("power needs a non-negative exponent")
    if k == 0 or w is EMPTY:
        return EMPTY
    if k == 1:
        return w
    if w.kind == "^":  # collapse nested powers; counts are unchanged
        return power(w.base, w.exponent * k)
    return WordExpr("^", base=w, exponent=k,
                    counts=w.counts.scaled(k),
                    length=w.length * k)


def block(a: int, b: int) -> WordExpr:
    """Convenience run builder x^a y^b."""
    return concat(power(X, a), power(Y, b))


def prefix_counts(w: WordExpr, j: int) -> CountVector:
    """Letter counts of the first j letters, 0 <= j <= |w|.

    Runs in O(depth * log exponent): concat branches once on the left
    length, power splits j by divmod on the base length.
    """
    if not 0 <= j <= w.length:
        raise ValueError(f"prefix length {j} outside [0, {w.length}]")
    cx = cy = 0
    node = w
    while j > 0:
        kind = node.kind
        if kind == "x":
            cx += 1
            break
        if kind == "y":
            cy += 1
            break
        if kind == ".":
            ll = node.left.length
            if j <= ll:
                node = node.left
            else:
                c = node.left.counts
                cx += c.x
                cy += c.y
                j -= ll
                node = node.right
            continue
        if kind == "^":
            q, j = divmod(j, node.base.length)
            c = node.base.counts
            cx += c.x * q
            cy += c.y * q
            node = node.base
            continue
        raise AssertionError(f"unreachable kind {kind!r}")
    return CountVector(cx, cy)


def letters(w: WordExpr) -> Iterator[str]:
    """Yield the letters of w left to right, lazily.

    Works on words of any size; the caller bounds how much it consumes.
    """
    stack = [(w, 1)]
    while stack:
        node, reps = stack.pop()
        kind = node.kind
        if kind == "e":
            continue
        if kind in ("x", "y"):
            for _ in range(reps):
                yield kind
            continue
        if reps > 1:
            stack.append((node, reps - 1))
        if kind == ".":
            stack.append((node.right, 1))
            stack.append((node.left, 1))
        elif kind == "^":
            stack.append((node.base, node.exponent))
        else:
            raise AssertionError(f"unreachable kind {kind!r}")


def window_groups(is_x: List[bool], steps, one: int):
    """(g, a, d, members, radius) per group of the pairs i < j of the points
    t_1..t_n that a word with letters `is_x` (True for x) visits, grouped
    by gap g = j - i and window x-count a = X_j - X_i.

    With steps = (a_mid, a_rad, b_mid, b_rad), the letters' steps and
    radii in units of 1/one, t_j - t_i = a*alpha + (g - a)*beta has circle
    distance d units.  Bit k of `members` stands for the pair
    (k + 1, k + 1 + g) and radius(k) for its radius R_i + R_j, with
    R_k = X_k a_rad + Y_k b_rad, which never falls as k grows.  From gap
    g - 1 to g window k gains letter k + g: one shift of the word.  The
    orbit separation check reads them: its threshold delta_g changes with
    the gap, and the pairs of one group share their distance.
    """
    a_mid, a_rad, b_mid, b_rad = steps
    xs = list(accumulate(is_x, initial=0))               # X_0..X_n
    radii = [x * a_rad + (k - x) * b_rad for k, x in enumerate(xs)]
    n = len(is_x)
    word = int("".join("01"[x] for x in reversed(is_x)) or "0", 2)
    groups = {0: (1 << n) - 1}          # gap 0: every window is empty
    for g in range(1, n):
        gain = word >> g                # bit k: letter k + g is x
        stay = ((1 << (n - g)) - 1) ^ gain
        split = {}
        for a, m in groups.items():
            for b, part in ((a, m & stay), (a + 1, m & gain)):
                if part:
                    split[b] = split.get(b, 0) | part
        groups = split

        def radius(k, g=g):
            return radii[k + 1] + radii[k + 1 + g]
        for a, m in groups.items():
            r = (a * a_mid + (g - a) * b_mid) % one
            yield g, a, min(r, one - r), m, radius


def window_pairs(members: int, g: int, lo: int, hi: int):
    """The pairs (k + 1, k + 1 + g) of a window_groups group with
    lo <= k < hi, in ascending k."""
    bits = bin((members & ((1 << hi) - 1)) >> lo)[:1:-1]
    return [(k + 1, k + 1 + g) for k, b in enumerate(bits, lo) if b == "1"]


def format_word(w: WordExpr) -> str:
    """Serialize to the grammar:  x | y | (E E) | (E ^ k).  Empty is ()."""
    kind = w.kind
    if kind == "x" or kind == "y":
        return kind
    if kind == "e":
        return "()"
    if kind == ".":
        return f"({format_word(w.left)} {format_word(w.right)})"
    if kind == "^":
        return f"({format_word(w.base)} ^ {w.exponent})"
    raise AssertionError(f"unreachable kind {kind!r}")


def parse_word(text: str) -> WordExpr:
    """Parse the `format_word` grammar back into a WordExpr."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def parse() -> WordExpr:
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("unexpected end of word expression")
        tok = tokens[pos]
        pos += 1
        if tok == "x":
            return X
        if tok == "y":
            return Y
        if tok != "(":
            raise ValueError(f"unexpected token {tok!r}")
        if pos < len(tokens) and tokens[pos] == ")":
            pos += 1
            return EMPTY
        first = parse()
        if pos < len(tokens) and tokens[pos] == "^":
            pos += 1
            if pos >= len(tokens):
                raise ValueError("missing exponent")
            k = int(tokens[pos])
            pos += 1
            if pos >= len(tokens) or tokens[pos] != ")":
                raise ValueError("missing ) after exponent")
            pos += 1
            return power(first, k)
        second = parse()
        if pos >= len(tokens) or tokens[pos] != ")":
            raise ValueError("missing ) after concatenation")
        pos += 1
        return concat(first, second)

    out = parse()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens {' '.join(tokens[pos:])!r}")
    return out


def evaluate_end(w: WordExpr, alpha: Fraction, beta: Fraction) -> Fraction:
    """Point of the circle reached after the whole word, in [0, 1)."""
    den, a, b = common_units(alpha, beta)
    return Fraction((w.counts.x * a + w.counts.y * b) % den, den)


class OrbitSample:
    """The distinct points an orbit visits, in circle order, as
    `enumerate_E` builds them: numerators[i] / den, with the numerators
    strictly increasing in [0, den), and visits[i] the time of the
    first visit to that point.  Everything is held as integers."""

    __slots__ = ("den", "numerators", "visits")

    @classmethod
    def from_numerators(cls, den: int, numerators, visits) -> "OrbitSample":
        numerators, visits = tuple(numerators), tuple(visits)
        if len(numerators) != len(visits):
            raise ValueError("need one first visit time per numerator")
        inside = not numerators or (numerators[0] >= 0 and numerators[-1] < den)
        if any(map(ge, numerators, numerators[1:])) or not inside:
            raise ValueError(f"numerators must increase strictly within [0, {den})")
        sample = cls.__new__(cls)
        sample.den, sample.numerators, sample.visits = den, numerators, visits
        return sample

    def __len__(self):
        return len(self.numerators)

    def __iter__(self):
        """(first visit time, point) pairs in circle order."""
        return zip(self.visits, self.points())

    def points(self) -> CirclePoints:
        return CirclePoints(self.numerators, self.den)

    def indices(self):
        return list(self.visits)

"""Thin-orbit tower: long return words with sparse balancing blocks.

Stage n is a word W_n over {x, y} together with a rotation pair
(alpha_n, beta_n) at which W_n evaluates to a prescribed small value
eps_n.  The next stage repeats W_n many times and appends one balancing
block V_n:

    W_(n+1) = W_n^(L_n) V_n,        V_n = (x^(2k-l) y^(2l+k))^ceil(sqrt(L_n))

where (k, l) are the letter counts of W_n.  The repetition count L_n is
the largest value keeping |W_(n+1)| within T = ceil((1/eps_n)^(1/n)).
The rotation pair is then nudged along the direction (l, -k), which
preserves the value of W_n exactly while steering W_(n+1) onto the new
target eps_(n+1) = eps_n^rho(n+1).

The balancing blocks occupy an index set of vanishing density; deleting
them leaves times whose orbit values split as an integer combination of
full-word values plus a prefix of W_(n0).  restricted_covering measures
how well that split concentrates at scale 2 sqrt(eps_n0).  Box-count and
drift bounds there are recorded, not enforced.  The construction
promises them only from n0 >= 2: with T = ceil(eps_n^(-1/n)) the ladder
L_n eps_n is at most about T eps_n / N_n = eps_n^(1-1/n) / N_n, which is
below sqrt(eps_n) from n = 2 on.  At n0 = 1 the ladder is about 1/N_1,
so the level-1 bounds fail by a wide, structural margin, and the
reports say so.

advance and build_stages' drift budget decide their checks as integer
identities over one denominator, D' = D E s (k^2 + l^2) for the pair on
D and eps_(n+1) on E; only the stored rationals are reduced.

The deleted set is the tower's level peel itself (index_sets.IndexSet):
a time is deleted when peeling it into copies of W_lev, top down, finds
L_lev copies at some level.  The survey takes its levels, its letter
counts of a kept time and its excluded density from that one set, and
checks the tower's word spine and that each V_lev fills the tail of
W_(lev+1) once per level.  Its corner family is one table of
bottom-level (copy, W_n0 prefix) pairs under each upper corner; an
entry is read once for all upper corners where none of them can move it
across a cell edge.  A random draw is peeled inline, which tells
whether it is deleted and gives its fixed-point image.  Cells are read
from those images with a certified error interval, the scale's power of
two as a shift; only a value whose interval touches a cell edge, and
only drift that may hold the final maximum, is evaluated exactly.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from .errors import InvariantViolation, UsageError
from .exact import (ceil_root, ceil_root_ratio, common_units, exact_sqrt, mod1,
                    sqrt_bracket)
from .index_sets import IndexSet
from .words import WordExpr, X, Y, block, concat, power, prefix_counts

DEFAULT_SEED = 20260823
DEFAULT_SAMPLE_BUDGET = 2000
MAX_EPS_BITS = 1 << 26          # refuse targets whose denominator outgrows this
# Fixed-point bits restricted_covering keeps beyond the cell width and the
# horizon's truncation error, so a cell edge is rarely within reach.
COVER_GUARD_BITS = 64


@dataclass(frozen=True)
class ThinConfig:
    """m: half-length of the seed block W_1 = x^m y^m.
    eps1: the seed landing value.
    rho: exponent schedule; eps_n = eps_(n-1) ** rho(n) for n >= 2."""

    m: int
    eps1: Fraction
    rho: Callable[[int], int]

    def __post_init__(self):
        if self.m < 1:
            raise UsageError("need m >= 1")
        if not 0 < self.eps1 < 1:
            raise UsageError("need 0 < eps1 < 1")

    def rho_at(self, n: int) -> int:
        """Exponent applied entering stage n (n >= 2)."""
        r = self.rho(n)
        if r < 2:
            raise UsageError(f"rho must be >= 2, got {r} at stage {n}")
        return int(r)

    @classmethod
    def desk(cls) -> "ThinConfig":
        return cls(m=10, eps1=Fraction(1, 2 ** 40), rho=lambda n: 4)

    @classmethod
    def faithful(cls) -> "ThinConfig":
        return cls(m=1000, eps1=Fraction(1, 10 ** 1000),
                   rho=lambda n: 1000 * n ** 3)


@dataclass(frozen=True)
class TStage:
    n: int
    alpha: Fraction
    beta: Fraction
    eps: Fraction
    W: WordExpr
    N: int                      # |W_n|
    k: int                      # x-count of W_n
    l: int                      # y-count of W_n
    L: Optional[int]            # repetitions used building this stage
    s: Optional[int]            # ceil(sqrt(L))
    V: Optional[WordExpr]       # balancing block appended
    t: Optional[Fraction]       # scalar of the (l, -k) repair applied
    shift_sup: Fraction         # sup-norm of the rotation perturbation
    shift_within_sqrt: Optional[bool]   # recorded: shift_sup < sqrt(eps_prev)


def init_stage(config: ThinConfig) -> TStage:
    """W_1 = x^m y^m at alpha = beta = 1/2 + eps1/(2m), which lands W_1
    exactly on eps1 and zeroes the imbalance k beta - l alpha."""
    m = config.m
    alpha = Fraction(1, 2) + config.eps1 / (2 * m)
    w = block(m, m)
    if mod1(m * alpha + m * alpha) != config.eps1:
        raise InvariantViolation("seed-landing", "W_1 must land on eps1")
    return TStage(n=1, alpha=alpha, beta=alpha, eps=config.eps1, W=w,
                  N=2 * m, k=m, l=m, L=None, s=None, V=None, t=None,
                  shift_sup=Fraction(0), shift_within_sqrt=None)


def choose_L(eps: Fraction, N: int, n: int, buffer: int = 3) -> Tuple[int, int]:
    """Largest L with (L + buffer * ceil(sqrt(L))) * N <= T where
    T = ceil((1/eps)^(1/n)).  Returns (L, T).

    With M = T // N the condition reads L + buffer * s <= M for
    s = ceil(sqrt(L)).  The L with that s fill ((s - 1)^2, s^2], so
    one of them fits iff (s - 1)^2 + buffer * s < M, a condition that
    grows with s; the largest L is then min(s^2, M - buffer * s) at the
    largest s that meets it.  No s above isqrt(M) + 1 can, as then
    (s - 1)^2 > M, and the walk down from there stops after about
    buffer / 2 + 1 steps: s = sqrt(M) - c meets it once c + 1 > buffer / 2.
    """
    T = ceil_root_ratio(eps.denominator, eps.numerator, n)
    M = T // N
    if 4 + buffer * 2 > M:
        raise UsageError(
            f"horizon T={T} leaves no room for L >= 4 at N={N}; "
            "eps is too large for this stage count")
    s = math.isqrt(M) + 1
    while (s - 1) ** 2 + buffer * s >= M:     # ends by s = 2, as L = 4 fits
        s -= 1
    return min(s * s, M - buffer * s), T


def advance(stage: TStage, config: ThinConfig) -> TStage:
    n = stage.n
    rho = config.rho_at(n + 1)
    target_bits = stage.eps.denominator.bit_length() * rho
    if target_bits > MAX_EPS_BITS:
        raise UsageError(
            f"eps_{n + 1} needs about {target_bits} bits; the schedule "
            f"outgrows the {MAX_EPS_BITS}-bit working cap after stage {n}.  "
            "Use fewer stages (--stages) or a smaller decay (--decay).")
    eps_next = stage.eps ** rho

    L, T = choose_L(stage.eps, stage.N, n)
    s = ceil_root(L, 2)
    k, l = stage.k, stage.l
    a_exp, b_exp = 2 * k - l, 2 * l + k
    if a_exp <= 0 or 2 * l - k <= 0:
        raise InvariantViolation("symbol-balance",
                                 f"counts ({k}, {l}) left the 2:1 band")
    v = power(concat(power(X, a_exp), power(Y, b_exp)), s)
    w_next = concat(power(stage.W, L), v)
    N_next = L * stage.N + v.length
    if N_next > T:
        raise InvariantViolation("horizon-overflow",
                                 f"|W_{n + 1}| = {N_next} > T = {T}")

    k2, l2 = w_next.counts.x, w_next.counts.y
    if (k2, l2) != (L * k + s * a_exp, L * l + s * b_exp):
        raise InvariantViolation("count-recursion")
    lo_b = Fraction(n + 2, 2 * n + 3)
    if not lo_b < Fraction(k2, l2) < 1 / lo_b:
        # too few copies of W_n fit the horizon to outweigh V_n: eps_n is
        # too large against |W_n|, a choice of parameters
        smaller = "m (--m) or eps1 (--eps1)"
        if n >= 2:
            smaller += f", or a decay above rho({n}) = {config.rho_at(n)} (--decay)"
        raise UsageError(
            f"stage {n + 1} leaves the 2:1 count band: its letter ratio "
            f"{k2}/{l2} is outside ({lo_b}, {1 / lo_b}), as the horizon of "
            f"eps_{n} holds only L = {L} copies of W_{n} (m = {config.m}).  "
            f"Choose a smaller {smaller}.")

    # on the units of the pair: alpha = A / D, beta = B / D, eps_next = e / E
    D, A, B = common_units(stage.alpha, stage.beta)
    e, E = eps_next.numerator, eps_next.denominator
    DE = D * E
    m = ((k2 * A + l2 * B) * E - e * D) % DE
    delta = m if 2 * m <= DE else m - DE     # lifted to (-DE/2, DE/2]
    # the repair t = delta / (DE S) along (l, -k) puts the pair on D' = DE S
    S = s * (k * k + l * l)
    ES, DS, D2 = E * S, D * S, D * E * S
    A2 = A * ES + delta * l
    B2 = B * ES - delta * k
    if not (0 < A2 < D2 and 0 < B2 < D2):
        raise InvariantViolation("rotation-range")

    if (k2 * A2 + l2 * B2) % D2 != e * DS:
        raise InvariantViolation("landing", f"stage {n + 1} missed eps target")
    if (k * A2 + l * B2 - (k * A + l * B) * ES) % D2:
        raise InvariantViolation("previous-word-moved",
                                 "the (l, -k) repair must fix W_n exactly")
    if prefix_counts(w_next, stage.N) != stage.W.counts:
        raise InvariantViolation("prefix-structure")
    # imbalance propagation is a count identity; check it at the new pair
    g_prev = k * B2 - l * A2
    w_prev = k * A2 + l * B2
    if k2 * B2 - l2 * A2 != (L + 2 * s) * g_prev - s * w_prev:
        raise InvariantViolation("imbalance-recursion")

    sh = abs(delta) * max(k, l)     # shift_sup = sh / D' < sqrt(eps_n)?
    within = sh * sh * stage.eps.denominator < stage.eps.numerator * D2 * D2
    t = Fraction(delta, D2)
    return TStage(n=n + 1, alpha=Fraction(A2, D2), beta=Fraction(B2, D2),
                  eps=eps_next, W=w_next, N=N_next, k=k2, l=l2, L=L, s=s,
                  V=v, t=t, shift_sup=abs(t) * max(k, l),
                  shift_within_sqrt=within)


def build_stages(config: ThinConfig, n_stages: int) -> List[TStage]:
    """Run the tower and hard-check the accumulated drift of every
    earlier word at the final rotation pair."""
    if n_stages < 1:
        raise UsageError("need at least one stage")
    stages = [init_stage(config)]
    for _ in range(n_stages - 1):
        stages.append(advance(stages[-1], config))
    final = stages[-1]
    D, A, B = common_units(final.alpha, final.beta)
    for st in stages[:-1]:
        e, E = st.eps.numerator, st.eps.denominator
        DE = D * E
        m = ((st.k * A + st.l * B) * E - e * D) % DE    # W_n - eps_n over DE
        allowed = st.N * sum((s.shift_sup for s in stages[st.n + 1:]),
                             Fraction(0))
        if min(m, DE - m) * allowed.denominator > allowed.numerator * DE:
            raise InvariantViolation(
                "drift-budget",
                f"W_{st.n} moved beyond the triangle-inequality budget")
    return stages


def deleted_union(stages: Sequence[TStage], from_level: int) -> IndexSet:
    """Times of the final word inside a balancing block V_i, i >= from_level."""
    levels = reversed(range(max(from_level, 1), len(stages)))
    return IndexSet(stages[-1].N, [(stages[i - 1].N, stages[i].L) for i in levels])


def _sample_menu(limit: int) -> List[int]:
    """Small deterministic family of 0-based indices below limit:
    both edges plus the 15 interior cuts at sixteenths."""
    vals = set(range(0, min(4, limit)))
    vals.update(range(max(0, limit - 3), limit))
    vals.update((limit * j) // 16 for j in range(1, 16))
    return sorted(v for v in vals if 0 <= v < limit)


def covering_scale(eps: Fraction) -> Tuple[Fraction, bool]:
    """The cell width 2 sqrt(eps) of restricted_covering, and whether it
    is exact.  An irrational root falls back to a 64-bit lower bracket
    (smaller cells, so counts only go up); below 2^-64 that bracket is 0,
    so the bracket is widened to keep 64 significant bits."""
    root = exact_sqrt(eps)
    if root is not None:
        return 2 * root, True
    root, _ = sqrt_bracket(eps)
    if root == 0:
        root, _ = sqrt_bracket(eps, 64 + (eps.denominator.bit_length() + 1) // 2)
    return 2 * root, False


def _factor_scale(sd: int, q: int) -> Tuple[int, int]:
    """(odd, q - e) for sd = odd 2^e, e capped at q >= 0: then
    (top sd) >> q == (top odd) >> (q - e) for every top >= 0."""
    e = min((sd & -sd).bit_length() - 1, q)
    return sd >> e, q - e


def restricted_covering(stages: Sequence[TStage], n0: int, *,
                        sample_budget: int = DEFAULT_SAMPLE_BUDGET,
                        seed: int = DEFAULT_SEED) -> dict:
    """Sample orbit times of the final word outside every balancing
    block of level >= n0, and box-count their values at scale
    2 sqrt(eps_n0).

    The levels K-1 .. n0 are those of the deleted set
    deleted_union(stages, n0), whose peel splits a time j into full-word
    multiplicities c_lev and a W_n0 prefix of length p; a c_lev that
    reaches the level's repetition count puts j in a balancing block,
    unsampled.  The split's counts, sum c_lev (k_lev, l_lev) plus the
    prefix counts at p, are the final word's prefix counts at j when
    every W_(lev+1) is W_lev^L V on the stage's own W_lev, of length
    N_lev and counts (k_lev, l_lev); the refused times are the balancing
    blocks, whose density is `excluded_density`, when
    N_(lev+1) = L N_lev + |V_lev|.  Both are checked once per level, or
    `split-eval-mismatch` or `exclusion-leak` raises naming the level.

    The samples are a corner family and seeded random draws.  The
    corner family is each upper corner (a menu value of c_lev per level
    above n0) times one table of bottom-level pairs
    (copy c, prefix t), 1 <= t <= N_n0: each menu copy with the prefixes
    around the base menu, and its outside neighbours, prefix N_n0 of
    copy c - 1 and prefix 1 of copy c + 1, where that copy exists (else
    they lie in a balancing block).  So `samples_deterministic` is
    (upper corners) x (table size); with no levels (n0 = K) the table
    is W_K's own near prefixes.  A draw is randrange(1, horizon + 1)
    inlined (getrandbits(bits(horizon)) until below the horizon, plus 1)
    and peeled inline to its full-word image and p, and reads its letter
    counts off the deleted set's peel only at a cell edge or a drift
    candidate.  Prefix rows are walked with prefix_counts, or read as
    (min(p, m), p - min(p, m)) when W_n0 = x^m y^(N_n0 - m), as W_1 is.

    For the scale sn / sd let Q = bits(sd) + COVER_GUARD_BITS and
    P = bits(horizon) + Q; with A = floor(a 2^P / den) and B likewise,
    den the pair's common denominator, a point with counts (cx, cy) lies
    in [lo, lo + cx + cy] units of 2^-P for lo = (cx A + cy B) mod 2^P.
    A sample's lo is its full-word image img = sum c_lev (k_lev A +
    l_lev B) mod 2^P plus its prefix image, tabulated for the corner
    family's prefixes.  As cx + cy = j < 2^bits(horizon), the point lies
    in [top, top + 2) units of 2^-Q for top = lo >> bits(horizon); with
    sd = odd 2^e (e capped at Q) the cell of top is
    ((top odd) >> (Q - e)) // sn, so a dyadic scale multiplies by 1.
    When both ends fall in one cell that does not pass 1, that is the
    cell; otherwise the exact value mod den decides it.  Every upper
    corner's image lies within spread units of 2^-Q of 0, so it moves a
    table entry's top by at most reach = spread + 1 (0 when every corner
    image is 0): an entry whose band [top - reach, top + reach + 2) lies
    in one cell below 1 is read once, and every other entry under each
    upper corner as above.  A sample's drift (its full-word part, as a
    distance to the nearest integer) is within its count error
    dx + dy = j - p of img; count vectors whose upper bound reaches the
    running maximum of the lower bounds are kept, and those reaching the
    final one are evaluated exactly, so `max_drift` is exact.  Copies
    are taken farthest image first, and one whose bound under every
    upper corner (by the triangle inequality) is below that maximum is
    passed over.  Contrast draws are read like random draws outside
    every block, and exactly inside one.

    The bounds are recorded, never enforced; the construction promises
    them only for n0 >= 2.  cells <= N_n0 is a test only when the
    sample (random plus deterministic) outnumbers N_n0.
    """
    K = len(stages)
    if not 1 <= n0 <= K:
        raise UsageError(f"n0 must be in [1, {K}]")
    if sample_budget < 1:
        raise UsageError("need a positive sample budget")
    final = stages[-1]
    base = stages[n0 - 1]
    horizon = final.N
    for st, up in zip(stages[n0 - 1:K - 1], stages[n0:]):
        pw = up.W.left
        if not (up.W.kind == "." and pw.kind == "^" and pw.base is st.W
                and pw.exponent == up.L and st.W.length == st.N
                and st.W.counts == (st.k, st.l)):
            raise InvariantViolation("split-eval-mismatch", f"level {st.n}")
        if up.N != up.L * st.N + up.V.length:
            raise InvariantViolation(
                "exclusion-leak", "the deleted set differs from the level "
                f"peel inside a level-{st.n} block")

    scale, scale_exact = covering_scale(base.eps)
    sn, sd = scale.numerator, scale.denominator

    den, a_int, b_int = common_units(final.alpha, final.beta)

    q = sd.bit_length() + COVER_GUARD_BITS
    shift = horizon.bit_length()
    prec = shift + q
    one = 1 << prec
    mask = one - 1
    odd, qe = _factor_scale(sd, q)
    odd2, top_max = 2 * odd, (1 << q) - 2
    a_fix = (a_int << prec) // den
    b_fix = (b_int << prec) // den
    deleted = deleted_union(stages, n0)
    # levels K-1 .. n0, top down: (N_lev, L_lev, k_lev, l_lev, image of W_lev)
    levels = [(n_lev, reps, st.k, st.l, (st.k * a_fix + st.l * b_fix) & mask)
              for (n_lev, reps, _), st in zip(deleted.levels,
                                              reversed(stages[n0 - 1:K - 1]))]

    def full_counts(j: int) -> Tuple[int, int]:
        """sum c_lev (k_lev, l_lev) over the copy counts of a kept time."""
        dx = dy = 0
        for c, (_, _, k_lev, l_lev, _) in zip(deleted.peel(j)[0], levels):
            dx += c * k_lev
            dy += c * l_lev
        return dx, dy

    def exact_cell(cx: int, cy: int) -> int:
        return (cx * a_int + cy * b_int) % den * sd // (den * sn)

    m = base.W.counts.x
    runs = prefix_counts(base.W, m) == (m, 0)      # W_n0 = x^m y^(N - m)

    def row_of(p: int) -> Tuple[int, int, int]:
        bx, by = (min(p, m), p - min(p, m)) if runs else prefix_counts(base.W, p)
        return bx * a_fix + by * b_fix, bx, by

    cells, contrast_cells = set(), set()
    drift = []                  # (upper bound, dx, dy) that may hold the max
    drift_floor = 0             # running max of the drift lower bounds

    def add_drift(dx: int, dy: int, img: int) -> None:
        nonlocal drift_floor
        dist = min(img, one - img)
        err = dx + dy
        if dist + err >= drift_floor:
            drift.append((dist + err, dx, dy))
            drift_floor = max(drift_floor, dist - err)

    menus = [_sample_menu(reps) for _, reps, *_ in levels[:-1]]
    base_menu = ([r + 1 for r in _sample_menu(base.N)]
                 if base.N > 64 else list(range(1, base.N + 1)))
    if n0 >= 2:
        sub = stages[n0 - 2].N
        base_menu.extend(c * sub for c in _sample_menu(base.L or 1)
                         if 1 <= c * sub <= base.N)
    near = {r + d for r in base_menu for d in (-1, 0, 1)}
    rows = {t: row_of(t) for t in near if 1 <= t <= base.N}
    _, copies, k_c, l_c, img_c = levels[-1] if levels else (0, 1, 0, 0, 0)
    menu = set(_sample_menu(copies))
    table = []                  # (c k, c l, c img, rows) of each copy c
    for c in sorted(menu.union({c - 1 for c in menu if c},
                               {c + 1 for c in menu if c + 1 < copies})):
        crows = rows.values() if c in menu else [
            rows[t] for t, nb in ((base.N, c + 1), (1, c - 1)) if nb in menu]
        table.append((c * k_c, c * l_c, c * img_c & mask, crows))
    table_size = sum(len(crows) for *_, crows in table)

    upper = [(0, 0, 0)]         # (dx, dy, img) of each upper corner
    for (_, _, k_lev, l_lev, w_img), menu_lev in zip(levels, menus):
        upper = [(ux + c * k_lev, uy + c * l_lev, (uimg + c * w_img) & mask)
                 for ux, uy, uimg in upper for c in menu_lev]
    # an upper corner moves an entry's top by at most reach units, so an
    # entry whose cell holds over that band is read once for all of them
    u_dist = max(min(u, one - u) for *_, u in upper)
    u_err = max(ux + uy for ux, uy, _ in upper)
    reach = (u_dist >> shift) + 1 if u_dist else 0
    band, top_hi = (2 * reach + 2) * odd, top_max - reach
    edge = []                   # (img, cx, cy) read under each upper corner
    table.sort(key=lambda e: -min(e[2], one - e[2]))
    for cx, cy, cimg, crows in table:
        if min(cimg, one - cimg) + u_dist + u_err + cx + cy >= drift_floor:
            for ux, uy, uimg in upper:
                add_drift(ux + cx, uy + cy, (uimg + cimg) & mask)
        for pimg, bx, by in crows:
            img = (cimg + pimg) & mask
            top = img >> shift
            v = (top - reach) * odd
            cell = (v >> qe) // sn
            if reach <= top <= top_hi and cell == ((v + band) >> qe) // sn:
                cells.add(cell)
            else:
                edge.append((img, cx + bx, cy + by))
    for ux, uy, uimg in upper:
        for img, cx, cy in edge:
            top = ((uimg + img) & mask) >> shift
            v = top * odd
            cell = (v >> qe) // sn
            if top > top_max or cell != ((v + odd2) >> qe) // sn:
                cell = exact_cell(ux + cx, uy + cy)
            cells.add(cell)

    # seeded draws outside every block, then as many unrestricted ones
    peel = [(n_lev, reps, w_img) for n_lev, reps, _, _, w_img in levels]
    n_random = 0
    for restricted, out, key in ((True, cells, seed),
                                 (False, contrast_cells, f"{seed}-unrestricted")):
        bits = random.Random(key).getrandbits
        for _ in range(50 * sample_budget + 1000 if restricted else n_random):
            if restricted and n_random == sample_budget:
                break
            j = bits(shift)     # randrange(1, horizon + 1), without its frames
            while j >= horizon:
                j = bits(shift)
            p = j = j + 1
            img = 0
            for n_lev, reps, w_img in peel:
                c, rem = divmod(p - 1, n_lev)
                if c >= reps:
                    if not restricted:
                        out.add(exact_cell(*prefix_counts(final.W, j)))
                    break
                img += c * w_img
                p = rem + 1
            else:
                img &= mask
                pimg, bx, by = rows.get(p) or row_of(p)
                top = ((img + pimg) & mask) >> shift
                v = top * odd
                cell = (v >> qe) // sn
                if top > top_max or cell != ((v + odd2) >> qe) // sn:
                    dx, dy = full_counts(j)
                    cell = exact_cell(dx + bx, dy + by)
                out.add(cell)
                if restricted:
                    n_random += 1
                    low = drift_floor - (j - p)
                    if low <= img <= one - low:
                        add_drift(*full_counts(j), img)

    accs = [(dx * a_int + dy * b_int) % den
            for bound, dx, dy in drift if bound >= drift_floor]
    max_drift = Fraction(max((min(a, den - a) for a in accs), default=0), den)

    return {
        "n0": n0,
        "horizon": horizon,
        "scale": scale,
        "scale_exact_sqrt": scale_exact,
        "samples_random": n_random,
        "samples_deterministic": len(upper) * table_size,
        "cells_restricted": len(cells),
        "cell_bound_claimed": base.N,
        "cell_bound_ok": len(cells) <= base.N,
        "max_drift": max_drift,
        "drift_bound_ok": max_drift * max_drift < base.eps,  # < sqrt(eps_n0)
        "cells_unrestricted": len(contrast_cells),
        "excluded_density": deleted.density_up_to(horizon),
        "seed": seed,
    }

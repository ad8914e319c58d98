"""Thin-orbit tower tests.

The miniature configuration (m=3, eps1=2^-12, rho=2) materializes fully:
W_2 has 3942 letters, so every claim is checked against a plain
letter-by-letter walk.  The desk configuration (m=10, eps1=2^-40, rho=4)
freezes the grown-up numbers, including the recorded failure of the
level-1 covering and drift bounds.  restricted_covering's fixed-point
core is checked against `exact_covering`, the loop it replaced, which
evaluates every sample exactly on the pair's common denominator and
samples its times with `covering_times`, the sampler the single level
split replaced, filtered by membership in `index_oracle`'s nested-block
union of the balancing blocks; choose_L's closed form is checked against
`bisect_choose_L`, the bisection over L it replaced.  advance and
build_stages' drift-budget check, which decide their identities on
integers over one denominator, are checked against `tower_oracle`'s
reduced-`Fraction` versions, and the covering survey's getrandbits draw
against `randrange`, whose times it reproduces.
"""

import dataclasses
import gc
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import index_oracle as oracle
import tower_oracle
from tower_oracle import lift_half
from abset import thin_orbit
from abset.errors import InvariantViolation, UsageError
from abset.exact import ceil_root, ceil_root_ratio, mod1, sqrt_bracket
from abset.thin_orbit import (
    DEFAULT_SAMPLE_BUDGET,
    DEFAULT_SEED,
    ThinConfig,
    TStage,
    _factor_scale,
    _sample_menu,
    advance,
    build_stages,
    choose_L,
    covering_scale,
    deleted_union,
    init_stage,
    restricted_covering,
)
from abset.words import WordExpr, X, Y, concat, format_word, letters, power, prefix_counts


def spell(w) -> str:
    return "".join(letters(w))


TINY = ThinConfig(m=3, eps1=Fraction(1, 2 ** 12), rho=lambda n: 2)


def walk(word_str, alpha, beta):
    val = Fraction(0)
    out = []
    for ch in word_str:
        val = (val + (alpha if ch == "x" else beta)) % 1
        out.append(val)
    return out


def bisect_choose_L(eps, N, n, buffer=3):
    """choose_L's former bisection over L, kept as its oracle."""
    T = ceil_root_ratio(eps.denominator, eps.numerator, n)

    def fits(L):
        return (L + buffer * ceil_root(L, 2)) * N <= T

    if not fits(4):
        raise UsageError(
            f"horizon T={T} leaves no room for L >= 4 at N={N}; "
            "eps is too large for this stage count")
    lo, hi = 4, T // N + 1   # fits(lo) holds; hi * N already exceeds T
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return lo, T


def covering_times(stages, n0, sample_budget, seed):
    """restricted_covering's former sampler, kept as the oracle of its
    single level split: the excluded set, the deterministic corner family
    (duplicates dropped) and the seeded random draws, both filtered by
    membership in the deleted set of every balancing block of level
    >= n0."""
    K = len(stages)
    horizon = stages[-1].N
    excluded = oracle.deleted_union(stages, n0)

    rng = random.Random(seed)
    picked = []
    for _ in range(50 * sample_budget + 1000):
        if len(picked) == sample_budget:
            break
        j = rng.randrange(1, horizon + 1)
        if j not in excluded:
            picked.append(j)

    menus = [_sample_menu(stages[lev].L) for lev in range(K - 1, n0 - 1, -1)]
    offsets = [stages[lev - 1].N for lev in range(K - 1, n0 - 1, -1)]
    base = stages[n0 - 1]
    base_menu = ([r + 1 for r in _sample_menu(base.N)]
                 if base.N > 64 else list(range(1, base.N + 1)))
    if n0 >= 2:
        sub = stages[n0 - 2].N
        base_menu.extend(c * sub for c in _sample_menu(base.L or 1)
                         if 1 <= c * sub <= base.N)

    near = set()                # each corner time and its two neighbours

    def walk(depth: int, offset: int):
        if depth == len(menus):
            for r in base_menu:
                near.update((offset + r - 1, offset + r, offset + r + 1))
            return
        for c in menus[depth]:
            walk(depth + 1, offset + c * offsets[depth])

    walk(0, 0)
    det = [j for j in near if 1 <= j <= horizon and j not in excluded]
    return excluded, det, picked


def exact_covering(stages, n0, *, sample_budget=DEFAULT_SAMPLE_BUDGET,
                   seed=DEFAULT_SEED):
    """restricted_covering's former evaluation loop, kept as its oracle.

    On the same sampled times, every value is computed exactly modulo the
    final pair's common denominator twice, through the level split and
    directly from prefix counts; cells and the drift come from the exact
    numerators."""
    K = len(stages)
    final = stages[-1]
    base = stages[n0 - 1]
    horizon = final.N
    excluded, det, picked = covering_times(stages, n0, sample_budget, seed)
    scale, scale_exact = covering_scale(base.eps)

    den = (final.alpha.denominator * final.beta.denominator //
           math.gcd(final.alpha.denominator, final.beta.denominator))
    a_int = final.alpha.numerator * (den // final.alpha.denominator)
    b_int = final.beta.numerator * (den // final.beta.denominator)
    word_val = {st.n: (st.k * a_int + st.l * b_int) % den for st in stages}
    level_len = {st.n: st.N for st in stages}
    level_reps = {stages[i].n: stages[i + 1].L for i in range(K - 1)}

    def split_eval(j):
        p = j
        acc = 0
        for lev in range(K - 1, n0 - 1, -1):
            c, rem = divmod(p - 1, level_len[lev])
            if c >= level_reps[lev]:
                raise InvariantViolation("exclusion-leak",
                                         f"time {j} sits inside a level-{lev} block")
            acc = (acc + c * word_val[lev]) % den
            p = rem + 1
        cx, cy = prefix_counts(base.W, p)
        return (acc + cx * a_int + cy * b_int) % den, acc

    def direct_eval(j):
        cx, cy = prefix_counts(final.W, j)
        return (cx * a_int + cy * b_int) % den

    def cell_of(num):
        return (num * scale.denominator) // (den * scale.numerator)

    cells = set()
    max_drift_num = 0
    for j in det + picked:
        val, drift_acc = split_eval(j)
        if direct_eval(j) != val:
            raise InvariantViolation("split-eval-mismatch", f"time {j}")
        cells.add(cell_of(val))
        max_drift_num = max(max_drift_num, min(drift_acc, den - drift_acc))
    max_drift = Fraction(max_drift_num, den)

    rng2 = random.Random(f"{seed}-unrestricted")
    contrast_cells = {cell_of(direct_eval(rng2.randrange(1, horizon + 1)))
                      for _ in range(len(picked))}
    return {
        "n0": n0,
        "horizon": horizon,
        "scale": scale,
        "scale_exact_sqrt": scale_exact,
        "samples_random": len(picked),
        "samples_deterministic": len(det),
        "cells_restricted": len(cells),
        "cell_bound_claimed": base.N,
        "cell_bound_ok": len(cells) <= base.N,
        "max_drift": max_drift,
        "drift_bound_ok": max_drift * max_drift < base.eps,
        "cells_unrestricted": len(contrast_cells),
        "excluded_density": excluded.density_up_to(horizon),
        "seed": seed,
    }


@pytest.fixture(scope="module")
def tiny_stages():
    return build_stages(TINY, 2)


@pytest.fixture(scope="module")
def desk_stages():
    return build_stages(ThinConfig.desk(), 3)


@pytest.fixture(scope="module")
def mid_stages():
    return build_stages(ThinConfig(m=30, eps1=Fraction(1, 10 ** 60),
                                   rho=lambda n: 10), 2)


@pytest.fixture(scope="module")
def wide_stages():
    return build_stages(ThinConfig(m=1000, eps1=Fraction(1, 10 ** 500),
                                   rho=lambda n: 10), 2)


@pytest.fixture(scope="module")
def menu_stages():
    return build_stages(ThinConfig(m=40, eps1=Fraction(1, 10 ** 60),
                                   rho=lambda n: 10), 2)


class TestSeed:
    def test_seed_lands_exactly(self):
        s1 = init_stage(TINY)
        assert s1.alpha == s1.beta == Fraction(1, 2) + Fraction(1, 6 * 2 ** 12)
        assert (s1.N, s1.k, s1.l) == (6, 3, 3)
        assert walk(spell(s1.W), s1.alpha, s1.beta)[-1] == TINY.eps1
        assert mod1(s1.k * s1.beta - s1.l * s1.alpha) == 0

    def test_config_guards(self):
        with pytest.raises(UsageError):
            ThinConfig(m=0, eps1=Fraction(1, 4), rho=lambda n: 2)
        with pytest.raises(UsageError):
            ThinConfig(m=3, eps1=Fraction(3, 2), rho=lambda n: 2)

    def test_rho_schedules(self):
        with pytest.raises(UsageError):
            ThinConfig(m=3, eps1=Fraction(1, 2 ** 12), rho=lambda n: 1).rho_at(2)
        assert ThinConfig.faithful().rho_at(2) == 8000
        assert ThinConfig.faithful().rho_at(3) == 27000


class TestChooseL:
    def test_tiny_value(self):
        L, T = choose_L(Fraction(1, 2 ** 12), 6, 1)
        assert (L, T) == (607, 4096)

    def test_too_tight(self):
        with pytest.raises(UsageError):
            choose_L(Fraction(1, 4), 6, 1)

    @settings(max_examples=60, deadline=None)
    @given(e=st.integers(8, 60), n_len=st.integers(2, 50), root=st.integers(1, 3))
    def test_definitional(self, e, n_len, root):
        eps = Fraction(1, 2 ** e)
        inv = 2 ** e
        lo, hi = 1, 1 << (e // root + 2)
        while lo < hi:                  # smallest T with T^root >= inv
            mid = (lo + hi) // 2
            if mid ** root >= inv:
                hi = mid
            else:
                lo = mid + 1
        T_expect = lo
        assume(T_expect >= 10 * n_len)
        L, T = choose_L(eps, n_len, root)
        assert T == T_expect
        assert L >= 4

        def weight(x):
            return (x + 3 * ceil_root(x, 2)) * n_len

        assert weight(L) <= T < weight(L + 1)

    @staticmethod
    def _against_oracle(eps, N, n, buffer):
        try:
            expect = bisect_choose_L(eps, N, n, buffer)
        except UsageError as err:
            with pytest.raises(UsageError) as got:
                choose_L(eps, N, n, buffer)
            assert str(got.value) == str(err)
            return None
        assert choose_L(eps, N, n, buffer) == expect
        return expect

    @settings(max_examples=300, deadline=None)
    @given(eps=st.one_of(
               st.integers(1, 400).map(lambda e: Fraction(1, 2 ** e)),
               st.integers(1, 120).map(lambda e: Fraction(1, 10 ** e)),
               st.builds(lambda num, den: Fraction(num, num + den),
                         st.integers(1, 10 ** 6), st.integers(1, 10 ** 90))),
           N=st.integers(1, 10 ** 7), n=st.integers(1, 4),
           buffer=st.integers(1, 5))
    def test_matches_bisection(self, eps, N, n, buffer):
        self._against_oracle(eps, N, n, buffer)

    @settings(max_examples=300, deadline=None)
    @given(s=st.integers(2, 10 ** 7), past=st.integers(-1, 1),
           slack=st.integers(-1, 1), N=st.integers(1, 10 ** 7),
           n=st.integers(1, 4), buffer=st.integers(1, 5),
           rem=st.integers(0, 10 ** 7), tail=st.integers(0, 1))
    def test_matches_bisection_at_squares(self, s, past, slack, N, n, buffer,
                                          rem, tail):
        # the horizon just holds L = s^2 + past (and its block), or misses
        # it by one, so L lands on a perfect square, one short or one past
        L = s * s + past
        T = (L + buffer * ceil_root(L, 2) + slack) * N + rem % N
        # (T - 1)^n < T^n - 1 from n = 2 on: still ceil(eps^(-1/n)) = T
        eps = Fraction(1, T ** n - (tail if n > 1 else 0))
        got = self._against_oracle(eps, N, n, buffer)
        if got is not None and slack == 0:
            assert got == (L, T)


class TestTinyAdvance:
    def test_frozen_shape(self, tiny_stages):
        s2 = tiny_stages[1]
        assert (s2.L, s2.s) == (607, 25)
        assert (s2.N, s2.k, s2.l) == (3942, 1896, 2046)
        assert s2.V.length == 300
        assert s2.eps == Fraction(1, 2 ** 24)
        assert spell(s2.V) == ("xxx" + "y" * 9) * 25

    def test_walk_oracle(self, tiny_stages):
        s1, s2 = tiny_stages
        values = walk(spell(s2.W), s2.alpha, s2.beta)
        assert values[-1] == s2.eps                 # new word lands on target
        assert values[s1.N - 1] == s1.eps           # W_1 preserved exactly
        for c in range(2, s2.L + 1):                # every full repeat too
            assert values[c * s1.N - 1] == mod1(c * s1.eps)

    def test_prefix_structure(self, tiny_stages):
        s1, s2 = tiny_stages
        assert prefix_counts(s2.W, s1.N) == s1.W.counts
        assert spell(s2.W)[:6] == "xxxyyy"

    def test_balance_band(self, tiny_stages):
        s2 = tiny_stages[1]
        assert Fraction(3, 5) < Fraction(s2.k, s2.l) < Fraction(5, 3)
        assert 2 * s2.k - s2.l > 0 and 2 * s2.l - s2.k > 0

    def test_imbalance_generic_after_one_step(self, tiny_stages):
        s2 = tiny_stages[1]
        g_value = mod1(s2.k * s2.beta - s2.l * s2.alpha)
        assert g_value == Fraction(326558353, 419430400)
        assert abs(lift_half(g_value)) > Fraction(1, 8)

    def test_shift_recorded(self, tiny_stages):
        s2 = tiny_stages[1]
        assert s2.shift_within_sqrt is True
        assert s2.shift_sup == abs(s2.t) * 3


class TestDeskTower:
    def test_frozen_stage2(self, desk_stages):
        s2 = desk_stages[1]
        assert s2.L == 54974877984
        assert s2.s == 234468
        assert (s2.s - 1) ** 2 < s2.L <= s2.s ** 2
        assert s2.V.length == 9378720
        assert s2.N == 1099506938400
        assert s2.eps == Fraction(1, 2 ** 160)
        assert s2.shift_within_sqrt is True

    def test_frozen_stage3(self, desk_stages):
        s3 = desk_stages[2]
        assert s3.L == 1099513171441
        assert s3.s == 1048577
        assert s3.N == 1208924666692024964507280
        assert s3.eps == Fraction(1, 2 ** 640)
        # the 2 -> 3 nudge is structurally too coarse; recorded, not raised
        assert s3.shift_within_sqrt is False
        assert s3.shift_sup * s3.shift_sup >= desk_stages[1].eps

    def test_drift_budget_holds(self, desk_stages):
        s1, s2, s3 = desk_stages
        val = mod1(s1.k * s3.alpha + s1.l * s3.beta)
        moved = abs(val - s1.eps)
        assert 0 < moved <= s1.N * s3.shift_sup     # moved, within budget
        assert moved < s1.eps                        # still looks like eps_1
        # the middle word is fixed exactly by the last repair
        assert mod1(s2.k * s3.alpha + s2.l * s3.beta) == s2.eps

    def test_growth_refusal(self, monkeypatch):
        monkeypatch.setattr(thin_orbit, "MAX_EPS_BITS", 24)
        capped = ThinConfig(m=3, eps1=Fraction(1, 2 ** 12), rho=lambda n: 4)
        with pytest.raises(UsageError, match="outgrows") as err:
            build_stages(capped, 2)
        assert "--stages" in str(err.value)
        monkeypatch.setattr(thin_orbit, "MAX_EPS_BITS", 10 ** 6)
        faithful = ThinConfig.faithful()
        with pytest.raises(UsageError, match="outgrows"):
            advance(init_stage(faithful), faithful)

    def test_faithful_seed_is_symbolic(self):
        s1 = init_stage(ThinConfig.faithful())
        assert s1.alpha == Fraction(1, 2) + Fraction(1, 2000 * 10 ** 1000)
        assert s1.N == 2000


def outcome(run, *args):
    """The stages a run builds, field by field with words formatted, or
    the kind and name of what it raised."""
    try:
        got = run(*args)
    except (InvariantViolation, UsageError) as exc:
        return type(exc).__name__, getattr(exc, "name", None)
    return [{f.name: format_word(v) if isinstance(v, WordExpr) else v
             for f in dataclasses.fields(st) for v in [getattr(st, f.name)]}
            for st in (got if isinstance(got, list) else [got])]


def draw_times(key, horizon, count):
    """restricted_covering's draw: bits(horizon) random bits, redrawn
    while they reach the horizon, plus 1."""
    bits = random.Random(key).getrandbits
    width = horizon.bit_length()
    out = []
    for _ in range(count):
        j = bits(width)
        while j >= horizon:
            j = bits(width)
        out.append(j + 1)
    return out


class TestIntegerStep:
    """advance and the drift-budget check on integer units against the
    reduced-Fraction step they replaced."""

    @pytest.mark.parametrize("tower, k", [("desk", 3), ("desk", 4), ("wide", 2)])
    def test_paper_towers_match_oracle(self, tower, k):
        cfg = ThinConfig.desk() if tower == "desk" else ThinConfig(
            m=1000, eps1=Fraction(1, 10 ** 500), rho=lambda n: 10)
        got = outcome(build_stages, cfg, k)
        assert got == outcome(tower_oracle.build_stages, cfg, k)
        assert len(got) == k

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 8), b=st.integers(5, 40), r=st.integers(2, 4),
           k=st.integers(2, 4))
    def test_small_towers_match_oracle(self, m, b, r, k):
        # equal stages, or the same refusal where the band or cap is left
        cfg = ThinConfig(m=m, eps1=Fraction(1, 2 ** b), rho=lambda n, r=r: r)
        assert outcome(build_stages, cfg, k) == \
            outcome(tower_oracle.build_stages, cfg, k)

    @settings(max_examples=80, deadline=None)
    @given(m=st.integers(1, 6), b=st.integers(5, 24), r=st.integers(2, 3),
           level=st.integers(0, 1),
           forge=st.sampled_from(["alpha", "beta", "counts", "length"]),
           value=st.one_of(
               st.fractions(min_value=-1, max_value=2, max_denominator=10 ** 6),
               st.sampled_from([Fraction(1, 2 ** 80), 1 - Fraction(1, 2 ** 80),
                                Fraction(0), Fraction(1)])),
           d=st.integers(-3, 3))
    def test_forged_stages_raise_as_oracle(self, m, b, r, level, forge, value, d):
        # a pair moved anywhere, counts that disagree with W, or a length
        # that does: the same stage, or the same InvariantViolation name
        cfg = ThinConfig(m=m, eps1=Fraction(1, 2 ** b), rho=lambda n, r=r: r)
        try:
            stage = build_stages(cfg, 2)[level]
        except (UsageError, InvariantViolation):
            assume(False)
        forged = dataclasses.replace(stage, **{
            "alpha": {"alpha": value}, "beta": {"beta": value},
            "counts": {"k": stage.k + d, "l": stage.l - d},
            "length": {"N": stage.N + d * d}}[forge])
        assert outcome(advance, forged, cfg) == \
            outcome(tower_oracle.advance, forged, cfg)

    def test_forged_pair_leaves_the_range(self):
        # alpha 2^-80 from 0: the repair moves it below 0 in both steps
        s1 = init_stage(TINY)
        forged = dataclasses.replace(s1, alpha=Fraction(1, 2 ** 80),
                                     beta=Fraction(1, 3))
        for run in (advance, tower_oracle.advance):
            with pytest.raises(InvariantViolation) as err:
                run(forged, TINY)
            assert err.value.name == "rotation-range"

    @pytest.mark.parametrize("slack", [0, 1])
    def test_drift_budget_decided_at_its_edge(self, desk_stages, slack,
                                              monkeypatch):
        # stage 3's recorded shift cut to exactly the distance W_1 moved
        # over N_1: the budget holds with equality; one unit of its
        # denominator less and both checks refuse
        s1, _, s3 = desk_stages
        moved = abs(lift_half(mod1(s1.k * s3.alpha + s1.l * s3.beta) - s1.eps))
        cut = moved / s1.N
        cut -= Fraction(slack, cut.denominator)
        real = thin_orbit.advance

        def forged(stage, config):
            nxt = real(stage, config)
            return dataclasses.replace(nxt, shift_sup=cut) if nxt.n == 3 else nxt

        monkeypatch.setattr(thin_orbit, "advance", forged)
        monkeypatch.setattr(tower_oracle, "advance", forged)
        want = outcome(tower_oracle.build_stages, ThinConfig.desk(), 3)
        assert outcome(build_stages, ThinConfig.desk(), 3) == want
        assert (want == ("InvariantViolation", "drift-budget")) == bool(slack)

    @pytest.mark.parametrize("key", [DEFAULT_SEED, f"{DEFAULT_SEED}-unrestricted"])
    @pytest.mark.parametrize("horizon", [1, 2, 2 ** 7 - 1, 2 ** 7, 2 ** 7 + 1,
                                         2 ** 64 - 1, 2 ** 64, 2 ** 64 + 1,
                                         "desk_stages", "wide_stages"])
    def test_draw_matches_randrange(self, key, horizon, request):
        # randrange(1, h + 1) is 1 + _randbelow(h), which redraws
        # getrandbits(bits(h)) while it reaches h: the same times, on
        # every interpreter the tests run on
        if isinstance(horizon, str):
            horizon = request.getfixturevalue(horizon)[-1].N
        rng = random.Random(key)
        want = [rng.randrange(1, horizon + 1) for _ in range(1000)]
        assert draw_times(key, horizon, 1000) == want


class TestDeletedSets:
    def test_counts(self, desk_stages):
        s1, s2, s3 = desk_stages
        from1, from2 = deleted_union(desk_stages, 1), deleted_union(desk_stages, 2)
        n3 = s3.N
        assert from2.count_up_to(n3) == s3.V.length == 2305830456738272880
        assert from1.count_up_to(n3) == s3.L * s2.V.length + s3.V.length
        assert from1.count_up_to(10 * n3) == from1.count_up_to(n3)

    def test_membership_boundaries(self, desk_stages):
        s1, s2, s3 = desk_stages
        from1, from2 = deleted_union(desk_stages, 1), deleted_union(desk_stages, 2)
        first_v1 = s2.L * s1.N + 1          # first letter of the first V_1
        assert first_v1 in from1 and first_v1 - 1 not in from1
        assert (first_v1 + s2.V.length - 1) in from1
        assert (first_v1 + s2.V.length) not in from1
        first_v2 = s3.L * s2.N + 1
        assert first_v2 in from2 and first_v2 - 1 not in from2
        assert s3.N in from2 and s3.N + 1 not in from1
        # V_1 is not a level-2 block, and V_2 is deleted from level 1 up
        assert first_v1 not in from2 and first_v2 in from1
        # second-copy replica of V_1
        assert s2.N + first_v1 in from1

    def test_union_density_decreases(self, desk_stages):
        n3 = desk_stages[-1].N
        d = [deleted_union(desk_stages, lev).density_up_to(n3)
             for lev in (1, 2, 3)]
        assert d[0] > d[1] > d[2] == 0

    def test_tiny_tail_block(self, tiny_stages):
        excluded = deleted_union(tiny_stages, 1)
        members = {j for j in range(0, 3945) if j in excluded}
        assert members == set(range(3643, 3943))
        assert excluded.count_up_to(3942) == 300


class TestRestrictedCovering:
    def test_tiny_against_brute(self, tiny_stages):
        s1, s2 = tiny_stages
        rep = restricted_covering(tiny_stages, 1, sample_budget=800,
                                  seed=20260823)
        # brute force over every surviving time
        values = walk(spell(s2.W), s2.alpha, s2.beta)
        cells, drift = set(), Fraction(0)
        for j in range(1, s2.L * s1.N + 1):
            cells.add(values[j - 1] // Fraction(1, 32))
            drift = max(drift, abs(lift_half(((j - 1) // s1.N) * s1.eps)))
        assert rep["scale"] == Fraction(1, 32) and rep["scale_exact_sqrt"]
        assert rep["cells_restricted"] == len(cells) == 10
        assert rep["max_drift"] == drift == Fraction(303, 2048)
        assert rep["cell_bound_claimed"] == 6
        assert rep["cell_bound_ok"] is False        # 10 > 6, honestly red
        assert rep["drift_bound_ok"] is False
        assert rep["excluded_density"] == Fraction(300, 3942)

    def test_desk_level1_red(self, desk_stages):
        rep = restricted_covering(desk_stages, 1)
        assert rep["cell_bound_claimed"] == 20
        assert rep["cells_restricted"] > 1000       # far beyond the claim
        assert rep["cell_bound_ok"] is False
        # the deterministic corner family pins the exact worst drift
        s1, s2, s3 = desk_stages
        w1 = mod1(s1.k * s3.alpha + s1.l * s3.beta)
        w2 = mod1(s2.k * s3.alpha + s2.l * s3.beta)
        assert rep["max_drift"] == (s2.L - 1) * w1 + (s3.L - 1) * w2
        assert rep["drift_bound_ok"] is False

    def test_desk_level2_green(self, desk_stages):
        rep = restricted_covering(desk_stages, 2)
        s2, s3 = desk_stages[1], desk_stages[2]
        assert rep["cell_bound_ok"] is True
        assert rep["max_drift"] == (s3.L - 1) * s2.eps
        assert rep["drift_bound_ok"] is True

    def test_top_level_trivial(self, desk_stages):
        rep = restricted_covering(desk_stages, 3)
        assert rep["max_drift"] == 0
        assert rep["drift_bound_ok"] is True
        assert rep["excluded_density"] == 0

    def test_deterministic(self, desk_stages):
        a = restricted_covering(desk_stages, 1, sample_budget=300, seed=11)
        b = restricted_covering(desk_stages, 1, sample_budget=300, seed=11)
        c = restricted_covering(desk_stages, 1, sample_budget=300, seed=12)
        assert a == b
        assert a != c

    def test_guards(self, desk_stages):
        with pytest.raises(UsageError):
            restricted_covering(desk_stages, 0)
        with pytest.raises(UsageError):
            restricted_covering(desk_stages, 4)
        with pytest.raises(UsageError):
            restricted_covering(desk_stages, 1, sample_budget=0)


class TestCoveringOracle:
    """The fixed-point core against the exact loop it replaced."""

    @pytest.mark.parametrize("guard", [thin_orbit.COVER_GUARD_BITS, 0])
    @pytest.mark.parametrize("n0", [1, 2, 3])
    def test_desk_matches_exact(self, desk_stages, n0, guard, monkeypatch):
        # guard 0 leaves about one bit between the error interval and the
        # cell width, so many cells and drift bounds fall back to the exact
        # numerators; the report must not notice
        monkeypatch.setattr(thin_orbit, "COVER_GUARD_BITS", guard)
        rep = restricted_covering(desk_stages, n0, sample_budget=3000, seed=5)
        assert rep == exact_covering(desk_stages, n0, sample_budget=3000,
                                     seed=5)

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 6),
           eps1=st.one_of(st.integers(5, 24).map(lambda e: Fraction(1, 2 ** e)),
                          st.integers(2, 8).map(lambda e: Fraction(1, 10 ** e))),
           r=st.integers(2, 4), k=st.integers(2, 3),
           budget=st.sampled_from([1, 7, 60, 400]),
           seed=st.integers(0, 2 ** 32),
           guard=st.sampled_from([64, 0, "starved"]))
    def test_tiny_towers_match_exact(self, m, eps1, r, k, budget, seed, guard):
        cfg = ThinConfig(m=m, eps1=eps1, rho=lambda n, r=r: r)
        try:
            stages = build_stages(cfg, k)
        except (UsageError, InvariantViolation):
            assume(False)       # no room for L >= 4, or the tower left its band
        for n0 in range(1, k + 1):
            # "starved" cancels the scale's bits, leaving P = bits(horizon):
            # error intervals then span cells and wrap past 1 all the time
            bits = guard if guard != "starved" else \
                -covering_scale(stages[n0 - 1].eps)[0].denominator.bit_length()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(thin_orbit, "COVER_GUARD_BITS", bits)
                rep = restricted_covering(stages, n0, sample_budget=budget,
                                          seed=seed)
                assert rep == exact_covering(stages, n0, sample_budget=budget,
                                             seed=seed)

    @settings(max_examples=12, deadline=None)
    @given(m=st.integers(1, 4),
           eps1=st.one_of(st.integers(5, 16).map(lambda e: Fraction(1, 2 ** e)),
                          st.integers(2, 5).map(lambda e: Fraction(1, 10 ** e))),
           r=st.integers(3, 4), k=st.integers(3, 4),
           budget=st.sampled_from([1, 7, 60]),
           seed=st.integers(0, 2 ** 32),
           guard=st.sampled_from([64, 0, "starved"]),
           nudge=st.integers(0, 256))
    def test_upper_corners_match_exact(self, m, eps1, r, k, budget, seed, guard,
                                       nudge):
        # with two or more levels below the top, the corner family has
        # several upper corners: guard 64 reads nearly every table entry
        # once for all of them, "starved" sends every entry through the
        # read under each upper corner.  The tower's own corner images are
        # far below a cell; nudging the final alpha by nudge / 256 of a
        # cell over N_K letters spreads them over up to half a cell, so
        # entries near an edge must take the read under each corner
        cfg = ThinConfig(m=m, eps1=eps1, rho=lambda n, r=r: r)
        try:
            stages = build_stages(cfg, k)
        except (UsageError, InvariantViolation):
            assume(False)
        final = stages[-1]
        for n0 in range(1, k - 1):
            scale = covering_scale(stages[n0 - 1].eps)[0]
            nudged = stages[:-1] + [dataclasses.replace(
                final, alpha=final.alpha + scale * nudge / (256 * final.N))]
            bits = guard if guard != "starved" else -scale.denominator.bit_length()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(thin_orbit, "COVER_GUARD_BITS", bits)
                rep = restricted_covering(nudged, n0, sample_budget=budget,
                                          seed=seed)
                assert rep == exact_covering(nudged, n0, sample_budget=budget,
                                             seed=seed)

    @pytest.mark.parametrize("guard", [64, 0, "starved"])
    @pytest.mark.parametrize("n0", [1, 2])
    def test_mid_tower_matches_exact(self, mid_stages, n0, guard, monkeypatch):
        # a 200-bit horizon: the cell is read from lo shifted right by 200
        # bits, where the tiny towers shift by a dozen or fewer
        assert mid_stages[-1].N.bit_length() == 200
        bits = guard if guard != "starved" else \
            -covering_scale(mid_stages[n0 - 1].eps)[0].denominator.bit_length()
        monkeypatch.setattr(thin_orbit, "COVER_GUARD_BITS", bits)
        rep = restricted_covering(mid_stages, n0, sample_budget=1500, seed=9)
        assert rep == exact_covering(mid_stages, n0, sample_budget=1500, seed=9)

    @pytest.mark.parametrize("guard", [64, 0, "starved"])
    def test_menu_base_matches_exact(self, menu_stages, guard, monkeypatch):
        # N_1 = 80 > 64, so at n0 = 1 the corner family takes W_1's
        # prefixes from its menu, and random and contrast draws land on
        # prefixes both inside and outside the corner family's table
        assert menu_stages[0].N == 80
        bits = guard if guard != "starved" else \
            -covering_scale(menu_stages[0].eps)[0].denominator.bit_length()
        monkeypatch.setattr(thin_orbit, "COVER_GUARD_BITS", bits)
        rep = restricted_covering(menu_stages, 1, sample_budget=1500, seed=9)
        assert rep == exact_covering(menu_stages, 1, sample_budget=1500, seed=9)

    def test_interval_past_one_takes_the_exact_cell(self):
        # W_1 = x^7 y^7 at alpha = 1/7, beta = 6/7 returns to 0 exactly at
        # times 7 and 14, whose truncated fixed-point images lie just
        # below 1.  Their error intervals pass 1, and both ends floor into
        # the short last cell [87/100, 1), since the scale 29/100 does not
        # divide 1; only the exact value puts those times in cell 0.
        start = init_stage(ThinConfig(m=7, eps1=Fraction(1, 2 ** 10), rho=lambda n: 2))
        stage = dataclasses.replace(start, alpha=Fraction(1, 7), beta=Fraction(6, 7),
                                    eps=Fraction(841, 40000))
        assert covering_scale(stage.eps) == (Fraction(29, 100), True)
        rep = restricted_covering([stage], 1, sample_budget=50)
        assert rep == exact_covering([stage], 1, sample_budget=50)
        assert rep["samples_deterministic"] == 14
        assert rep["cells_restricted"] == rep["cells_unrestricted"] == 3

    def test_scale_keeps_significant_bits(self):
        # a 64-bit lower bracket of sqrt(2^-135) is 0, which once divided
        # by zero; the widened bracket keeps 64 significant bits
        eps = Fraction(1, 2 ** 135)
        scale, exact = covering_scale(eps)
        half = scale / 2
        assert not exact
        assert half * half <= eps < half * half * (1 + Fraction(1, 2 ** 60))
        # from 2^-128 up the 64-bit bracket is nonzero and stays as it was
        eps = Fraction(1, 2 ** 127)
        assert covering_scale(eps) == (2 * sqrt_bracket(eps)[0], False)
        assert covering_scale(Fraction(1, 2 ** 40)) == (Fraction(1, 2 ** 19), True)

    def test_split_mismatch_raises(self, tiny_stages):
        # level 1 claims one x too many and one y too few: every time with
        # a full copy of W_1 in its split disagrees with the direct counts
        s1, s2 = tiny_stages
        forged = [dataclasses.replace(s1, k=s1.k + 1, l=s1.l - 1), s2]
        for run in (restricted_covering, exact_covering):
            with pytest.raises(InvariantViolation) as err:
                run(forged, 1, sample_budget=50)
            assert err.value.name == "split-eval-mismatch"

    @pytest.mark.parametrize("forge", ["halves-swapped", "other-w1"])
    def test_forged_spine_raises(self, tiny_stages, forge):
        # W_2 rebuilt with its own letter counts and length, but not as
        # W_1^L_2 V_2 on the stage's W_1: the level split no longer gives
        # the word's prefix counts, and the spine check must say so
        s1, s2 = tiny_stages
        if forge == "halves-swapped":
            w2 = concat(s2.V, power(s1.W, s2.L))
        else:
            w2 = concat(power(concat(power(Y, 3), power(X, 3)), s2.L), s2.V)
        assert (w2.counts, w2.length) == (s2.W.counts, s2.W.length)
        forged = [s1, dataclasses.replace(s2, W=w2)]
        with pytest.raises(InvariantViolation) as err:
            restricted_covering(forged, 1, sample_budget=200)
        assert (err.value.name, err.value.detail) == ("split-eval-mismatch", "level 1")
        with pytest.raises(InvariantViolation) as err:
            exact_covering(forged, 1, sample_budget=200)
        assert err.value.name == "split-eval-mismatch"

    @staticmethod
    def assert_no_prefix_walk_per_sample(stages, monkeypatch):
        # W_1 = x^m y^m is one x-run then one y-run, which one walk to
        # prefix m confirms; its rows are then read in closed form, so
        # prefix_counts runs once more only for each contrast draw inside
        # a balancing block, whose counts no level split gives.  Every
        # other time reads its counts off its level split
        calls = []

        def counted(w, j):
            calls.append((w, j))
            return prefix_counts(w, j)

        monkeypatch.setattr(thin_orbit, "prefix_counts", counted)
        rep = restricted_covering(stages, 1)
        monkeypatch.undo()
        excluded = deleted_union(stages, 1)
        rng2 = random.Random(f"{DEFAULT_SEED}-unrestricted")
        in_block = [j for j in (rng2.randrange(1, rep["horizon"] + 1)
                                for _ in range(rep["samples_random"]))
                    if j in excluded]
        s1 = stages[0]
        assert calls == [(s1.W, s1.k)] + [(stages[-1].W, j) for j in in_block]
        assert rep == exact_covering(stages, 1)
        return rep

    def test_no_prefix_walk_per_sample(self, desk_stages, monkeypatch):
        # the desk W_1 (N_1 = 20) has every prefix in the corner family's
        # table, which walked each of them before W_1's rows had a closed
        # form: the count was N_1 + in_block, and is now 1 + in_block
        rep = self.assert_no_prefix_walk_per_sample(desk_stages, monkeypatch)
        assert rep["samples_deterministic"] > 10000

    def test_no_prefix_walk_past_the_menu(self, menu_stages, monkeypatch):
        # N_1 = 80 > 64, so the table holds W_1's menu prefixes only, and
        # restricted and contrast draws land on prefixes outside it, which
        # each took a walk before
        self.assert_no_prefix_walk_per_sample(menu_stages, monkeypatch)

    def test_prefix_table_stays_bounded(self, desk_stages):
        # at n0 = 2 a random draw's W_2 prefix is almost never drawn twice:
        # a memo of every drawn prefix took this call's peak to 10.4 MB;
        # without one it is about 6.4 MB, mostly the two cell sets of
        # about 20,000 cells each
        tracemalloc.start()
        try:
            restricted_covering(desk_stages, 2, sample_budget=20000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 10 ** 6

    @pytest.mark.parametrize("tower, n0, budget, bound_mb", [
        ("desk_stages", 1, DEFAULT_SAMPLE_BUDGET, 0.8),
        ("wide_stages", 1, 1000, 1.0),
    ])
    def test_survey_streams_its_samples(self, tower, n0, budget, bound_mb,
                                        request):
        # the corner family is read off one table of (copy, prefix) pairs
        # and every time is surveyed as it is made: a set of every corner
        # time took the desk n0 = 1 peak to 1.35 MB, where it is now about
        # 0.45 MB; the wide tower (m = 1000, eps1 = 10^-500) peaks near
        # 0.5 MB, most of it its two sets of about 1,000 830-bit cells
        stages = request.getfixturevalue(tower)
        tracemalloc.start()
        try:
            restricted_covering(stages, n0, sample_budget=budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 10 ** 6

    @settings(max_examples=300, deadline=None)
    @given(odd=st.integers(0, 2 ** 70).map(lambda v: 2 * v + 1),
           e=st.integers(0, 90), sn=st.integers(1, 2 ** 40),
           q=st.integers(0, 160), data=st.data())
    def test_factored_scale_reads_the_same_cell(self, odd, e, sn, q, data):
        # the cell of top and its edge test, with sd = odd 2^e factored
        # into a multiply and a shift, against the unfactored read; q < e
        # happens under the starved guard, where q is about 0
        sd = odd << e
        top = data.draw(st.one_of(st.integers(0, (1 << q) - 1),
                                  st.integers(max(0, (1 << q) - 3),
                                              (1 << q) - 1)))
        f_odd, qe = _factor_scale(sd, q)
        v = top * f_odd
        cell = (v >> qe) // sn
        edge = top > (1 << q) - 2 or cell != ((v + 2 * f_odd) >> qe) // sn
        top_sd = top * sd
        ref = (top_sd >> q) // sn
        ref_edge = (top_sd > ((1 << q) - 2) * sd
                    or ref != ((top_sd + 2 * sd) >> q) // sn)
        assert (cell, edge) == (ref, ref_edge)

    def test_dyadic_scale_multiplies_by_one(self):
        # desk n0 = 1: the scale 2^-19 read from Q = 19 + 1 + 64 bits
        assert _factor_scale(1 << 19, 84) == (1, 65)
        assert _factor_scale(5 << 30, 3) == (5 << 27, 0)
        assert _factor_scale(7, 0) == (7, 0)

    def test_survey_leaves_no_cycle(self, desk_stages):
        # the corner family is one table and the samples stream through
        # the survey, so nothing is left for the cycle collector
        gc.collect()
        gc.disable()
        try:
            restricted_covering(desk_stages, 1)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 6),
           eps1=st.one_of(st.integers(5, 24).map(lambda e: Fraction(1, 2 ** e)),
                          st.integers(2, 8).map(lambda e: Fraction(1, 10 ** e))),
           r=st.integers(2, 4), k=st.integers(2, 3), data=st.data())
    def test_split_verdict_matches_deleted_union(self, m, eps1, r, k, data):
        # every block's first and last index, each +-1, in the first, second,
        # last and one drawn copy along its layer, plus drawn times: the
        # deleted set's peel refuses exactly the nested blocks' times, and
        # otherwise its copy counts and prefix give the final word's
        # prefix counts
        cfg = ThinConfig(m=m, eps1=eps1, rho=lambda n, r=r: r)
        try:
            stages = build_stages(cfg, k)
        except (UsageError, InvariantViolation):
            assume(False)
        final = stages[-1]
        horizon = final.N
        sets = oracle.deleted_sets(stages)
        edges = set()
        for js in sets.values():
            ((_, origin, block_len, layers),) = js.describe()
            starts = [origin]
            for period, count in layers:
                drawn = data.draw(st.integers(0, count - 1))
                starts = [s + q * period for s in starts
                          for q in {0, min(1, count - 1), count - 1, drawn}]
            for s in starts:
                for end in (s + 1, s + block_len):
                    edges.update((end - 1, end, end + 1))
        drawn = data.draw(st.lists(st.integers(1, horizon), max_size=40))
        times = sorted(j for j in edges.union(drawn) if 1 <= j <= horizon)
        for n0 in range(1, k + 1):
            excluded = deleted_union(stages, n0)
            nested = oracle.deleted_union(stages, n0)
            base = stages[n0 - 1]
            words = stages[n0 - 1:k - 1][::-1]     # W_lev, levels k-1 .. n0
            for j in times:
                s = excluded.peel(j)
                assert (s is None) == (j in excluded) == (j in nested), (n0, j)
                if s is not None:
                    copies, p = s
                    assert len(copies) == len(words) and 1 <= p <= base.N
                    bx, by = prefix_counts(base.W, p)
                    for c, w in zip(copies, words):
                        bx, by = bx + c * w.k, by + c * w.l
                    assert (bx, by) == prefix_counts(final.W, j)

    def test_exclusion_leak_raises(self, tiny_stages):
        # V_1 shrunk to one letter: the blocks' nested union misses the
        # rest of the block, so its sampled times land where the split
        # finds L_2 copies, and N_2 = L_2 N_1 + |V_1| no longer holds
        s1, s2 = tiny_stages
        forged = [s1, dataclasses.replace(s2, V=X)]
        for run in (restricted_covering, exact_covering):
            with pytest.raises(InvariantViolation) as err:
                run(forged, 1, sample_budget=200)
            assert err.value.name == "exclusion-leak"
            assert "inside a level-1 block" in err.value.detail

    def test_exclusion_leak_at_level_two(self, desk_stages):
        # the same forgery one level up, reached from either n0
        s1, s2, s3 = desk_stages
        forged = [s1, s2, dataclasses.replace(s3, V=X)]
        for n0 in (1, 2):
            with pytest.raises(InvariantViolation) as err:
                restricted_covering(forged, n0, sample_budget=200)
            assert err.value.name == "exclusion-leak"
            assert "inside a level-2 block" in err.value.detail


@settings(max_examples=25, deadline=None)
@given(m=st.integers(1, 6), e=st.integers(10, 24), r=st.integers(2, 3))
def test_two_stage_properties(m, e, r):
    cfg = ThinConfig(m=m, eps1=Fraction(1, 2 ** e), rho=lambda n, r=r: r)
    s1, s2 = build_stages(cfg, 2)
    assert s2.eps == s1.eps ** r
    assert mod1(s2.k * s2.alpha + s2.l * s2.beta) == s2.eps
    assert mod1(s1.k * s2.alpha + s1.l * s2.beta) == s1.eps
    assert prefix_counts(s2.W, s1.N) == s1.W.counts
    _, T = choose_L(s1.eps, s1.N, 1)
    assert s2.N <= T
    band = Fraction(3, 5)
    assert band < Fraction(s2.k, s2.l) < 1 / band

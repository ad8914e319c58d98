"""Tower construction tests.

The oracle for the repair solve is a from-scratch reimplementation in
this file: materialize the words as plain strings, count letters with
str.count, solve the 2x2 system by Cramer's rule, and walk the orbit
letter by letter with Fraction arithmetic.  Module results must match
exactly.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from abset.dimension import assouad_probe_windows, grid_covering, maximal_separated_subset
from abset.errors import InvariantViolation, UsageError
from abset.katznelson import (
    DimensionBracket,
    KStage,
    Schedule,
    advance,
    build_stages,
    dimension_bracket,
    enumerate_E,
    frequency_matrix,
    gamma_report,
    stage1,
    verify_stage,
)
from abset.words import evaluate_end, letters


def spell(w) -> str:
    return "".join(letters(w))


def walk_end(word_str, alpha, beta):
    val = Fraction(0)
    for ch in word_str:
        val = (val + (alpha if ch == "x" else beta)) % 1
    return val


def cramer_repair(u_str, v_str, eps_prev):
    """Independent solve: make both words close after a (s, t) shift."""
    ax, ay = u_str.count("x"), u_str.count("y")
    bx, by = v_str.count("x"), v_str.count("y")
    det = ax * by - ay * bx
    s = Fraction(eps_prev * by - eps_prev * ay, det)
    t = Fraction(ax * eps_prev - bx * eps_prev, det)
    return s, t


class TestStageOne:
    def test_example_2_3(self):
        s = stage1(2, 3)
        assert (s.alpha, s.beta) == (Fraction(1, 10), Fraction(3, 10))
        assert (s.eps, s.eta) == (Fraction(1, 10), Fraction(3, 10))
        assert s.delta_shift == 0
        assert spell(s.U) == "xxxxyy"
        assert spell(s.V) == "xyyy"
        assert spell(s.W) == "yyy"

    def test_example_2_2(self):
        s = stage1(2, 2)
        assert (s.alpha, s.beta) == (Fraction(1, 7), Fraction(2, 7))

    def test_base_words_close(self):
        s = stage1(5, 9)
        assert walk_end(spell(s.U), s.alpha, s.beta) == 0
        assert walk_end(spell(s.V), s.alpha, s.beta) == 0
        assert walk_end(spell(s.W), s.alpha, s.beta) == 1 - s.eps

    def test_stats_example(self):
        st_ = stage1(2, 3).stats
        assert (st_.sep_count_lower, st_.point_count_upper) == (3, 7)
        assert st_.min_gap_lower == Fraction(1, 10)
        assert st_.separation_verified

    def test_rejects_degenerate(self):
        with pytest.raises(UsageError):
            stage1(0, 3)
        with pytest.raises(UsageError):
            stage1(2, 1)


class TestAdvanceSmall:
    """stage1(2, 3) advanced with (M, N) = (4, 8); |U_2| = 73 letters."""

    def setup_method(self):
        self.s1 = stage1(2, 3)
        self.s2 = advance(self.s1, 4, 8)

    def test_against_string_oracle(self):
        u2, v2, w2 = (spell(w) for w in (self.s2.U, self.s2.V, self.s2.W))
        assert len(u2) == 73 and len(v2) == 29 and len(w2) == 23
        # word shapes straight from the recursion
        u1, v1, w1 = "xxxxyy", "xyyy", "yyy"
        assert w2 == v1 * 5 + w1
        assert v2 == u1 + w2
        assert u2 == u1 * 9 + v1 * 4 + w1
        s, t = cramer_repair(u2, v2, self.s1.eps)
        assert (s, t) == (self.s2.s, self.s2.t)
        alpha, beta = self.s1.alpha + s, self.s1.beta + t
        assert (alpha, beta) == (self.s2.alpha, self.s2.beta)
        assert walk_end(u2, alpha, beta) == 0
        assert walk_end(v2, alpha, beta) == 0
        assert walk_end(w2, alpha, beta) == (-self.s2.eps) % 1
        assert walk_end(u1, alpha, beta) == self.s2.eps
        assert walk_end(v1, alpha, beta) == self.s2.eta

    def test_frozen_values(self):
        s2 = self.s2
        assert (s2.alpha, s2.beta) == (Fraction(49, 503), Fraction(154, 503))
        assert (s2.s, s2.t) == (Fraction(-13, 5030), Fraction(31, 5030))
        assert s2.eps == Fraction(1, 503)
        assert s2.eta == 8 * s2.eps
        assert s2.delta_shift == Fraction(93, 5030)
        assert s2.c == Fraction(1, 37)
        assert s2.d == Fraction(8, 41)
        assert s2.c_star == Fraction(1, 41)

    def test_verification_report(self):
        v = verify_stage(self.s2, self.s1)
        assert v.closure_u and v.closure_v and v.eta_relation
        assert v.ratio == Fraction(320, 503)
        assert v.ratio_within_16_over_m
        assert v.measured_c_shift == Fraction(496, 503)
        assert v.measured_c_delta == Fraction(372, 503)
        # the printed small-constant form disagrees with the exact
        # recursion; the starred variant and d are the consistent ones
        assert v.c_printed_consistent is False
        assert v.c_star_consistent is True
        assert v.d_consistent is True

    def test_stats_recursion(self):
        st2 = self.s2.stats
        assert st2.sep_count_lower == 3 * 8
        assert st2.point_count_upper == 7 * 14
        assert st2.min_gap_lower == self.s2.eps

    def test_rejects_degenerate(self):
        with pytest.raises(UsageError):
            advance(self.s1, 0, 8)
        with pytest.raises(UsageError):
            advance(self.s1, 4, 1)


class TestEnumerate:
    def test_e1_points(self):
        sample = enumerate_E(stage1(2, 3))
        assert sample.points() == [Fraction(k, 10) for k in (0, 1, 2, 3, 4, 7)]
        assert sample.indices() == [0, 1, 2, 3, 4, 5]

    def test_cap_refusal(self):
        s2 = advance(stage1(2, 3), 4, 8)
        with pytest.raises(UsageError):
            enumerate_E(s2, cap=50)

    def test_matches_walk(self):
        s2 = advance(stage1(2, 3), 4, 8)
        sample = enumerate_E(s2)
        seen = {}
        val = Fraction(0)
        seen[val] = 0
        for i, ch in enumerate(spell(s2.U), start=1):
            val = (val + (s2.alpha if ch == "x" else s2.beta)) % 1
            seen.setdefault(val, i)
        assert sample.points() == sorted(seen)
        assert sample.indices() == [seen[p] for p in sorted(seen)]


class TestFrequency:
    def test_stage1_example(self):
        (row_u, row_v), dist = frequency_matrix(stage1(2, 3))
        assert row_u == (Fraction(2, 3), Fraction(1, 3))
        assert row_v == (Fraction(1, 4), Fraction(3, 4))
        assert dist == Fraction(1, 3)

    def test_ramp_start_is_near_identity(self):
        _, dist = frequency_matrix(stage1(*Schedule.paper(2).pair(1)))
        assert dist < Fraction(1, 2 ** 12)


@pytest.fixture(scope="module")
def desk_stages():
    return build_stages(Schedule.explicit(((32, 64), (256, 1024))), 2)


class TestDeskSchedule:
    """Explicit schedule ((32, 64), (256, 1024))."""

    def test_frozen_stage1(self, desk_stages):
        stages = desk_stages
        assert stages[0].alpha == Fraction(1, 2113)
        assert stages[0].U.length == 97

    def test_frozen_stage2(self, desk_stages):
        stages = desk_stages
        s2 = stages[1]
        assert s2.U.length == 108162
        assert (s2.U.counts.x, s2.U.counts.y) == (66881, 41281)
        assert s2.eps == Fraction(1, 558272544)
        assert s2.eta == 1024 * s2.eps

    def test_stats(self, desk_stages):
        stages = desk_stages
        st2 = stages[1].stats
        assert st2.sep_count_lower == 64 * 1024 == 65536
        assert st2.point_count_upper == 98 * 1282 == 125636
        assert st2.separation_verified

    def test_enumeration_all_distinct(self, desk_stages):
        stages = desk_stages
        sample = enumerate_E(stages[1], cap=200_000)
        # every prefix lands somewhere new until the final closure
        assert len(sample) == stages[1].U.length == 108162
        # the points are eps_2-separated, and some gap is exactly eps_2
        nums, den = sample.numerators, sample.den
        gaps = [b - a for a, b in zip(nums, nums[1:])] + [den + nums[0] - nums[-1]]
        assert Fraction(min(gaps), den) == stages[1].eps

    def test_estimators_build_no_fraction_per_point(self, desk_stages, monkeypatch):
        # criterion 2's pipeline keeps the points as integer numerators
        # from the walk to the estimators' results; one Fraction per
        # point anywhere on the way would count past 10^5
        made = []
        new = Fraction.__new__

        def counted(cls, *args, **kwargs):
            made.append(cls)
            return new(cls, *args, **kwargs)

        last = desk_stages[1]
        monkeypatch.setattr(Fraction, "__new__", counted)
        pts = enumerate_E(last).points()
        cells = grid_covering(pts, last.eps)
        separated = maximal_separated_subset(pts, last.eps / 2)
        window = assouad_probe_windows(pts, [(Fraction(1, 16), Fraction(1, 256))],
                                       anchor_cap=512)
        monkeypatch.undo()
        assert len(pts) == cells == len(separated) == 108162
        assert window[0]["anchors_total"] == 108162
        assert 0 < len(made) < 100

    def test_gamma_sums(self, desk_stages):
        rep = gamma_report(Schedule.explicit(((32, 64), (256, 1024))), 2)
        assert rep["sum_m_over_n"] == Fraction(3, 4)
        assert rep["sum_prev_n_over_m"] == Fraction(9, 32)
        assert rep["gamma_budget"] is None

    def test_bracket(self, desk_stages):
        stages = desk_stages
        br = dimension_bracket(stages)
        assert br.sep_count == 65536 and br.point_count == 125636
        assert 0.5506 < br.lower < 0.5507
        assert 0.5829 < br.upper < 0.5830
        assert br.lower < br.upper


class TestRampSchedule:
    def test_pair_exponents(self):
        sched = Schedule.paper(2)
        assert sched.pair(1) == (2 ** 36, 2 ** 49)
        assert sched.pair(2) == (2 ** 64, 2 ** 81)

    def test_eps_ratio_tracks_product(self):
        stages = build_stages(Schedule.paper(2), 2)
        v = verify_stage(stages[1], stages[0])
        assert v.ratio_distance < Fraction(1, 2 ** 30)
        assert v.u_drift_ok and v.v_drift_ok

    def test_gamma_within_budget(self):
        rep = gamma_report(Schedule.paper(2), 3)
        assert rep["gamma_budget"] == Fraction(1, 256)
        assert rep["within_budget"] is True

    def test_guards(self):
        with pytest.raises(UsageError):
            Schedule.paper(0)
        with pytest.raises(UsageError):
            Schedule.explicit(((0, 5),))
        with pytest.raises(UsageError):
            Schedule.explicit(((2, 4),)).pair(2)


@settings(max_examples=30, deadline=None)
@given(
    m1=st.integers(1, 6), n1=st.integers(2, 8),
    dm=st.integers(2, 14), dn=st.integers(2, 20),
)
def test_advance_properties(m1, n1, dm, dn):
    s1 = stage1(m1, n1)
    m2, n2 = m1 + dm, n1 + dn
    s2 = advance(s1, m2, n2)
    assert s2.eta == n2 * s2.eps
    assert 0 < s2.eps < s1.eps
    assert s2.stats.sep_count_lower == n1 * n2
    assert s2.stats.point_count_upper == (m1 + n1 + 2) * (m2 + n2 + 2)
    if s2.U.length <= 4000:
        u2 = spell(s2.U)
        assert walk_end(u2, s2.alpha, s2.beta) == 0
        s, t = cramer_repair(u2, spell(s2.V), s1.eps)
        assert (s, t) == (s2.s, s2.t)


@settings(max_examples=10, deadline=None)
@given(m1=st.integers(1, 4), n1=st.integers(2, 5), step=st.integers(2, 6))
def test_three_stage_chain(m1, n1, step):
    sched = Schedule.explicit((
        (m1, n1), (m1 + step, n1 + step), (m1 + 3 * step, n1 + 3 * step),
    ))
    stages = build_stages(sched, 3)
    last = stages[-1]
    assert evaluate_end(last.U, last.alpha, last.beta) == 0
    assert evaluate_end(last.V, last.alpha, last.beta) == 0
    assert last.stats.point_count_upper == math.prod(
        m + n + 2 for m, n in sched.pairs)

"""Release-gate checks, one test per criterion.

Each test prints a single summary line (visible on failure or with -s)
and enforces its runtime budget with time.monotonic around the work.
Numeric brackets and counts are pinned; exact identities are asserted on
Fractions, never on floats.

Criterion 4 checks the deletion tower's covering and drift bounds at
level n0 = 2, where the horizon T = ceil(eps_n^(-1/n)) first keeps the
ladder L_n eps_n below sqrt(eps_n).  The drift leg runs on the desk
tower; the cell leg runs on a small tower whose sample outnumbers N_2,
since fewer than N_n0 samples cannot fill more than N_n0 cells.  The level-1 failure
stays a pinned finding in tests/test_thin_orbit.py (test_desk_level1_red);
the README's "Release checks" section has the numbers.
"""

import time
from fractions import Fraction

import mpmath

from abset import diophantine as dio
from abset.cli import main
from abset.dimension import (
    assouad_probe_windows,
    box_dim_series,
    circle_points,
    grid_covering,
    maximal_separated_subset,
    successive_slopes,
)
from abset.katznelson import (
    Schedule,
    build_stages,
    dimension_bracket,
    enumerate_E,
    frequency_matrix,
    verify_stage,
)
from abset.thin_orbit import (
    ThinConfig,
    build_stages as build_thin_stages,
    deleted_union,
    restricted_covering,
)
from abset.words import evaluate_end, parse_word

DESK_PAIRS = [(32, 64), (256, 1024)]


def _line(tag: str, ok: bool, elapsed: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{tag}: {status} ({elapsed:.2f} s) {detail}")


def test_criterion_1_closed_orbit_tower_exact_identities():
    t0 = time.monotonic()
    stages = build_stages(Schedule.explicit(DESK_PAIRS), 2)
    closures = [
        (evaluate_end(st.U, st.alpha, st.beta), evaluate_end(st.V, st.alpha, st.beta))
        for st in stages
    ]
    eta_ok = all(st.eta == st.N * st.eps for st in stages)
    ratio = stages[1].eps * stages[1].M * stages[1].N / stages[0].eps
    ratio_tol = Fraction(16, stages[1].M)
    elapsed = time.monotonic() - t0

    ok = (
        all(u == 0 and v == 0 for u, v in closures)
        and eta_ok
        and abs(ratio - 1) <= ratio_tol
    )
    _line(
        "criterion 1",
        ok,
        elapsed,
        f"closures {closures}, |ratio-1| = {float(abs(ratio - 1)):.3e} "
        f"<= {float(ratio_tol):.3e}",
    )
    assert all(u == 0 and v == 0 for u, v in closures)
    assert eta_ok
    assert abs(ratio - 1) <= ratio_tol
    assert elapsed < 1.0, f"budget 1 s exceeded: {elapsed:.2f} s"


def test_criterion_2_enumerated_bracket_and_packing():
    t0 = time.monotonic()
    stages = build_stages(Schedule.explicit(DESK_PAIRS), 2)
    last = stages[1]
    sample = enumerate_E(last)
    points = sample.points()
    count = grid_covering(points, last.eps)
    bracket = dimension_bracket(stages)
    with mpmath.workprec(128):
        log_inv_eps = mpmath.log(last.eps.denominator) - mpmath.log(last.eps.numerator)
        measured = float(mpmath.log(count) / log_inv_eps)
    separated = maximal_separated_subset(points, last.eps / 2)
    elapsed = time.monotonic() - t0

    ok = (
        len(points) <= 125_636
        and bracket.lower <= measured <= bracket.upper
        and len(separated) >= 65_536
    )
    _line(
        "criterion 2",
        ok,
        elapsed,
        f"{len(points)} points, measured {measured:.6f} in "
        f"[{bracket.lower:.6f}, {bracket.upper:.6f}], separated {len(separated)}",
    )
    assert last.stats.point_count_upper == 98 * 1282 == 125_636
    assert len(points) <= 125_636
    # the bracket itself must sit where the coarse readings say it does
    assert 0.550 < bracket.lower < 0.552
    assert 0.582 < bracket.upper < 0.584
    assert bracket.lower <= measured <= bracket.upper
    assert last.stats.sep_count_lower == 64 * 1024 == 65_536
    assert len(separated) >= 65_536
    assert elapsed < 5.0, f"budget 5 s exceeded: {elapsed:.2f} s"


def test_criterion_3_structural_bracket_trend():
    t0 = time.monotonic()
    schedule = Schedule.paper(2)
    stages = build_stages(schedule, 4)
    brackets = [dimension_bracket(stages[:n]) for n in range(1, 5)]
    freq_dists = [frequency_matrix(st)[1] for st in stages]
    drift_checks = [verify_stage(b, a) for a, b in zip(stages, stages[1:])]
    elapsed = time.monotonic() - t0

    lower_seq = [b.lower for b in brackets]
    upper_seq = [b.upper for b in brackets]
    final_in_band = 0.50 <= brackets[-1].lower and brackets[-1].upper <= 0.56
    monotone = all(a >= b for a, b in zip(lower_seq, lower_seq[1:])) and all(
        a >= b for a, b in zip(upper_seq, upper_seq[1:])
    )
    freq_ok = all(d <= Fraction(1, 10) for d in freq_dists)
    drift_ok = all(
        v.u_freq_drift <= v.u_drift_bound and v.u_drift_ok for v in drift_checks
    )
    ok = final_in_band and monotone and freq_ok and drift_ok
    _line(
        "criterion 3",
        ok,
        elapsed,
        f"upper endpoints {[f'{u:.4f}' for u in upper_seq]}, "
        f"max freq distance {float(max(freq_dists)):.2e}",
    )
    assert final_in_band, (brackets[-1].lower, brackets[-1].upper)
    assert monotone, (lower_seq, upper_seq)
    assert freq_ok
    assert drift_ok
    assert elapsed < 10.0, f"budget 10 s exceeded: {elapsed:.2f} s"


def test_criterion_4_thin_orbit_desk_run():
    t0 = time.monotonic()
    stages = build_thin_stages(ThinConfig.desk(), 3)
    landing = all(evaluate_end(st.W, st.alpha, st.beta) == st.eps for st in stages)
    preserved = all(
        evaluate_end(a.W, b.alpha, b.beta) == a.eps for a, b in zip(stages, stages[1:])
    )
    balance = True
    for st in stages:
        lo = Fraction(st.n + 1, 2 * st.n + 1)
        balance = balance and lo < Fraction(st.W.counts.x, st.W.counts.y) < 1 / lo

    # drift at level 2 of the desk tower: eps_2 = 2^-160
    covering = restricted_covering(stages, 2, sample_budget=100_000, seed=20260823)
    sqrt_eps2 = Fraction(1, 2 ** 80)
    assert covering["scale"] == 2 * sqrt_eps2
    assert covering["scale_exact_sqrt"]
    assert covering["samples_random"] >= 100_000
    drift_ok = covering["max_drift"] < sqrt_eps2

    # cells at level 2 of a small tower (eps_2 = 2^-36), where the sample
    # outnumbers N_2 and a count above the bound is possible
    small = build_thin_stages(
        ThinConfig(m=3, eps1=Fraction(1, 2 ** 12), rho=lambda n: 3), 3
    )
    small_cov = restricted_covering(small, 2, sample_budget=100_000, seed=20260823)
    bound = small[1].N
    samples = small_cov["samples_random"] + small_cov["samples_deterministic"]
    assert small_cov["scale"] == 2 * Fraction(1, 2 ** 18)
    assert small_cov["scale_exact_sqrt"]
    assert samples > bound
    cells_ok = small_cov["cells_restricted"] <= bound
    contrast_ok = small_cov["cells_unrestricted"] > bound

    horizon = stages[-1].N
    d1 = deleted_union(stages, 1).density_up_to(horizon)
    d2 = deleted_union(stages, 2).density_up_to(horizon)
    density_ok = d1 > d2 > 0
    elapsed = time.monotonic() - t0

    legs = {
        "landing-exact": landing,
        "landing-preserved": preserved,
        "symbol-balance": balance,
        "sampled-drift<sqrt(eps2)": drift_ok,
        "restricted-covering<=N_2": cells_ok,
        "unrestricted-covering>N_2": contrast_ok,
        "deleted-density-decreasing": density_ok,
    }
    failing = [name for name, good in legs.items() if not good]
    _line(
        "criterion 4",
        not failing,
        elapsed,
        f"level {covering['n0']}: desk max drift "
        f"{float(covering['max_drift']):.3e} vs {float(sqrt_eps2):.3e}; "
        f"small-tower cells {small_cov['cells_restricted']} restricted, "
        f"{small_cov['cells_unrestricted']} unrestricted vs N_2 = {bound} "
        f"over {samples} samples; "
        f"densities {float(d1):.3e} > {float(d2):.3e}",
    )
    assert elapsed < 120.0, f"budget 120 s exceeded: {elapsed:.2f} s"
    assert not failing, f"red legs: {failing}"


def test_criterion_5_surd_pair_scans():
    t0 = time.monotonic()
    alpha = dio.parse_value("sqrt(2) - 1")
    beta = dio.parse_value("sqrt(3) - 1")
    records = dio.minima_sequence(alpha, beta, 500, 256)
    ratio = dio.integer_ratio_scan(records, tol=Fraction(1, 2 ** 64))
    word = parse_word("( ( x y ) ^ 250 )")
    separation = dio.orbit_separation_check(word, alpha, beta, records[:499], 256)
    dich = dio.dichotomy_scan(word, alpha, beta, records, dio.ProbeParams(), 256)
    elapsed = time.monotonic() - t0

    ok = (
        not ratio.violations
        and not separation.violations
        and dich.violation_total == 0
    )
    _line(
        "criterion 5",
        ok,
        elapsed,
        f"ratio {len(ratio.qualifying)} qualifying / {len(ratio.violations)} bad, "
        f"separation {separation.pairs_checked} pairs / "
        f"{len(separation.violations)} bad, "
        f"dichotomy {len(dich.qualifying)} qualifying / {dich.violation_total} bad",
    )
    assert word.length == 500
    assert not ratio.violations
    assert not separation.violations
    assert dich.violation_total == 0
    assert elapsed < 10.0, f"budget 10 s exceeded: {elapsed:.2f} s"


def test_criterion_6_estimator_calibration():
    t0 = time.monotonic()
    reciprocals = [Fraction(1, k) for k in range(1, 100_001)]
    points = circle_points(reciprocals)   # keyed once for both estimators
    report = box_dim_series(points, [Fraction(1, 4 ** j) for j in range(4, 9)])
    slopes = successive_slopes(report.rows)
    windows = assouad_probe_windows(points, [(Fraction(1, 16), Fraction(1, 256))])
    # claim 3's probe on the desk pair's own orbit, at every minimal n
    alpha = dio.parse_value("sqrt(2) - 1")
    beta = dio.parse_value("sqrt(3) - 1")
    records = dio.minima_sequence(alpha, beta, 500, 256)
    lower = dio.assouad_lower_probe(
        dio.orbit_of_word("xy" * 250, alpha, beta, 256),
        None,
        records,
        dio.ProbeParams(),
        [r.n for r in records if r.minimal],
    )
    elapsed = time.monotonic() - t0

    slopes_ok = all(0.45 <= s <= 0.55 for s in slopes)
    window_ok = windows[0]["log_ratio_float"] >= 0.8
    probed = [c for c in lower.cases if c.outcome != "skipped"]
    sep_bad = sum(c.sep_violations for c in lower.cases)
    sep_und = sum(c.sep_undecided for c in lower.cases)
    probe_ok = (lower.implied_exponent_limit == Fraction(1, 4)
                and bool(probed) and sep_bad == sep_und == 0)
    _line(
        "criterion 6",
        slopes_ok and window_ok and probe_ok,
        elapsed,
        f"slopes {[f'{s:.4f}' for s in slopes]}, "
        f"window ratio {windows[0]['log_ratio_float']:.4f}, "
        f"probe limit {lower.implied_exponent_limit}, "
        f"{len(probed)} of {len(lower.cases)} minimal n probed, "
        f"{sep_bad} violations, {sep_und} undecided, exponents "
        f"{[f'{c.outcome} {float(c.exponent_dec):.4f}' for c in probed]}",
    )
    assert report.counts() == [31, 63, 127, 255, 511]
    assert slopes_ok, slopes
    assert window_ok, windows[0]
    assert lower.exponent_at_params == Fraction(49, 200)
    assert probed, lower.cases
    assert sep_bad == 0 and sep_und == 0, (sep_bad, sep_und)
    assert probe_ok
    assert elapsed < 5.0, f"budget 5 s exceeded: {elapsed:.2f} s"


def test_criterion_7_cli_determinism(capsys, tmp_path):
    t0 = time.monotonic()
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    rc1 = main(["verify-all", "--profile", "desk", "--out", str(first)])
    rc2 = main(["verify-all", "--profile", "desk", "--out", str(second)])
    capsys.readouterr()
    identical = first.read_bytes() == second.read_bytes()
    elapsed = time.monotonic() - t0

    _line(
        "criterion 7",
        rc1 == 0 and rc2 == 0 and identical,
        elapsed,
        f"exit codes ({rc1}, {rc2}), byte-identical {identical}",
    )
    assert rc1 == 0
    assert rc2 == 0
    assert identical

"""Katznelson-style tower of closed two-rotation orbits.

Each stage holds a rotation pair (alpha, beta) and three words U, V, W
with exact closure: U and V evaluate to 0 mod 1, while W lands at
-eps mod 1, one small step short of closing.  Advancing a stage builds
the next words

    W_n = V_{n-1}^(M_n + 1) W_{n-1}
    V_n = U_{n-1} W_n
    U_n = U_{n-1}^(N_n + 1) V_{n-1}^(M_n) W_{n-1}

and repairs (alpha, beta) by the exact solution of the 2x2 system that
makes both new words close.  The system rows are precisely the letter
counts of U_n and V_n, so closure of the new stage is an identity, and
the step sizes obey eta_n = N_n * eps_n exactly.

All stage arithmetic is Fraction-exact; only dimension_bracket logs go
through mpmath at a pinned precision.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import mpmath

from .dimension import DEFAULT_PREC_BITS, LOG_DIGITS, CirclePoints
from .errors import InvariantViolation, UsageError
from .exact import common_units, mod1
from .words import (
    WordExpr,
    Y,
    block,
    concat,
    evaluate_end,
    letters,
    power,
)

ENUMERATION_CAP = 200_000     # longest U_n that enumerate_E walks letter by letter


@dataclass(frozen=True)
class StructStats:
    """Exact structural bounds carried along the tower.

    sep_count_lower:   product of N's; a guaranteed packing count.
    point_count_upper: product of (M + N + 2); caps distinct orbit points.
    min_gap_lower:     eps_n, valid while separation_verified holds.
    diameter_upper:    bound on the spread of all three words' trajectories.
    shift_allowance:   max movement of any old orbit point under this
                       stage's (s, t) repair.
    """

    sep_count_lower: int
    point_count_upper: int
    min_gap_lower: Fraction
    diameter_upper: Fraction
    shift_allowance: Fraction
    separation_verified: bool


@dataclass(frozen=True)
class KStage:
    n: int
    M: int
    N: int
    alpha: Fraction
    beta: Fraction
    eps: Fraction
    eta: Fraction
    delta_shift: Fraction      # movement of the previous W value, 0 at stage 1
    U: WordExpr
    V: WordExpr
    W: WordExpr
    c: Fraction                # 1 / (M(1+N) + 1), stored as printed
    d: Fraction                # N / (N(1+M) + 1)
    c_star: Fraction           # 1 / (N(1+M) + 1); the one eps actually obeys
    s: Fraction                # alpha repair applied entering this stage
    t: Fraction                # beta repair
    stats: Optional[StructStats]


@dataclass(frozen=True)
class Schedule:
    """Parameter schedule (M_n, N_n).  kind 'paper' uses the doubly
    exponential ramp M_n = 2^(2(n+L))^2, N_n = 2^(2(n+L)+1)^2 with a
    tail budget gamma = 2^-4L; kind 'list' is explicit."""

    kind: str
    L: Optional[int] = None
    pairs: Tuple[Tuple[int, int], ...] = ()

    def pair(self, n: int) -> Tuple[int, int]:
        if n < 1:
            raise UsageError("stage numbers start at 1")
        if self.kind == "paper":
            k = 2 * (n + self.L)
            return (2 ** (k * k), 2 ** ((k + 1) * (k + 1)))
        if n > len(self.pairs):
            raise UsageError(f"schedule has {len(self.pairs)} stages; asked for {n}")
        return self.pairs[n - 1]

    @property
    def gamma_budget(self) -> Optional[Fraction]:
        if self.kind == "paper":
            return Fraction(1, 2 ** (4 * self.L))
        return None

    @classmethod
    def paper(cls, L: int) -> "Schedule":
        if L < 1:
            raise UsageError("paper schedule needs L >= 1")
        return cls(kind="paper", L=L)

    @classmethod
    def explicit(cls, pairs: Sequence[Tuple[int, int]]) -> "Schedule":
        pairs = tuple((int(m), int(n)) for m, n in pairs)
        for m, n in pairs:
            if m < 1 or n < 2:
                raise UsageError(f"need M >= 1 and N >= 2, got ({m}, {n})")
        return cls(kind="list", pairs=pairs)


def _constants(M: int, N: int):
    c = Fraction(1, M * (1 + N) + 1)
    d = Fraction(N, N * (1 + M) + 1)
    c_star = Fraction(1, N * (1 + M) + 1)
    return c, d, c_star


def stage1(M1: int, N1: int) -> KStage:
    """First stage: alpha = 1/(1 + N1(M1+1)), beta = N1*alpha, with
    U_1 = x^(N1+1) y^M1, V_1 = x y^(M1+1), W_1 = y^(M1+1)."""
    if M1 < 1 or N1 < 2:
        raise UsageError("stage1 needs M1 >= 1 and N1 >= 2")
    alpha = Fraction(1, 1 + N1 * (M1 + 1))
    beta = N1 * alpha
    eps = alpha
    eta = beta
    u = block(N1 + 1, M1)
    v = block(1, M1 + 1)
    w = power(Y, M1 + 1)
    if evaluate_end(u, alpha, beta) != 0 or evaluate_end(v, alpha, beta) != 0:
        raise InvariantViolation("stage1-closure", "base words fail to close")
    assert eta == N1 * eps
    assert evaluate_end(w, alpha, beta) == 1 - eps
    c, d, c_star = _constants(M1, N1)
    stats = StructStats(
        sep_count_lower=N1,
        point_count_upper=M1 + N1 + 2,
        min_gap_lower=eps,          # all stage-1 points are multiples of alpha
        diameter_upper=1 - alpha,   # bounds U, V and W trajectories
        shift_allowance=Fraction(0),
        separation_verified=True,
    )
    return KStage(n=1, M=M1, N=N1, alpha=alpha, beta=beta, eps=eps, eta=eta,
                  delta_shift=Fraction(0), U=u, V=v, W=w, c=c, d=d,
                  c_star=c_star, s=Fraction(0), t=Fraction(0), stats=stats)


def advance(prev: KStage, M: int, N: int) -> KStage:
    """Build stage n+1 from stage n with parameters (M, N)."""
    if M < 1 or N < 2:
        raise UsageError("advance needs M >= 1 and N >= 2")
    w_new = concat(power(prev.V, M + 1), prev.W)
    v_new = concat(prev.U, w_new)
    u_new = concat(concat(power(prev.U, N + 1), power(prev.V, M)), prev.W)

    mu_u, mu_v, mu_w = prev.U.counts, prev.V.counts, prev.W.counts
    row_u, row_v = u_new.counts, v_new.counts
    # the construction must realize the printed letter-count recursions
    if row_u != mu_u.scaled(N + 1).plus(mu_v.scaled(M)).plus(mu_w):
        raise InvariantViolation("count-recursion-U")
    if row_v != mu_u.plus(mu_v.scaled(M + 1)).plus(mu_w):
        raise InvariantViolation("count-recursion-V")

    det = row_u.x * row_v.y - row_u.y * row_v.x
    if det == 0:
        raise InvariantViolation("repair-system-singular",
                                 f"degenerate count rows at stage {prev.n + 1}")
    # solve  row_u . (s, t) = eps_prev,  row_v . (s, t) = eps_prev
    s = prev.eps * (row_v.y - row_u.y) / det
    t = prev.eps * (row_u.x - row_v.x) / det
    alpha = prev.alpha + s
    beta = prev.beta + t
    if not (0 < alpha < 1 and 0 < beta < 1):
        raise InvariantViolation("rotation-range",
                                 f"repaired pair left (0,1): {alpha}, {beta}")

    eps = s * mu_u.x + t * mu_u.y
    eta = s * mu_v.x + t * mu_v.y
    delta = s * mu_w.x + t * mu_w.y
    if eps <= 0 or eta <= 0:
        raise InvariantViolation("step-positivity",
                                 f"eps={eps}, eta={eta} at stage {prev.n + 1}")
    if eta != N * eps:
        raise InvariantViolation("eta-relation", f"eta != {N} * eps")
    # both closing equations, exactly
    if (N + 1) * eps + M * eta != prev.eps - delta:
        raise InvariantViolation("closing-equation-U")
    if eps + (M + 1) * eta != prev.eps - delta:
        raise InvariantViolation("closing-equation-V")
    # independent re-evaluation through the word DAG
    if evaluate_end(u_new, alpha, beta) != 0:
        raise InvariantViolation("closure-U", f"stage {prev.n + 1}")
    if evaluate_end(v_new, alpha, beta) != 0:
        raise InvariantViolation("closure-V", f"stage {prev.n + 1}")
    if evaluate_end(w_new, alpha, beta) != mod1(-eps):
        raise InvariantViolation("closing-step-W",
                                 "W must stop one eps short of closing")
    if evaluate_end(prev.U, alpha, beta) != mod1(eps):
        raise InvariantViolation("eps-is-old-U-value")
    if evaluate_end(prev.V, alpha, beta) != mod1(eta):
        raise InvariantViolation("eta-is-old-V-value")

    # length sandwich
    lv_prev, lu_prev, lv, lu = prev.V.length, prev.U.length, v_new.length, u_new.length
    if not ((M + 2) * lv_prev < lv < (M + 2) * lu_prev):
        raise InvariantViolation("length-sandwich-V")
    if not ((N + M + 1) * lv_prev < lu < (N + M + 2) * lu_prev):
        raise InvariantViolation("length-sandwich-U")

    c, d, c_star = _constants(M, N)
    if eps != c_star * (prev.eps - delta):
        raise InvariantViolation("eps-recursion",
                                 "eps_n != (eps_prev - delta) / (N(1+M)+1)")

    shift = mu_u.x * abs(s) + mu_u.y * abs(t)
    prev_stats = prev.stats
    sep_ok = (prev_stats.separation_verified
              and prev_stats.min_gap_lower - 2 * shift > N * eps)
    stats = StructStats(
        sep_count_lower=prev_stats.sep_count_lower * N,
        point_count_upper=prev_stats.point_count_upper * (M + N + 2),
        min_gap_lower=eps,
        diameter_upper=min(Fraction(1),
                           prev_stats.diameter_upper + 2 * shift + (prev.eps - delta)),
        shift_allowance=shift,
        separation_verified=sep_ok,
    )
    return KStage(n=prev.n + 1, M=M, N=N, alpha=alpha, beta=beta, eps=eps,
                  eta=eta, delta_shift=delta, U=u_new, V=v_new, W=w_new,
                  c=c, d=d, c_star=c_star, s=s, t=t, stats=stats)


def build_stages(schedule: Schedule, stages: int) -> List[KStage]:
    if stages < 1:
        raise UsageError("need at least one stage")
    m1, n1 = schedule.pair(1)
    out = [stage1(m1, n1)]
    for n in range(2, stages + 1):
        m, nn = schedule.pair(n)
        out.append(advance(out[-1], m, nn))
    return out


def frequency_matrix(stage: KStage):
    """Letter-frequency rows of (U_n, V_n) and their sup distance from
    the identity matrix."""
    u, v = stage.U.counts, stage.V.counts
    row_u = (Fraction(u.x, u.total()), Fraction(u.y, u.total()))
    row_v = (Fraction(v.x, v.total()), Fraction(v.y, v.total()))
    dist = max(abs(row_u[0] - 1), abs(row_u[1]), abs(row_v[0]), abs(row_v[1] - 1))
    return (row_u, row_v), dist


@dataclass(frozen=True)
class StageVerification:
    """Report-style re-check of one advance; nothing here raises."""

    n: int
    closure_u: bool
    closure_v: bool
    eta_relation: bool
    ratio: Optional[Fraction]               # eps_n * M * N / eps_prev
    ratio_distance: Optional[Fraction]      # |ratio - 1|
    ratio_within_16_over_m: Optional[bool]
    measured_c_shift: Optional[Fraction]    # max(|s|,|t|) * M * |V_prev| / eps_prev
    measured_c_delta: Optional[Fraction]    # |delta| * M / eps_prev
    c_printed_consistent: Optional[bool]    # eps == c * (eps_prev - delta)
    c_star_consistent: Optional[bool]
    d_consistent: Optional[bool]            # eta == d * (eps_prev - delta)
    u_freq_drift: Optional[Fraction]        # sup-norm frequency drift U_n vs U_prev
    u_drift_bound: Optional[Fraction]       # 4 M_n / N_n
    u_drift_ok: Optional[bool]
    v_freq_drift: Optional[Fraction]
    v_drift_bound: Optional[Fraction]       # 16 N_prev / M_n
    v_drift_ok: Optional[bool]


def verify_stage(stage: KStage, prev: Optional[KStage]) -> StageVerification:
    closure_u = evaluate_end(stage.U, stage.alpha, stage.beta) == 0
    closure_v = evaluate_end(stage.V, stage.alpha, stage.beta) == 0
    eta_rel = stage.eta == stage.N * stage.eps
    if prev is None:
        return StageVerification(stage.n, closure_u, closure_v, eta_rel,
                                 *([None] * 14))
    ratio = stage.eps * stage.M * stage.N / prev.eps
    dist = abs(ratio - 1)
    within = dist <= Fraction(16, stage.M)
    shift_c = (max(abs(stage.s), abs(stage.t)) * stage.M * prev.V.length / prev.eps)
    delta_c = abs(stage.delta_shift) * stage.M / prev.eps
    c_printed = stage.eps == stage.c * (prev.eps - stage.delta_shift)
    c_star_ok = stage.eps == stage.c_star * (prev.eps - stage.delta_shift)
    d_ok = stage.eta == stage.d * (prev.eps - stage.delta_shift)

    def freq_drift(word, prev_word):
        a, b = word.counts, prev_word.counts
        return max(abs(Fraction(a.x, a.total()) - Fraction(b.x, b.total())),
                   abs(Fraction(a.y, a.total()) - Fraction(b.y, b.total())))

    u_drift = freq_drift(stage.U, prev.U)
    u_bound = Fraction(4 * stage.M, stage.N)
    v_drift = freq_drift(stage.V, prev.V)
    v_bound = Fraction(16 * prev.N, stage.M)
    return StageVerification(
        stage.n, closure_u, closure_v, eta_rel, ratio, dist, within,
        shift_c, delta_c, c_printed, c_star_ok, d_ok,
        u_drift, u_bound, u_drift <= u_bound,
        v_drift, v_bound, v_drift <= v_bound,
    )


def gamma_report(schedule: Schedule, stages: int) -> dict:
    """Partial sums sum M_n/N_n and sum N_(n-1)/M_n (with N_0 = 1),
    reported against the schedule's tail budget when it has one."""
    s1 = Fraction(0)
    s2 = Fraction(0)
    prev_n = 1
    for n in range(1, stages + 1):
        m, nn = schedule.pair(n)
        s1 += Fraction(m, nn)
        s2 += Fraction(prev_n, m)
        prev_n = nn
    budget = schedule.gamma_budget
    return {
        "sum_m_over_n": s1,
        "sum_prev_n_over_m": s2,
        "gamma_budget": budget,
        "within_budget": (None if budget is None
                          else bool(s1 <= budget and s2 <= budget)),
    }


class OrbitSample(CirclePoints):
    """An orbit's distinct points as `enumerate_E` makes them: integer keys
    strictly increasing in [0, den), with no per-point `Fraction`."""

    __slots__ = ()

    def points(self) -> "OrbitSample":
        return self


def enumerate_E(stage: KStage) -> OrbitSample:
    """All distinct orbit points of U_n: the walk's integer numerators over
    the lcm of the pair's denominators, sorted once.  Refuses
    |U_n| > ENUMERATION_CAP."""
    length = stage.U.length
    if length > ENUMERATION_CAP:
        raise UsageError(f"enumeration capped at {ENUMERATION_CAP} letters; "
                         f"|U| = {length}")
    common, step_x, step_y = common_units(stage.alpha, stage.beta)
    seen = {0}
    acc = 0
    for ch in letters(stage.U):
        acc = (acc + (step_x if ch == "x" else step_y)) % common
        seen.add(acc)
    if len(seen) > stage.stats.point_count_upper:
        raise InvariantViolation("point-count-upper",
                                 f"{len(seen)} > {stage.stats.point_count_upper}")
    return OrbitSample(sorted(seen), common)


@dataclass(frozen=True)
class DimensionBracket:
    lower: float
    upper: float
    lower_str: str
    upper_str: str
    sep_count: int
    point_count: int
    eps: Fraction


def dimension_bracket(stages: Sequence[KStage]) -> DimensionBracket:
    """[log prod N, log prod (M+N+2)] / log(1/eps_n) for the last stage."""
    last = stages[-1]
    sep = last.stats.sep_count_lower
    pts = last.stats.point_count_upper
    with mpmath.workprec(DEFAULT_PREC_BITS):
        log_inv_eps = (mpmath.log(last.eps.denominator)
                       - mpmath.log(last.eps.numerator))
        lo = mpmath.log(sep) / log_inv_eps
        hi = mpmath.log(pts) / log_inv_eps
        return DimensionBracket(float(lo), float(hi),
                                mpmath.nstr(lo, LOG_DIGITS),
                                mpmath.nstr(hi, LOG_DIGITS),
                                sep, pts, last.eps)

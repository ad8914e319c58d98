"""The deletion tower's stage step and drift-budget check on reduced
`Fraction`s, kept as the oracle of `thin_orbit.advance` and
`thin_orbit.build_stages`, which decide the same identities on integers
over one common denominator.

Every sum and product here is a reduced `Fraction`, so each pays a gcd
of the pair's denominators; the checks are written as the circle
identities they state, with `lift_half`, the circle lift that left
`exact` with this step.
"""

from fractions import Fraction
from typing import List

from abset import thin_orbit
from abset.errors import InvariantViolation, UsageError
from abset.exact import ceil_root, mod1
from abset.thin_orbit import TStage, ThinConfig, choose_L, init_stage
from abset.words import X, Y, concat, power, prefix_counts


def lift_half(fr) -> Fraction:
    """Representative of fr mod 1 in (-1/2, 1/2]."""
    m = mod1(fr)
    return m if m <= Fraction(1, 2) else m - 1


def advance(stage: TStage, config: ThinConfig) -> TStage:
    n = stage.n
    rho = config.rho_at(n + 1)
    target_bits = stage.eps.denominator.bit_length() * rho
    if target_bits > thin_orbit.MAX_EPS_BITS:
        raise UsageError(f"eps_{n + 1} outgrows the working cap")
    eps_next = stage.eps ** rho

    L, T = choose_L(stage.eps, stage.N, n)
    s = ceil_root(L, 2)
    k, l = stage.k, stage.l
    a_exp, b_exp = 2 * k - l, 2 * l + k
    if a_exp <= 0 or 2 * l - k <= 0:
        raise InvariantViolation("symbol-balance")
    v = power(concat(power(X, a_exp), power(Y, b_exp)), s)
    w_next = concat(power(stage.W, L), v)
    N_next = L * stage.N + v.length
    if N_next > T:
        raise InvariantViolation("horizon-overflow")

    k2, l2 = w_next.counts.x, w_next.counts.y
    if (k2, l2) != (L * k + s * a_exp, L * l + s * b_exp):
        raise InvariantViolation("count-recursion")
    lo_b = Fraction(n + 2, 2 * n + 3)
    if not lo_b < Fraction(k2, l2) < 1 / lo_b:
        raise UsageError(f"stage {n + 1} leaves the 2:1 count band")

    cur = mod1(k2 * stage.alpha + l2 * stage.beta)
    delta_val = lift_half(cur - eps_next)
    t = delta_val / (s * (k * k + l * l))
    alpha = stage.alpha + t * l
    beta = stage.beta - t * k
    if not (0 < alpha < 1 and 0 < beta < 1):
        raise InvariantViolation("rotation-range")

    if mod1(k2 * alpha + l2 * beta) != eps_next:
        raise InvariantViolation("landing")
    if mod1(k * alpha + l * beta) != mod1(k * stage.alpha + l * stage.beta):
        raise InvariantViolation("previous-word-moved")
    if prefix_counts(w_next, stage.N) != stage.W.counts:
        raise InvariantViolation("prefix-structure")
    g_prev = k * beta - l * alpha
    w_prev = k * alpha + l * beta
    if k2 * beta - l2 * alpha != (L + 2 * s) * g_prev - s * w_prev:
        raise InvariantViolation("imbalance-recursion")

    shift = abs(t) * max(k, l)
    within = shift * shift < stage.eps       # shift < sqrt(eps), exactly
    return TStage(n=n + 1, alpha=alpha, beta=beta, eps=eps_next, W=w_next,
                  N=N_next, k=k2, l=l2, L=L, s=s, V=v, t=t,
                  shift_sup=shift, shift_within_sqrt=within)


def check_drift_budget(stages: List[TStage]) -> None:
    """Every earlier word at the final pair lies within N_n times the sum
    of the shifts after the repair that fixed it of its own eps_n."""
    final = stages[-1]
    for st in stages[:-1]:
        val = mod1(st.k * final.alpha + st.l * final.beta)
        allowed = st.N * sum((s.shift_sup for s in stages[st.n + 1:]),
                             Fraction(0))
        if abs(lift_half(val - st.eps)) > allowed:
            raise InvariantViolation("drift-budget")


def build_stages(config: ThinConfig, n_stages: int) -> List[TStage]:
    stages = [init_stage(config)]
    for _ in range(n_stages - 1):
        stages.append(advance(stages[-1], config))
    check_drift_budget(stages)
    return stages

"""Deterministic command-line front door.

Five subcommands compose the library into reproducible runs:

  katznelson   closed-orbit tower stages with per-stage verification
  thin-orbit   deletion tower stages plus the restricted covering report
  dioph        minima, ratio, separation and dichotomy scans for a pair
  dim          covering-number series for built-in point fixtures
  verify-all   the desk-scale composition of the three check suites

Each command prints its check lines; without --out it then writes its
canonical JSON report to stdout, and with --out it writes the report
(a CSV table for dioph and dim) to that file.

Exit codes: 0 when every asserted invariant passed, 1 for usage errors
(the message names the offending token), 2 when a named invariant
failed.  A bound a run records but does not enforce prints a WARN line
when it is false and leaves the exit code alone.  Identical arguments
and seeds produce byte-identical reports.

--config FILE loads flag values from a JSON object keyed by long flag
names (plus an optional "subcommand" entry); flags given explicitly on
the command line override the file.
"""

import argparse
import json
import sys
from fractions import Fraction
from typing import List, Optional, Tuple

from . import dimension, diophantine, katznelson, thin_orbit
from .errors import InsufficientPrecision, InvariantViolation, UsageError
from .exact import dec_sci
from .reporting import VERSION, canonical_json, cell, write_csv, write_json
from .words import evaluate_end

Check = Tuple[str, bool, str]
Warn = Tuple[str, str]

# The closed-orbit tower that verify-all checks and `dim` can enumerate.
DESK_PAIRS = [(32, 64), (256, 1024)]


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract wants 1."""

    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# argument value parsers


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"bad {what} {text!r}: not an integer") from None


def _parse_schedule(text: str) -> katznelson.Schedule:
    """paper:L=<int> or list:M1,N1;M2,N2;..."""
    if text.startswith("paper:"):
        body = text[len("paper:"):]
        if not body.startswith("L="):
            raise UsageError(f"bad schedule {text!r}: expected paper:L=<int>")
        return katznelson.Schedule.paper(_parse_int(body[2:], "schedule L"))
    if text.startswith("list:"):
        pairs = []
        for chunk in text[len("list:"):].split(";"):
            parts = chunk.split(",")
            if len(parts) != 2:
                raise UsageError(
                    f"bad schedule entry {chunk!r}: expected M,N")
            pairs.append((_parse_int(parts[0], "schedule M"),
                          _parse_int(parts[1], "schedule N")))
        if not pairs:
            raise UsageError(f"bad schedule {text!r}: empty pair list")
        return katznelson.Schedule.explicit(pairs)
    raise UsageError(f"bad schedule {text!r}: expected paper:... or list:...")


def _parse_eps(text: str) -> Fraction:
    """2^-40 style powers, rationals p/q, or decimal literals."""
    if "^" in text:
        base_s, _, exp_s = text.partition("^")
        base = _parse_int(base_s, "eps base")
        exp = _parse_int(exp_s, "eps exponent")
        if base < 2:
            raise UsageError(f"bad eps {text!r}: base must be >= 2")
        value = Fraction(base) ** exp
    else:
        try:
            value = Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"bad eps {text!r}") from None
    if not 0 < value < 1:
        raise UsageError(f"bad eps {text!r}: need a value in (0, 1)")
    return value


def _parse_fixture(text: str):
    """inverse:<kmax> is {1/k : k <= kmax} with 0; grid:<n> is {k/n};
    closed-orbit:<stages> is the desk tower's enumerated orbit at a stage."""
    kind, _, arg = text.partition(":")
    size = _parse_int(arg, "fixture size")
    if size < 1:
        raise UsageError(f"bad fixture {text!r}: size must be positive")
    if kind == "inverse":
        return [Fraction(0)] + [Fraction(1, k) for k in range(size, 0, -1)]
    if kind == "grid":
        return [Fraction(k, size) for k in range(size)]
    if kind == "closed-orbit":
        try:
            stages = katznelson.build_stages(katznelson.Schedule.explicit(DESK_PAIRS), size)
            return katznelson.enumerate_E(stages[-1]).points()
        except UsageError as exc:
            raise UsageError(f"bad fixture {text!r}: {exc}") from None
    raise UsageError(f"bad fixture {text!r}: expected inverse:<k>, grid:<n> "
                     "or closed-orbit:<stages>")


# ---------------------------------------------------------------------------
# subcommand handlers


def _run_katznelson_checks(stages) -> Tuple[list, List[Check]]:
    checks: List[Check] = []
    payload = []
    prev = None
    for st in stages:
        ver = katznelson.verify_stage(st, prev)
        payload.append(ver)
        checks.append((f"closure-u-{st.n}", ver.closure_u,
                       "evaluate_end(U) = 0 exactly"))
        checks.append((f"closure-v-{st.n}", ver.closure_v,
                       "evaluate_end(V) = 0 exactly"))
        checks.append((f"eta-relation-{st.n}", ver.eta_relation,
                       f"eta = N eps with eta = {dec_sci(st.eta)}"))
        if prev is not None:
            bound = Fraction(16, st.M)
            ok = ver.ratio_distance is not None and ver.ratio_distance <= bound
            checks.append((f"ratio-bound-{st.n}", ok,
                           f"|eps M N / eps_prev - 1| = "
                           f"{dec_sci(ver.ratio_distance)} <= 16/M = "
                           f"{dec_sci(bound)}"))
            checks.append((f"u-drift-{st.n}", bool(ver.u_drift_ok),
                           f"sup drift {dec_sci(ver.u_freq_drift)} <= "
                           f"4M/N = {dec_sci(ver.u_drift_bound)}"))
        prev = st
    return payload, checks


def cmd_katznelson(args) -> Tuple[dict, List[Check], List[Warn]]:
    schedule = _parse_schedule(args.schedule)
    stages = katznelson.build_stages(schedule, args.stages)
    verification, checks = _run_katznelson_checks(stages)
    bracket = katznelson.dimension_bracket(stages)
    report = {
        "command": "katznelson",
        "config": {"schedule": args.schedule, "stages": args.stages},
        "stages": stages,
        "verification": verification,
        "bracket": bracket,
        "gamma": katznelson.gamma_report(schedule, args.stages),
    }
    return report, checks, []


def _thin_config(args) -> thin_orbit.ThinConfig:
    if args.paper_faithful:
        return thin_orbit.ThinConfig.faithful()
    return thin_orbit.ThinConfig(m=args.m, eps1=_parse_eps(args.eps1),
                                 rho=lambda n: args.decay)


def _run_thin_checks(stages) -> Tuple[List[Check], dict, List[Warn]]:
    """-> (checks, deleted density from each level up at the horizon,
    warnings)."""
    checks: List[Check] = []
    for idx, st in enumerate(stages):
        landing = evaluate_end(st.W, st.alpha, st.beta)
        checks.append((f"landing-exact-{st.n}", landing == st.eps,
                       f"W_{st.n}(alpha_{st.n}, beta_{st.n}) = "
                       f"{dec_sci(landing)}"))
        if idx + 1 < len(stages):
            nxt = stages[idx + 1]
            kept = evaluate_end(st.W, nxt.alpha, nxt.beta)
            checks.append((f"landing-preserved-{st.n}", kept == st.eps,
                           f"W_{st.n} under the stage-{nxt.n} pair lands at "
                           f"{dec_sci(kept)}"))
        lo = Fraction(st.n + 1, 2 * st.n + 1)
        balanced = lo < Fraction(st.k, st.l) < 1 / lo
        checks.append((f"symbol-balance-{st.n}", balanced,
                       f"x:y counts {st.k}:{st.l} inside the "
                       f"({lo}, {1 / lo}) band"))
    dens = {st.n: thin_orbit.deleted_union(stages, st.n)
            .density_up_to(stages[-1].N) for st in stages[:-1]}
    vals = list(dens.values())
    strictly = all(a > b for a, b in zip(vals, vals[1:]))
    checks.append(("deleted-density-decreasing", strictly or len(vals) < 2,
                   "densities " + ", ".join(dec_sci(d) for d in vals)))
    warns: List[Warn] = []
    if len(vals) < 2:
        warns.append(("density_trend_vacuous",
                      f"deleted-density-decreasing has {len(vals)} of the "
                      "2 densities a trend needs, so it cannot fail"))
    return checks, dens, warns


def _covering_warnings(covering: dict) -> List[Warn]:
    """The covering bounds a survey records but does not enforce, for each
    one that came out false, and the cell bound when too few samples were
    drawn for it to fail."""
    n0 = covering["n0"]
    bound = covering["cell_bound_claimed"]
    samples = covering["samples_random"] + covering["samples_deterministic"]
    out: List[Warn] = []
    if not covering["cell_bound_ok"]:
        out.append(("cell_bound_ok",
                    f"{covering['cells_restricted']} restricted cells > "
                    f"N_{n0} = {bound} at n0 = {n0}"))
    elif samples < bound:
        out.append(("cell_bound_vacuous",
                    f"{samples} samples < N_{n0} = {bound} at n0 = {n0}, "
                    f"so cells <= N_{n0} cannot fail"))
    if not covering["drift_bound_ok"]:
        out.append(("drift_bound_ok",
                    f"max drift {dec_sci(covering['max_drift'])} >= "
                    f"sqrt(eps_{n0}) at n0 = {n0}"))
    return out


def cmd_thin_orbit(args) -> Tuple[dict, List[Check], List[Warn]]:
    config = _thin_config(args)
    stages = thin_orbit.build_stages(config, args.stages)
    checks, dens, warns = _run_thin_checks(stages)
    covering = thin_orbit.restricted_covering(
        stages, args.n0, sample_budget=args.samples, seed=args.seed)
    report = {
        "command": "thin-orbit",
        "config": {"m": args.m, "eps1": args.eps1, "decay": args.decay,
                   "stages": args.stages, "n0": args.n0,
                   "samples": args.samples, "seed": args.seed,
                   "paper_faithful": args.paper_faithful},
        "stages": stages,
        "deleted_densities": dens,
        "covering": covering,
    }
    return report, checks, warns + _covering_warnings(covering)


_DIOPH_HEADER = ["scan", "n", "m", "a", "b", "ell", "ok", "value", "detail"]


def _run_dioph_scans(alpha_text: str, beta_text: str, nmax: int, prec: int,
                     which: str) -> Tuple[dict, List[Check], dict]:
    """-> (summary, checks, results): results maps each scan run to its
    records or report, for the table."""
    alpha = diophantine.parse_value(alpha_text)
    beta = diophantine.parse_value(beta_text)
    params = diophantine.ProbeParams()
    summary: dict = {}
    checks: List[Check] = []
    results: dict = {}

    want = {"minima", "ratio", "separation", "dichotomy"} \
        if which == "all" else {which}

    # one minima pass for every scan; the separation check and the
    # dichotomy read the word's letter counts
    records = diophantine.minima_sequence(alpha, beta, nmax, prec)
    word = "xy" * ((nmax + 1) // 2)
    if "minima" in want:
        minimal = [r for r in records if r.minimal]
        summary["minima"] = {"computed": len(records),
                             "minimal": [r.n for r in minimal]}
        results["minima"] = records
    if "ratio" in want:
        rep = results["ratio"] = diophantine.integer_ratio_scan(records)
        summary["ratio"] = {"pairs_examined": rep.pairs_examined,
                            "qualifying": len(rep.qualifying),
                            "violations": len(rep.violations),
                            "undecided": len(rep.undecided),
                            "zero_at": rep.zero_at}
        checks.append(("integer-ratio-lemma", not rep.violations,
                       f"{len(rep.qualifying)} qualifying pairs, "
                       f"{len(rep.violations)} violations"))
    if "separation" in want:
        # an exact zero ends the minima early; check the prefix they cover
        n_pts = min(nmax, len(records) + 1)
        rep = results["separation"] = diophantine.orbit_separation_check(
            word[:n_pts], alpha, beta, records, prec)
        summary["separation"] = {"points": n_pts,
                                 "pairs_checked": rep.pairs_checked,
                                 "violations": len(rep.violations),
                                 "undecided": rep.undecided,
                                 "worst_margin_bits": rep.worst_margin_bits}
        checks.append(("orbit-separation", not rep.violations,
                       f"{rep.pairs_checked} pairs, "
                       f"{len(rep.violations)} violations, "
                       f"{rep.undecided} undecided"))
    if "dichotomy" in want:
        scan = results["dichotomy"] = diophantine.dichotomy_scan(
            word[:nmax], alpha, beta, records, params, prec)
        summary["dichotomy"] = {"qualifying": list(scan.qualifying),
                                "violation_total": scan.violation_total,
                                "refusals": list(scan.refusals)}
        checks.append(("gap-dichotomy", scan.violation_total == 0,
                       f"{len(scan.qualifying)} qualifying pairs, "
                       f"{scan.violation_total} violations, "
                       f"{len(scan.refusals)} refusals"))
    return summary, checks, results


def _dioph_rows(results: dict) -> list:
    """The table rows of the scans in `results`; reading each minima
    record's delta here renders it only when a table is written."""
    rows: list = []
    for r in results.get("minima", ()):
        rows.append(("minima", r.n, "", r.u[0], r.u[1], "",
                     r.minimal, r.delta, ""))
    if "ratio" in results:
        rep = results["ratio"]
        for p in rep.qualifying:
            rows.append(("ratio", p.i, p.j, "", "", p.ell,
                         p.divisibility_ok and p.vector_ok, "", ""))
        for v in rep.violations:
            rows.append(("ratio-violation", v.i, v.j, "", "", v.ell,
                         False, "", v.reason))
    if "separation" in results:
        rep = results["separation"]
        rows.append(("separation", "", "", "", "", "", not rep.violations,
                     rep.pairs_checked, f"undecided={rep.undecided}"))
    if "dichotomy" in results:
        for rep in results["dichotomy"].reports:
            detail = rep.reason if rep.refused else \
                f"sep={rep.separated} clu={rep.clustered}"
            rows.append(("dichotomy", rep.n, rep.m, "", "", "",
                         not rep.refused and not rep.violations,
                         rep.pairs_total, detail))
    return rows


def cmd_dioph(args) -> Tuple[dict, List[Check], List[Warn]]:
    if args.nmax < 1:
        raise UsageError(f"bad nmax {args.nmax}: need an integer >= 1")
    if args.prec < 0:
        raise UsageError(f"bad prec {args.prec}: need an integer >= 0")
    least = diophantine.MIN_INPUT_BITS
    for text in (args.alpha, args.beta):
        rad = diophantine.parse_value(text).approx(args.prec).rad
        if rad > Fraction(1, 1 << least):
            raise UsageError(f"bad prec {args.prec}: {text!r} is held coarser "
                             f"than 2^-{least}; --prec {least} always passes")
    summary, checks, results = _run_dioph_scans(args.alpha, args.beta,
                                                args.nmax, args.prec, args.scan)
    if args.out:
        write_csv(args.out, _DIOPH_HEADER,
                  [[cell(v) for v in row] for row in _dioph_rows(results)])
    report = {
        "command": "dioph",
        "config": {"alpha": args.alpha, "beta": args.beta,
                   "prec": args.prec, "nmax": args.nmax, "scan": args.scan},
        "summary": summary,
    }
    return report, checks, []


def cmd_dim(args) -> Tuple[dict, List[Check], List[Warn]]:
    points = _parse_fixture(args.fixture)
    if args.base < 2:
        raise UsageError(f"bad base {args.base}: need an integer >= 2")
    if args.jmin < 1:
        raise UsageError(f"bad jmin {args.jmin}: the scale base^-jmin must "
                         "be below 1")
    if args.jmin > args.jmax:
        raise UsageError(f"bad scale range: jmin {args.jmin} > jmax "
                         f"{args.jmax}")
    scales = [Fraction(1, args.base ** j)
              for j in range(args.jmin, args.jmax + 1)]
    series = dimension.box_dim_series(points, scales)
    slopes = dimension.successive_slopes(series.rows)
    if args.out:
        write_csv(args.out,
                  ["scale_num", "scale_den", "count", "log_ratio_decimal"],
                  [[r.scale.numerator, r.scale.denominator, r.count,
                    r.log_ratio] for r in series.rows])
    report = {
        "command": "dim",
        "config": {"fixture": args.fixture, "base": args.base,
                   "jmin": args.jmin, "jmax": args.jmax},
        "rows": series.rows,
        "nested_scales": series.nested_scales,
        "slopes": [f"{s:.12f}" for s in slopes],
    }
    return report, [], []


def cmd_verify_all(args) -> Tuple[dict, List[Check], List[Warn]]:
    checks: List[Check] = []

    k_stages = katznelson.build_stages(katznelson.Schedule.explicit(DESK_PAIRS), 2)
    k_ver, k_checks = _run_katznelson_checks(k_stages)
    checks.extend(k_checks)

    t_config = thin_orbit.ThinConfig.desk()
    t_stages = thin_orbit.build_stages(t_config, 3)
    t_checks, _, warns = _run_thin_checks(t_stages)
    checks.extend(t_checks)
    covering = thin_orbit.restricted_covering(t_stages, 1, seed=args.seed)

    d_summary, d_checks, _ = _run_dioph_scans(
        "sqrt(2) - 1", "sqrt(3) - 1", 500, 256, "all")
    checks.extend(d_checks)

    report = {
        "command": "verify-all",
        "config": {"profile": args.profile, "seed": args.seed},
        "katznelson": {"stages": k_stages, "verification": k_ver,
                       "bracket": katznelson.dimension_bracket(k_stages)},
        "thin_orbit": {"stages": t_stages, "covering": covering},
        "dioph": d_summary,
    }
    return report, checks, warns + _covering_warnings(covering)


# ---------------------------------------------------------------------------
# parser wiring


def _build_parser() -> Tuple[_Parser, dict]:
    parser = _Parser(prog="abset", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=VERSION)
    parser.add_argument("--config", metavar="FILE",
                        help="JSON object of flag values (long names, no "
                             "dashes prefix) plus optional \"subcommand\"; "
                             "explicit flags override the file")
    sub = parser.add_subparsers(dest="command", required=True)
    subs: dict = {}

    p = subs["katznelson"] = sub.add_parser(
        "katznelson", help="closed-orbit tower stages")
    p.add_argument("--schedule", required=True,
                   help="paper:L=<int> or list:'M1,N1;M2,N2;...'")
    p.add_argument("--stages", type=int, required=True)
    p.add_argument("--out", help="JSON report path")
    p.set_defaults(handler=cmd_katznelson)

    p = subs["thin-orbit"] = sub.add_parser(
        "thin-orbit", help="deletion tower stages")
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--eps1", default="2^-40")
    p.add_argument("--decay", type=int, default=4,
                   help="constant exponent rho")
    p.add_argument("--stages", type=int, default=3)
    p.add_argument("--n0", type=int, default=1)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=thin_orbit.DEFAULT_SEED)
    p.add_argument("--paper-faithful", action="store_true",
                   help="m=1000, eps1=10^-1000, decay 1000 n^3; slow, and "
                        "the working cap ends the tower after 2 stages")
    p.add_argument("--out", help="JSON report path")
    p.set_defaults(handler=cmd_thin_orbit)

    p = subs["dioph"] = sub.add_parser("dioph", help="scans for a rotation pair")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--prec", type=int, default=256)
    p.add_argument("--nmax", type=int, default=500)
    p.add_argument("--scan", default="all",
                   choices=["minima", "ratio", "separation", "dichotomy",
                            "all"])
    p.add_argument("--out", help="CSV report path")
    p.set_defaults(handler=cmd_dioph)

    p = subs["dim"] = sub.add_parser("dim", help="covering series for a fixture")
    p.add_argument("--fixture", default="inverse:100000",
                   help="inverse:<kmax>, grid:<n> or closed-orbit:<stages>")
    p.add_argument("--base", type=int, default=4)
    p.add_argument("--jmin", type=int, default=4)
    p.add_argument("--jmax", type=int, default=8)
    p.add_argument("--out", help="CSV report path")
    p.set_defaults(handler=cmd_dim)

    p = subs["verify-all"] = sub.add_parser(
        "verify-all", help="desk-scale check composition")
    p.add_argument("--profile", default="desk", choices=["desk"])
    p.add_argument("--seed", type=int, default=thin_orbit.DEFAULT_SEED)
    p.add_argument("--out", help="JSON report path")
    p.set_defaults(handler=cmd_verify_all)

    return parser, subs


def _extract_config_flag(argv: List[str]) -> Tuple[Optional[str], List[str]]:
    """Pull --config FILE (or --config=FILE) out of argv before parsing;
    argparse cannot apply file defaults to a subparser it has not chosen
    yet, so the file must be read first."""
    path: Optional[str] = None
    rest: List[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--config" or tok.startswith("--config="):
            if path is not None:
                raise UsageError("--config given twice")
            if tok == "--config":
                if i + 1 == len(argv):
                    raise UsageError("--config needs a file path")
                path = argv[i + 1]
                i += 2
            else:
                path = tok.split("=", 1)[1]
                i += 1
            continue
        rest.append(tok)
        i += 1
    return path, rest


def _apply_config_file(path: str, argv: List[str], subs: dict) -> List[str]:
    """Load flag values from a JSON file as --flag=value tokens placed
    between the subcommand and the command line's own flags: the parser
    checks them as it checks typed flags, is left as it was, and a flag
    given on the command line still wins.  A null value leaves the flag
    at its default; a subcommand named in both places must agree."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file '{path}': "
                         f"{exc.strerror or exc}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise UsageError(f"config file '{path}' is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise UsageError(f"config file '{path}' must hold one JSON object")

    file_cmd = data.pop("subcommand", None)
    argv_cmd = argv[0] if argv and not argv[0].startswith("-") else None
    if file_cmd is not None and argv_cmd is not None and file_cmd != argv_cmd:
        raise UsageError(f"config file subcommand '{file_cmd}' does not match "
                         f"'{argv_cmd}' on the command line")
    command = argv_cmd or file_cmd
    if command is None:
        raise UsageError(f"config file '{path}' names no subcommand and none "
                         "was given on the command line")
    if command not in subs:
        raise UsageError(f"unknown subcommand '{command}' in config file "
                         f"'{path}'")

    actions = {a.dest: a for a in subs[command]._actions if a.option_strings}
    tokens = []
    for key, value in data.items():
        action = actions.get(str(key).replace("-", "_"))
        if action is None or action.dest == "help":
            raise UsageError(f"config file key '{key}' is not a flag of "
                             f"{command}")
        if action.nargs == 0:           # a switch such as --paper-faithful
            if not isinstance(value, bool):
                raise UsageError(f"config file key '{key}' must be true or "
                                 "false")
            if value:
                tokens.append(action.option_strings[0])
        elif value is not None:
            tokens.append(f"{action.option_strings[0]}={value}")
    rest = argv[1:] if argv_cmd is not None else argv
    return [command] + tokens + rest


_PARSER: Optional[Tuple[_Parser, dict]] = None     # built on first use


def main(argv: Optional[List[str]] = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    parser, subs = _PARSER
    if argv is None:
        argv = sys.argv[1:]
    try:
        config_path, argv = _extract_config_flag(list(argv))
        if config_path is not None:
            argv = _apply_config_file(config_path, argv, subs)
        args = parser.parse_args(argv)
        report, checks, warnings = args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except InsufficientPrecision as exc:
        print(f"FAIL insufficient-precision ({exc.context}): {exc.detail}",
              file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"FAIL {exc.name}: {exc.detail}", file=sys.stderr)
        return 2

    report["version"] = VERSION
    report["checks"] = [{"name": name, "ok": ok, "detail": detail}
                        for name, ok, detail in checks]
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    for name, detail in warnings:
        print(f"WARN {name}: {detail} (recorded, not enforced)")

    try:
        if not args.out:
            sys.stdout.write(canonical_json(report))
        elif args.command in ("dioph", "dim"):
            print(f"table written to {args.out}")
        else:
            write_json(args.out, report)
            print(f"report written to {args.out}")
    except ValueError as exc:
        # an integer past sys.get_int_max_str_digits() cannot be rendered
        print(f"FAIL report-not-written: {exc}", file=sys.stderr)
        return 2

    failed = [name for name, ok, _ in checks if not ok]
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end command-line checks.

Each test drives main() with a real argv and inspects exit code, printed
check lines, and written artifacts.  Golden values were produced by the
library itself and frozen after hand inspection; they guard against
silent drift in either the math or the serialization.
"""

import hashlib
import json
import sys

import pytest

from abset import cli, diophantine, katznelson
from abset.cli import main
from abset.reporting import VERSION

DS = "list:32,64;256,1024"
SURDS = ["--alpha", "sqrt(2) - 1", "--beta", "sqrt(3) - 1"]


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------- katznelson


def test_katznelson_passes_and_writes_report(capsys, tmp_path):
    out = tmp_path / "k.json"
    rc, stdout, stderr = run(
        capsys, "katznelson", "--schedule", DS, "--stages", "2", "--out", str(out)
    )
    assert rc == 0
    assert stderr == ""
    assert stdout.count("PASS ") == 8
    assert "FAIL " not in stdout
    for name in (
        "closure-u-1",
        "closure-v-1",
        "eta-relation-1",
        "closure-u-2",
        "closure-v-2",
        "eta-relation-2",
        "ratio-bound-2",
        "u-drift-2",
    ):
        assert f"PASS {name}" in stdout

    report = json.loads(out.read_text())
    assert report["version"] == VERSION
    assert sorted(report) == [
        "bracket",
        "checks",
        "command",
        "config",
        "gamma",
        "stages",
        "verification",
        "version",
    ]
    assert all(c["ok"] for c in report["checks"])
    assert report["config"] == {"schedule": DS, "stages": 2}
    assert report["bracket"]["lower_str"] == "0.550653319167"
    assert report["bracket"]["upper_str"] == "0.582966013541"
    assert report["bracket"]["point_count"] == 125636


def test_katznelson_paper_schedule_report_only(capsys):
    rc, stdout, stderr = run(capsys, "katznelson", "--schedule", "paper:L=2", "--stages", "2")
    assert rc == 0
    # without --out the canonical report lands on stdout after the check lines
    assert '"version"' in stdout


# ---------------------------------------------------------------- thin-orbit


def test_thin_orbit_desk_defaults(capsys, tmp_path):
    out = tmp_path / "t.json"
    rc, stdout, stderr = run(capsys, "thin-orbit", "--samples", "200", "--out", str(out))
    assert rc == 0
    for name in (
        "landing-exact-1",
        "landing-preserved-1",
        "symbol-balance-1",
        "landing-exact-2",
        "landing-preserved-2",
        "symbol-balance-2",
        "landing-exact-3",
        "symbol-balance-3",
        "deleted-density-decreasing",
    ):
        assert f"PASS {name}" in stdout
    assert "FAIL " not in stdout
    # level 1 breaks both covering bounds; they are recorded, not enforced
    assert "WARN cell_bound_ok: " in stdout
    assert "WARN drift_bound_ok: " in stdout

    report = json.loads(out.read_text())
    cov = report["covering"]
    # measured covering stats ride along without being asserted
    assert cov["samples_random"] == 200
    assert cov["cell_bound_claimed"] == 20
    assert cov["seed"] == 20260823
    assert report["config"]["m"] == 10
    assert report["config"]["eps1"] == "2^-40"


def test_thin_orbit_level2_bounds_hold_vacuously_with_a_warning(capsys, tmp_path):
    # both level-2 bounds hold, but 2,806 samples cannot show more than
    # N_2 (about 1.1e12) cells, so the cell bound is named vacuous
    out = tmp_path / "t.json"
    rc, stdout, _ = run(capsys, "thin-orbit", "--samples", "200", "--n0", "2",
                        "--out", str(out))
    assert rc == 0
    cov = json.loads(out.read_text())["covering"]
    assert cov["cell_bound_ok"] is True and cov["drift_bound_ok"] is True
    warns = [line for line in stdout.splitlines() if line.startswith("WARN ")]
    assert warns == [
        "WARN cell_bound_vacuous: 2806 samples < N_2 = 1099506938400 at n0 = 2, "
        "so cells <= N_2 cannot fail (recorded, not enforced)",
    ]


@pytest.mark.parametrize("stages, densities", [("1", 0), ("2", 1)])
def test_thin_orbit_vacuous_density_trend_warns(capsys, tmp_path, stages,
                                                densities):
    # with fewer than two deleted densities the trend check passes on
    # nothing; its name, verdict and detail stay as the report has them,
    # and the console names it vacuous
    out = tmp_path / "t.json"
    rc, stdout, _ = run(capsys, "thin-orbit", "--stages", stages,
                        "--samples", "50", "--out", str(out))
    assert rc == 0
    check, = [c for c in json.loads(out.read_text())["checks"]
              if c["name"] == "deleted-density-decreasing"]
    assert check["ok"] is True
    assert len(check["detail"].split(",")) == max(densities, 1)
    assert (f"WARN density_trend_vacuous: deleted-density-decreasing has "
            f"{densities} of the 2 densities a trend needs, so it cannot fail "
            "(recorded, not enforced)") in stdout.splitlines()
    rc, stdout, _ = run(capsys, "thin-orbit", "--samples", "50")
    assert rc == 0 and "density_trend_vacuous" not in stdout


def test_thin_orbit_deterministic_covering(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(capsys, "thin-orbit", "--samples", "150", "--out", str(a))[0] == 0
    assert run(capsys, "thin-orbit", "--samples", "150", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_thin_orbit_seed_changes_random_draws(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, "thin-orbit", "--samples", "150", "--out", str(a))
    run(capsys, "thin-orbit", "--samples", "150", "--seed", "7", "--out", str(b))
    ca = json.loads(a.read_text())["covering"]
    cb = json.loads(b.read_text())["covering"]
    assert ca["seed"] == 20260823 and cb["seed"] == 7
    # deterministic sample arm is seed-independent
    assert ca["samples_deterministic"] == cb["samples_deterministic"]


def test_thin_orbit_tower_leaving_its_band_is_a_usage_error(capsys):
    # eps_2 = 2^-20 leaves room for only 24 copies of W_2, too few to
    # outweigh the balancing block: a parameter choice, not a broken check
    rc, stdout, stderr = run(capsys, "thin-orbit", "--m", "1", "--eps1", "2^-5",
                             "--decay", "4", "--stages", "3")
    assert rc == 1
    assert stdout == ""
    assert stderr.startswith("usage error: stage 3 leaves the 2:1 count band")
    assert "--m" in stderr and "--decay" in stderr


@pytest.mark.parametrize("to_file", [True, False])
def test_report_past_the_digit_limit_fails_in_one_line(capsys, tmp_path, to_file):
    # eps_2 = 10^-5000 has more digits than the interpreter's default
    # int-to-str limit: the run fails in one line, with no traceback and,
    # for --out, no empty file left behind
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    out = tmp_path / "wide.json"
    argv = ["thin-orbit", "--m", "1000", "--eps1", "10^-500", "--decay", "10",
            "--stages", "2", "--samples", "50"] + (["--out", str(out)] if to_file else [])
    sys.set_int_max_str_digits(4300)
    try:
        rc, stdout, stderr = run(capsys, *argv)
    finally:
        sys.set_int_max_str_digits(2_000_000)
    assert rc == 2
    assert stderr.startswith("FAIL report-not-written: ")
    assert "4300" in stderr and stderr.count("\n") == 1
    assert "{" not in stdout
    assert not out.exists()


# --------------------------------------------------------------------- dioph


def test_dioph_surd_scan_all(capsys, tmp_path):
    out = tmp_path / "d.csv"
    rc, stdout, stderr = run(
        capsys,
        "dioph",
        "--alpha", "sqrt(2) - 1",
        "--beta", "sqrt(3) - 1",
        "--prec", "256",
        "--nmax", "120",
        "--scan", "all",
        "--out", str(out),
    )
    assert rc == 0
    assert "PASS integer-ratio-lemma" in stdout
    assert "PASS orbit-separation" in stdout
    assert "PASS gap-dichotomy" in stdout

    lines = out.read_text().splitlines()
    assert lines[0] == "scan,n,m,a,b,ell,ok,value,detail"
    assert len(lines) > 1
    assert all(line.count(",") >= 8 for line in lines[1:])
    scans = {line.split(",", 1)[0] for line in lines[1:]}
    assert "minima" in scans


def test_dioph_rational_ratio_violation_exits_2(capsys):
    rc, stdout, stderr = run(
        capsys, "dioph", "--alpha", "9/20", "--beta", "1/5", "--nmax", "9", "--scan", "ratio"
    )
    assert rc == 2
    assert "FAIL integer-ratio-lemma" in stdout
    assert "FAILED: integer-ratio-lemma" in stderr


def test_dioph_single_scan_subset(capsys):
    rc, stdout, _ = run(
        capsys, "dioph", "--alpha", "sqrt(2) - 1", "--beta", "sqrt(3) - 1",
        "--nmax", "40", "--scan", "separation",
    )
    assert rc == 0
    assert "PASS orbit-separation" in stdout
    assert "integer-ratio-lemma" not in stdout


@pytest.mark.parametrize("alpha,beta,nmax,line", [
    # the exact minima reach 0 at n = 144, so 145 points are checked
    ("89/233", "55/144", "200", "10440 pairs, 0 violations, 0 undecided"),
    # exact equalities on a dyadic denominator are decided, not undecided
    ("1/4 + 1/1024", "3/8 + 1/4096", "60", "1770 pairs, 0 violations, 0 undecided"),
], ids=["early-zero", "dyadic-exact"])
def test_dioph_exact_separation(capsys, alpha, beta, nmax, line):
    rc, stdout, stderr = run(capsys, "dioph", "--alpha", alpha, "--beta", beta,
                             "--nmax", nmax, "--scan", "separation")
    assert rc == 0 and stderr == ""
    assert f"PASS orbit-separation: {line}" in stdout


@pytest.mark.parametrize("argv,zero_row", [
    (["--alpha", "sqrt(5) - 2", "--beta", "1/3", "--nmax", "80"],
     "minima,3,,0,3,,True,0/1,"),
    (["--alpha", "2/7", "--beta", "sqrt(7) - 2", "--prec", "200"],
     "minima,7,,7,0,,True,0/1,"),
], ids=["surd-alpha", "surd-beta"])
def test_dioph_mixed_pair_keeps_rational_member_exact(capsys, tmp_path, argv, zero_row):
    # the rational member's exact zero ends the minima instead of an
    # undecidable tie on a rounded grid
    out = tmp_path / "mixed.csv"
    rc, stdout, stderr = run(capsys, "dioph", *argv, "--out", str(out))
    assert rc == 0 and stderr == ""
    assert "FAIL " not in stdout
    minima = [r for r in out.read_text().splitlines() if r.startswith("minima,")]
    assert minima[-1] == zero_row


@pytest.mark.parametrize("argv", [
    ["dioph", *SURDS, "--nmax", "500", "--scan", "all"],
    ["verify-all", "--profile", "desk"],
], ids=["dioph-all", "verify-all"])
def test_one_minima_pass_feeds_every_scan(capsys, monkeypatch, argv):
    # and no orbit is built: the dichotomy reads the word's letter counts
    passes, scans, orbits = [], [], []
    minima, dichotomy = diophantine.minima_sequence, diophantine.dichotomy_scan

    def counted(*args, **kw):
        passes.append(minima(*args, **kw))
        return passes[-1]

    def recorded(word, alpha, beta, records, *args, **kw):
        scans.append((records, dichotomy(word, alpha, beta, records, *args, **kw)))
        return scans[-1][1]

    monkeypatch.setattr(diophantine, "minima_sequence", counted)
    monkeypatch.setattr(diophantine, "dichotomy_scan", recorded)
    monkeypatch.setattr(diophantine, "orbit_of_word",
                        lambda *args, **kw: orbits.append(args))
    rc, _, _ = run(capsys, *argv)
    assert rc == 0
    assert len(passes) == 1 and len(passes[0]) == 500
    [(records, scan)] = scans
    assert records is passes[0]
    assert scan.qualifying == ()
    assert orbits == []


@pytest.mark.parametrize("prec", ["100", "0"])
def test_dioph_prec_too_coarse_for_a_surd_names_the_flag(capsys, prec):
    rc, stdout, stderr = run(capsys, "dioph", *SURDS, "--nmax", "50",
                             "--prec", prec, "--scan", "minima")
    assert (rc, stdout) == (1, "")
    assert stderr == (f"usage error: bad prec {prec}: 'sqrt(2) - 1' is held "
                      "coarser than 2^-128; --prec 128 always passes\n")


@pytest.mark.parametrize("prec", ["119", "127", "128"])
def test_dioph_surd_runs_at_every_prec_that_holds_it(capsys, prec):
    rc, stdout, stderr = run(capsys, "dioph", *SURDS, "--nmax", "50",
                             "--prec", prec, "--scan", "minima")
    assert rc == 0 and stderr == ""
    assert '"computed": 50' in stdout


def test_dioph_rational_pair_runs_at_prec_0(capsys):
    rc, stdout, stderr = run(capsys, "dioph", "--alpha", "1/3", "--beta", "2/7",
                             "--nmax", "50", "--prec", "0")
    assert rc == 0 and stderr == ""
    assert "FAIL " not in stdout


# ----------------------------------------------------------------------- dim


def test_dim_inverse_fixture_golden(capsys, tmp_path):
    out = tmp_path / "dim.csv"
    rc, stdout, _ = run(capsys, "dim", "--fixture", "inverse:1000", "--out", str(out))
    assert rc == 0
    assert out.read_text() == (
        "scale_num,scale_den,count,log_ratio_decimal\n"
        "1,256,31,0.619274538798\n"
        "1,1024,63,0.59772799235\n"
        "1,4096,124,0.579516359199\n"
        "1,16384,240,0.564777899686\n"
        "1,65536,447,0.550258188824\n"
    )


def test_dim_grid_fixture_golden(capsys, tmp_path):
    # scales finer than the grid pitch 1/64 cannot split its points further
    out = tmp_path / "dim.csv"
    rc, _, _ = run(capsys, "dim", "--fixture", "grid:64", "--base", "2",
                   "--jmin", "2", "--jmax", "8", "--out", str(out))
    assert rc == 0
    assert out.read_text() == (
        "scale_num,scale_den,count,log_ratio_decimal\n"
        "1,4,4,1.0\n"
        "1,8,8,1.0\n"
        "1,16,16,1.0\n"
        "1,32,32,1.0\n"
        "1,64,64,1.0\n"
        "1,128,64,0.857142857143\n"
        "1,256,64,0.75\n"
    )


def test_dim_without_out_prints_its_report(capsys):
    rc, stdout, stderr = run(capsys, "dim", "--fixture", "grid:8", "--base", "2",
                             "--jmin", "1", "--jmax", "3")
    assert rc == 0 and stderr == ""
    report = json.loads(stdout)
    assert report["command"] == "dim"
    assert [r["count"] for r in report["rows"]] == [2, 4, 8]


def test_dim_closed_orbit_fixture(capsys):
    # the desk tower's 108,162 stage-2 orbit points, box-counted on their
    # integer numerators
    rc, stdout, stderr = run(capsys, "dim", "--fixture", "closed-orbit:2")
    assert rc == 0 and stderr == ""
    report = json.loads(stdout)
    assert report["config"] == {"fixture": "closed-orbit:2", "base": 4, "jmin": 4,
                                "jmax": 8}
    stages = katznelson.build_stages(katznelson.Schedule.explicit([(32, 64), (256, 1024)]), 2)
    sample = katznelson.enumerate_E(stages[1])
    assert len(sample) == 108162
    counts = [len({num * 4 ** j // sample.den for num in sample.numerators})
              for j in range(4, 9)]
    assert counts == [46, 93, 160, 358, 1150]
    assert [r["count"] for r in report["rows"]] == counts
    assert [(r["scale"]["num"], r["scale"]["den"]) for r in report["rows"]] == [
        ("1", str(4 ** j)) for j in range(4, 9)]
    assert [r["log_ratio"] for r in report["rows"]] == [
        "0.690445244507", "0.653915881111", "0.610160674574", "0.605986841233",
        "0.635463634114"]
    assert report["nested_scales"] is True
    assert len(report["slopes"]) == 4


def test_dioph_without_out_prints_its_report(capsys):
    rc, stdout, _ = run(capsys, "dioph", "--alpha", "sqrt(2) - 1", "--beta",
                        "sqrt(3) - 1", "--nmax", "50", "--scan", "minima")
    assert rc == 0
    report = json.loads(stdout)
    assert report["summary"]["minima"]["minimal"] == [1, 2, 3, 4, 5, 9, 37, 46]


def test_dim_grid_fixture_flat(capsys, tmp_path):
    out = tmp_path / "dim.csv"
    rc, _, _ = run(
        capsys, "dim", "--fixture", "grid:64", "--base", "2",
        "--jmin", "2", "--jmax", "4", "--out", str(out),
    )
    assert rc == 0
    rows = out.read_text().splitlines()[1:]
    # a full grid covers like dimension 1 at scales coarser than its pitch
    counts = [int(r.split(",")[2]) for r in rows]
    assert counts == [4, 8, 16]


# ----------------------------------------------------------------- verify-all


def test_verify_all_desk_green_and_deterministic(capsys, tmp_path):
    a = tmp_path / "v1.json"
    b = tmp_path / "v2.json"
    rc1, out1, err1 = run(capsys, "verify-all", "--profile", "desk", "--out", str(a))
    rc2, out2, err2 = run(capsys, "verify-all", "--profile", "desk", "--out", str(b))
    assert rc1 == 0 and rc2 == 0
    assert err1 == "" and err2 == ""
    # stdout differs only in the destination path echoed at the end
    assert out1.splitlines()[:-1] == out2.splitlines()[:-1]
    assert a.read_bytes() == b.read_bytes()
    assert "FAIL " not in out1
    warns = [line for line in out1.splitlines() if line.startswith("WARN ")]
    assert warns == [
        "WARN cell_bound_ok: 1992 restricted cells > N_1 = 20 at n0 = 1 "
        "(recorded, not enforced)",
        "WARN drift_bound_ok: max drift 4.99993602555e-02 >= sqrt(eps_1) "
        "at n0 = 1 (recorded, not enforced)",
    ]

    report = json.loads(a.read_text())
    assert sorted(report) == ["checks", "command", "config", "dioph", "katznelson",
                              "thin_orbit", "version"]
    assert report["config"]["profile"] == "desk"
    names = [c["name"] for c in report["checks"]]
    assert "closure-u-2" in names
    assert "landing-exact-3" in names
    assert "gap-dichotomy" in names
    assert all(c["ok"] for c in report["checks"])


GOLDENS = [
    (["verify-all", "--profile", "desk"], "report.json",
     "da3dd4e6fa9fd742b1461e75266e864494965232f1defd6fd2fa231f128726f8", 15607),
    (["dioph", "--alpha", "sqrt(2) - 1", "--beta", "sqrt(3) - 1", "--nmax", "500"],
     "report.csv",
     "91711af69f8a89fd9cd2eba0f351cd80d8d9ef1b5d9494792e18d1edd8b3699c", 35888),
    (["dioph", "--alpha", "1/3 + 1/1001", "--beta", "2/7 + 1/999", "--nmax", "60"],
     "report.csv",
     "75db281f9af0383b3c9bb3d17bb327a1ed155077fe5bb6e3173123c659bfd3bf", 2489),
    # an exact pair whose minima 1, 4, 7, 10 give the dichotomy three
    # qualifying pairs, and the same pair with a radius on alpha
    (["dioph", "--alpha", "1/10 + 1/1000000000", "--beta", "1/4 + 8/10000",
      "--nmax", "60", "--scan", "dichotomy"], "report.csv",
     "eeaec14ebec31bb22fdc749ff788042101a849cd56263f503df2181cc177b09c", 155),
    (["dioph", "--alpha",
      "1/10 + 1/1000000000 + 1/1000000000000000000000000000000*sqrt(2)",
      "--beta", "1/4 + 8/10000", "--nmax", "60", "--scan", "dichotomy"],
     "report.csv",
     "eeaec14ebec31bb22fdc749ff788042101a849cd56263f503df2181cc177b09c", 155),
]


@pytest.mark.parametrize("argv,name,sha256,size", GOLDENS,
                         ids=["verify-all-desk", "dioph-surd-500", "dioph-rational-60",
                              "dioph-dichotomy-exact", "dioph-dichotomy-radius"])
def test_report_bytes_golden(capsys, tmp_path, argv, name, sha256, size):
    out = tmp_path / name
    run(capsys, *argv, "--out", str(out))
    data = out.read_bytes()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (sha256, size)


# ---------------------------------------------------------------- exit codes


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert VERSION in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["katznelson", "--schedule", "bogus", "--stages", "2"], "bogus"),
        (["katznelson", "--schedule", "list:32;64", "--stages", "1"], "32"),
        (["katznelson", "--schedule", DS], "--stages"),
        (["thin-orbit", "--eps1", "abc"], "abc"),
        (["thin-orbit", "--eps1", "5/4"], "5/4"),
        (["dim", "--fixture", "weird:9"], "weird:9"),
        (["dioph", "--alpha", "sqrt(-2)", "--beta", "1/5"], "sqrt"),
        (["verify-all", "--profile", "metropolis"], "metropolis"),
        (["frobnicate"], "frobnicate"),
        (["dim", "--fixture", "grid:4", "--jmin", "0", "--jmax", "2"], "jmin 0"),
        (["dim", "--fixture", "grid:4", "--base", "1"], "base 1"),
        (["dioph", *SURDS, "--nmax", "0", "--scan", "dichotomy"], "nmax 0"),
        (["dioph", *SURDS, "--nmax", "0", "--scan", "all"], "nmax 0"),
        (["dioph", *SURDS, "--nmax", "50", "--prec=-20", "--scan", "minima"],
         "prec -20"),
        (["dim", "--fixture", "closed-orbit:3"], "closed-orbit:3"),
        (["dim", "--fixture", "closed-orbit:0"], "closed-orbit:0"),
    ],
)
def test_usage_errors_exit_1_and_name_the_token(capsys, argv, fragment):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("usage error:")
    assert fragment in captured.err


def _write_config(tmp_path, payload):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_config_file_run_matches_flag_run(capsys, tmp_path):
    cfg = _write_config(
        tmp_path, {"subcommand": "katznelson", "schedule": DS, "stages": 2}
    )
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(capsys, "--config", cfg, "--out", str(a))[0] == 0
    assert run(capsys, "katznelson", "--schedule", DS, "--stages", "2",
               "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_flags_lose_to_command_line(capsys, tmp_path):
    cfg = _write_config(
        tmp_path, {"subcommand": "katznelson", "schedule": DS, "stages": 2}
    )
    out = tmp_path / "r.json"
    rc, _, _ = run(capsys, "--config", cfg, "katznelson", "--stages", "1",
                   "--out", str(out))
    assert rc == 0
    assert json.loads(out.read_text())["config"]["stages"] == 1


def test_config_file_accepts_string_values_for_typed_flags(capsys, tmp_path):
    cfg = _write_config(
        tmp_path,
        {"subcommand": "thin-orbit", "stages": "2", "samples": 100, "seed": "7"},
    )
    out = tmp_path / "r.json"
    rc, _, _ = run(capsys, "--config", cfg, "--out", str(out))
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["config"]["stages"] == 2
    assert report["covering"]["seed"] == 7


@pytest.mark.parametrize(
    "payload, extra_argv, fragment",
    [
        ({"subcommand": "katznelson", "schedule": DS, "stages": 2}, ["dioph"],
         "does not match"),
        ({"subcommand": "katznelson", "schedule": DS, "wibble": 3}, [],
         "wibble"),
        ({"schedule": DS}, [], "names no subcommand"),
        ({"subcommand": "dioph", "scan": "everything"}, [], "everything"),
        ({"subcommand": "thin-orbit", "stages": 2.5}, [], "stages"),
        ({"subcommand": "frobnicate"}, [], "frobnicate"),
        ({"subcommand": "thin-orbit", "paper-faithful": "yes"}, [],
         "true or false"),
    ],
)
def test_config_file_errors_exit_1(capsys, tmp_path, payload, extra_argv, fragment):
    cfg = _write_config(tmp_path, payload)
    rc = main(["--config", cfg] + extra_argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("usage error:")
    assert fragment in captured.err


def test_config_file_leaves_the_parser_as_it_was(capsys, tmp_path):
    # the parser is built once per process; a config file's values must
    # not stay on it as defaults for later calls
    cfg = _write_config(
        tmp_path, {"subcommand": "katznelson", "schedule": DS, "stages": 1}
    )
    assert run(capsys, "--config", cfg, "--out", str(tmp_path / "r.json"))[0] == 0
    rc, _, stderr = run(capsys, "katznelson", "--stages", "1")
    assert rc == 1
    assert "--schedule" in stderr


def test_parser_is_built_once(capsys, monkeypatch):
    calls = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "_build_parser",
                        lambda: calls.append(1) or build())
    assert run(capsys, "katznelson", "--stages", "1")[0] == 1
    assert run(capsys, "dioph", "--alpha", "1/3")[0] == 1
    assert len(calls) == 1


def test_config_file_missing_exits_1(capsys, tmp_path):
    rc = main(["--config", str(tmp_path / "nope.json")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "cannot read config file" in captured.err


def test_runaway_schedule_is_capped_by_working_precision(capsys):
    # decay large enough that eps_2 alone would need ~1.6e8 bits
    rc, _, stderr = run(capsys, "thin-orbit", "--decay", "4000000", "--stages", "2")
    assert rc == 1
    assert "usage error:" in stderr
    assert "working cap" in stderr

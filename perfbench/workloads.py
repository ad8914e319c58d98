"""The four benchmark workloads: inputs, one op, and the op's golden.

An op is one full pass of a workload at a fixed input size.  Its output
is reduced to a fingerprint (report SHA-256 and size, or the pinned
counts) that is compared with a golden.  Importing this module needs
`src` on sys.path.
"""

import contextlib
import hashlib
import io
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from abset import cli, dimension, katznelson

DEFAULT_SEED = 20260823


class OpFailed(Exception):
    """The program ran but did not succeed (non-zero exit code)."""


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, str], Any]   # (seed, work dir) -> op inputs
    op: Callable[[Any], Any]           # inputs -> output fingerprint
    golden: Any                        # fingerprint at DEFAULT_SEED
    seeded: bool                       # do the inputs depend on the seed?

    def expected(self, seed: int):
        """The golden that applies at this seed, or None when only
        agreement between the ops of one run can be checked."""
        if seed == DEFAULT_SEED or not self.seeded:
            return self.golden
        return None


# -- CLI workloads: one cli.main call writing a JSON report ---------------


def _cli_setup(argv):
    def setup(seed: int, workdir: str):
        out = os.path.join(workdir, "report.json")
        return argv + ["--seed", str(seed), "--out", out], out
    return setup


def _cli_op(inputs):
    argv, out = inputs
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(list(argv))
    if rc != 0:
        raise OpFailed(f"abset exited with code {rc}")
    with open(out, "rb") as fh:
        data = fh.read()
    return hashlib.sha256(data).hexdigest(), len(data)


DESK_VERIFY = Workload(
    name="desk-verify",
    setup=_cli_setup(["verify-all", "--profile", "desk"]),
    op=_cli_op,
    golden=("da3dd4e6fa9fd742b1461e75266e864494965232f1defd6fd2fa231f128726f8",
            15607),
    seeded=True,
)

WIDE_THIN = Workload(
    name="wide-thin",
    setup=_cli_setup(["thin-orbit", "--m", "1000", "--eps1", "10^-500",
                      "--decay", "10", "--stages", "2", "--n0", "1",
                      "--samples", "1000"]),
    op=_cli_op,
    golden=("990844a6238f5dd1371d3b7f391dc16cfdc16d720d71a43ce82781dc62abc631",
            59594),
    seeded=True,
)


# -- dimension workloads: library calls on generated point sets ----------

WINDOW = [(Fraction(1, 16), Fraction(1, 256))]
# Anchors the window probe slides from.  The probe costs about 1 ms per
# anchor on either set, so its default cap of 4,096 would make an op
# several seconds long; short ops keep a run's timing steady.
LATTICE_ANCHORS = 512
RECIPROCAL_ANCHORS = 256


def _window_fingerprint(reports):
    return [(r["max_cells"], r["witness_anchor"], r["log_ratio"],
             r["anchors_probed"], r["anchors_total"]) for r in reports]


def _lattice_setup(seed: int, workdir: str):
    return katznelson.Schedule.explicit([(32, 64), (64, 128)])


def _lattice_op(schedule):
    stages = katznelson.build_stages(schedule, 2)
    pts = katznelson.enumerate_E(stages[1]).points()
    eps = stages[1].eps
    return {
        "points": len(pts),
        "eps": eps,
        "cells": dimension.grid_covering(pts, eps),
        "separated": len(dimension.maximal_separated_subset(pts, eps / 2)),
        "window": _window_fingerprint(dimension.assouad_probe_windows(
            pts, WINDOW, anchor_cap=LATTICE_ANCHORS)),
    }


LATTICE_DIMENSION = Workload(
    name="lattice-dimension",
    setup=_lattice_setup,
    op=_lattice_op,
    golden={
        "points": 14722,
        "eps": Fraction(1, 17856800),
        "cells": 14722,
        "separated": 14722,
        "window": [(74, Fraction(23, 3571360), "0.776181670704", 531,
                    14722)],
    },
    seeded=False,
)

RECIPROCAL_SCALES = [Fraction(1, 4 ** j) for j in range(4, 9)]


def _reciprocal_setup(seed: int, workdir: str):
    return [Fraction(0)] + [Fraction(1, k) for k in range(10_000, 0, -1)]


def _reciprocal_op(points):
    series = dimension.box_dim_series(points, RECIPROCAL_SCALES)
    return {
        "counts": series.counts(),
        "log_ratios": [r.log_ratio for r in series.rows],
        "window": _window_fingerprint(dimension.assouad_probe_windows(
            points, WINDOW, anchor_cap=RECIPROCAL_ANCHORS)),
    }


RECIPROCAL_DIMENSION = Workload(
    name="reciprocal-dimension",
    setup=_reciprocal_setup,
    op=_reciprocal_op,
    golden={
        "counts": [31, 63, 127, 255, 506],
        "log_ratios": ["0.619274538798", "0.59772799235", "0.582390390564",
                       "0.57102524549", "0.561437098418"],
        "window": [(112, Fraction(0), "0.850919365257", 275, 10000)],
    },
    seeded=False,
)

WORKLOADS = {w.name: w for w in (DESK_VERIFY, WIDE_THIN, LATTICE_DIMENSION,
                                 RECIPROCAL_DIMENSION)}

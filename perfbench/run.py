"""abset benchmark: run one workload and print its metrics.

  python3 perfbench/run.py --workload NAME [--seed N] [--seconds T]
      [--trace 0|1]

It runs the abset sources of the checkout it sits in; it needs nothing but the
Python standard library and the package's own dependency (mpmath).
Workloads: desk-verify, wide-thin, lattice-dimension,
reciprocal-dimension (see perfbench/README.md).

Every measurement runs in fresh child processes, one after another.
With --trace 0 the run sets the workload up in SETUP_CHILDREN extra
processes (set-up time only), then runs untraced ops in one more for
about T seconds, each op followed by a reference block that gauges the
machine's speed, and prints the end-to-end metrics.  With --trace 1 it
alternates untraced and traced ops in one process and prints the
per-layer metrics.  Every op's output is checked against a golden; the
last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 20260823
SETUP_CHILDREN = 8
TIME_LIMIT_S = 170       # the whole run, children included


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _child(mode: str, args, workdir: str, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"out of time before the {mode} process")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", workdir,
           "--spawned-at", repr(time.monotonic())]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process killed after {remaining:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process exited with code "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def end_to_end(args, workdir: str, deadline: float):
    setups = [_child("setup", args, workdir, deadline)["setup_s"]
              for _ in range(SETUP_CHILDREN)]
    res = _child("run", args, workdir, deadline)
    setups.append(res["setup_s"])
    ops, refs = res["times"]["plain"], res["times"]["ref"]
    # Each op against the mean of the reference blocks timed just before
    # and just after it: the host's slow phases slow both alike.
    ratios = [op / ((before + after) / 2)
              for op, before, after in zip(ops, refs, refs[1:])]
    norm_wall = reference.NOMINAL_S * statistics.fmean(ratios)
    q1, q3 = _quartiles(ops)
    print(f"norm_wall_s {norm_wall:.4f} s per op at reference speed: "
          f"{reference.NOMINAL_S} s x mean op/reference ratio "
          f"{statistics.fmean(ratios):.3f} over {len(ops)} ops")
    print(f"wall_s {statistics.fmean(ops):.4f} s per op as measured: mean of "
          f"{len(ops)} ops; median {statistics.median(ops):.4f}, quartiles "
          f"{q1:.4f} .. {q3:.4f} s")
    print("op times " + " ".join(f"{t:.4f}" for t in ops))
    print(f"reference block {statistics.median(refs):.4f} s median of "
          f"{len(refs)} (nominal {reference.NOMINAL_S} s)")
    print(f"peak_rss_mb {res['peak_rss_mb']:.1f} MB")
    print(f"setup_s {statistics.median(setups):.4f} s: median of "
          f"{len(setups)} set-ups, " + " ".join(f"{s:.4f}" for s in setups))
    print(f"error_rate {res['failed']}/{res['attempted']} = "
          f"{res['failed'] / res['attempted']:.4f}")
    metrics = {"norm_wall_s": (norm_wall, "s"),
               "peak_rss_mb": (res["peak_rss_mb"], "MB"),
               "setup_s": (statistics.median(setups), "s")}
    return res, metrics


def per_layer(args, workdir: str, deadline: float):
    res = _child("trace", args, workdir, deadline)
    layers = {k: tuple(v) for k, v in res["layers"].items()}
    times = res["times"]
    print(f"traced run: {len(times['plain'])} untraced and "
          f"{len(times['traced'])} traced ops; spans in "
          f"{os.path.relpath(os.path.join(workdir, 'spans.tsv'))}")
    print(f"{'metric':<52} {'per op':>14}")
    for name, (value, unit) in sorted(layers.items()):
        print(f"{name:<52} {value:>14.6g} {unit}")
    self_sum = sum(v for k, (v, unit) in layers.items()
                   if unit == "s" and k not in ("traced_op.s",
                                                "trace_overhead.s"))
    print(f"self times + unattributed = {self_sum:.6f} s; traced op "
          f"{layers['traced_op.s'][0]:.6f} s")
    print(f"tracing overhead {layers['trace_overhead.s'][0]:+.6f} s per op "
          f"(median traced op - median untraced op)")
    return res, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "abset", "cli.py")):
        print(f"perfbench: no src/abset beside {HERE}; the benchmark must "
              "sit in an abset checkout", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench_work", args.workload)
    os.makedirs(workdir, exist_ok=True)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    try:
        if args.trace:
            res, metrics = per_layer(args, workdir, deadline)
        else:
            res, metrics = end_to_end(args, workdir, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for err in res["errors"]:
        print(f"FAILED {err}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

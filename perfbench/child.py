"""One fresh benchmark process: set up a workload, then run its ops.

Started by run.py from the root of a checkout:

  python3 perfbench/child.py --mode setup|run|trace --workload NAME
      --seed N --seconds T --workdir DIR --spawned-at MONOTONIC

`setup` stops after set-up; `run` runs untraced ops, each followed by
one reference block (see reference.py); `trace` alternates an untraced
and a traced op.  The last line of stdout is one JSON
object with the measurements.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def run_ops(workload, inputs, seed: int, seconds: float, tracer=None,
            ref=None) -> dict:
    """Run ops until the next one would end after `seconds` (at least
    one).  With a tracer, each round is an untraced op then a traced op.
    With `ref` (a reference.Reference), one reference block is timed
    before the first op and after every op, in `times["ref"]`.

    Every op's fingerprint is checked: against the golden where one
    applies at this seed, otherwise against the first op of the run.  An
    op that raises or mismatches counts as failed; none is dropped.
    """
    expected = workload.expected(seed)
    against = "the golden" if expected is not None else "the first good op"
    times = {"plain": [], "traced": [], "ref": []}
    errors = []
    attempted = 0
    deadline = time.monotonic() + seconds
    if ref is not None:
        times["ref"].append(ref.time())
    while True:
        round_start = time.monotonic()
        for kind in ("plain", "traced") if tracer else ("plain",):
            ctx = tracer.traced_op() if kind == "traced" else nullcontext()
            attempted += 1
            start = time.perf_counter()
            try:
                with ctx:
                    fp = workload.op(inputs)
            except (Exception, SystemExit) as exc:
                fp = None
                errors.append(f"op {attempted} raised "
                              f"{type(exc).__name__}: {exc}")
            times[kind].append(time.perf_counter() - start)
            if ref is not None:
                times["ref"].append(ref.time())
            if fp is None:
                continue
            if expected is None:
                expected = fp
            elif fp != expected:
                errors.append(f"op {attempted} output differs from "
                              f"{against}: {fp!r}")
        now = time.monotonic()
        if now + (now - round_start) > deadline:
            break
    return {"times": times, "attempted": attempted, "failed": len(errors),
            "errors": errors}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=["setup", "run", "trace"],
                        required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import reference
    import spans
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    inputs = workload.setup(args.seed, args.workdir)
    out = {"setup_s": time.monotonic() - args.spawned_at}

    if args.mode != "setup":
        tracer = spans.Tracer() if args.mode == "trace" else None
        ref = reference.Reference() if args.mode == "run" else None
        out.update(run_ops(workload, inputs, args.seed, args.seconds, tracer,
                           ref))
        out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024)
        if tracer is not None:
            times = out["times"]
            out["layers"] = spans.layer_metrics(
                tracer, statistics.median(times["traced"])
                - statistics.median(times["plain"]))
            tracer.write(os.path.join(args.workdir, "spans.tsv"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself.

  python3 -m pytest perfbench/test_perfbench.py
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import abset.cli  # noqa: E402  (loads every layer module)
import child  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from abset import index_sets, reporting, thin_orbit  # noqa: E402


def _bindings():
    """Every attribute of every abset module and of IndexSet."""
    out = {(name, key): value for name, mod in sys.modules.items()
           if name.startswith("abset.")
           for key, value in vars(mod).items()}
    out.update({("IndexSet", key): value
                for key, value in vars(index_sets.IndexSet).items()})
    return out


def _small_traced_op(tmp_path):
    """Calls that go through a by-name import (cli.write_json,
    thin_orbit.prefix_counts), a module attribute and IndexSet.__contains__."""
    stages = thin_orbit.build_stages(thin_orbit.ThinConfig.desk(), 2)
    excluded = thin_orbit.deleted_union(stages, 1)
    hits = sum(1 for j in range(1, 50) if j in excluded)
    thin_orbit.restricted_covering(stages, 1, sample_budget=20, seed=1)
    abset.cli.write_json(str(tmp_path / "r.json"), {"hits": hits})


def test_wrong_golden_counts_every_op_as_failed(tmp_path):
    wl = dataclasses.replace(workloads.DESK_VERIFY, golden=("0" * 64, 15607))
    inputs = wl.setup(workloads.DEFAULT_SEED, str(tmp_path))
    res = child.run_ops(wl, inputs, workloads.DEFAULT_SEED, seconds=0)
    assert res["attempted"] == 1
    assert res["failed"] == 1
    assert "differs from the golden" in res["errors"][0]


def test_raising_op_counts_as_failed(tmp_path):
    def boom(inputs):
        raise ValueError("no")
    wl = dataclasses.replace(workloads.RECIPROCAL_DIMENSION, op=boom)
    res = child.run_ops(wl, None, 1, seconds=0)
    assert (res["attempted"], res["failed"]) == (1, 1)


def test_reference_block_brackets_every_op():
    class Counting:
        calls = 0

        def time(self):
            self.calls += 1
            return 0.05

    ref = Counting()
    res = child.run_ops(dataclasses.replace(workloads.LATTICE_DIMENSION,
                                            op=lambda inputs: 1, golden=1),
                        None, 1, seconds=0.01, ref=ref)
    assert len(res["times"]["ref"]) == len(res["times"]["plain"]) + 1
    assert ref.calls == len(res["times"]["ref"])
    assert reference.Reference().block() == reference.Reference().block()


def test_unseeded_workload_checks_golden_at_any_seed():
    assert workloads.DESK_VERIFY.expected(5) is None
    assert (workloads.LATTICE_DIMENSION.expected(5)
            == workloads.LATTICE_DIMENSION.golden)


def test_tracer_spans_add_up_and_originals_come_back(tmp_path):
    before = _bindings()
    original = reporting.write_json
    tracer = spans.Tracer()
    with tracer.traced_op():
        assert abset.cli.write_json.__wrapped__ is original
        assert hasattr(thin_orbit.prefix_counts, "__wrapped__")
        assert hasattr(index_sets.IndexSet.__contains__, "__wrapped__")
        _small_traced_op(tmp_path)
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())

    names = {s[0] for s in tracer.spans}
    assert {"op", "thin_orbit.build_stages", "thin_orbit.deleted_union",
            "thin_orbit.restricted_covering", "words.prefix_counts",
            "index_sets.contains", "reporting.write_json"} <= names
    assert tracer.calls["reporting.write_json"] == 1
    metrics = spans.layer_metrics(tracer, 0.0)
    self_sum = sum(v for k, (v, unit) in metrics.items() if unit == "s"
                   and k not in ("traced_op.s", "trace_overhead.s"))
    assert self_sum == pytest.approx(metrics["traced_op.s"][0], rel=1e-9)
    assert metrics["reporting.report_bytes"][0] == os.path.getsize(
        tmp_path / "r.json")


def test_tracer_restores_originals_when_the_op_raises():
    before = _bindings()
    tracer = spans.Tracer()
    with pytest.raises(ValueError):
        with tracer.traced_op():
            abset.dimension.grid_covering([Fraction(1, 3)], Fraction(2))
    after = _bindings()
    assert all(after[k] is v for k, v in before.items())
    assert tracer.calls["dimension.grid_covering"] == 1


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == {
        "norm_wall_s", "peak_rss_mb", "setup_s"}
    tracer = spans.Tracer()
    with tracer.traced_op():
        pass
    layers = spans.layer_metrics(tracer, 0.0)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        k: unit for k, (_, unit) in layers.items()}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-verify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Self-test of the benchmark: deterministic inputs, and tracing and speed
probes that leave the reports untouched.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import spans  # noqa: E402
import workloads  # noqa: E402
from worker import run_op  # noqa: E402


def test_same_seed_same_ops(tmp_path):
    assert workloads.stream_configs(7) == workloads.stream_configs(7)
    assert workloads.stream_configs(7) != workloads.stream_configs(8)
    a = workloads.materialise(workloads.STREAM, 7, str(tmp_path / "a"))
    b = workloads.materialise(workloads.STREAM, 7, str(tmp_path / "b"))
    assert [op["argv"][0] for op in a] == [op["argv"][0] for op in b]
    for op_a, op_b in zip(a, b):
        with open(op_a["config"], "rb") as fa, open(op_b["config"], "rb") as fb:
            assert fa.read() == fb.read()


def test_stream_stays_in_the_stated_ranges():
    for op, doc in workloads.stream_configs(3):
        assert op["command"] in workloads.STREAM_COMMANDS
        assert op["precision"] in workloads.STREAM_PRECISIONS
        assert workloads.STREAM_N[0] <= op["n"] <= workloads.STREAM_N[1]
        points = doc["points"]
        assert 1 <= len(points) <= 4
        assert len({p["c"] for p in points}) == len(points)
        dstar = sum(len(p["terms"]) for p in points)
        assert workloads.STREAM_DSTAR[0] <= dstar <= workloads.STREAM_DSTAR[1]
        assert 0 <= int(doc["beta"]) <= 120


def test_tracing_leaves_reports_unchanged(tmp_path):
    from jacobisobolev import cli

    stream = workloads.materialise(workloads.STREAM, 5, str(tmp_path))
    small = [op for op in stream if op["n"] <= 12][:3]
    config = os.path.join(os.path.dirname(HERE), "configs", "two_points_mixed_orders.json")
    argvs = [op["argv"] for op in small] + [["verify", "--config", config, "--n", "5"], ["electro", "--config", config, "--n", "6"]]

    plain = [run_op(cli.main, argv) for argv in argvs]
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = [run_op(cli.main, argv) for argv in argvs]
    finally:
        tracer.uninstall()

    assert [r[:3] for r in traced] == [r[:3] for r in plain]
    # Functions bound by `from ... import` in cli, sobolev and electrostatics were seen.
    for name in ("cli.load_config", "sobolev.build_family", "numkernel.poly_roots", "numkernel.sym_eigen", "ladder.build_ladder"):
        assert tracer.calls.get(name, 0) > 0, name
    assert cli.build_family is not None and not hasattr(cli.build_family, "__wrapped__")


def test_speed_probes_leave_reports_unchanged(monkeypatch):
    import worker
    from jacobisobolev import cli

    config = os.path.join(os.path.dirname(HERE), "configs", "two_points_mixed_orders.json")
    argvs = [["verify", "--config", config, "--n", "6"], ["electro", "--config", config, "--n", "8"]]
    plain = [run_op(cli.main, argv) for argv in argvs]
    monkeypatch.setattr(worker, "SAMPLE_EVERY_S", 0.01)
    sampler, sampled, probes = worker.Sampler(), [], 0
    for argv in argvs:
        with sampler:
            sampled.append(run_op(cli.main, argv))
        probes += len(sampler.marks)
    assert probes > 0
    assert [r[:3] for r in sampled] == [r[:3] for r in plain]


def test_benchmark_json_lists_the_reported_metrics():
    import json

    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()

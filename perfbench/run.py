"""jacobisobolev benchmark: one closed-loop client in one single-threaded process.

    python3 perfbench/run.py --workload electro-n40 --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout; the program is taken from its `src/`.
Each repetition ("pass") of the workload runs in a fresh interpreter, like a
user who starts one `sobolev` process per command, so no cache survives
from one pass into the next.  Passes repeat until `--seconds` have gone by,
with a minimum per workload (`workloads.MIN_PASSES`).  Set-up is measured in
separate interpreters that only import the CLI and load the first config.

Times are scaled to a reference machine speed.  The speed of this shared
machine drifts by half within seconds and by more over minutes, as other
tenants come and go, and a fixed loop of mpmath arithmetic (the probe) drifts
with it (see NOTES.md).  The worker probes the speed every 0.2 s while an op
runs; each op's time is multiplied by REFERENCE_PROBE_S / (its time-weighted
mean probe time).  Each set-up is multiplied by REFERENCE_SETUP_PROBE_S /
(the time of an interpreter that imports standard modules, spawned just
before it), because set-up slows less than arithmetic under a busy
neighbour.  The unscaled values are kept in the record.

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones
from a run whose passes wrap the library's public functions (see spans.py).
Outputs are checked outside the timed region (see checks.py).  Human-readable
lines come first; the last line of stdout is the JSON result.  The full
record, with the environment and every failed op, is written to
`.perfbench_work/<workload>-s<seed>-t<trace>/result.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 5
# Probe time (worker.probe_s) that scaled times refer to: a round figure
# near its 3.3-3.7 ms on a quiet 2-vCPU Xeon guest at 2.0 GHz with Python
# 3.11 and mpmath 1.3.
REFERENCE_PROBE_S = 0.004
# Set-up is scaled by the time of SETUP_PROBE, a fixed interpreter that
# imports standard modules only, spawned just before each set-up.  Under a
# busy neighbour, set-up slows less than mpmath arithmetic does, and as much
# as this probe.  REFERENCE_SETUP_PROBE_S is a round figure near its time.
SETUP_PROBE = [sys.executable, "-I", "-c", "import argparse, decimal, email.message, fractions, http.client, json, statistics"]
REFERENCE_SETUP_PROBE_S = 0.1
# The whole run must end within 180 s: no pass starts unless the previous
# one, repeated, would end by PASS_DEADLINE_S, and no worker outlives
# WORKER_DEADLINE_S.
PASS_DEADLINE_S = 120
WORKER_DEADLINE_S = 150

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "op_p50_s": "s",
    "ops_ok_frac": "ratio",
    "min_correct_digits": "digits",
    "peak_rss_mib": "MiB",
}
OUTCOMES = ("ok", "exit2", "exit3", "uncaught", "wrong")


class BenchError(Exception):
    """The benchmark itself cannot produce a result."""


def commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import mpmath

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
    }


class Runner:
    def __init__(self, work: str, deadline: float):
        self.work = work
        self.deadline = deadline
        self.count = 0

    def _run(self, what: str, argv: list, env=None) -> None:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"out of time before {what} could start")
        try:
            proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{what} exceeded the run's time limit") from exc
        if proc.returncode != 0:
            raise BenchError(f"{what} exited {proc.returncode}:\n{proc.stderr[-2000:]}")

    def spawn(self, plan: dict) -> dict:
        """Run one worker interpreter; its result plus the measured set-up
        time and the time of the set-up probe run just before it."""
        self.count += 1
        plan_path = os.path.join(self.work, f"plan-{self.count}.json")
        result_path = os.path.join(self.work, f"result-{self.count}.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        started = time.monotonic()
        self._run("the set-up probe", SETUP_PROBE)
        probe_s = time.monotonic() - started
        started = time.monotonic()
        self._run(f"worker {self.count}", [sys.executable, os.path.join(HERE, "worker.py"), plan_path, result_path], env)
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        result["setup_s"] = result["ready_at"] - started
        result["setup_probe_s"] = probe_s
        return result


def judge(workload: str, ops: list, passes: list):
    """Outcome of every op in every pass, per-op notes, digits, and whether
    the run's outputs are correct.

    The first pass is checked against goldens or invariants; a later pass
    must reproduce its exit codes and reports byte for byte.  A generated op
    whose output fails its check is a failed op (outcome `wrong`); the run
    is incorrect when a shipped-config op leaves its golden report or a pass
    does not reproduce the first."""
    import checks

    verdicts, notes, digits, correct = [], {}, {}, True
    for op, rec in zip(ops, passes[0]["ops"]):
        outcome, problems, op_digits = rec["outcome"], [], None
        try:
            if op["golden"]:
                problems, op_digits = checks.check_golden(workload, op, rec["exit_code"], rec["report"])
            elif outcome == "ok":
                problems, op_digits = checks.check_generated(op, rec["report"])
        except Exception as exc:  # a malformed report must not stop the run
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            outcome = "wrong"
            correct = correct and not op["golden"]
        if op_digits is not None and outcome == "ok":
            digits[op["id"]] = op_digits
        if outcome != "ok":
            message = problems + [line for line in rec["stderr"].splitlines() if line.strip()][-1:]
            notes[op["id"]] = {"outcome": outcome, "detail": "; ".join(message)[:300]}
        verdicts.append(outcome)

    table = [verdicts]
    for later in passes[1:]:
        row = []
        for op, first, rec, outcome in zip(ops, passes[0]["ops"], later["ops"], verdicts):
            if (rec["exit_code"], rec["report"]) != (first["exit_code"], first["report"]):
                notes[op["id"]] = {"outcome": "wrong", "detail": "report differs between passes"}
                outcome, correct = "wrong", False
            row.append(outcome)
        table.append(row)
    return table, notes, digits, correct


def end_to_end(ops, passes, setups, table, digits, measured_s, scaled=True) -> dict:
    """The end-to-end metrics; with `scaled`, every time is in reference
    seconds (see the module's doc)."""

    def speed(probe, reference=REFERENCE_PROBE_S):
        return reference / probe if scaled else 1.0

    op_s = [[rec["seconds"] * speed(rec["probe_s"]) for rec in p["ops"]] for p in passes]
    outcomes = [outcome for row in table for outcome in row]
    latencies = [
        seconds for times, row in zip(op_s, table) for seconds, outcome in zip(times, row) if outcome == "ok"
    ]
    if not digits:  # no op reported a value with a reference
        import checks

        digits = {"none": checks.digits_of(min(op["precision"] for op in ops))}
    return {
        "setup_s": statistics.median(seconds * speed(probe, REFERENCE_SETUP_PROBE_S) for seconds, probe in setups),
        "pass_s": statistics.median(sum(times) for times in op_s),
        # When every op fails, the whole measuring time stands in for p50.
        "op_p50_s": statistics.median(latencies) if latencies else measured_s,
        "ops_ok_frac": outcomes.count("ok") / len(outcomes),
        "min_correct_digits": min(digits.values()),
        "peak_rss_mib": max(p["maxrss_kib"] for p in passes) / 1024,
    }


def per_layer_units() -> dict:
    units = {}
    for name, _, _, timed in spans.TARGETS:
        units[f"{name}.calls"] = "count"
        if timed:
            units[f"{name}.self_s"] = "s"
    for name in spans.DISTINCT_KEYS:
        units[f"{name}.distinct_ratio"] = "ratio"
    for outcome in OUTCOMES:
        units[f"cli.outcome.{outcome}"] = "count"
    units["trace.pass_s"] = "s"
    return units


def per_layer(passes, table) -> dict:
    first = passes[0]["trace"]
    values = {}
    for name, _, _, timed in spans.TARGETS:
        values[f"{name}.calls"] = first["calls"].get(name, 0)
        if timed:
            values[f"{name}.self_s"] = statistics.median(p["trace"]["self_s"].get(name, 0.0) for p in passes)
    for name in spans.DISTINCT_KEYS:
        values[f"{name}.distinct_ratio"] = first["distinct_ratio"][name]
    for outcome in OUTCOMES:
        values[f"cli.outcome.{outcome}"] = table[0].count(outcome)
    values["trace.pass_s"] = statistics.median(p["pass_s"] for p in passes)
    return values


def run(args) -> dict:
    run_start = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "jacobisobolev", "cli.py")):
        raise BenchError(f"no program to measure: {SRC}/jacobisobolev/cli.py is missing")
    sys.path.insert(0, SRC)
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(work, run_start + WORKER_DEADLINE_S)

    ops = workloads.materialise(args.workload, args.seed, work)
    first = {key: ops[0][key] for key in ("config", "n", "precision")}
    probe = {"first": first, "trace": False, "ops": []}
    runner.spawn(probe)  # warm-up: byte-compiles the package once
    setups = []
    for _ in range(SETUP_RUNS):
        result = runner.spawn(probe)
        setups.append((result["setup_s"], result["setup_probe_s"]))

    plan = {"first": first, "trace": bool(args.trace), "ops": ops}
    passes = []
    loop_start = time.monotonic()
    while len(passes) < workloads.MIN_PASSES[args.workload] or (
        time.monotonic() - loop_start < args.seconds
        and time.monotonic() - run_start + passes[-1]["pass_s"] < PASS_DEADLINE_S
    ):
        plan["spans_path"] = os.path.join(work, f"spans-pass{len(passes)}.jsonl")
        passes.append(runner.spawn(plan))
        setups.append((passes[-1]["setup_s"], passes[-1]["setup_probe_s"]))
    measured_s = time.monotonic() - loop_start

    check_start = time.monotonic()
    table, notes, digits, correct = judge(args.workload, ops, passes)
    check_s = time.monotonic() - check_start
    probe = statistics.median(rec["probe_s"] for p in passes for rec in p["ops"])
    flat = [outcome for row in table for outcome in row]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": dict(environment(), probe_s=probe, speed=REFERENCE_PROBE_S / probe),
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "measured_s": measured_s,
        "check_s": check_s,
        "setup_samples": setups,
        "failed_ops": notes,
        "op_seconds": {op["id"]: [p["ops"][i]["seconds"] for p in passes] for i, op in enumerate(ops)},
        "op_probe_s": {op["id"]: [p["ops"][i]["probe_s"] for p in passes] for i, op in enumerate(ops)},
        "op_samples": {op["id"]: [p["ops"][i]["samples"] for p in passes] for i, op in enumerate(ops)},
        "op_digits": digits,
    }
    if args.trace:
        record["metrics"] = per_layer(passes, table)
        units = per_layer_units()
        record["spans_per_pass"] = [p["trace"]["spans"] for p in passes]
    else:
        record["metrics"] = end_to_end(ops, passes, setups, table, digits, measured_s)
        record["unscaled_metrics"] = end_to_end(ops, passes, setups, table, digits, measured_s, scaled=False)
        units = END_TO_END
    record["result"] = {
        "correct": correct,
        "attempted": len(flat),
        "failed": sum(outcome != "ok" for outcome in flat),
        "metrics": {name: {"value": record["metrics"][name], "unit": unit} for name, unit in units.items()},
    }
    record["run_s"] = time.monotonic() - run_start
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def show(record: dict) -> None:
    env = record["environment"]
    print(
        f"{record['workload']} seed={record['seed']} trace={record['trace']}: "
        f"{record['passes']} pass(es) of {record['ops_per_pass']} ops in {record['measured_s']:.1f} s, "
        f"one client, closed loop"
    )
    if not record["trace"]:
        ok = record["result"]["attempted"] - record["result"]["failed"]
        print(f"  op_p50_s over {ok} successful op samples of {record['result']['attempted']}")
    for name, metric in record["result"]["metrics"].items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    for op_id, note in record["failed_ops"].items():
        print(f"  failed {op_id}: {note['outcome']}: {note['detail']}")
    print(
        f"  env: python {env['python']}, mpmath {env['mpmath']} ({env['mpmath_backend']}), "
        f"nproc {env['nproc']}, commit {env['commit']}, "
        f"probe {env['probe_s']:.4f} s (speed {env['speed']:.3f} of reference)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1, help="seed of the generated workload")
    parser.add_argument("--seconds", type=float, default=10, help="how long to keep repeating passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    show(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

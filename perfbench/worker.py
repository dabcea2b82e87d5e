"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/worker.py PLAN.json RESULT.json

The plan names the ops, the config whose loading ends set-up, and whether
to trace.  The worker writes `ready_at` (CLOCK_MONOTONIC, comparable with
the parent's clock) once `jacobisobolev.cli` is imported and the first
config is loaded, then runs every op through `cli.main` in process.  A plan
without ops only measures set-up.

Speed probes measure how fast the machine runs while the ops run: one
before and one after each op and, in untraced passes, one every
SAMPLE_EVERY_S while an op runs (see Sampler).
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time
import traceback

from mpmath import mp, mpf

PROBE_ROUNDS = 400
SAMPLE_EVERY_S = 0.2


def probe_s() -> float:
    """Time of a fixed loop of 256-bit mpmath arithmetic, the work that the
    program spends its time on: how fast the machine runs right now."""
    start = time.perf_counter()
    prec, mp.prec = mp.prec, 256
    try:
        x, y = mpf(1) / 3, mpf(2).sqrt()
        acc = mpf(0)
        for i in range(PROBE_ROUNDS):
            acc = acc + x * y
            x = x * y / (y + i)
    finally:
        mp.prec = prec
    return time.perf_counter() - start


class Sampler:
    """Probes the machine's speed every SAMPLE_EVERY_S while an op runs.

    The speed of a shared machine drifts within one long op, so probes
    around the op alone miss most of it.  SIGALRM interrupts the op between
    two bytecodes; the handler runs one probe and restores the working
    precision, so the op's results do not change.  `marks` holds
    (perf_counter at the probe's start, probe seconds) and `spent_s` the
    handler time, which the caller takes out of the op's time."""

    def __init__(self):
        self.marks = []
        self.spent_s = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.marks.append((start, probe_s()))
        self.spent_s += time.perf_counter() - start

    def __enter__(self):
        self.marks, self.spent_s = [], 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False


def probe_weighted(start, end, before, after, marks) -> float:
    """The time-weighted mean probe time over [start, end].

    Each stretch between two probes, less the probe itself, is weighted by
    its length and gets the mean of the probes at its two ends; `before`
    and `after` are the probes taken next to `start` and `end`."""
    points = [(start, 0.0, before)] + [(t, p, p) for t, p in marks] + [(end, 0.0, after)]
    weight = total = 0.0
    for (t0, d0, p0), (t1, _, p1) in zip(points, points[1:]):
        length = max(t1 - (t0 + d0), 0.0)
        weight += length
        total += length * (p0 + p1) / 2
    return total / weight if weight > 0 else (before + after) / 2


def run_op(main, argv):
    """(exit code or None, outcome, stdout, stderr) of one `cli.main` call."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse rejects a command line with exit 2
        code = exc.code
    except Exception:  # the benchmark records every escape and goes on
        err.write(traceback.format_exc())
        return None, "uncaught", out.getvalue(), err.getvalue()
    outcome = {0: "ok", 2: "exit2", 3: "exit3"}.get(code, "uncaught")
    return code, outcome, out.getvalue(), err.getvalue()


def main(plan_path: str, result_path: str) -> None:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    from jacobisobolev import cli

    first = plan["first"]
    cli.load_config(first["config"], n_override=first["n"], precision_override=first["precision"])
    ready_at = time.monotonic()
    result = {"ready_at": ready_at, "ops": []}

    tracer = None
    if plan["trace"] and plan["ops"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    sampler = Sampler()
    for op in plan["ops"]:
        before = probe_s()
        if tracer is None:
            with sampler:
                start = time.perf_counter()
                code, outcome, out, err = run_op(cli.main, op["argv"])
                end = time.perf_counter()
            marks, spent = sampler.marks, sampler.spent_s
        else:
            tracer.op_id = op["id"]
            start = time.perf_counter()
            code, outcome, out, err = tracer.call(spans.OP_SPAN, run_op, (cli.main, op["argv"]), {})
            end = time.perf_counter()
            marks, spent = [], 0.0
        after = probe_s()
        result["ops"].append(
            {
                "id": op["id"],
                "exit_code": code,
                "outcome": outcome,
                "seconds": end - start - spent,
                "probe_s": probe_weighted(start, end, before, after, marks),
                "samples": len(marks),
                "report": out,
                "stderr": err,
            }
        )
    result["pass_s"] = sum(op["seconds"] for op in result["ops"])
    result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        tracer.uninstall()
        tracer.write_jsonl(plan["spans_path"])
        result["trace"] = {
            "calls": tracer.calls,
            "self_s": tracer.self_s,
            "distinct_ratio": {name: tracer.distinct_ratio(name) for name in spans.DISTINCT_KEYS},
            "spans": len(tracer.spans),
        }

    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:3])

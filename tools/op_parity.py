"""Per-op parity of the benchmark's generated ops and of the shipped configs
between two checkouts.

    python3 tools/op_parity.py run --seeds 1-40 --out new.json [--root CHECKOUT]
    python3 tools/op_parity.py diff base.json new.json

`run` builds every op of the benchmark's `product-stream` workload for each
seed, runs it through `cli.main` in this process, and checks its output as
the benchmark does.  It then runs `zeros`, `ode`, `electro` and `verify` on
every shipped `configs/*.json` at each n that SHIPPED_N gives the command
and each precision in SHIPPED_PRECISIONS, which root S_n and the ladder
polynomials of products that no generated op reaches, and records their
reports.  The ops, the configs and the checks come from the checkout's
`perfbench/workloads.py` and `perfbench/checks.py`, imported as they are,
and the program from its `src/`.  Each op's record holds its outcome (ok,
exit2, exit3, uncaught or wrong), its correct digits where the check gives
them, and a hash of its report.  Generated configs go to
`CHECKOUT/.op_parity_work/`.

`diff` pairs the ops of two records by (seed, op id), prints every change of
outcome, of digits and of report, and exits 1 when an op's outcome gets
worse, its digits drop by more than MAX_DIGIT_DROP, or a shipped-config
report with the same outcome differs from the base's beyond tol(2)
(`checks.diff_reports`).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import time
import traceback

MAX_DIGIT_DROP = 0.5
# Outcomes from best to worst; exit codes 2 and 3 are named failures.
RANK = {"ok": 0, "exit2": 1, "exit3": 1, "wrong": 2, "uncaught": 3}
# Shipped-config ops, recorded with seed None: the degrees of each command,
# electro also at n = 40, the degree of the benchmark's electro-n40 workload.
SHIPPED_N = {"zeros": (12, 24), "ode": (12, 24), "electro": (12, 24, 40), "verify": (12, 24)}
SHIPPED_PRECISIONS = (128, 256, 512)


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_op(main, argv):
    """(outcome, report text) of one in-process `cli.main` call."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        return "uncaught", traceback.format_exc()
    return {0: "ok", 2: "exit2", 3: "exit3"}.get(code, "uncaught"), out.getvalue()


def run(args) -> int:
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import checks
    import workloads
    from jacobisobolev import cli
    from mpmath import mp

    work = os.path.join(root, ".op_parity_work")
    records = []
    for seed in seed_range(args.seeds):
        for op in workloads.materialise(workloads.STREAM, seed, work):
            start = time.perf_counter()
            outcome, report = run_op(cli.main, op["argv"])
            seconds = time.perf_counter() - start
            digits, problems = None, []
            if outcome == "ok":
                prec = mp.prec  # the referee's load_config sets it
                try:
                    problems, digits = checks.check_generated(op, report)
                except Exception as exc:
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
                finally:
                    mp.prec = prec
                if problems:
                    outcome = "wrong"
            records.append(
                {
                    "seed": seed,
                    "id": op["id"],
                    "command": op["command"],
                    "outcome": outcome,
                    "digits": digits,
                    "report_sha256": hashlib.sha256(report.encode()).hexdigest(),
                    "problems": problems,
                    "seconds": seconds,
                }
            )
        done = [r for r in records if r["seed"] == seed]
        print(f"seed {seed}: {sum(r['outcome'] == 'ok' for r in done)}/{len(done)} ok", file=sys.stderr)
    for name in workloads.SHIPPED:
        config = os.path.join(root, "configs", f"{name}.json")
        for command, degrees in SHIPPED_N.items():
            for n in degrees:
                for bits in SHIPPED_PRECISIONS:
                    argv = [command, "--config", config, "--n", str(n), "--precision", str(bits)]
                    start = time.perf_counter()
                    outcome, report = run_op(cli.main, argv)
                    records.append(
                        {
                            "seed": None,
                            "id": f"{command}-n{n}-{bits}:{name}",
                            "command": command,
                            "bits": bits,
                            "outcome": outcome,
                            "digits": None,
                            "report_sha256": hashlib.sha256(report.encode()).hexdigest(),
                            "report": report,
                            "problems": [],
                            "seconds": time.perf_counter() - start,
                        }
                    )
    shipped = [r for r in records if r["seed"] is None]
    print(f"shipped configs: {sum(r['outcome'] == 'ok' for r in shipped)}/{len(shipped)} ok", file=sys.stderr)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"root": root, "seeds": args.seeds, "ops": records}, fh, indent=1)
    return 0


def diff(args) -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
    import checks

    def load(path):
        with open(path, encoding="utf-8") as fh:
            return {(r["seed"] or 0, r["id"]): r for r in json.load(fh)["ops"]}

    base, new = load(args.base), load(args.new)
    worse = 0
    changed_reports = {}
    largest_drop = 0.0
    for key in sorted(base.keys() & new.keys()):
        b, n = base[key], new[key]
        where = f"seed {key[0]} {key[1]}" if key[0] else key[1]
        if n["outcome"] != b["outcome"]:
            bad = RANK[n["outcome"]] > RANK[b["outcome"]]
            worse += bad
            print(f"{'WORSE' if bad else 'better'}: {where}: {b['outcome']} -> {n['outcome']} {n['problems']}")
        elif b["digits"] is not None and n["digits"] is not None:
            drop = b["digits"] - n["digits"]
            largest_drop = max(largest_drop, drop)
            if drop > MAX_DIGIT_DROP:
                worse += 1
                print(f"WORSE: {where}: digits {b['digits']:.2f} -> {n['digits']:.2f}")
        elif b.get("report") and n.get("report"):
            problems = checks.diff_reports(json.loads(n["report"]), json.loads(b["report"]), n["bits"])
            worse += bool(problems)
            for problem in problems:
                print(f"WORSE: {where}: {problem}")
        if n["report_sha256"] != b["report_sha256"]:
            changed_reports.setdefault(n["command"], []).append(where)
    missing = base.keys() ^ new.keys()
    print(f"{len(base.keys() & new.keys())} ops paired, {len(missing)} unpaired")
    for command in sorted({r["command"] for r in new.values()}):
        ops = [k for k in new if new[k]["command"] == command and k in base]
        same = sum(new[k]["outcome"] == base[k]["outcome"] for k in ops)
        print(f"{command}: {len(ops)} ops, {same} same outcome, {len(changed_reports.get(command, []))} reports changed")
    print(f"largest digit drop {largest_drop:.2f}; {worse} worse")
    return 1 if worse or missing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="action", required=True)
    r = sub.add_parser("run", help="run and check every product-stream op of the seeds and the shipped-config ops")
    r.add_argument("--seeds", required=True, help="A-B or A")
    r.add_argument("--out", required=True)
    r.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   help="checkout whose src/ and perfbench/ are used (default: this one)")
    d = sub.add_parser("diff", help="compare two run records")
    d.add_argument("base")
    d.add_argument("new")
    args = parser.parse_args(argv)
    return run(args) if args.action == "run" else diff(args)


if __name__ == "__main__":
    sys.exit(main())

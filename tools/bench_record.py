"""Record the benchmark of one checkout as a point of the trajectory.

    python3 tools/bench_record.py --label L [--seeds 1-3] [--workloads W,...] [--root CHECKOUT]
    python3 tools/bench_record.py --compare BENCH_A.json BENCH_B.json

The first form runs `CHECKOUT/perfbench/run.py` once for every workload and
seed at `--trace 0`, and once per workload for the first seed at
`--trace 1`, each in its own interpreter, as `python3 perfbench/run.py`
would be run by hand.  It writes `BENCH_L.json` at the root of this
checkout: the environment (Python, mpmath and its backend, nproc, the
measured commit, marked `+uncommitted` when `src/` or `perfbench/` differ
from it), every run's JSON result line with its pass count and
speed probe, and per workload the median of each end-to-end metric over the
seeds and the per-layer metrics of the traced run.  CHECKOUT defaults to
this checkout.  Nothing is imported from `src/` and nothing in
`perfbench/` is changed; the runs write their full records to
`CHECKOUT/.perfbench_work/` as usual.

The second form prints, per workload and end-to-end metric, the medians of
two such files and the change from the first to the second.  The times are
scaled to a reference machine speed (perfbench/NOTES.md), so files recorded
at different times compare, though a claim of a gain needs paired runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("electro-n40", "verify-n24", "product-stream")
# Per-run fields of the environment; the rest is the same for every run.
PER_RUN_ENV = ("probe_s", "speed")


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(root: str, workload: str, seed: int, trace: int) -> tuple:
    """One perfbench run, at its default --seconds: its JSON result line and
    its full record."""
    argv = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(root, ".perfbench_work", f"{workload}-s{seed}-t{trace}", "result.json"), encoding="utf-8") as fh:
        return result, json.load(fh)


def commit_of(root: str, recorded: str) -> str:
    """The commit that perfbench recorded, marked when the measured program
    or benchmark differs from it in the checkout's working tree."""
    status = subprocess.run(["git", "-C", root, "status", "--porcelain", "--", "src", "perfbench"],
                            capture_output=True, text=True)
    return recorded + "+uncommitted" if status.returncode == 0 and status.stdout.strip() else recorded


def record(args) -> int:
    root = os.path.abspath(args.root)
    workloads = args.workloads.split(",")
    seeds = seed_range(args.seeds)
    start = time.monotonic()
    runs, environment = [], None
    for workload in workloads:
        for trace, run_seeds in ((0, seeds), (1, seeds[:1])):
            for seed in run_seeds:
                result, full = bench(root, workload, seed, trace)
                env = full["environment"]
                if environment is None:
                    environment = {k: v for k, v in env.items() if k not in PER_RUN_ENV}
                    environment["commit"] = commit_of(root, env["commit"])
                runs.append({
                    "workload": workload,
                    "seed": seed,
                    "trace": trace,
                    "passes": full["passes"],
                    "probe_s": env["probe_s"],
                    "speed": env["speed"],
                    "result": result,
                })
                print(f"{workload} seed {seed} trace {trace}: {full['passes']} pass(es), "
                      f"{result['attempted'] - result['failed']}/{result['attempted']} ok, "
                      f"correct {result['correct']}", file=sys.stderr)
    medians, per_layer = {}, {}
    for workload in workloads:
        plain = [r["result"]["metrics"] for r in runs if r["workload"] == workload and r["trace"] == 0]
        medians[workload] = {name: statistics.median(m[name]["value"] for m in plain) for name in plain[0]}
        traced = [r["result"]["metrics"] for r in runs if r["workload"] == workload and r["trace"] == 1]
        per_layer[workload] = {name: metric["value"] for name, metric in traced[0].items()}
    out = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({
            "label": args.label,
            "environment": environment,
            "seeds": seeds,
            "medians": medians,
            "per_layer": per_layer,
            "runs": runs,
        }, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out} in {time.monotonic() - start:.0f} s", file=sys.stderr)
    return 0


def compare(args) -> int:
    (path_a, path_b) = args.compare
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    print(f"{a['label']} ({a['environment']['commit'][:10]}) -> {b['label']} ({b['environment']['commit'][:10]})")
    for workload in sorted(a["medians"].keys() & b["medians"].keys()):
        print(workload)
        for name, old in a["medians"][workload].items():
            new = b["medians"][workload].get(name)
            if new is None:
                continue
            change = f"{(new - old) / old:+.1%}" if old else "-"
            print(f"  {name:<20} {old:>12.6g} -> {new:<12.6g} {change}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", help="the file is BENCH_<label>.json")
    parser.add_argument("--seeds", default="1-3", help="A-B or A (default 1-3)")
    parser.add_argument("--workloads", default=",".join(WORKLOADS), help="comma-separated (default: all three)")
    parser.add_argument("--root", default=ROOT, help="checkout to measure (default: this one)")
    parser.add_argument("--compare", nargs=2, metavar="BENCH_JSON", help="print the medians of two files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(args)
    if not args.label:
        parser.error("--label is required unless --compare is given")
    return record(args)


if __name__ == "__main__":
    sys.exit(main())

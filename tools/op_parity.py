"""Per-op parity of the benchmark's generated ops and of the shipped configs
between two checkouts.

    python3 tools/op_parity.py run --seeds 1-40 --out new.json [--root CHECKOUT]
    python3 tools/op_parity.py fuzz --seeds 1-4 --out new.json [--root CHECKOUT]
    python3 tools/op_parity.py diff base.json new.json
    python3 tools/op_parity.py referee base.json new.json --root CHECKOUT

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
them, a hash of its report, its stderr, its precision and, for `zeros`, the
roots it reported, for `ode`, its printed coefficients and scalars (a
shipped-config op keeps its whole report).  Where the checkout has
`SobolevFamily.holds`, the one threshold rule of the identity alarms, `run`
wraps it and records for each op the
lowest and highest margin of each alarm, log2(2^-p max(1, |size|) /
|residual|) in bits, keyed by the calling function and the alarm's `what`
(for `cmd_verify`, the suite's name; where the caller has neither, the line
number of the call).  An identity alarm fires below 0.  Two alarms fire
where their quantity holds, that is at 0 or above: the solve's pivot check
(its pivot ratio) and the ladder's degree check `_leading` (the leading
coefficient of D2 or q1..q4).  Generated configs go to
`CHECKOUT/.op_parity_work/`.

`fuzz` runs `verify` and `electro` on products beyond the benchmark's
envelope: for each seed, FUZZ_PRODUCTS products with alpha from FUZZ_ALPHAS,
beta from 0 to 120, one to three points at |c| from 1 to 10 (FUZZ_LOCATIONS,
either sign, so also on the endpoints), one or two orders of at most 2 per
point with masses from FUZZ_LAMBDAS, and n from FUZZ_N, each product at every
precision of FUZZ_PRECISIONS, recorded as `verify-<stem>-<bits>` and
`electro-<stem>-<bits>`.  It writes the same record as `run`, with each
report, so `diff` compares two checkouts' fuzz records as it does their runs.

`diff` pairs the ops of two records by (seed, op id), prints every change of
outcome and of digits and, for each `zeros` op whose report changed but
whose outcome did not, the largest root move max |delta r| / max(1, |r|);
for each such `ode` op, the printed fields that changed and the largest
coefficient move relative to its polynomial's largest |coefficient|, and it
counts the `ode` reports whose only change is `ode_residual`;
it prints every op whose stderr changed but whose outcome did not, counts
the changed reports and stderrs per command, counts on each side the fuzz
products and precisions where `electro` reads what `verify`'s
`electrostatic_critical_point` check reads (the same failing line, or exit 0
beside a passing check) and prints those where it does not, and exits 1
when an op's outcome gets worse, its digits drop by more than
MAX_DIGIT_DROP, or a shipped-config or fuzz report with the same outcome
differs from the base's beyond tol(2) (`checks.diff_reports`); a `verify` check that failed on the base side and
passes, or fails otherwise, is printed and not counted as worse.  It also
prints, for each alarm and precision, the lowest and highest margin over all
ops on each side and the ops where they fall.

`referee` reruns every generated `zeros` op whose outcome got worse or moved
to ok, whose digits dropped or whose report changed, in the checkout
CHECKOUT at REFEREE_BITS of precision, far above the benchmark's own
referee at p + 256 bits, and prints the agreement digits of the roots in
both records against that run.  With the parent as CHECKOUT, a newly ok op
is refereed by code that shares none of the change.  It also reruns every
generated `ode` op there, which the benchmark does not referee, and prints
the lowest agreement of its printed q0..q4 and ode_p0..ode_p2 coefficients
with that run, relative to max(1, |reference|), in both records, with the
lowest per precision.  Each seed's generated configs go to their own
directory, since every seed writes the same config names.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import time
import traceback

MAX_DIGIT_DROP = 0.5
# Precision of the `referee` reruns, well above every op's p + 256 bits.
REFEREE_BITS = 1024
# Outcomes from best to worst; exit codes 2 and 3 are named failures.
RANK = {"ok": 0, "exit2": 1, "exit3": 1, "wrong": 2, "uncaught": 3}
# Shipped-config ops, recorded with seed None: the degrees of each command,
# electro also at n = 40, the degree of the benchmark's electro-n40 workload,
# and the ladder commands at n = 1, 2 and 3, which run its n = 1 branch and
# connection levels 0 to 2.
SHIPPED_N = {"zeros": (12, 24), "ode": (1, 2, 3, 12, 24), "electro": (1, 2, 3, 12, 24, 40), "verify": (1, 2, 3, 12, 24)}
SHIPPED_PRECISIONS = (128, 256, 512)
# The out-of-envelope `verify` products of `fuzz`.
FUZZ_ALPHAS = ("-0.5", "0", "0.5", "2")
FUZZ_LOCATIONS = ("1", "1.25", "1.5", "2", "3", "4", "6", "10")
FUZZ_LAMBDAS = ("0.01", "0.5", "2", "100")
FUZZ_N = (6, 12, 20, 28)
FUZZ_PRECISIONS = (64, 128, 256)
FUZZ_PRODUCTS = 20
# The printed coefficients of an `ode` report, and the LadderData fields
# they print; then its printed scalars.
ODE_FIELDS = {"q0": "q0", "q1": "q1", "q2": "q2", "q3": "q3", "q4": "q4", "ode_p0": "P0", "ode_p1": "P1", "ode_p2": "P2"}
ODE_SCALARS = ("lambda_n", "ode_residual")


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_op(main, argv):
    """(outcome, report text, stderr text) of one in-process `cli.main` call."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        return "uncaught", traceback.format_exc(), err.getvalue()
    return {0: "ok", 2: "exit2", 3: "exit3"}.get(code, "uncaught"), out.getvalue(), err.getvalue()


def alarm_name(frame) -> str:
    """caller:what of a `holds` call from `frame`: the caller's `what` where it
    has one, else its `name` (the suite of a `cmd_verify` call), else the line
    number of the call."""
    what = frame.f_locals.get("what", frame.f_locals.get("name"))
    return f"{frame.f_code.co_name}:{what if isinstance(what, str) else frame.f_lineno}"


def record_margins(family_class) -> dict:
    """Wrap family_class.holds so that each call widens the dict's [lowest,
    highest] entry for its alarm by log2(2^-p max(1, |size|) / |residual|) in
    bits; return the dict, which the caller empties between ops."""
    import mpmath

    margins = {}
    holds = family_class.holds

    def recording(self, residual, size):
        with mpmath.workprec(53):
            r, s = abs(residual), max(1, abs(size))
            margin = float(mpmath.log(s, 2) - mpmath.log(r, 2)) - self.prec if r else float("inf")
        name = alarm_name(sys._getframe(1))
        lo, hi = margins.get(name, (margin, margin))
        margins[name] = [min(lo, margin), max(hi, margin)]
        return holds(self, residual, size)

    family_class.holds = recording
    return margins


def run(args) -> int:
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import checks
    import workloads
    from jacobisobolev import cli
    from jacobisobolev.sobolev import SobolevFamily
    from mpmath import mp

    margins = record_margins(SobolevFamily) if hasattr(SobolevFamily, "holds") else {}
    work = os.path.join(root, ".op_parity_work")
    records = []
    for seed in seed_range(args.seeds):
        for op in workloads.materialise(workloads.STREAM, seed, work):
            record = op_record(cli.main, margins, seed, op["id"], op["precision"], op["argv"])
            report = record.pop("report")
            if record["outcome"] == "ok":
                prec = mp.prec  # the referee's load_config sets it
                try:
                    record["problems"], record["digits"] = checks.check_generated(op, report)
                except Exception as exc:
                    record["problems"] = [f"check raised {type(exc).__name__}: {exc}"]
                finally:
                    mp.prec = prec
                if record["problems"]:
                    record["outcome"] = "wrong"
            if op["command"] == "zeros" and record["outcome"] in ("ok", "wrong"):
                record["roots"] = [[r["re"], r["im"]] for r in json.loads(report)["roots"]]
            if op["command"] == "ode" and record["outcome"] in ("ok", "wrong"):
                record["ode"] = ode_fields(json.loads(report))
            records.append(record)
        done = [r for r in records if r["seed"] == seed]
        print(f"seed {seed}: {sum(r['outcome'] == 'ok' for r in done)}/{len(done)} ok", file=sys.stderr)
    for name in workloads.SHIPPED:
        config = os.path.join(root, "configs", f"{name}.json")
        for command, degrees in SHIPPED_N.items():
            for n in degrees:
                for bits in SHIPPED_PRECISIONS:
                    argv = [command, "--config", config, "--n", str(n), "--precision", str(bits)]
                    records.append(op_record(cli.main, margins, None, f"{command}-n{n}-{bits}:{name}", bits, argv))
    shipped = [r for r in records if r["seed"] is None]
    print(f"shipped configs: {sum(r['outcome'] == 'ok' for r in shipped)}/{len(shipped)} ok", file=sys.stderr)
    return write_record(args, root, records)


def op_record(main, margins, seed, op_id, bits, argv) -> dict:
    """The record of one op, run in process with its alarm margins."""
    margins.clear()
    start = time.perf_counter()
    outcome, report, stderr = run_op(main, argv)
    return {
        "seed": seed,
        "id": op_id,
        "command": argv[0],
        "bits": bits,
        "outcome": outcome,
        "digits": None,
        "report_sha256": hashlib.sha256(report.encode()).hexdigest(),
        "report": report,
        "stderr": stderr,
        "problems": [],
        "seconds": time.perf_counter() - start,
        "margins": dict(margins),
    }


def ode_fields(report) -> dict:
    """The printed coefficients and scalars of an `ode` report."""
    return {key: report[key] for key in (*ODE_FIELDS, *ODE_SCALARS)}


def write_record(args, root, records) -> int:
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"root": root, "seeds": args.seeds, "ops": records}, fh, indent=1)
    return 0


def fuzz_configs(seed: int) -> list:
    """(op id stem, config document) of the FUZZ_PRODUCTS products of a seed."""
    rng = random.Random(seed)
    signed = [s + c for c in FUZZ_LOCATIONS for s in ("", "-")]
    out = []
    for i in range(FUZZ_PRODUCTS):
        points = [
            {"c": c, "terms": [{"k": k, "lambda": rng.choice(FUZZ_LAMBDAS)}
                               for k in sorted(rng.sample((0, 1, 2), rng.randint(1, 2)))]}
            for c in rng.sample(signed, rng.randint(1, 3))
        ]
        doc = {"alpha": rng.choice(FUZZ_ALPHAS), "beta": str(rng.randint(0, 120)), "points": points,
               "n": rng.choice(FUZZ_N)}
        out.append((f"{i:02d}-n{doc['n']}", doc))
    return out


def fuzz(args) -> int:
    root = os.path.abspath(args.root)
    sys.path.insert(0, os.path.join(root, "src"))
    from jacobisobolev import cli
    from jacobisobolev.sobolev import SobolevFamily

    margins = record_margins(SobolevFamily) if hasattr(SobolevFamily, "holds") else {}
    work = os.path.join(root, ".op_parity_work", "fuzz")
    os.makedirs(work, exist_ok=True)
    records = []
    for seed in seed_range(args.seeds):
        for stem, doc in fuzz_configs(seed):
            config = os.path.join(work, f"seed{seed}-{stem}.json")
            with open(config, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1)
            for bits in FUZZ_PRECISIONS:
                for command in ("verify", "electro"):
                    argv = [command, "--config", config, "--precision", str(bits)]
                    records.append(op_record(cli.main, margins, seed, f"{command}-{stem}-{bits}", bits, argv))
        done = [r for r in records if r["seed"] == seed]
        print(f"seed {seed}: {sum(r['outcome'] == 'ok' for r in done)}/{len(done)} ok", file=sys.stderr)
    return write_record(args, root, records)


def load(path) -> dict:
    """The ops of a run record by (seed, op id); shipped-config ops have seed 0."""
    with open(path, encoding="utf-8") as fh:
        return {(r["seed"] or 0, r["id"]): r for r in json.load(fh)["ops"]}


def refereed(b, n) -> bool:
    """Whether `referee` reruns a generated zeros op: its outcome got worse
    or moved to ok, it lost more than MAX_DIGIT_DROP digits, or its report
    changed."""
    moved = n["outcome"] != b["outcome"] and (RANK[n["outcome"]] > RANK[b["outcome"]] or n["outcome"] == "ok")
    changed = n["report_sha256"] != b["report_sha256"]
    return n["command"] == "zeros" and (moved or changed or digit_drop(b, n))


def digit_drop(b, n) -> bool:
    """Whether an op with the same outcome lost more than MAX_DIGIT_DROP digits."""
    return b["digits"] is not None and n["digits"] is not None and b["digits"] - n["digits"] > MAX_DIGIT_DROP


def root_move(base_roots, new_roots) -> str:
    """max |delta r| / max(1, |r|) over the new roots, each paired with its
    nearest base root; `diff` has put perfbench/ on the path."""
    import checks
    import mpmath
    from mpmath import mpc, mpf

    if len(base_roots) != len(new_roots):
        return f"{len(base_roots)} -> {len(new_roots)} roots"
    with mpmath.workprec(REFEREE_BITS):
        got, ref = ([mpc(mpf(re), mpf(im)) for re, im in roots] for roots in (new_roots, base_roots))
        move = max(abs(g - r) / max(1, abs(r)) for g, r in zip(got, checks._match_nearest(got, ref)))
        return f"largest root move {mpmath.nstr(move, 3)}"


def ode_move(b, n):
    """(fields, move) of an `ode` op whose report changed: the printed fields that
    differ, and the largest coefficient move, max |delta a_i| / max_i |a_i| over
    each polynomial whose coefficient count holds, as text; None where a record
    holds neither the `ode` fields of a generated op nor the report of a shipped one."""
    import mpmath
    from mpmath import mpf

    base, new = (r["ode"] if "ode" in r else ode_fields(json.loads(r["report"])) if r.get("report") else None
                 for r in (b, n))
    if base is None or new is None:
        return None
    fields = [key for key in (*ODE_FIELDS, *ODE_SCALARS) if base.get(key) != new.get(key)]
    worst, counts = mpf(0), []
    with mpmath.workprec(REFEREE_BITS):
        for key in ODE_FIELDS:
            if len(base[key]) != len(new[key]):
                counts.append(key)
                continue
            scale = max([abs(mpf(c)) for c in base[key]], default=0)
            move = max([abs(mpf(x) - mpf(y)) for x, y in zip(base[key], new[key])], default=0)
            if move:
                worst = max(worst, move / scale if scale else mpmath.inf)
        text = "0" if not worst else f"{mpmath.nstr(worst, 3)} (2^{float(mpmath.log(worst, 2)):.1f})"
    if counts:
        text += f", coefficient count differs in {', '.join(counts)}"
    return fields, text


def verify_moves(where, base_report, new_report) -> None:
    """Print each `verify` check that passes on the new side only, and each that fails
    on both with another detail, and drop them from both reports, which hold the same
    outcome, so that only a check that passed on the base side can count as worse."""
    base = {c["name"]: c for c in base_report["checks"]}
    for check in list(new_report["checks"]):
        old = base.get(check["name"])
        if old is None or old["passed"] or old["detail"] == check["detail"]:
            continue
        kind = "better" if check["passed"] else "failure"
        print(f"{kind}: {where}: {check['name']}: {old['detail']!r} -> {check['detail']!r}")
        base_report["checks"].remove(old)
        new_report["checks"].remove(check)


def electro_beside_verify(records) -> tuple:
    """(agreeing, paired, disagreements) over the fuzz products and precisions of a
    record that ran both: `electro` agrees where it exits with the line that
    `verify`'s electrostatic_critical_point check fails by, where it exits 0
    beside a passing check, or where both exit with one line before any check."""
    agreeing, paired, disagreements = 0, 0, []
    for (seed, op_id), e in sorted(records.items()):
        v = records.get((seed, "verify-" + op_id[len("electro-"):]))
        if e["command"] != "electro" or v is None or not seed:
            continue
        if v.get("report"):
            check = next((c for c in json.loads(v["report"])["checks"]
                          if c["name"] == "electrostatic_critical_point"), None)
            if check is None:
                continue
            want = ("ok", "") if check["passed"] else ("exit3", check["detail"] + "\n")
        else:
            want = (v["outcome"], v["stderr"])
        paired += 1
        if (e["outcome"], e["stderr"]) == want:
            agreeing += 1
        else:
            disagreements.append(f"seed {seed} {op_id}: electro {e['outcome']} {e['stderr']!r}, verify {want!r}")
    return agreeing, paired, disagreements


def margin_range(records) -> dict:
    """(alarm, bits) -> [(lowest margin in bits, op), (highest, op)] over a run record."""
    out = {}
    for (seed, op_id), r in sorted(records.items()):
        where = f"seed {seed} {op_id}" if seed else op_id
        for alarm, (lo, hi) in r.get("margins", {}).items():
            old = out.setdefault((alarm, r.get("bits", 0)), [(lo, where), (hi, where)])
            out[alarm, r.get("bits", 0)] = [min(old[0], (lo, where)), max(old[1], (hi, where))]
    return out


def diff(args) -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
    import checks

    base, new = load(args.base), load(args.new)
    worse = 0
    changed_reports, changed_stderr = {}, {}
    largest_drop = 0.0
    residual_only = 0
    for key in sorted(base.keys() & new.keys()):
        b, n = base[key], new[key]
        where = f"seed {key[0]} {key[1]}" if key[0] else key[1]
        if n["outcome"] != b["outcome"]:
            bad = RANK[n["outcome"]] > RANK[b["outcome"]]
            worse += bad
            print(f"{'WORSE' if bad else 'better'}: {where}: {b['outcome']} -> {n['outcome']} {n['problems']}")
        elif b["digits"] is not None and n["digits"] is not None:
            largest_drop = max(largest_drop, b["digits"] - n["digits"])
            if digit_drop(b, n):
                worse += 1
                print(f"WORSE: {where}: digits {b['digits']:.2f} -> {n['digits']:.2f}")
        elif b.get("report") and n.get("report"):
            base_report, new_report = json.loads(b["report"]), json.loads(n["report"])
            if n["command"] == "verify":
                verify_moves(where, base_report, new_report)
            problems = checks.diff_reports(new_report, base_report, n["bits"])
            worse += bool(problems)
            for problem in problems:
                print(f"WORSE: {where}: {problem}")
        if n["report_sha256"] != b["report_sha256"]:
            changed_reports.setdefault(n["command"], []).append(where)
            if n["outcome"] == b["outcome"] and "roots" in b and "roots" in n:
                print(f"moved: {where}: {root_move(b['roots'], n['roots'])}")
            moved = ode_move(b, n) if n["command"] == "ode" and n["outcome"] == b["outcome"] else None
            if moved is not None:
                fields, move = moved
                residual_only += fields == ["ode_residual"]
                print(f"ode: {where} ({n['bits']} bits): changed {', '.join(fields) or 'nothing printed'}; "
                      f"largest coefficient move {move} of its polynomial's largest |coefficient|")
        if n["outcome"] == b["outcome"] and n.get("stderr", "") != b.get("stderr", ""):
            changed_stderr.setdefault(n["command"], []).append(where)
            print(f"stderr: {where}: {b.get('stderr', '')!r} -> {n.get('stderr', '')!r}")
    ranges = {"base": margin_range(base), "new": margin_range(new)}
    for alarm, bits in sorted(ranges["base"].keys() | ranges["new"].keys()):
        sides = [f"{side} " + (", ".join(f"{m:.1f} bits ({op})" for m, op in ranges[side][alarm, bits])
                               if (alarm, bits) in ranges[side] else "-") for side in ranges]
        print(f"margin {alarm} at {bits or '?'} bits, lowest and highest: " + "; ".join(sides))
    for side, records in (("base", base), ("new", new)):
        agreeing, paired, disagreements = electro_beside_verify(records)
        for line in disagreements:
            print(f"electro beside verify ({side}): {line}")
        if paired:
            print(f"electro beside verify ({side}): {agreeing} of {paired} fuzz ops read one cause")
    missing = base.keys() ^ new.keys()
    print(f"{len(base.keys() & new.keys())} ops paired, {len(missing)} unpaired")
    for command in sorted({r["command"] for r in new.values()}):
        ops = [k for k in new if new[k]["command"] == command and k in base]
        same = sum(new[k]["outcome"] == base[k]["outcome"] for k in ops)
        print(
            f"{command}: {len(ops)} ops, {same} same outcome, {len(changed_reports.get(command, []))} reports changed, "
            f"{len(changed_stderr.get(command, []))} stderrs changed"
        )
    if changed_reports.get("ode"):
        print(f"ode: {residual_only} of {len(changed_reports['ode'])} changed reports differ only in ode_residual")
    print(f"largest digit drop {largest_drop:.2f}; {worse} worse")
    return 1 if worse or missing else 0


def referee(args) -> int:
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import checks
    import workloads
    from jacobisobolev.cli import load_config
    from jacobisobolev.ladder import build_ladder
    from jacobisobolev.sobolev import build_family, zeros_of
    from mpmath import mp, mpc, mpf

    base, new = load(args.base), load(args.new)
    paired = [key for key in sorted(base.keys() & new.keys()) if key[0]]
    flagged = [key for key in paired if refereed(base[key], new[key])]
    odes = [key for key in paired if new[key]["command"] == "ode"]
    work = os.path.join(root, ".op_parity_work")
    ops = {}
    lowest = {}  # (record name, bits) -> lowest ode digits
    prec = mp.prec
    try:
        for seed, op_id in flagged + odes:
            if seed not in ops:
                seed_work = os.path.join(work, f"seed-{seed}")
                ops[seed] = {op["id"]: op for op in workloads.materialise(workloads.STREAM, seed, seed_work)}
            op = ops[seed][op_id]
            bits = op["precision"]
            cfg = load_config(op["config"], n_override=op["n"], precision_override=REFEREE_BITS)
            family = build_family(cfg["product"], cfg["n"])
            figures = []
            if op["command"] == "zeros":
                ref = [mpc(re, im) for re, im in zeros_of(family, cfg["n"]).roots]
                for name, record in (("base", base[seed, op_id]), ("new", new[seed, op_id])):
                    if "roots" not in record:
                        figures.append(f"{name} {record['outcome']}")
                        continue
                    got = [mpc(mpf(re), mpf(im)) for re, im in record["roots"]]
                    at_bits = checks.agreement_digits(got, checks._match_nearest(got, ref), bits)
                    digits = "-" if record["digits"] is None else f"{record['digits']:.2f}"
                    figures.append(f"{name} {record['outcome']} {digits} -> {at_bits:.2f}")
                where = f"seed {seed} {op_id} ({bits} bits)"
                print(f"{where}: digits against p + 256 -> against {REFEREE_BITS} bits: " + "; ".join(figures))
                continue
            ld = build_ladder(family, cfg["n"])
            for name, record in (("base", base[seed, op_id]), ("new", new[seed, op_id])):
                if "ode" not in record:
                    figures.append(f"{name} {record['outcome']}")
                    continue
                worst = float("inf")
                for key, attr in ODE_FIELDS.items():
                    got, ref = [mpf(c) for c in record["ode"][key]], getattr(ld, attr).coeffs
                    if len(got) != len(ref):
                        worst = -float("inf")  # a coefficient count that differs agrees on nothing
                        break
                    worst = min(worst, checks.agreement_digits(got, ref, bits))
                lowest[name, bits] = min(lowest.get((name, bits), float("inf")), worst)
                figures.append(f"{name} {record['outcome']} {worst:.2f}")
            print(f"seed {seed} {op_id} ({bits} bits): ode digits against {REFEREE_BITS} bits: " + "; ".join(figures))
    finally:
        mp.prec = prec
    print(f"{len(flagged)} changed, flagged or newly ok zeros ops refereed at {REFEREE_BITS} bits")
    for (name, bits), worst in sorted(lowest.items()):
        print(f"ode {name} at {bits} bits: lowest agreement {worst:.2f} digits")
    print(f"{len(odes)} ode ops refereed at {REFEREE_BITS} bits")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="action", required=True)
    r = sub.add_parser("run", help="run and check every product-stream op of the seeds and the shipped-config ops")
    r.add_argument("--seeds", required=True, help="A-B or A")
    r.add_argument("--out", required=True)
    r.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   help="checkout whose src/ and perfbench/ are used (default: this one)")
    z = sub.add_parser("fuzz", help="run verify and electro on the seeds' out-of-envelope products at each fuzz precision")
    z.add_argument("--seeds", required=True, help="A-B or A")
    z.add_argument("--out", required=True)
    z.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   help="checkout whose src/ is used (default: this one)")
    d = sub.add_parser("diff", help="compare two run or fuzz records")
    d.add_argument("base")
    d.add_argument("new")
    f = sub.add_parser("referee", help="rerun the flagged and newly ok zeros ops and every ode op of two records at high precision")
    f.add_argument("base")
    f.add_argument("new")
    f.add_argument("--root", required=True, help="checkout whose src/ computes the referee (the parent's)")
    args = parser.parse_args(argv)
    return {"run": run, "fuzz": fuzz, "diff": diff, "referee": referee}[args.action](args)


if __name__ == "__main__":
    sys.exit(main())

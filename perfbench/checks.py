"""Output checks, run outside the timed region.

Shipped-config ops are compared with their golden reports: strings, counts,
booleans and exit codes exactly, numbers to tol(2) relative.  Generated ops
are checked against an invariant of their output that the command itself
does not compute:

- `polys`: S_n is Sobolev-orthogonal to the monic Jacobi P_0..P_{n-1};
- `zeros`: root counts equal those of a referee run at p + 256 bits;
- `ode`: the reported residual is within `verify`'s threshold tol(4).

Every check returns the problems it found (empty when the output is right)
and, where the op reports something with a reference value, its number of
correct decimal digits.
"""

from __future__ import annotations

import json
import math
import os
import re

import mpmath
from mpmath import mp, mpc, mpf

REFEREE_EXTRA_BITS = 256
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def digits_of(bits: int) -> int:
    return int(math.floor(bits * math.log10(2)))


def tol(bits: int, frac: int) -> mpf:
    """The library's tolerance 10^-(digits/frac) at `bits` of precision."""
    return mpf(10) ** -(digits_of(bits) // frac)


def golden_path(workload: str, name: str) -> str:
    return os.path.join(GOLDEN_DIR, workload, f"{name}.json")


def _diff_text(got: str, want: str, bits: int, where: str, out: list) -> None:
    got_nums, want_nums = NUMBER.findall(got), NUMBER.findall(want)
    if NUMBER.split(got) != NUMBER.split(want) or len(got_nums) != len(want_nums):
        out.append(f"{where}: {got!r} != {want!r}")
        return
    limit = tol(bits, 2)
    for a, b in zip(got_nums, want_nums):
        a, b = mpf(a), mpf(b)
        if abs(a - b) > limit * max(abs(a), abs(b), 1):
            out.append(f"{where}: {got!r} differs from {want!r} beyond tol(2)")
            return


def _diff(got, want, bits: int, where: str, out: list) -> None:
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            out.append(f"{where}: keys differ")
            return
        for key in want:
            _diff(got[key], want[key], bits, f"{where}.{key}", out)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            out.append(f"{where}: length differs")
            return
        for i, (a, b) in enumerate(zip(got, want)):
            _diff(a, b, bits, f"{where}[{i}]", out)
    elif isinstance(want, str) and isinstance(got, str):
        _diff_text(got, want, bits, where, out)
    elif type(got) is not type(want) or got != want:
        out.append(f"{where}: {got!r} != {want!r}")


def diff_reports(got: dict, want: dict, bits: int) -> list:
    """Field-by-field differences between a report and its golden copy."""
    out = []
    with mp.workprec(bits + 64):
        _diff(got, want, bits, "report", out)
    return out


def agreement_digits(values, reference, bits: int) -> float:
    """Lowest number of decimal digits on which `values` match `reference`
    (paired in order), capped at the digits carried by `bits`."""
    cap = digits_of(bits)
    worst = float(cap)
    for v, r in zip(values, reference):
        err = abs(v - r) / max(abs(r), 1)
        if err:
            worst = min(worst, float(-mpmath.log10(err)))
    return worst


def residual_digits(value, bits: int) -> float:
    """Decimal digits to which an identity with residual `value` holds."""
    cap = digits_of(bits)
    return cap if value == 0 else min(float(cap), float(-mpmath.log10(abs(value))))


def _match_nearest(values: list, reference: list) -> list:
    """Reference values reordered to pair each of `values` with its nearest."""
    pool = list(reference)
    paired = []
    for v in values:
        best = min(range(len(pool)), key=lambda i: abs(pool[i] - v))
        paired.append(pool.pop(best))
    return paired


def check_golden(workload: str, op: dict, exit_code, report_text: str):
    """(problems, digits) of a shipped-config op against its golden report."""
    with open(golden_path(workload, op["golden"]), encoding="utf-8") as fh:
        golden = json.load(fh)
    if exit_code != golden["exit_code"]:  # None: an uncaught exception
        return [f"exit code {exit_code}, golden {golden['exit_code']}"], None
    report = json.loads(report_text)
    bits = op["precision"]
    problems = diff_reports(report, golden["report"], bits)
    with mp.workprec(bits + REFEREE_EXTRA_BITS):
        if op["command"] == "electro":
            got = [mpf(z) for z in report["zeros"]]
            ref = [mpf(z) for z in golden["referee_zeros"]]
            if len(got) != len(ref):
                return problems + ["zero count differs from the referee"], None
            return problems, agreement_digits(got, ref, bits)
        residuals = [NUMBER.findall(c["detail"]) for c in report["checks"]]
        digits = [residual_digits(mpf(nums[-1]), bits) for nums in residuals if nums]
        return problems, min(digits, default=float(digits_of(bits)))


def referee_zeros(op: dict):
    """`zeros_of` for the op's product at p + 256 bits."""
    from jacobisobolev.cli import load_config
    from jacobisobolev.sobolev import build_family, zeros_of

    cfg = load_config(op["config"], n_override=op["n"], precision_override=op["precision"] + REFEREE_EXTRA_BITS)
    return zeros_of(build_family(cfg["product"], cfg["n"]), cfg["n"])


def _check_zeros(op: dict, report: dict):
    bits = op["precision"]
    try:
        ref = referee_zeros(op)
    except Exception as exc:  # a referee failure leaves the output unconfirmed
        return [f"referee failed: {type(exc).__name__}: {exc}"], None
    counts = ("roots", len(report["roots"]), len(ref.roots)), (
        "real_roots", len(report["real_roots"]), len(ref.real_roots)), (
        "count_inside", report["count_inside"], ref.count_inside), (
        "sign_changes_inside", report["sign_changes_inside"], ref.sign_changes_inside)
    problems = [f"{name}: {got} vs referee {want}" for name, got, want in counts if got != want]
    if problems:
        return problems, None
    got = [mpc(mpf(r["re"]), mpf(r["im"])) for r in report["roots"]]
    ref_roots = [mpc(re, im) for re, im in ref.roots]
    return [], agreement_digits(got, _match_nearest(got, ref_roots), bits)


def _check_polys(op: dict, report: dict):
    from jacobisobolev.cli import load_config
    from jacobisobolev.jacobi import build_jacobi
    from jacobisobolev.numkernel import Poly
    from jacobisobolev.sobolev import inner_sobolev

    bits, n = op["precision"], op["n"]
    cfg = load_config(op["config"], n_override=n, precision_override=bits + 64)
    product = cfg["product"]
    s = Poly([mpf(c) for c in report["coefficients"]])
    if s.degree != n or s.leading != 1:
        return [f"S_n is not monic of degree {n}"], None
    cache = build_jacobi(product.jacobi, 2 * n)
    norm_sq = inner_sobolev(s, s, product, cache)
    worst = mpf(0)
    for j in range(n):
        p = cache.poly(j)
        cosine = abs(inner_sobolev(s, p, product, cache)) / mpmath.sqrt(norm_sq * inner_sobolev(p, p, product, cache))
        worst = max(worst, cosine)
    problems = []
    if worst > tol(bits, 4):
        problems.append(f"orthogonality defect {mpmath.nstr(worst, 5)} above tol(4)")
    if abs(norm_sq - mpf(report["sobolev_norm_sq"])) > tol(bits, 4) * norm_sq:
        problems.append("sobolev_norm_sq differs from <S_n, S_n>")
    return problems, None


def _check_ode(op: dict, report: dict):
    with mp.workprec(op["precision"]):
        residual = mpf(report["ode_residual"])
        if residual > tol(op["precision"], 4):
            return [f"ode_residual {report['ode_residual']} above tol(4)"], None
    return [], None


GENERATED_CHECKS = {"polys": _check_polys, "zeros": _check_zeros, "ode": _check_ode}


def check_generated(op: dict, report_text: str):
    """(problems, digits) of a generated op that exited 0."""
    return GENERATED_CHECKS[op["command"]](op, json.loads(report_text))

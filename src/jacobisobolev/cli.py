"""Command-line front end.

Usage:
    sobolev <polys|zeros|ode|electro|verify> --config FILE
            [--n INT] [--precision BITS] [--out PATH] [--format json|csv]

The config file is JSON with all real numbers as decimal strings, parsed at
the target working precision (never through a double).  Reports are JSON
with sorted snake_case keys (schema 1) and are byte-identical for identical
inputs; the zeros command can emit CSV instead.
Exit codes: 0 ok, 2 config error, 3 invariant/structure failure.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

import mpmath
from mpmath import mp, mpf

from .electrostatics import ElectroError, classify, critical_point
from .jacobi import InvalidMeasure, JacobiParams, classical_ode_residual
from .ladder import StructureError, build_ladder, ladder_residual, ode_residual, recurrence_residual
from .numkernel import NumKernelError, precision_digits
from .sobolev import (
    MassPoint,
    SobolevError,
    SobolevProduct,
    build_family,
    inner_sobolev,
    is_sequentially_ordered,
    zeros_of,
)

SCHEMA_VERSION = 1


class ConfigError(Exception):
    """Malformed run configuration (exit code 2)."""


def _fmt(x) -> str:
    """Full-precision decimal rendering of an mpf, stable at fixed precision."""
    return mpmath.nstr(mpf(x), precision_digits(), strip_zeros=True)


def _fmt_list(xs) -> list:
    return [_fmt(x) for x in xs]


def _decimal(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"{where}: missing field '{key}'")
    val = cfg[key]
    if not isinstance(val, str):
        raise ConfigError(f"{where}.{key}: reals must be decimal strings, got {type(val).__name__}")
    try:
        x = mpf(val)
    except Exception as exc:
        raise ConfigError(f"{where}.{key}: not a decimal number: {val!r}") from exc
    if not mpmath.isfinite(x):
        raise ConfigError(f"{where}.{key}: not a finite number: {val!r}")
    return x


def _is_int(val) -> bool:
    """A JSON integer; true and false are not integers."""
    return isinstance(val, int) and not isinstance(val, bool)


def load_config(path: str, n_override=None, precision_override=None) -> dict:
    """Parse, validate, and normalize a run configuration file.

    Sets the process-wide working precision ``mp.prec`` to the configured
    bits, before the decimals are parsed, and leaves it there: callers that
    run library functions on the result outside ``main`` (the benchmark's
    output checks) rely on it.  ``main`` restores its caller's precision."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON (line {exc.lineno}, col {exc.colno})") from exc
    except RecursionError as exc:
        raise ConfigError("config nests too deeply") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")

    bits = precision_override if precision_override is not None else raw.get("precision_bits", 256)
    if not _is_int(bits) or bits < 53:
        raise ConfigError(f"precision_bits: need an integer >= 53 (config or --precision), got {bits!r}")
    mp.prec = bits

    alpha = _decimal(raw, "alpha", "config")
    beta = _decimal(raw, "beta", "config")
    points_raw = raw.get("points", [])
    if not isinstance(points_raw, list):
        raise ConfigError("config.points must be a list")
    points = []
    for i, entry in enumerate(points_raw):
        where = f"config.points[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{where}: must be an object")
        c = _decimal(entry, "c", where)
        terms_raw = entry.get("terms")
        if not isinstance(terms_raw, list) or not terms_raw:
            raise ConfigError(f"{where}.terms: need a nonempty list")
        terms = []
        for t, term in enumerate(terms_raw):
            tw = f"{where}.terms[{t}]"
            if not isinstance(term, dict) or not _is_int(term.get("k")) or term["k"] < 0:
                raise ConfigError(f"{tw}: need an object with integer 'k' >= 0")
            terms.append((term["k"], _decimal(term, "lambda", tw)))
        points.append((c, terms))

    n = n_override if n_override is not None else raw.get("n")
    if not _is_int(n) or n < 0:
        raise ConfigError(f"n: need a nonnegative integer (config or --n), got {n!r}")

    try:
        params = JacobiParams(alpha, beta)
        product = SobolevProduct(params, [MassPoint(c, terms) for c, terms in points])
    except (InvalidMeasure, SobolevError) as exc:
        raise ConfigError(str(exc)) from exc

    return {"product": product, "n": n, "precision_bits": bits}


def _base_report(cfg: dict, command: str) -> dict:
    product = cfg["product"]
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "alpha": _fmt(product.jacobi.alpha),
        "beta": _fmt(product.jacobi.beta),
        "points": [
            {"c": _fmt(p.c), "terms": [{"k": k, "lambda": _fmt(lam)} for k, lam in p.terms]}
            for p in product.points
        ],
        "n": cfg["n"],
        "precision_bits": cfg["precision_bits"],
    }


def cmd_polys(cfg: dict) -> dict:
    product, n = cfg["product"], cfg["n"]
    family = build_family(product, n)
    sn = family.poly(n)
    report = _base_report(cfg, "polys")
    report.update(
        {
            "coefficients": _fmt_list(sn.coeffs),
            "degree": sn.degree,
            "sobolev_norm_sq": _fmt(family.sobolev_norm_sq(n)),
            "derivative_vector": _fmt_list(family.deriv_vector(n)),
        }
    )
    return report


def cmd_zeros(cfg: dict) -> dict:
    product, n = cfg["product"], cfg["n"]
    family = build_family(product, n)
    zr = zeros_of(family, n)
    report = _base_report(cfg, "zeros")
    report.update(
        {
            "roots": [{"re": _fmt(re), "im": _fmt(im)} for re, im in zr.roots],
            "real_roots": _fmt_list(zr.real_roots),
            "count_inside": zr.count_inside,
            "sign_changes_inside": zr.sign_changes_inside,
            "near_mass_points": [
                {"c": _fmt(c), "closest_root": None if r is None else _fmt(r)}
                for c, r in zr.near_mass_points
            ],
        }
    )
    return report


def cmd_ode(cfg: dict) -> dict:
    product, n = cfg["product"], cfg["n"]
    family = build_family(product, n)
    ld = build_ladder(family, n)
    report = _base_report(cfg, "ode")
    report.update(
        {
            "q0": _fmt_list(ld.q0.coeffs),
            "q1": _fmt_list(ld.q1.coeffs),
            "q2": _fmt_list(ld.q2.coeffs),
            "q3": _fmt_list(ld.q3.coeffs),
            "q4": _fmt_list(ld.q4.coeffs),
            "ode_p2": _fmt_list(ld.P2.coeffs),
            "ode_p1": _fmt_list(ld.P1.coeffs),
            "ode_p0": _fmt_list(ld.P0.coeffs),
            "ode_residual": _fmt(ode_residual(ld, family)),
            "lambda_n": _fmt(ld.Lambda_cur),
        }
    )
    return report


def cmd_electro(cfg: dict) -> dict:
    product, n = cfg["product"], cfg["n"]
    family = build_family(product, n)
    zeros, fd, grad = critical_point(family, n)
    er = classify(zeros, fd)
    report = _base_report(cfg, "electro")
    report.update(
        {
            "zeros": _fmt_list(zeros),
            "grad_norm": _fmt(max(abs(g) for g in grad)),
            "hessian_eigenvalues": _fmt_list(er.hessian_eigs),
            "classification": er.classification.value,
            "negative_index_set": er.negative_index_set,
            "truncated_hessian_pd": er.truncated_hessian_pd,
            "gershgorin_curvatures": _fmt_list(er.gershgorin_curvatures),
            "poles": [{"location": _fmt(loc), "exponent": _fmt(ell)} for loc, ell in fd.poles],
            "attractors": [
                {"re": _fmt(re), "im": _fmt(im), "exponent": _fmt(ell)}
                for re, im, ell in fd.attractors
            ],
            "warnings": fd.warnings,
        }
    )
    return report


def _orthogonality_defects(family, n: int) -> list:
    """The cosines |<S_m, S_j>_s| / sqrt(<S_m, S_m>_s <S_j, S_j>_s) for j < m <= min(n, 8),
    whose denominator bounds the terms of the inner product (Cauchy-Schwarz), taken inside
    the guard, so that they measure the stored S_m and not the rounding of the sums."""
    product, cache = family.product, family.jacobi_cache
    defects, norms = [], []
    with family.guard():
        for m in range(min(n, 8) + 1):
            sm = family.poly(m)
            norms.append(inner_sobolev(sm, sm, product, cache))
            defects += [abs(inner_sobolev(sm, family.poly(j), product, cache)) / mpmath.sqrt(norms[m] * norms[j])
                        for j in range(m)]
    return defects


def cmd_verify(cfg: dict) -> dict:
    """Run every invariant suite on the configured product at degree n.  A row (name, runs,
    residuals, failure, label) passes when its largest residual holds family.holds; a row
    without a label returns its detail, and fails by what it raises."""
    product, n = cfg["product"], cfg["n"]
    family = build_family(product, n)
    suites = [
        ("classical_jacobi_ode", True,
         lambda: [classical_ode_residual(family.jacobi_cache, m) for m in range(n + 1)],
         "classical ODE residual", "max residual"),
        ("sobolev_orthogonality", True, lambda: _orthogonality_defects(family, n),
         "orthogonality defect", "max relative defect"),
        ("ladder_operators", n >= 2,
         lambda: [ladder_residual(build_ladder(family, m), family) for m in range(2, n + 1)],
         "ladder residual", "max ladder residual"),
        ("second_order_ode", n >= 2,
         lambda: [ode_residual(build_ladder(family, m), family) for m in range(2, n + 1)],
         "ODE residual", "max ODE residual"),
        ("rational_recurrence", n >= 3, lambda: [recurrence_residual(family, m) for m in range(2, n)],
         "recurrence residual", "max recurrence residual"),
        ("electrostatic_critical_point", n >= 2 and product.d_star > 0,
         lambda: f"max gradient component {_fmt(max(abs(g) for g in critical_point(family, n)[2]))}",
         None, None),
        ("sequential_ordering_probe", True,
         lambda: f"sequentially_ordered={is_sequentially_ordered(product)[0]}", None, None),
    ]
    checks = []
    for name, runs, residuals, failure, label in suites:
        if not runs:
            continue
        try:
            if label is None:
                detail = residuals()
            else:
                worst = max(residuals(), default=0)
                if not family.holds(worst, 1):
                    raise StructureError(f"{failure} {worst}")
                detail = f"{label} {_fmt(worst)}"
            checks.append({"name": name, "passed": True, "detail": detail})
        except Exception as exc:
            checks.append({"name": name, "passed": False, "detail": f"{type(exc).__name__}: {exc}"})
    report = _base_report(cfg, "verify")
    report.update({"checks": checks, "all_passed": all(c["passed"] for c in checks)})
    return report


COMMANDS = {
    "polys": cmd_polys,
    "zeros": cmd_zeros,
    "ode": cmd_ode,
    "electro": cmd_electro,
    "verify": cmd_verify,
}


def _zeros_csv(report: dict) -> str:
    lines = ["index,re,im"]
    for i, root in enumerate(report["roots"]):
        lines.append(f"{i},{root['re']},{root['im']}")
    return "\n".join(lines) + "\n"


def render_report(report: dict, fmt: str) -> str:
    if fmt == "csv":
        if report["command"] != "zeros":
            raise ConfigError("--format csv is only available for the zeros command")
        return _zeros_csv(report)
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sobolev",
        description="Jacobi-Sobolev polynomials: construction, ODE, electrostatics.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--n", type=int, default=None, help="override the config degree")
    parser.add_argument("--precision", type=int, default=None, help="working precision in bits")
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    args = parser.parse_args(argv)

    # load_config sets the working precision; the caller's is restored.
    caller_prec = mp.prec
    try:
        cfg = load_config(args.config, n_override=args.n, precision_override=args.precision)
        if args.command in ("zeros", "ode", "electro") and cfg["n"] < 1:
            raise ConfigError(f"{args.command}: need n >= 1, got {cfg['n']}")
        report = COMMANDS[args.command](cfg)
        text = render_report(report, args.format)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumKernelError, InvalidMeasure, SobolevError, StructureError, ElectroError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        mp.prec = caller_prec

    if args.out:
        try:
            with io.open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"config error: cannot write --out: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)

    if args.command == "verify" and not report["all_passed"]:
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        print(f"verification failed: {', '.join(failed)}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

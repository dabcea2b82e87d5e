"""The exact Jacobi row of S_n, its ladder and its ODE over Fraction as
referees for the library.

The shipped products and three generated products of the benchmark's
product-stream workload (seeds 11, 13 and 17, ops zeros-04, zeros-29 and
zeros-00) have integer alpha, beta and rational c, lambda, so every
quantity of the family's algorithm is rational there.
"""

import json
import os
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, mpf

from jacobisobolev import JacobiParams, MassPoint, SobolevProduct, build_family
from jacobisobolev.cli import _orthogonality_defects, main
from jacobisobolev.numkernel import precision_digits, tol
from jacobisobolev.sobolev import zeros_of

from oracles import (ODE_KEYS, _QPoly, _rational_sobolev_poly, exact_field, exact_jacobi_row, exact_ladder, exact_monomial,
                     exact_series)

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
SHIPPED_CONFIGS = sorted(name[: -len(".json")] for name in os.listdir(CONFIG_DIR) if name.endswith(".json"))

# (alpha, beta, points, c, delta) of the three generated products, at
# n = 25.  Each S_25 has two real zeros at its mass point c, closer together
# than 1e-17, and delta brackets them: c - delta < z1 < c < z2 < c + delta.
NEAR_DOUBLE_PRODUCTS = {
    "seed11-zeros04": (2, 49, [("1.5", [(0, "1"), (2, "2")]), ("-3", [(0, "0.5"), (2, "0.5")]),
                               ("-4", [(0, "1"), (1, "0.5")]), ("1", [(1, "1"), (2, "1")])], -4, "1e-18"),
    "seed13-zeros29": (2, 53, [("4", [(0, "0.5"), (1, "0.5")]), ("-1", [(1, "0.5"), (2, "0.5")]),
                               ("1.25", [(1, "2"), (2, "0.5")]), ("1", [(0, "0.5"), (1, "2")])], 4, "2.62e-18"),
    "seed17-zeros00": (0, 64, [("1", [(1, "0.5"), (2, "1")]), ("2", [(0, "1"), (1, "0.5")]),
                               ("-1.5", [(0, "0.5"), (2, "2")]), ("-4", [(0, "1"), (1, "0.5")])], -4, "6.4e-19"),
}
NEAR_DOUBLE_N = 25


# The exact structure of delta and phi1 at the sources (the endpoints -1, 1
# and the mass points) of the shipped products, where it is not empty:
# (name, c) -> (multiplicity at c, counts of the other distinct real zeros
# within 10^-e of c for e in FIELD_EXPONENTS).  Every other (name, c) has
# neither a zero at c nor one within 1e-6 of it.
FIELD_EXPONENTS = (6, 9, 12, 15)
FIELD_FACTS = {
    # delta(2) != 0 with two real zeros within 1e-12 of 2 (1e-11 at n = 3),
    # none within 1e-15; phi1 has one within 1e-6 of 2, not at 2.
    ("large_beta_single_mass", 1): {("delta", 2): (0, (2, 2, 2, 0)), ("phi1", 2): (0, (1, 0, 0, 0))},
    ("large_beta_single_mass", 2): {("delta", 2): (0, (2, 2, 2, 0)), ("phi1", 2): (0, (1, 0, 0, 0))},
    ("large_beta_single_mass", 3): {("delta", 2): (0, (2, 2, 0, 0)), ("phi1", 2): (0, (1, 0, 0, 0))},
    # delta(1) != 0 with two real zeros within 1e-15 of 1, and phi1 has an
    # exact simple zero at 1, at every n; at n = 1 delta has a triple zero
    # and phi1 a four-fold zero at 2, at n = 2 delta has one real zero within
    # 1e-9 of 2, at n = 3 one within 1e-6 and none within 1e-9.
    ("two_points_mixed_orders", 1): {("delta", 1): (0, (2, 2, 2, 2)), ("phi1", 1): (1, (0, 0, 0, 0)),
                                     ("delta", 2): (3, (0, 0, 0, 0)), ("phi1", 2): (4, (0, 0, 0, 0))},
    ("two_points_mixed_orders", 2): {("delta", 1): (0, (2, 2, 2, 2)), ("phi1", 1): (1, (0, 0, 0, 0)),
                                     ("delta", 2): (0, (1, 1, 0, 0))},
    ("two_points_mixed_orders", 3): {("delta", 1): (0, (2, 2, 2, 2)), ("phi1", 1): (1, (0, 0, 0, 0)),
                                     ("delta", 2): (0, (1, 0, 0, 0))},
    ("two_points_mixed_orders", 12): {("delta", 1): (0, (2, 2, 2, 2)), ("phi1", 1): (1, (0, 0, 0, 0))},
}


def _exact_points(product):
    """The product's points as Fractions; the shipped ones are integers."""
    pairs = [(p.c, lam) for p in product.points for _, lam in p.terms]
    assert all(x == int(x) for pair in pairs for x in pair)
    return [(Fraction(int(p.c)), [(k, Fraction(int(lam))) for k, lam in p.terms]) for p in product.points]


def _near_double_product(name):
    """(alpha, beta, exact points, library product) of a generated product."""
    alpha, beta, points, _, _ = NEAR_DOUBLE_PRODUCTS[name]
    exact = [(Fraction(c), [(k, Fraction(lam)) for k, lam in terms]) for c, terms in points]
    product = SobolevProduct(
        JacobiParams(alpha, beta), [MassPoint(mpf(c), [(k, mpf(lam)) for k, lam in terms]) for c, terms in points]
    )
    return alpha, beta, exact, product


def _assert_row_close(got, want):
    scale = max(abs(a) for a in want)
    worst = max(abs(g - mpf(w.numerator) / w.denominator) for g, w in zip(got, want))
    assert len(got) == len(want)
    assert worst <= tol(2) * scale, worst / scale


@pytest.mark.parametrize("which", [0, 1, 2, 3])
def test_monomial_form_is_gram_schmidt(all_products, which):
    # The family's algorithm over Fraction and Gram-Schmidt over Fraction
    # share no formula: they give the same S_m, exactly.
    product = all_products[which]
    alpha, beta = int(product.jacobi.alpha), int(product.jacobi.beta)
    points = _exact_points(product)
    masses = [(c, k, lam) for c, terms in points for k, lam in terms]
    assert alpha == 0
    for m in range(13):
        assert exact_monomial(alpha, beta, exact_jacobi_row(alpha, beta, points, m)) == _rational_sobolev_poly(
            beta, masses, m
        ), m


@pytest.mark.parametrize("which", [0, 1, 2, 3])
def test_shipped_rows_match_exact(all_products, which):
    product = all_products[which]
    alpha, beta = int(product.jacobi.alpha), int(product.jacobi.beta)
    points = _exact_points(product)
    with mp.workprec(256):
        family = build_family(product, 12)
        for m in range(13):
            _assert_row_close(family.jacobi_coeffs(m), exact_jacobi_row(alpha, beta, points, m))


@pytest.mark.parametrize("name", sorted(NEAR_DOUBLE_PRODUCTS))
def test_near_double_rows_match_exact(name):
    alpha, beta, points, product = _near_double_product(name)
    with mp.workprec(256):
        _assert_row_close(build_family(product, NEAR_DOUBLE_N).jacobi_coeffs(NEAR_DOUBLE_N),
                          exact_jacobi_row(alpha, beta, points, NEAR_DOUBLE_N))


@pytest.mark.parametrize("name", sorted(NEAR_DOUBLE_PRODUCTS))
def test_near_double_pairs_are_real(name):
    # The exact S_25 changes sign on each side of c within delta, so both
    # zeros are real; at 384 bits the library reports them so, one on each
    # side of c, with no complex root left near c.
    alpha, beta, points, product = _near_double_product(name)
    c, delta = Fraction(NEAR_DOUBLE_PRODUCTS[name][3]), Fraction(NEAR_DOUBLE_PRODUCTS[name][4])
    row = exact_jacobi_row(alpha, beta, points, NEAR_DOUBLE_N)
    values = [exact_series(alpha, beta, row, x) for x in (c - delta, c, c + delta)]
    assert values[0] * values[1] < 0 and values[1] * values[2] < 0
    with mp.workprec(384):
        roots = zeros_of(build_family(product, NEAR_DOUBLE_N), NEAR_DOUBLE_N).roots
        lo, mid, hi = (mpf(x.numerator) / x.denominator for x in (c - delta, c, c + delta))
        inside = [(re, im) for re, im in roots if lo < re < hi]
        assert [im for _, im in inside] == [0, 0], inside
        assert inside[0][0] < mid < inside[1][0]


@pytest.mark.parametrize("n", [1, 2, 12])
@pytest.mark.parametrize("config", SHIPPED_CONFIGS)
def test_ode_report_holds_exact_ladder(tmp_path, config, n):
    # The exact ladder satisfies the ODE exactly, and every coefficient and
    # Lambda_n that the `ode` report prints at 128 and 256 bits is within
    # 10^-(D-2) max(1, |exact|) of it, D the printed digits.
    path = os.path.join(CONFIG_DIR, f"{config}.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    alpha, beta = int(doc["alpha"]), int(doc["beta"])
    points = [(Fraction(p["c"]), [(t["k"], Fraction(t["lambda"])) for t in p["terms"]]) for p in doc["points"]]
    exact = exact_ladder(alpha, beta, points, n)
    sn = _QPoly(exact_monomial(alpha, beta, exact_jacobi_row(alpha, beta, points, n)))
    residual = _QPoly(exact["ode_p2"]) * sn.deriv().deriv() + _QPoly(exact["ode_p1"]) * sn.deriv()
    assert (residual + _QPoly(exact["ode_p0"]) * sn).coeffs == []
    out = str(tmp_path / "ode.json")
    for bits in (128, 256):
        assert main(["ode", "--config", path, "--n", str(n), "--precision", str(bits), "--out", out]) == 0
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        with mp.workprec(bits):
            bound = Fraction(1, 10 ** (precision_digits() - 2))
        for key, want in exact.items():
            got = report[key]
            if key == "lambda_n":
                got, want = [got], [want]
            assert len(got) == len(want), (key, bits)
            for g, w in zip(got, want):
                assert abs(Fraction(g) - w) <= bound * max(1, abs(w)), (key, bits, g, w)


@pytest.mark.parametrize("n", [1, 2, 3, 12])
@pytest.mark.parametrize("config", SHIPPED_CONFIGS)
def test_exact_field_structure_at_sources(config, n):
    # The zeros of delta and phi1 at and near each endpoint and mass point,
    # exactly: what decides whether a pole of the field lies at a source.
    with open(os.path.join(CONFIG_DIR, f"{config}.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    points = [(Fraction(p["c"]), [(t["k"], Fraction(t["lambda"])) for t in p["terms"]]) for p in doc["points"]]
    _, structure = exact_field(int(doc["alpha"]), int(doc["beta"]), points, n, FIELD_EXPONENTS)
    got = {key: (mult, tuple(near[e] for e in FIELD_EXPONENTS)) for key, (mult, near) in structure.items()}
    facts = FIELD_FACTS.get((config, n), {})
    assert got == {key: facts.get(key, (0, (0, 0, 0, 0))) for key in got}


def test_ladder_identities_hold_where_the_ode_does_at_64_bits(tmp_path):
    # Masses of 0.01 to 100 at 10, 1.25 and -1.5 at 64 bits: the ladder
    # identities, checked as products, hold 2^-64, and every coefficient
    # the `ode` report prints is within 10^-(D-1) max(1, |exact|) of the
    # exact ladder, D the printed digits.  Dividing by q4 instead left a
    # remainder of 2.7e5 here.
    alpha, beta, n = 0, 27, 12
    points = [("10", [(0, "0.01"), (2, "2")]), ("1.25", [(0, "0.5"), (2, "100")]),
              ("-1.5", [(0, "0.01"), (2, "0.5")])]
    doc = {"alpha": "0", "beta": "27", "precision_bits": 64, "n": n,
           "points": [{"c": c, "terms": [{"k": k, "lambda": lam} for k, lam in terms]} for c, terms in points]}
    path = str(tmp_path / "product.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    out = str(tmp_path / "report.json")
    main(["verify", "--config", path, "--out", out])
    with open(out, encoding="utf-8") as fh:
        checks = {c["name"]: c for c in json.load(fh)["checks"]}
    assert checks["ladder_operators"]["passed"], checks["ladder_operators"]["detail"]
    assert main(["ode", "--config", path, "--out", out]) == 0
    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    with mp.workprec(64):
        bound = Fraction(1, 10 ** (precision_digits() - 1))
    exact_points = [(Fraction(c), [(k, Fraction(lam)) for k, lam in terms]) for c, terms in points]
    exact = exact_ladder(alpha, beta, exact_points, n)
    for key in ODE_KEYS:
        assert len(report[key]) == len(exact[key]), key
        for g, w in zip(report[key], exact[key]):
            assert abs(Fraction(g) - w) <= bound * max(1, abs(w)), (key, g, w)


def test_orthogonality_cosines_hold_the_rule_at_64_bits(tmp_path):
    # Masses of 0.5 to 100 at three points, one on the endpoint -1, at 64
    # bits: each Sobolev cosine of S_0..S_8 holds 2^-64, and S_m, stored at
    # 2p and printed, matches the exact S_m.  A defect relative to
    # <S_m, S_m>_s alone reads 2.3 bits above 2^-64 here.
    alpha, beta = 0, 91
    points = [("-1", [(0, "2"), (1, "0.5")]), ("1.25", [(0, "100"), (2, "2")]), ("1.5", [(1, "100")])]
    with mp.workprec(64):
        product = SobolevProduct(JacobiParams(alpha, beta), [MassPoint(mpf(c), [(k, mpf(lam)) for k, lam in terms])
                                                             for c, terms in points])
        family = build_family(product, 8)
        assert max(_orthogonality_defects(family, 8)) <= mpmath.ldexp(1, -64)
    exact_points = [(Fraction(c), [(k, Fraction(lam)) for k, lam in terms]) for c, terms in points]
    doc = {"alpha": "0", "beta": "91", "precision_bits": 64,
           "points": [{"c": c, "terms": [{"k": k, "lambda": lam} for k, lam in terms]} for c, terms in points]}
    path = str(tmp_path / "product.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    out = str(tmp_path / "polys.json")
    with mp.workprec(64):
        printed = Fraction(1, 10 ** (precision_digits() - 1))
    for m in range(9):
        want = exact_monomial(alpha, beta, exact_jacobi_row(alpha, beta, exact_points, m))
        stored = [Fraction(*mpmath.libmp.to_rational(g._mpf_)) for g in family.poly(m).coeffs]
        assert all(abs(g - w) <= Fraction(1, 10**37) * max(1, abs(w)) for g, w in zip(stored, want)), m
        assert main(["polys", "--config", path, "--n", str(m), "--out", out]) == 0
        with open(out, encoding="utf-8") as fh:
            got = json.load(fh)["coefficients"]
        assert len(got) == len(want)
        assert all(abs(Fraction(g) - w) <= printed * max(1, abs(w)) for g, w in zip(got, want)), m

"""FixedPointSeries against series_values run at a higher precision on the
same inputs: at every precision the value's error is within the bound E(z),
and E(z) is within 2^(-p) of the scale."""

import os

import pytest
from mpmath import mp, mpc, mpf

from jacobisobolev import cli
from jacobisobolev.jacobi import JacobiParams, build_jacobi
from jacobisobolev.ladder import build_ladder
from jacobisobolev.numkernel import FixedPointSeries, Poly, poly_roots, series_values
from jacobisobolev.sobolev import build_family

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
CONFIGS = sorted(name[: -len(".json")] for name in os.listdir(CONFIG_DIR))
PRECISIONS = (128, 256, 512, 1024)
DEGREES = (12, 24, 40)


def load_product(name: str, bits: int):
    with mp.workprec(bits):  # load_config sets the working precision
        return cli.load_config(os.path.join(CONFIG_DIR, f"{name}.json"), None, bits)["product"]


def assert_within_bound(series: FixedPointSeries, gamma1s, gamma2s, coeffs, points, bits: int) -> None:
    """|value - referee| <= E(z) <= 2^(-p) scale(z) at each point; the
    referee is series_values at max(768, p + 256) bits on the same inputs."""
    for z in points:
        with mp.workprec(bits):
            value, _, scale, bound = series.evaluate_bounded(z)
        with mp.workprec(max(768, bits + 256)):
            want = series_values(coeffs, gamma1s, gamma2s, z)[0]
            assert abs(value - want) <= bound, z
            assert bound <= mpf(2) ** -bits * scale, z


@pytest.fixture(scope="module")
def zeros_at_256():
    """(name, n) -> the zeros of S_n at 256 bits, as mpf (real) or mpc."""
    out = {}
    for name in CONFIGS:
        with mp.workprec(256):
            family = build_family(load_product(name, 256), max(DEGREES))
            for n in DEGREES:
                out[name, n] = [mpc(re, im) if im else re for re, im in family.zeros(n)]
    return out


@pytest.mark.parametrize("bits", PRECISIONS)
@pytest.mark.parametrize("name", CONFIGS)
def test_sn_on_shipped_configs(name, bits, zeros_at_256):
    # S_n at its zeros, at complex points beside them, and at the mass
    # points c and 2c (|z| up to 4).  two_points_mixed_orders builds only
    # through n = 12 at 128 bits (the CLI's exit 3).
    product = load_product(name, bits)
    degrees = DEGREES[:1] if (name, bits) == ("two_points_mixed_orders", 128) else DEGREES
    with mp.workprec(bits):
        family = build_family(product, degrees[-1])
        cache = family.jacobi_cache
    masses = [p.c for p in product.points] + [2 * p.c for p in product.points]
    for n in degrees:
        zeros = zeros_at_256[name, n]
        points = zeros + [mpc(z.real, "0.01") for z in zeros[::3]] + masses
        coeffs = family.jacobi_coeffs(n)
        with mp.workprec(bits):
            series = FixedPointSeries(coeffs, cache.gamma1s, cache.gamma2s)
        assert_within_bound(series, cache.gamma1s, cache.gamma2s, coeffs, points, bits)


@pytest.mark.parametrize("bits", PRECISIONS)
def test_ladder_monomials(bits):
    # delta and phi1 of the ladder at n = 24, as monomial series
    # (gamma1 = gamma2 = 0), at their roots and at points inside |z| < 1.
    product = load_product("two_points_mixed_orders", 256)
    with mp.workprec(256):
        ladder = build_ladder(build_family(product, 24), 24)
    for poly in (ladder.delta, ladder.phi1):
        coeffs, zeros = list(poly.coeffs), [0] * poly.degree
        with mp.workprec(256):
            roots = [mpc(re, im) if im else re for re, im in poly_roots(poly)]
        with mp.workprec(bits):
            series = FixedPointSeries(coeffs, zeros, zeros)
        points = roots + [mpf("0.5"), mpc("0.1", "-0.2"), mpf("-0.01")]
        assert_within_bound(series, zeros, zeros, coeffs, points, bits)


@pytest.mark.parametrize("bits", PRECISIONS)
def test_coefficients_200_bits_apart(bits):
    # Jacobi coefficients falling from 1 to 2^(-200), with alternating signs;
    # near z = 0 the monomial form's scale is about 2^(-200) of its largest
    # coefficient, so the first run at F = p + 64 + 2n cannot meet
    # E(z) <= 2^(-p) scale(z) and the evaluation runs again at a larger F.
    n, zeros = 24, [0] * 24
    with mp.workprec(bits):
        cache = build_jacobi(JacobiParams(mpf("0.5"), 7), n)
        coeffs = [(-1) ** k * mpf(2) ** (-200 * (n - k) // n) / 3 for k in range(n + 1)]
        jacobi = FixedPointSeries(coeffs, cache.gamma1s, cache.gamma2s)
        monomial = [mpf(2) ** -200] * n + [mpf(1)]
        series = FixedPointSeries(monomial, zeros, zeros)
        z = mpf(2) ** -10
        scale = series.evaluate(z)[2]
        assert scale * mpf(2) ** -bits < mpf(2) ** -series.start_bits  # the first run falls short
    points = [mpf("0.3"), mpf(-2), mpc("0.5", "-0.25"), mpc(3, 1), mpf("0.999")]
    assert_within_bound(jacobi, cache.gamma1s, cache.gamma2s, coeffs, points, bits)
    assert_within_bound(series, zeros, zeros, monomial, [z, mpc(0, z), -z], bits)


def test_exact_zero_of_every_term():
    # x at z = 0: every term is 0 and stays 0 at any F; the evaluation
    # stops after MAX_RUNS runs with the exact value 0.
    series = FixedPointSeries([0, 1], [0], [0])
    assert series.evaluate(mpf(0)) == (0, 1, 0)
    assert poly_roots(Poly((0, 1))) == [(0, 0)]

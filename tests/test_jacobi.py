"""Tests for the monic Jacobi family and its classical ladder."""

import os

import mpmath
import pytest
from mpmath import mp, mpf

from jacobisobolev.cli import load_config
from jacobisobolev.jacobi import (
    InvalidMeasure,
    JacobiParams,
    build_jacobi,
    classical_ode_residual,
    gamma1,
    gamma2,
    ladder_coeffs,
    raise_over_gamma2,
)
from jacobisobolev.numkernel import Poly, series_values, sym_eigen, tol
from jacobisobolev.sobolev import build_family
from oracles import jacobi_at_one, log_norm

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")

PARAM_SETS = [(0, 0), (0, 100), (0, 110), (mpf("0.5"), mpf("-0.3")), (2, 3)]


def monic_jacobi_reference(a, b, n):
    """Independent monic Jacobi via mpmath's hypergeometric jacobi function."""
    # leading coefficient of the standard P_n^(a,b) normalization
    lead = mpmath.gamma(2 * n + a + b + 1) / (
        mpmath.gamma(n + 1) * mpmath.gamma(n + a + b + 1) * mpmath.power(2, n)
    )
    return lambda x: mpmath.jacobi(n, a, b, x) / lead


class TestParams:
    def test_invalid_measure(self):
        with pytest.raises(InvalidMeasure):
            JacobiParams(-1, 0)
        with pytest.raises(InvalidMeasure):
            JacobiParams(0, mpf("-1.5"))


class TestRecurrence:
    @pytest.mark.parametrize("a,b", PARAM_SETS)
    def test_matches_reference_pointwise(self, a, b):
        params = JacobiParams(a, b)
        cache = build_jacobi(params, 6)
        for n in range(7):
            ref = monic_jacobi_reference(mpf(a), mpf(b), n)
            for x in [mpf("-0.7"), mpf("0.2"), mpf("0.95")]:
                got = cache.poly(n)(x)
                want = ref(x)
                assert abs(got - want) <= tol(2) * max(1, abs(want))

    @pytest.mark.parametrize("a,b", PARAM_SETS)
    def test_monic(self, a, b):
        cache = build_jacobi(JacobiParams(a, b), 8)
        for n in range(9):
            assert cache.poly(n).leading == 1

    @pytest.mark.parametrize("a,b", PARAM_SETS)
    def test_nodes_match_gauss_quadrature(self, a, b):
        # The zeros of P_n are the eigenvalues of the Jacobi matrix
        # (Golub-Welsch): gamma1_k on its diagonal, sqrt(gamma2_k) beside it.
        n = 12
        cache = build_jacobi(JacobiParams(a, b), n)
        J = mpmath.matrix(n, n)
        for k in range(n):
            J[k, k] = cache.gamma1s[k]
            if k:
                J[k, k - 1] = J[k - 1, k] = mpmath.sqrt(cache.gamma2s[k])
        nodes = sym_eigen(J)
        want = sorted(mpmath.mp.gauss_quadrature(n, "jacobi", a, b)[0])
        assert max(abs(x - w) for x, w in zip(nodes, want)) < tol(2)

    @pytest.mark.parametrize("x", [mpf("0.3"), mpf(-2), mpmath.mpc("0.5", "-0.25")])
    def test_eval_series_matches_polys(self, x):
        cache = build_jacobi(JacobiParams(mpf("0.5"), 7), 9)
        coeffs = [mpf(k + 1) / 3 for k in range(10)]
        f = Poly.zero()
        for k, c in enumerate(coeffs):
            f = f + c * cache.poly(k)
        value, slope, scale = cache.series(coeffs).evaluate(x)
        assert abs(value - f(x)) < tol(2) * max(1, abs(f(x)))
        assert abs(slope - f.deriv()(x)) < tol(2) * max(1, abs(f.deriv()(x)))
        want = sum(abs(c * cache.poly(k)(x)) for k, c in enumerate(coeffs))
        assert abs(scale - want) < tol(2) * want

    def test_series_values_in_double(self):
        # The double-precision stage of SobolevFamily.zeros runs the same
        # recurrence on float copies of the coefficients and the gammas.
        cache = build_jacobi(JacobiParams(mpf("0.5"), 7), 9)
        coeffs = [mpf(k + 1) / 3 for k in range(10)]
        x = mpmath.mpc("0.5", "-0.25")
        want = cache.series(coeffs).evaluate(x)
        floats = [[float(v) for v in vs[:10]] for vs in (coeffs, cache.gamma1s, cache.gamma2s)]
        got = series_values(*floats, complex(x))
        assert all(type(v) in (float, complex) for v in got)
        for g, w in zip(got, want):
            assert abs(g - complex(w)) < 1e-13 * max(1, abs(w))

    def test_gamma1_cancelled_at_zero(self):
        # alpha + beta = 0 makes the generic formula 0/0; the cancelled
        # form must still give (beta - alpha) / (alpha + beta + 2).
        params = JacobiParams(mpf("0.25"), mpf("-0.25"))
        assert abs(gamma1(params, 0) - mpf("-0.5") / 2) < tol(2)

    @pytest.mark.parametrize("a,b", PARAM_SETS)
    def test_gamma2_is_norm_ratio(self, a, b):
        params = JacobiParams(a, b)
        for n in range(1, 7):
            ratio = mpmath.exp(log_norm(params, n) - log_norm(params, n - 1))
            assert abs(gamma2(params, n) - ratio) <= tol(2) * ratio


class TestNorms:
    @pytest.mark.parametrize("a,b", [(0, 0), (1, 2), (mpf("0.5"), mpf("-0.3"))])
    def test_norm_against_quadrature(self, a, b):
        params = JacobiParams(a, b)
        cache = build_jacobi(params, 4)
        for n in range(5):
            p = cache.poly(n)
            val = mpmath.quad(
                lambda x: p(x) ** 2 * (1 - x) ** params.alpha * (1 + x) ** params.beta,
                [-1, 0, 1],
            )
            assert abs(cache.norm(n) - val) <= mpf("1e-40") * val

    def test_chebyshev_first_kind_norms(self):
        # alpha = beta = -1/2: monic T_n has h_0 = pi and h_n = pi / 2^(2n-1).
        cache = build_jacobi(JacobiParams(mpf("-0.5"), mpf("-0.5")), 12)
        for n in range(13):
            want = mpmath.pi if n == 0 else mpmath.pi / mpf(2) ** (2 * n - 1)
            assert abs(cache.norm(n) - want) <= tol(2) * want, n

    def test_extreme_beta_norm_finite(self):
        # beta = 110 gives h_0 = 2^111/111 ~ 2e31; the closed form and the
        # log-Gamma sum both keep it exact.
        params = JacobiParams(0, 110)
        want = mpmath.power(2, 111) / 111
        for h0 in (build_jacobi(params, 0).norm(0), mpmath.exp(log_norm(params, 0))):
            assert abs(h0 - want) <= mpf("1e-45") * want


class TestPointValues:
    @pytest.mark.parametrize("a,b", PARAM_SETS)
    def test_value_at_one(self, a, b):
        cache = build_jacobi(JacobiParams(a, b), 6)
        for n in range(7):
            got = jacobi_at_one(cache.params, n)
            want = cache.poly(n)(mpf(1))
            assert abs(got - want) <= tol(2) * max(1, abs(want))


class TestLadder:
    @pytest.mark.parametrize("a,b", PARAM_SETS)
    def test_lowering_identity(self, a, b):
        # -(a_n/b_n) P_n + ((1-x^2)/b_n) P_n' = P_{n-1}
        cache = build_jacobi(JacobiParams(a, b), 7)
        one_minus_x2 = Poly((1, 0, -1))
        for n in range(1, 8):
            a_poly, b_coef, _, _ = ladder_coeffs(cache.params, n)
            p = cache.poly(n)
            lhs = (one_minus_x2 * p.deriv() - a_poly * p) * (1 / b_coef)
            diff = lhs - cache.poly(n - 1)
            assert diff.max_abs_coeff() <= tol(2) * cache.poly(n - 1).max_abs_coeff()

    @pytest.mark.parametrize("a,b", PARAM_SETS)
    def test_raising_identity(self, a, b):
        # -(c_n/d_n) P_{n-1} + ((1-x^2)/d_n) P_{n-1}' = P_n
        cache = build_jacobi(JacobiParams(a, b), 7)
        one_minus_x2 = Poly((1, 0, -1))
        for n in range(1, 8):
            _, _, c_poly, d_coef = ladder_coeffs(cache.params, n)
            p = cache.poly(n - 1)
            lhs = (one_minus_x2 * p.deriv() - c_poly * p) * (1 / d_coef)
            diff = lhs - cache.poly(n)
            assert diff.max_abs_coeff() <= tol(2) * cache.poly(n).max_abs_coeff()

    @pytest.mark.parametrize("a,b", PARAM_SETS)
    def test_raise_over_gamma2_continuation(self, a, b):
        params = JacobiParams(a, b)
        for n in range(1, 6):
            _, b_coef, _, _ = ladder_coeffs(params, n)
            assert (
                abs(raise_over_gamma2(params, n) - b_coef / gamma2(params, n))
                <= tol(2) * raise_over_gamma2(params, n)
            )

    def test_degenerate_level_zero(self):
        a_poly, b_coef, c_poly, d_coef = ladder_coeffs(JacobiParams(1, 2), 0)
        assert a_poly.is_zero()
        assert b_coef == 0
        assert c_poly.degree == 1
        assert d_coef == -(mpf(1) + 2 - 1)


class TestClassicalODE:
    @pytest.mark.parametrize("a,b", PARAM_SETS)
    def test_residual_vanishes(self, a, b):
        # Relative to the terms that cancel, at the cache's precision, where
        # it sits within a few roundings of 2^-prec.
        cache = build_jacobi(JacobiParams(a, b), 8)
        for n in range(9):
            assert classical_ode_residual(cache, n) <= mpmath.ldexp(1, 4 - cache.prec)

    def test_residual_taken_at_the_cache_precision(self):
        # The family stores P_n at 2p, and the residual is taken there: far
        # inside 2^-p, which a residual taken at p could not reach.
        with mp.workprec(128):
            cfg = load_config(os.path.join(CONFIG_DIR, "large_beta_single_mass.json"), precision_override=128)
            family = build_family(cfg["product"], 24)
            assert classical_ode_residual(family.jacobi_cache, 24) <= mpmath.ldexp(1, -128)

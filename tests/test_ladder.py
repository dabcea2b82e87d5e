"""Tests for the ladder algebra, the q-polynomials, the second-order ODE,
and the rational-coefficient recurrence."""

import pytest
from mpmath import mpf

from jacobisobolev.jacobi import JacobiParams, gamma1, gamma2
from jacobisobolev.ladder import (
    apply_lowering,
    apply_raising,
    build_ladder,
    lambda_form,
    ode_coeffs,
    ode_residual,
    recurrence_residual,
)
from jacobisobolev.numkernel import Poly, tol
from jacobisobolev.sobolev import MassPoint, SobolevProduct, build_family
from oracles import compose_raising, delta_leading_expected, recover_jacobi, shifted_recurrence_residual


class TestStructure:
    def test_repeat_call_returns_memoised_bundle(self, ex2_family):
        ld = build_ladder(ex2_family, 7)
        assert build_ladder(ex2_family, 7) is ld
        assert build_ladder(ex2_family, 8) is not ld

    @pytest.mark.parametrize("which", [0, 1, 2, 3])
    def test_degrees_and_divisibility(self, all_families, which):
        # build_ladder itself asserts the degree table and the exact
        # divisibility of Delta by rho and Delta_i by rho_(d-N).
        family = all_families[which]
        d = family.product.d
        for n in range(2, 9):
            ld = build_ladder(family, n)
            assert ld.Delta.degree == 2 * d
            assert ld.delta.degree == 2 * d - family.product.d
            assert ld.q0.degree == 2 * d + 2
            assert ld.q1.degree == 2 * d
            assert ld.q2.degree == 2 * d + 1
            assert ld.q3.degree == 2 * d + 1
            assert ld.q4.degree == 2 * d

    @pytest.mark.parametrize("which", [0, 1, 2, 3])
    def test_connection_formula(self, all_families, which):
        # rho * S_n = A2 P_n + B2 P_{n-1}
        family = all_families[which]
        cache = family.jacobi_cache
        rho = family.product.rho()
        for n in range(1, 9):
            ld = build_ladder(family, n)
            lhs = rho * family.poly(n)
            rhs = ld.A2 * cache.poly(n) + ld.B2 * cache.poly(n - 1)
            assert (lhs - rhs).max_abs_coeff() <= tol(3) * lhs.max_abs_coeff()

    @pytest.mark.parametrize("which", [0, 1, 2, 3])
    def test_inverse_connection(self, all_families, which):
        # rho * S_{n-1} = C2 P_n + D2 P_{n-1}
        family = all_families[which]
        cache = family.jacobi_cache
        rho = family.product.rho()
        for n in range(2, 9):
            ld = build_ladder(family, n)
            lhs = rho * family.poly(n - 1)
            rhs = ld.C2 * cache.poly(n) + ld.D2 * cache.poly(n - 1)
            assert (lhs - rhs).max_abs_coeff() <= tol(3) * lhs.max_abs_coeff()

    @pytest.mark.parametrize("which", [0, 1, 2, 3])
    def test_lambda_positivity(self, all_families, which):
        family = all_families[which]
        min_order = min(k for _, k, _ in family.product.active_pairs)
        for m in range(min_order, 9):
            assert lambda_form(family, m) > 0

    @pytest.mark.parametrize("which", [0, 1, 2, 3])
    def test_delta_leading_law(self, all_families, which):
        family = all_families[which]
        for n in range(2, 9):
            ld = build_ladder(family, n)
            want = delta_leading_expected(family, n)
            assert abs(ld.Delta.leading - want) <= tol(3) * abs(want)

    def test_recover_jacobi(self, ex2_family):
        cache = ex2_family.jacobi_cache
        for n in range(2, 7):
            ld = build_ladder(ex2_family, n)
            pn, pm = recover_jacobi(ld, ex2_family)
            assert (pn - cache.poly(n)).max_abs_coeff() <= tol(3) * cache.poly(
                n
            ).max_abs_coeff()
            assert (pm - cache.poly(n - 1)).max_abs_coeff() <= tol(3) * cache.poly(
                n - 1
            ).max_abs_coeff()


class TestLadderOperators:
    @pytest.mark.parametrize("which", [0, 1, 2, 3])
    def test_lowering(self, all_families, which):
        family = all_families[which]
        for n in range(1, 9):
            ld = build_ladder(family, n)
            got = apply_lowering(ld, family)
            want = family.poly(n - 1)
            assert (got - want).max_abs_coeff() <= tol(3) * max(
                want.max_abs_coeff(), mpf(1)
            )

    @pytest.mark.parametrize("which", [0, 1, 2, 3])
    def test_raising(self, all_families, which):
        family = all_families[which]
        for n in range(1, 9):
            ld = build_ladder(family, n)
            got = apply_raising(ld, family)
            want = family.poly(n)
            assert (got - want).max_abs_coeff() <= tol(3) * want.max_abs_coeff()

    def test_compose_raising_from_constant(self, intro_family):
        for n in range(1, 7):
            got = compose_raising(intro_family, n)
            want = intro_family.poly(n)
            assert (got - want).max_abs_coeff() <= tol(4) * want.max_abs_coeff()


class TestODE:
    @pytest.mark.parametrize("which", [0, 1, 2, 3])
    def test_residual(self, all_families, which):
        family = all_families[which]
        for n in range(2, 9):
            ld = build_ladder(family, n)
            assert ode_residual(ld, family) <= tol(4)

    def test_leading_degree(self, ex1_family):
        ld = build_ladder(ex1_family, 5)
        p2, _, _ = ode_coeffs(ld)
        assert p2.degree == 6 * ex1_family.product.d + 4


class TestClassicalReduction:
    def test_ode_ratios_reduce(self):
        # With no masses the ODE must collapse to the classical one:
        # (1-x^2) y'' - 2x y' + n(n+1) y = 0 at alpha = beta = 0.
        product = SobolevProduct(JacobiParams(0, 0), [])
        family = build_family(product, 7)
        n = 6
        ld = build_ladder(family, n)
        p2, p1, p0 = ode_coeffs(ld)
        one_minus_x2 = Poly((1, 0, -1))
        # ratio identities, cross-multiplied to avoid the common content:
        # p1/p2 = -2x/(1-x^2) and p0/p2 = n(n+1)/(1-x^2)
        lhs1 = p1 * one_minus_x2
        rhs1 = p2 * Poly((0, -2))
        assert (lhs1 - rhs1).max_abs_coeff() <= mpf("1e-20") * rhs1.max_abs_coeff()
        lhs0 = p0 * one_minus_x2
        rhs0 = p2 * Poly((n * (n + 1),))
        assert (lhs0 - rhs0).max_abs_coeff() <= mpf("1e-20") * rhs0.max_abs_coeff()
        # and p2 itself is a constant multiple of (1-x^2)^2 = (1-x^2) * q0-part
        quot, rem = divmod(p2, one_minus_x2**2)
        assert rem.max_abs_coeff() <= mpf("1e-20") * p2.max_abs_coeff()
        assert quot.degree == 0

    def test_recurrence_reduces(self):
        # The rational recurrence must collapse to x P_n = P_{n+1}
        # + gamma1 P_n + gamma2 P_{n-1} coefficients.
        product = SobolevProduct(JacobiParams(0, 0), [])
        family = build_family(product, 8)
        params = family.product.jacobi
        n = 6
        ld_n = build_ladder(family, n)
        ld_n1 = build_ladder(family, n + 1)
        top = ld_n1.q4 * ld_n.q0
        mid = ld_n1.q3 * ld_n.q0 - ld_n.q2 * ld_n1.q0
        low = ld_n.q1 * ld_n1.q0
        # mid / top = x - gamma1_n ; low / top = -gamma2_n
        mid_ratio, rem1 = divmod(mid, top)
        low_ratio, rem2 = divmod(low, top)
        assert rem1.max_abs_coeff() <= mpf("1e-20") * mid.max_abs_coeff()
        assert rem2.max_abs_coeff() <= mpf("1e-20") * low.max_abs_coeff()
        want_mid = Poly((-gamma1(params, n), 1))
        assert (mid_ratio - want_mid).max_abs_coeff() <= mpf("1e-20")
        assert abs(low_ratio.coeff(0) + gamma2(params, n)) <= mpf("1e-20")
        assert low_ratio.degree == 0


class TestRecurrence:
    @pytest.mark.parametrize("which", [0, 1, 2, 3])
    def test_statement_form_holds(self, all_families, which):
        family = all_families[which]
        for n in range(2, 7):
            assert recurrence_residual(family, n) <= tol(4)

    def test_shifted_variant_fails(self, intro_family):
        # The index-shifted q1 variant is materially wrong, not a typo-level
        # difference: its residual is ~1e-2 against ~1e-76 for the statement.
        assert shifted_recurrence_residual(intro_family, 3) > mpf("1e-6")


class TestLowestIndex:
    def test_n1_limit_branch(self, intro_family):
        ld = build_ladder(intro_family, 1)
        assert ld.C2.is_zero()
        got = apply_raising(ld, intro_family)
        want = intro_family.poly(1)
        assert (got - want).max_abs_coeff() <= tol(3) * max(want.max_abs_coeff(), mpf(1))

    def test_n0_rejected(self, intro_family):
        with pytest.raises(ValueError):
            build_ladder(intro_family, 0)

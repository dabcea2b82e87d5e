"""Tests for the ladder algebra, the q-polynomials, the second-order ODE,
and the rational-coefficient recurrence."""

import mpmath
import pytest
from mpmath import mp, mpf

from jacobisobolev import ladder
from jacobisobolev.jacobi import JacobiParams, classical_ode_residual, gamma1, gamma2
from jacobisobolev.ladder import (
    apply_lowering,
    apply_raising,
    build_ladder,
    connection_level,
    ode_residual,
    recurrence_residual,
)
from jacobisobolev.numkernel import Poly, tol
from jacobisobolev.sobolev import InternalContradiction, MassPoint, SobolevProduct, build_family
from oracles import compose_raising, delta_leading_expected, recover_jacobi, shifted_recurrence_residual


class TestStructure:
    def test_repeat_call_returns_memoised_bundle(self, ex2_family):
        ld = build_ladder(ex2_family, 7)
        assert build_ladder(ex2_family, 7) is ld
        assert build_ladder(ex2_family, 8) is not ld

    @pytest.mark.parametrize("which", [0, 1, 2, 3])
    def test_degrees_and_divisibility(self, all_families, which):
        # Every degree the theory states for the bundle, from n = 1 (the
        # limit branch) on.  build_ladder checks only D2 and q1..q4, whose
        # leading coefficients can cancel, and asserts the exact divisions
        # of Delta by rho and of Delta_i by rho_(d-N).
        family = all_families[which]
        d = family.product.d
        for n in (*range(1, 9), 12):
            ld = build_ladder(family, n)
            _, _, a3, b3 = connection_level(family, n)
            exact = {"A2": (ld.A2, d), "D2": (ld.D2, d), "Delta": (ld.Delta, 2 * d), "delta": (ld.delta, d),
                     "q0": (ld.q0, 2 * d + 2), "q1": (ld.q1, 2 * d), "q2": (ld.q2, 2 * d + 1),
                     "q3": (ld.q3, 2 * d + 1), "q4": (ld.q4, 2 * d), "P2": (ld.P2, 6 * d + 4)}
            at_most = {"B2": (ld.B2, d - 1), "C2": (ld.C2, d - 1), "P1": (ld.P1, 6 * d + 3),
                       "P0": (ld.P0, 6 * d + 2), "A3": (a3, d + 1), "B3": (b3, d)}
            for what, (p, degree) in exact.items():
                assert p.degree == degree, (n, what, p.degree)
            for what, (p, degree) in at_most.items():
                assert p.degree <= degree, (n, what, p.degree)

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
            assert family.lambda_form(m) > 0

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
        # Within 2^4 of the family's rule: lowering runs inside the guard.
        family = all_families[which]
        for n in range(1, 9):
            ld = build_ladder(family, n)
            got = apply_lowering(ld, family)
            want = family.poly(n - 1)
            bound = mpmath.ldexp(max(want.max_abs_coeff(), mpf(1)), 4 - family.prec)
            assert (got - want).max_abs_coeff() <= bound

    @pytest.mark.parametrize("which", [0, 1, 2, 3])
    def test_raising(self, all_families, which):
        family = all_families[which]
        for n in range(1, 9):
            ld = build_ladder(family, n)
            got = apply_raising(ld, family)
            want = family.poly(n)
            bound = mpmath.ldexp(max(want.max_abs_coeff(), mpf(1)), 4 - family.prec)
            assert (got - want).max_abs_coeff() <= bound

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
            assert family.holds(ode_residual(ld, family), 1)

    def test_leading_degree(self, ex1_family):
        ld = build_ladder(ex1_family, 5)
        assert ld.P2.degree == 6 * ex1_family.product.d + 4


class TestClassicalReduction:
    def test_ode_ratios_reduce(self):
        # With no masses the ODE must collapse to the classical one:
        # (1-x^2) y'' - 2x y' + n(n+1) y = 0 at alpha = beta = 0.
        product = SobolevProduct(JacobiParams(0, 0), [])
        family = build_family(product, 7)
        n = 6
        ld = build_ladder(family, n)
        p2, p1, p0 = ld.P2, ld.P1, ld.P0
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
            assert family.holds(recurrence_residual(family, n), 1)

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


class TestGuardPrecision:
    """The family computes everything it stores at 2p, whoever asks first,
    and every identity check reads one rule, whatever the precision."""

    PRODUCT = SobolevProduct(
        JacobiParams(0, 88), [MassPoint(-2, [(1, 2), (2, 1)]), MassPoint("1.5", [(1, 1)])]
    )

    @staticmethod
    def _stored(family, n):
        raw = lambda poly: [c._mpf_ for c in poly.coeffs]
        cache = family.jacobi_cache
        ld = build_ladder(family, n)
        return {
            "cache": [raw(cache.poly(k)) for k in range(n + 1)],
            "gammas": [g._mpf_ for g in cache.gamma1s[: n + 1] + cache.gamma2s[: n + 1]],
            "sob_polys": {m: raw(p) for m, p in family.sob_polys.items()},
            "conn": [[raw(p) for p in ladder.connection_level(family, m)] for m in (n - 1, n)],
            "ladder": [raw(getattr(ld, name)) for name in ("q0", "q1", "q2", "q3", "q4", "P0", "P1", "P2")],
            "lambda": [family.lambda_form(m)._mpf_ for m in range(n + 1)],
        }

    def test_stored_values_do_not_depend_on_call_order(self):
        n = 8
        with mp.workprec(128):
            first = build_family(self.PRODUCT, n)
            # verify's order: the classical ODE check builds the monomial
            # P_k, and the orthogonality check S_m, before any ladder.
            for m in range(n + 1):
                classical_ode_residual(first.jacobi_cache, m)
            for m in range(n + 1):
                first.poly(m)
            second = build_family(self.PRODUCT, n)
            build_ladder(second, n)
            for m in range(n + 1):
                second.poly(m)
            assert first.jacobi_cache.prec == second.jacobi_cache.prec == 256
            assert self._stored(first, n) == self._stored(second, n)

    def test_holds_reads_the_familys_p(self):
        # One rule, |residual| <= 2^-p max(1, size) at the family's p, read
        # inside its guard whatever the caller's precision: a residual one part
        # in 2^200 above the bound fails, also asked at 53 bits, and a 256-bit
        # family holds the same residual to 2^-256.
        with mp.workprec(128):
            family = build_family(self.PRODUCT, 2)
        with mp.workprec(256):
            wide = build_family(self.PRODUCT, 2)
        with mp.workprec(128), family.guard():
            above = 1 + mpmath.ldexp(1, -200)
            cases = [
                (mpmath.ldexp(1, -128), mpf("0.5"), True),
                (mpmath.ldexp(above, -128), mpf("0.5"), False),
                (-mpmath.ldexp(3, -128), mpf(3), True),
                (mpmath.ldexp(3 * above, -128), mpf(3), False),
                (mpmath.ldexp(3, -128), 3 * above, True),
                (mpf(0), mpf(0), True),
            ]
            assert [family.holds(r, size) for r, size, _ in cases] == [answer for _, _, answer in cases]
        with mp.workprec(53):
            assert [family.holds(r, size) for r, size, _ in cases] == [answer for _, _, answer in cases]
        with mp.workprec(256), wide.guard():
            assert [wide.holds(r, size) for r, size, _ in cases] == [False] * 5 + [True]

    def test_monomial_check_holds_s_to_its_horner_terms(self):
        # An entry of s_6 off by 2^(8-p) of the sum of |a_i c^i| over the Horner
        # terms of S_6^(k)(c) raises (it is far inside the old tol(3), 1e-12 at
        # 128 bits); one off by 2^(-8-p) of it passes.
        (j, k, _), c = self.PRODUCT.active_pairs[0], None
        for shift, raises in ((8, True), (-8, False)):
            with mp.workprec(128):
                family = build_family(self.PRODUCT, 6)
                sder = family.deriv_vector(6)
                with family.guard():
                    cache, c = family.jacobi_cache, self.PRODUCT.points[j].c
                    sm = sum((a * cache.poly(nu) for nu, a in enumerate(family.jacobi_coeffs(6))), Poly.zero())
                    size = Poly([abs(a) for a in sm.deriv(k).coeffs])(abs(c))
                    sder[0] += mpmath.ldexp(max(1, size), shift - family.prec)
                if raises:
                    with pytest.raises(InternalContradiction, match="derivative vector mismatch"):
                        family.poly(6)
                else:
                    family.poly(6)

    def test_exact_div_holds_the_remainder_to_the_rule(self):
        # num = (x - 2)(x + 3) + e, whose remainder by x - 2 is e: 2^(8-p) of
        # max|num| raises, 2^(-8-p) passes.
        with mp.workprec(128):
            family = build_family(self.PRODUCT, 1)
        with mp.workprec(128), family.guard():
            for shift, raises in ((8, True), (-8, False)):
                e = mpmath.ldexp(6, shift - family.prec)
                num, den = Poly((e - 6, 1, 1)), Poly((-2, 1))
                if raises:
                    with pytest.raises(ladder.StructureError, match="division remainder"):
                        ladder._exact_div(num, den, family, "test")
                else:
                    assert list(ladder._exact_div(num, den, family, "test").coeffs) == [3, 1]

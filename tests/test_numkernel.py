"""Tests for the arbitrary-precision numerical substrate."""

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpc, mpf

from jacobisobolev import numkernel
from jacobisobolev.numkernel import (
    DegenerateDivisor,
    DegenerateInput,
    EigenFailure,
    Poly,
    RootFailure,
    SingularSystem,
    aberth_roots,
    cholesky_pd,
    poly_roots,
    precision_digits,
    set_precision,
    solve_dense,
    sym_eigen,
    taylor_poly,
    tol,
)

def monomial_evaluator(p):
    """(p(z), p'(z), sum_k |c_k z^k|): aberth_roots' evaluator for a Poly."""
    dp = p.deriv()
    return lambda z: (p(z), dp(z), sum(abs(c) * abs(z) ** k for k, c in enumerate(p.coeffs)))


small_coeffs = st.lists(
    st.integers(min_value=-50, max_value=50).map(mpf), min_size=1, max_size=9
)


class TestPrecision:
    def test_default_digits(self):
        assert precision_digits() == 77

    def test_tol_values(self):
        assert tol(2) == mpf(10) ** -38
        assert tol(3) == mpf(10) ** -25
        assert tol(4) == mpf(10) ** -19

    def test_set_precision_rejects_tiny(self):
        with pytest.raises(ValueError):
            set_precision(16)


class TestPoly:
    def test_zero_and_degree(self):
        assert Poly.zero().degree == -1
        assert Poly.zero().is_zero()
        assert Poly((0, 0, 0)).is_zero()
        assert Poly((3,)).degree == 0
        assert Poly.x().degree == 1

    def test_string_coefficients_full_precision(self):
        p = Poly(("0.1",))
        assert abs(p.coeff(0) - mpf(1) / 10) < mpf(10) ** -76

    def test_arithmetic(self):
        p = Poly((1, 2))
        q = Poly((3, 0, 1))
        assert (p + q).coeffs == (4, 2, 1)
        assert (p - p).is_zero()
        assert (p * q).coeffs == (3, 6, 1, 2)
        assert (2 * p).coeffs == (2, 4)
        assert (p**3).coeffs == (1, 6, 12, 8)

    def test_eval_horner(self):
        p = Poly((1, -3, 2))  # 2x^2 - 3x + 1 = (2x-1)(x-1)
        assert p(mpf(1)) == 0
        assert p(mpf("0.5")) == 0
        assert p(mpf(2)) == 3

    def test_deriv(self):
        p = Poly((5, 0, 3, 1))
        assert p.deriv().coeffs == (0, 6, 3)
        assert p.deriv(2).coeffs == (6, 6)
        assert p.deriv(5).is_zero()

    def test_divmod_exact(self):
        num = Poly.from_roots([1, 2, 3])
        q, r = divmod(num, Poly.from_roots([2]))
        assert r.is_zero()
        assert q == Poly.from_roots([1, 3])

    def test_divmod_zero_divisor(self):
        with pytest.raises(DegenerateDivisor):
            divmod(Poly((1, 1)), Poly.zero())

    @given(small_coeffs, small_coeffs)
    @settings(max_examples=60, deadline=None)
    def test_divmod_reconstruction(self, a, b):
        p, d = Poly(a), Poly(b)
        if d.is_zero():
            return
        q, r = divmod(p, d)
        back = q * d + r
        assert (back - p).max_abs_coeff() <= tol(2) * max(p.max_abs_coeff(), mpf(1))
        assert r.degree < d.degree

    def test_from_roots_monic(self):
        p = Poly.from_roots([mpf("0.25"), -2])
        assert p.leading == 1
        assert abs(p(mpf("0.25"))) < tol(2)


class TestTaylor:
    def test_taylor_full_degree_reproduces(self):
        f = Poly((1, -2, 0, 4))
        t = taylor_poly(f, mpf("0.7"), 3)
        assert (t - f).max_abs_coeff() < tol(2) * f.max_abs_coeff()

    def test_taylor_truncation(self):
        f = Poly((0, 0, 1))  # x^2 at y=1: 1 + 2(x-1) + (x-1)^2
        t = taylor_poly(f, 1, 1)
        assert t.degree == 1
        assert abs(t(mpf(1)) - 1) < tol(2)
        assert abs(t(mpf(2)) - 3) < tol(2)


class TestLinearAlgebra:
    def test_sym_eigen_2x2(self):
        m = mpmath.matrix([[2, 1], [1, 2]])
        eigs = sym_eigen(m)
        assert abs(eigs[0] - 1) < tol(2)
        assert abs(eigs[1] - 3) < tol(2)

    def test_sym_eigen_tridiagonal_closed_form(self):
        # tridiag(-1, 2, -1) of order n has eigenvalues 2 - 2 cos(k pi / (n + 1))
        n = 40
        m = mpmath.matrix(n, n)
        for i in range(n):
            m[i, i] = 2
            if i + 1 < n:
                m[i, i + 1] = m[i + 1, i] = -1
        want = sorted(2 - 2 * mpmath.cos(k * mpmath.pi / (n + 1)) for k in range(1, n + 1))
        got = sym_eigen(m)
        assert len(got) == n
        for a, b in zip(got, want):
            assert abs(a - b) <= tol(2) * max(1, abs(b))

    def test_sym_eigen_failure_is_named(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise RuntimeError("tridiag_eigen: no convergence")

        monkeypatch.setattr(mpmath, "eigsy", no_convergence)
        with pytest.raises(EigenFailure):
            sym_eigen(mpmath.matrix([[2, 1], [1, 2]]))

    @given(st.lists(st.integers(-9, 9), min_size=9, max_size=9))
    @settings(max_examples=30, deadline=None)
    def test_sym_eigen_trace_invariant(self, vals):
        m = mpmath.matrix(3, 3)
        idx = 0
        for i in range(3):
            for j in range(i, 3):
                m[i, j] = m[j, i] = vals[idx]
                idx += 1
        eigs = sym_eigen(m)
        trace = sum(m[i, i] for i in range(3))
        assert abs(sum(eigs) - trace) <= tol(2) * max(1, abs(trace))

    def test_solve_dense(self):
        x = solve_dense([[2, 1], [1, 3]], [5, 10])
        assert abs(x[0] - 1) < tol(2)
        assert abs(x[1] - 3) < tol(2)

    def test_solve_singular_raises(self):
        with pytest.raises(SingularSystem):
            solve_dense([[1, 2], [2, 4]], [1, 2])

    def test_cholesky_pd(self):
        assert cholesky_pd(mpmath.matrix([[2, 1], [1, 2]]))
        assert not cholesky_pd(mpmath.matrix([[1, 2], [2, 1]]))


class TestRoots:
    def test_simple_roots(self):
        roots = poly_roots(Poly.from_roots([-1, mpf("0.5"), 2]))
        reals = [re for re, im in roots]
        assert all(im == 0 for _, im in roots)
        for got, want in zip(reals, [-1, mpf("0.5"), 2]):
            assert abs(got - want) < tol(2)

    def test_complex_pair(self):
        roots = poly_roots(Poly((1, 0, 1)))  # x^2 + 1
        assert sorted(im for _, im in roots) == sorted([mpf(1), mpf(-1)])

    def test_zero_poly_raises(self):
        with pytest.raises(DegenerateInput):
            poly_roots(Poly.zero())

    @given(
        st.lists(
            st.integers(min_value=-40, max_value=40),
            min_size=2,
            max_size=8,
            unique=True,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_roots_expand_round_trip(self, ints):
        # integer roots scaled to [-2, 2] with separation >= 1/20
        want = sorted(mpf(k) / 20 for k in ints)
        got = poly_roots(Poly.from_roots(want))
        assert all(im == 0 for _, im in got)
        for (re, _), w in zip(got, want):
            assert abs(re - w) < mpf("1e-30")

    def test_aberth_matches_poly_roots(self):
        # mpmath.polyroots referees both aberth_roots from given seeds and
        # poly_roots from its own double-precision seeds.
        p = Poly.from_roots([mpf(-2), mpf("-0.5"), mpf("0.25"), 3]) * Poly((5, 2, 1))  # and -1 +- 2i
        seeds = [mpc(k, (-1) ** k) / 2 for k in range(p.degree)]
        want = mpmath.polyroots(list(reversed(p.coeffs)), extraprec=mpmath.mp.prec)
        for got in (aberth_roots(monomial_evaluator(p), seeds), poly_roots(p)):
            assert [im == 0 for _, im in got] == [True, False, False, True, True, True]
            for re, im in got:
                assert min(abs(mpc(re, im) - w) for w in want) < tol(2)

    def test_aberth_sweep_cap_is_named(self, monkeypatch):
        p = Poly.from_roots([1, 2, 3])
        monkeypatch.setattr(numkernel, "ABERTH_MAX_SWEEPS", 1)
        with pytest.raises(RootFailure):
            aberth_roots(monomial_evaluator(p), [mpc(0, 1), mpc(5, -1), mpc(-3, 1)])

    @pytest.mark.parametrize("delta", ["1e-21", "1e-30"])
    def test_aberth_separates_near_double_zero(self, delta):
        # ((x-1)^2 - delta^2)(x+2)(x-3) from seeds 1e-8 off the close pair:
        # steps stall far above 2^(-7p/8) while the pair separates, and a
        # rule that stops on stalling steps leaves it delta apart from the
        # truth.  The noise rule stops only once |p(z)| is rounding noise.
        with mpmath.workprec(256):
            delta = mpf(delta)
            want = [mpf(-2), 1 - delta, 1 + delta, mpf(3)]
            p = Poly.from_roots(want)
            seeds = [mpc(1, "1e-8"), mpc(1, "-1e-8"), mpc("-2.1", "1e-3"), mpc("3.1", "-1e-3")]
            got = aberth_roots(monomial_evaluator(p), seeds)
            assert all(im == 0 for _, im in got)
            assert max(abs(re - w) for (re, _), w in zip(got, want)) < mpf("1e-45")

    def test_aberth_finishes_on_exact_double_zero(self):
        # (x-1)^2 (x+2)(x-3) at 1024 bits: the pair converges only linearly
        # onto the double zero, about p / 4 sweeps until |p(z)| is noise,
        # so the sweep cap grows with the precision.
        with mpmath.workprec(1024):
            want = [mpf(-2), mpf(1), mpf(1), mpf(3)]
            p = Poly.from_roots(want)
            seeds = [mpc(1, "1e-8"), mpc(1, "-1e-8"), mpc("-2.1", "1e-3"), mpc("3.1", "-1e-3")]
            got = aberth_roots(monomial_evaluator(p), seeds)
            assert max(abs(mpc(re, im) - w) for (re, im), w in zip(got, want)) < mpf("1e-150")

    def test_aberth_runs_in_python_complex(self):
        # The double-precision stage of SobolevFamily.zeros: no mpc anywhere.
        def evaluate(z):
            return z * z + 1, 2 * z, abs(z * z) + 1

        with mpmath.workprec(53):
            got = aberth_roots(evaluate, [complex(0.5, 0.5), complex(-0.5, -0.5)])
        assert [(float(re), float(im)) for re, im in got] == pytest.approx([(0, -1), (0, 1)], abs=1e-14)

    def test_failure_is_named_and_not_cached(self, monkeypatch):
        p = Poly.from_roots([1, 2, 3])
        monkeypatch.setattr(numkernel, "ABERTH_MAX_SWEEPS", 1)
        with pytest.raises(RootFailure):
            poly_roots(p)
        monkeypatch.undo()
        for (re, _), want in zip(poly_roots(p), [1, 2, 3]):
            assert abs(re - want) < tol(2)

"""Tests for the arbitrary-precision numerical substrate."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import libmp, mp, mpc, mpf

import jacobisobolev
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
    solve_dense,
    sym_eigen,
    tol,
)
from oracles import taylor_poly

def monomial_evaluator(p):
    """(p(z), p'(z), sum_k |c_k z^k|): aberth_roots' evaluator for a Poly."""
    dp = p.deriv()
    return lambda z: (p(z), dp(z), sum(abs(c) * abs(z) ** k for k, c in enumerate(p.coeffs)))


@st.composite
def _symmetric_matrices(draw):
    """(precision, rows) of a symmetric matrix of order 1-12: dense, diagonal
    or sparse, with entries of mixed magnitudes."""
    n = draw(st.integers(1, 12))
    shape = draw(st.sampled_from(["dense", "diagonal", "sparse"]))
    rows = [[mpf(0)] * n for _ in range(n)]
    for j in range(n):
        for i in range(j + 1):
            if i != j and (shape == "diagonal" or shape == "sparse" and draw(st.booleans())):
                continue
            x = mpf(draw(st.integers(-(10**6), 10**6))) / 999_983 * mpf(2) ** draw(st.integers(-40, 40))
            rows[i][j] = rows[j][i] = x
    return draw(st.sampled_from([53, 64, 128, 256, 512])), rows


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

    def test_import_leaves_precision_alone(self):
        # Importing the package sets no working precision: mpmath's 53 bits
        # stay until a caller (the CLI's load_config) sets one.
        src = os.path.dirname(os.path.dirname(os.path.abspath(jacobisobolev.__file__)))
        code = "import mpmath, jacobisobolev; print(mpmath.mp.prec)"
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "53"


class TestPoly:
    def test_zero_and_degree(self):
        assert Poly.zero().degree == -1
        assert Poly.zero().is_zero()
        assert Poly((0, 0, 0)).is_zero()
        assert Poly((3,)).degree == 0

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


def _to_fraction(c) -> Fraction:
    sign, man, exp, _ = c._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


def _exact_product_rounded(p, q, bits):
    """The product over Fraction, each coefficient rounded once to `bits`."""
    xs, ys = [_to_fraction(c) for c in p.coeffs], [_to_fraction(c) for c in q.coeffs]
    acc = [Fraction(0)] * (len(xs) + len(ys) - 1)
    for i, a in enumerate(xs):
        for j, b in enumerate(ys):
            acc[i + j] += a * b
    return [libmp.from_rational(v.numerator, v.denominator, bits, "n") for v in acc]


def _random_poly(rng, degree, bits, spread):
    """Coefficients of `bits`-bit mantissas, both signs, exponents within
    2^(+-spread), and exact interior zeros."""
    def coeff(exp):
        return mpf(libmp.from_man_exp(rng.getrandbits(bits) | 1, exp - bits))

    lower = [
        mpf(0) if rng.random() < 0.2 else rng.choice((1, -1)) * coeff(rng.randint(-spread, spread))
        for _ in range(degree)
    ]
    return lower + [coeff(0)]


# Reference sum, difference, negation and scalar multiple: each result goes
# through the constructor's mpf() pass, and the difference adds the negation.
# Poly builds each result once and must match them bit for bit.
def _reference_poly(coeffs):
    cs = [mpf(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _reference_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return _reference_poly(out)


def _reference_neg(a):
    return _reference_poly(tuple(-c for c in a))


def _reference_sub(a, b):
    return _reference_add(a, _reference_neg(b))


def _reference_scale(a, other):
    c = mpf(other)
    return _reference_poly(tuple(c * x for x in a))


def _raw(coeffs):
    return [c._mpf_ for c in coeffs]


class TestIntegerProduct:
    @pytest.mark.parametrize("bits", [53, 128, 256, 1024])
    @pytest.mark.parametrize("spread", [0, 400])
    def test_equals_exact_product_rounded_once(self, bits, spread):
        rng = random.Random(bits + spread)
        for da, db in ((0, 0), (1, 3), (7, 5), (12, 12)):
            # Factors built at a higher precision than the product.
            with mp.workprec(2 * bits + 64):
                p = Poly(_random_poly(rng, da, 2 * bits, spread))
                q = Poly(_random_poly(rng, db, 2 * bits, spread))
            with mp.workprec(bits):
                got = p * q
            assert _raw(got.coeffs) == _exact_product_rounded(p, q, bits), (da, db)

    def test_interior_zeros_and_negatives(self):
        with mp.workprec(128):
            p, q = Poly((mpf(2) ** 400, 0, 0, -3)), Poly((-1, 0, mpf(2) ** -400))
            got = p * q
            assert _raw(got.coeffs) == _exact_product_rounded(p, q, 128)
            assert (got.coeff(1), got.coeff(2), got.coeff(3), got.coeff(4)) == (0, 1, 3, 0)

    def test_zero_polynomial(self):
        p = Poly((1, -2, 3))
        assert (p * Poly.zero()).is_zero()
        assert (Poly.zero() * p).is_zero()

    @pytest.mark.parametrize("special", ["nan", "inf", "-inf"])
    def test_non_finite_coefficient_raises(self, special):
        bad = Poly((1, mpf(special), 2))
        with pytest.raises(DegenerateInput):
            bad * Poly((1, 1))
        with pytest.raises(DegenerateInput):
            Poly((3, 1)) * bad

    def test_sum_difference_negation_scale_unchanged(self):
        rng = random.Random(7)
        for bits in (53, 128, 256):
            for da, db in ((0, 0), (3, 3), (6, 2), (1, 9)):
                # Coefficients carrying more bits than the working precision.
                with mp.workprec(bits + 200):
                    p = Poly(_random_poly(rng, da, bits + 200, 300))
                    q = Poly(_random_poly(rng, db, bits + 200, 300))
                    cancel = Poly(p.coeffs[:-1] + (-p.leading,))
                with mp.workprec(bits):
                    pairs = [(p, q), (q, p), (p, p), (p, cancel), (p, Poly.zero()), (Poly.zero(), q)]
                    for x, y in pairs:
                        assert _raw((x + y).coeffs) == _raw(_reference_add(x.coeffs, y.coeffs))
                        assert _raw((x - y).coeffs) == _raw(_reference_sub(x.coeffs, y.coeffs))
                        assert _raw((-x).coeffs) == _raw(_reference_neg(x.coeffs))
                    for scalar in (3, mpf("0.1"), "-2.5", 0, mpf(2) ** -500):
                        want = _raw(_reference_scale(p.coeffs, scalar))
                        assert _raw((p * scalar).coeffs) == want
                        assert _raw((scalar * p).coeffs) == want


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

        monkeypatch.setattr(numkernel, "tridiag_eigen", no_convergence)
        with pytest.raises(EigenFailure):
            sym_eigen(mpmath.matrix([[2, 1], [1, 2]]))

    def test_sym_eigen_of_the_empty_matrix(self):
        assert sym_eigen(mpmath.matrix(0, 0)) == list(mpmath.eigsy(mpmath.matrix(0, 0), eigvals_only=True)) == []

    @given(_symmetric_matrices())
    @settings(max_examples=80, deadline=None, derandomize=True)
    @example((53, [[mpf(3)]]))
    @example((256, [[mpf(0)]]))
    @example((128, [[mpf(2), 0], [0, mpf(-5)]]))
    def test_sym_eigen_is_eigsy_bit_for_bit(self, drawn):
        # The same reduction and QL iteration as eigsy, on a dict and lists
        # instead of mpmath.matrix: every eigenvalue is the same mpf, and
        # none is a Python int 0 like those tred2 writes into D and E, which
        # the matrix class converted and a list keeps (a report formats an
        # int differently).
        prec, rows = drawn
        with mp.workprec(prec):
            m = mpmath.matrix(rows)
            got = sym_eigen(m)
            want = sorted(mpmath.eigsy(m, eigvals_only=True))
        assert all(isinstance(e, mpf) for e in got)
        assert [e._mpf_ for e in got] == [e._mpf_ for e in want]

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

    def test_solve_badly_scaled_spd(self):
        # A pivot floor scaled to the largest entry called diag(1, 1e-30)
        # singular at 128 bits; the Cholesky solve has no such floor.
        with mp.workprec(128):
            x = solve_dense([[1, 0], [0, mpf("1e-30")]], [2, mpf("3e-30")])
            assert abs(x[0] - 2) <= tol(2) and abs(x[1] - 3) <= tol(2) * 3

    def test_solve_indefinite_raises(self):
        # Symmetric and nonsingular, but not positive definite.
        with pytest.raises(SingularSystem):
            solve_dense([[1, 2], [2, 1]], [1, 1])

    def test_cholesky_pd(self):
        assert cholesky_pd([[mpf(2), mpf(1)], [mpf(1), mpf(2)]])
        assert not cholesky_pd([[mpf(1), mpf(2)], [mpf(2), mpf(1)]])


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

    def test_conjugate_pair_is_exact(self):
        # (x^2 - 2x + 5)(x + 1): 1 +- 2i come out as one exact conjugate
        # pair, +i first, after the real root.
        roots = poly_roots(Poly((5, -2, 1)) * Poly((1, 1)))
        assert [im == 0 for _, im in roots] == [True, False, False]
        (re1, im1), (re2, im2) = roots[1:]
        assert re1 == re2 and im1 == -im2 and im1 > 0
        assert abs(mpc(re1, im1) - mpc(1, 2)) < tol(2)

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

    def test_pull_exact_beyond_double_range(self):
        # A root at 1e400 has no finite complex copy, so every pull term
        # that involves it is taken in mpc.
        with mpmath.workprec(256):
            want = [mpf(-3), mpf(2), mpf("1e400")]
            got = poly_roots(Poly.from_roots(want))
            assert all(im == 0 for _, im in got)
            assert all(abs(re - w) <= tol(2) * abs(w) for (re, _), w in zip(got, want))

    def test_pull_exact_below_double_separation(self):
        # (x-1)^2 (x+2)(x-3) at 2112 bits: the pair ends about 2^(-p/2)
        # from 1, below the smallest double, so its complex copies coincide
        # and the pair's pull terms must be taken in mpc.
        with mpmath.workprec(2112):
            p = Poly.from_roots([-2, 1, 1, 3])
            seeds = [mpc(1, "1e-8"), mpc(1, "-1e-8"), mpc("-2.1", "1e-3"), mpc("3.1", "-1e-3")]
            got = aberth_roots(monomial_evaluator(p), seeds)
            pair = [mpc(re, im) for re, im in got[1:3]]
            assert abs(pair[0] - pair[1]) < mpf("2.2e-308")
            assert max(abs(z - 1) for z in pair) < mpf(2) ** (-mpmath.mp.prec // 2 + 8)

    def test_aberth_runs_in_python_complex(self):
        # The double-precision stage of SobolevFamily.zeros: no mpc anywhere.
        def evaluate(z):
            return z * z + 1, 2 * z, abs(z * z) + 1

        with mpmath.workprec(53):
            got = aberth_roots(evaluate, [complex(0.5, 0.5), complex(-0.5, -0.5)])
        assert [(float(re), float(im)) for re, im in got] == pytest.approx([(0, 1), (0, -1)], abs=1e-14)

    def test_failure_is_named_and_not_cached(self, monkeypatch):
        p = Poly.from_roots([1, 2, 3])
        monkeypatch.setattr(numkernel, "ABERTH_MAX_SWEEPS", 1)
        with pytest.raises(RootFailure):
            poly_roots(p)
        monkeypatch.undo()
        for (re, _), want in zip(poly_roots(p), [1, 2, 3]):
            assert abs(re - want) < tol(2)

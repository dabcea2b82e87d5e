"""Tests for the discrete Sobolev inner product and the S_n construction."""

import os
import random
import time
from fractions import Fraction
from itertools import permutations

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from jacobisobolev import numkernel, sobolev
from jacobisobolev.cli import load_config
from jacobisobolev.jacobi import JacobiParams, build_jacobi
from jacobisobolev.numkernel import Poly, RootFailure, tol
from jacobisobolev.sobolev import (
    InvalidMassPoint,
    MassPoint,
    SobolevProduct,
    build_family,
    inner_mu,
    inner_sobolev,
    is_sequentially_ordered,
    kernel_dk,
    kernel_poly_dk,
    zeros_of,
)
from oracles import NotApplicable, _rational_sobolev_poly, kernel_dk_closed, log_norm, quasi_orthogonality_check

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def gram_schmidt_oracle(product, n):
    """Independent S_0..S_n via monomial Gram-Schmidt under the product.

    Shares only the raw inner product with the library; the kernel-system
    construction is not involved.
    """
    cache = build_jacobi(product.jacobi, 2 * n + 4)
    basis = []
    for m in range(n + 1):
        v = Poly.x() ** m
        for b in basis:
            coef = inner_sobolev(v, b, product, cache) / inner_sobolev(b, b, product, cache)
            v = v - coef * b
        basis.append(v)
    return [p * (1 / p.leading) for p in basis]


def sequential_ordering_oracle(product):
    """Exhaustive form of is_sequentially_ordered: try every arrangement of
    the active pairs that keeps the orders nondecreasing and return the
    first in which no point falls inside the hull grown by its predecessors.
    Factorial in d*, so only for small products.
    """
    pairs = [(product.points[j].c, k) for j, k, _ in product.active_pairs]
    by_order = sorted(pairs, key=lambda t: t[1])
    orders = [k for _, k in by_order]

    def admissible(seq) -> bool:
        lo, hi = mpf(-1), mpf(1)
        seen = set()
        for c, _ in seq:
            if lo < c < hi or c in seen:
                return False
            seen.add(c)
            lo, hi = min(lo, c), max(hi, c)
        return True

    for perm in permutations(range(len(by_order))):
        seq = [by_order[i] for i in perm]
        if [k for _, k in seq] == orders and admissible(seq):
            return True, seq
    return False, None


MASS_LOCATIONS = [s * mpf(v) for s in (1, -1) for v in ("1", "1.25", "1.5", "2", "3", "4")]


def random_product(rng, n_points):
    cs = rng.sample(MASS_LOCATIONS, n_points)
    points = []
    for c in cs:
        orders = rng.sample([0, 1, 2], rng.randint(1, 2))
        points.append(MassPoint(c, [(k, rng.choice([mpf("0.5"), 1, 2])) for k in orders]))
    return SobolevProduct(JacobiParams(0, 0), points)


class TestMassPoint:
    def test_inside_interval_rejected(self):
        with pytest.raises(InvalidMassPoint):
            MassPoint(mpf("0.5"), [(0, 1)])

    def test_negative_mass_rejected(self):
        with pytest.raises(InvalidMassPoint):
            MassPoint(2, [(0, -1)])

    def test_zero_masses_dropped(self):
        p = MassPoint(2, [(0, 0), (1, 3)])
        assert p.terms == ((1, mpf(3)),)
        assert p.max_order == 1

    def test_all_zero_masses_rejected(self):
        with pytest.raises(InvalidMassPoint):
            MassPoint(2, [(0, 0)])

    def test_duplicate_orders_rejected(self):
        with pytest.raises(InvalidMassPoint):
            MassPoint(2, [(1, 1), (1, 2)])

    @pytest.mark.parametrize(
        "order", [-1, True, False, 1.5, float("nan"), float("inf"), mpf("-inf"), None, "1", 1j]
    )
    def test_bad_orders_rejected(self, order):
        # Checked before zero masses are dropped, so (False, 0) fails too.
        with pytest.raises(InvalidMassPoint, match="derivative orders"):
            MassPoint(2, [(order, 1), (3, 0)])
        with pytest.raises(InvalidMassPoint, match="derivative orders"):
            MassPoint(2, [(order, 0), (3, 1)])


class TestProduct:
    def test_counts(self, ex2_product):
        assert len(ex2_product.points) == 2
        assert ex2_product.d == 5  # (1+1) + (2+1)
        assert ex2_product.d_star == 2

    def test_duplicate_locations_rejected(self):
        with pytest.raises(InvalidMassPoint):
            SobolevProduct(
                JacobiParams(0, 0), [MassPoint(2, [(0, 1)]), MassPoint(2, [(1, 1)])]
            )

    def test_rho_factorizations(self, ex2_product):
        rho = ex2_product.rho()
        assert rho.degree == 5
        assert rho.leading == 1
        assert ex2_product.rho_n_points().degree == 2
        assert ex2_product.rho_excess().degree == 3
        prod = ex2_product.rho_n_points() * ex2_product.rho_excess()
        assert (prod - rho).max_abs_coeff() <= tol(2) * rho.max_abs_coeff()

    def test_rho_jk_reduces_one_factor(self, ex2_product):
        # reducing the order-2 location by k+1 = 3 powers removes it entirely
        r = ex2_product.rho_jk(1, 2)
        assert r.degree == 2
        assert abs(r(mpf(1))) <= tol(2)


class TestInnerProducts:
    def test_inner_mu_against_quadrature(self):
        cache = build_jacobi(JacobiParams(1, 2), 10)
        f, g = Poly((1, 2, 1)), Poly((0, 0, 3, 1))
        got = inner_mu(f, g, cache)
        want = mpmath.quad(lambda x: f(x) * g(x) * (1 - x) * (1 + x) ** 2, [-1, 0, 1])
        assert abs(got - want) <= mpf("1e-40") * max(1, abs(want))

    def test_inner_mu_of_jacobi_polys(self):
        cache = build_jacobi(JacobiParams("0.5", 90), 12)
        for j in range(13):
            for k in range(13):
                want = cache.norm(k) if j == k else 0
                assert inner_mu(cache.poly(j), cache.poly(k), cache) == want, (j, k)

    def test_inner_sobolev_at_large_beta(self):
        # A product-stream op: alpha = 0, beta = 91, orders 0 and 2 at c = -1.
        # <S_28, S_28>_s of the 128-bit S_28, taken at 192 bits, agrees with a
        # 640-bit run; expanding S_28^2 in monomials first lost 9 digits.
        def product():
            return SobolevProduct(JacobiParams(0, 91), [MassPoint(-1, [(0, "0.5"), (2, "0.5")])])

        n = 28
        with mp.workprec(128):
            s = build_family(product(), n).poly(n)

        def norm_sq(bits):
            with mp.workprec(bits):
                p = product()
                return inner_sobolev(s, s, p, build_jacobi(p.jacobi, n))

        with mp.workprec(640):
            want = norm_sq(640)
            assert abs(norm_sq(192) - want) <= mpf("1e-25") * want

    def test_sobolev_adds_derivative_masses(self, intro_product):
        cache = build_jacobi(intro_product.jacobi, 6)
        f = Poly((0, 0, 1))
        base = inner_mu(f, f, cache)
        full = inner_sobolev(f, f, intro_product, cache)
        # f'(+-2) = +-4, two masses of 16 each
        assert abs(full - base - 32) <= tol(2) * full


class TestKernels:
    def test_direct_vs_closed_form(self):
        cache = build_jacobi(JacobiParams(0, 3), 9)
        for k in [0, 1, 2]:
            direct = kernel_dk(cache, 7, 0, k, mpf("0.3"), mpf(2))
            closed = kernel_dk_closed(cache, 7, k, mpf("0.3"), mpf(2))
            assert abs(direct - closed) <= tol(2) * max(1, abs(direct))

    def test_closed_form_guards_diagonal(self):
        cache = build_jacobi(JacobiParams(0, 0), 5)
        with pytest.raises(ValueError):
            kernel_dk_closed(cache, 4, 0, mpf("0.5"), mpf("0.5"))

    def test_kernel_poly_reproduces_values(self):
        cache = build_jacobi(JacobiParams(0, 2), 8)
        kp = kernel_poly_dk(cache, 6, 1, mpf(2))
        for x in [mpf("-0.4"), mpf("0.9")]:
            assert abs(kp(x) - kernel_dk(cache, 6, 0, 1, x, mpf(2))) <= tol(2) * max(
                1, abs(kp(x))
            )

    def test_kernel_reproducing_property(self):
        # <K_{n-1}(., y), p>_mu = p(y) for deg p < n
        cache = build_jacobi(JacobiParams(0, 0), 8)
        kp = kernel_poly_dk(cache, 5, 0, mpf("0.37"))
        p = Poly((2, -1, 0, 4))
        got = inner_mu(kp, p, cache)
        assert abs(got - p(mpf("0.37"))) <= tol(2) * max(1, abs(got))


class TestConstruction:
    def test_intro_s3_is_exact(self, intro_family):
        s3 = intro_family.poly(3)
        want = Poly((0, mpf(-183) / 20, 0, 1))
        assert (s3 - want).max_abs_coeff() <= mpf("1e-20") * want.max_abs_coeff()

    @pytest.mark.parametrize("which", [0, 1, 2, 3])
    def test_orthogonality(self, all_families, which):
        family = all_families[which]
        product, cache = family.product, family.jacobi_cache
        for m in range(1, 9):
            sm = family.poly(m)
            scale = inner_sobolev(sm, sm, product, cache)
            for j in range(m):
                val = abs(inner_sobolev(sm, family.poly(j), product, cache))
                assert val <= tol(3) * scale, (m, j)

    @pytest.mark.parametrize("which", [0, 1, 2, 3])
    def test_gram_schmidt_oracle_equivalence(self, all_families, which):
        family = all_families[which]
        oracle = gram_schmidt_oracle(family.product, 8)
        for m in range(9):
            diff = (family.poly(m) - oracle[m]).max_abs_coeff()
            assert diff <= tol(4) * max(family.poly(m).max_abs_coeff(), mpf(1)), m

    def test_derivative_vector_matches_poly(self, ex2_family):
        product = ex2_family.product
        for m in range(13):
            sm = ex2_family.poly(m)
            for (j, k, _), val in zip(product.active_pairs, ex2_family.deriv_vector(m)):
                direct = sm.deriv(k)(product.points[j].c)
                assert abs(direct - val) <= tol(3) * max(1, abs(val))

    def test_empty_point_set_gives_jacobi(self):
        product = SobolevProduct(JacobiParams(0, 0), [])
        family = build_family(product, 5)
        cache = build_jacobi(JacobiParams(0, 0), 5)
        for m in range(6):
            assert (family.poly(m) - cache.poly(m)).max_abs_coeff() <= tol(2)


class TestJacobiTable:
    @pytest.mark.parametrize("which", [0, 1, 2, 3])
    def test_table_matches_kernel_sums(self, all_products, which):
        # The kernel K_{m-1}(C, C) against kernel_dk's Horner sums at 256
        # more bits, within tol(3) of the entry's scale sqrt(K_aa K_bb) (K is
        # positive semidefinite, so it bounds |K_ab|), and S_m from the
        # Jacobi coefficients against P_m - sum lambda s K_{m-1}^{(0,k)}(x, c).
        product = all_products[which]
        pairs = product.active_pairs
        family = build_family(product, 0)
        cache = family.jacobi_cache
        with mp.workprec(mp.prec + 256):
            ref_cache = build_jacobi(product.jacobi, 12)
        for m in range(1, 13):
            cs = [product.points[j].c for j, _, _ in pairs]
            with mp.workprec(mp.prec + 256):
                want = [[kernel_dk(ref_cache, m, ka, kb, ca, cb) for (_, kb, _), cb in zip(pairs, cs)]
                        for (_, ka, _), ca in zip(pairs, cs)]
            kmat = family.kernel(m)
            for a in range(len(pairs)):
                for b in range(len(pairs)):
                    scale = mpmath.sqrt(want[a][a] * want[b][b])
                    assert abs(kmat[a][b] - want[a][b]) <= tol(3) * scale, (m, a, b)
            want = cache.poly(m)
            for (j, k, lam), sval in zip(pairs, family.deriv_vector(m)):
                want = want - (lam * sval) * kernel_poly_dk(cache, m, k, product.points[j].c)
            sm = family.poly(m)
            assert (sm - want).max_abs_coeff() <= tol(3) * max(1, want.max_abs_coeff()), m

    def test_table_by_recurrence_at_large_beta(self):
        # alpha = 0, beta = 100, c = 2: Horner's rule on the monomial P_m
        # keeps about 67 of the 77 digits at 256 bits, the differentiated
        # recurrence about 76.
        product = SobolevProduct(JacobiParams(0, 100), [MassPoint(2, [(2, 1)])])
        with mp.workprec(768):
            want = build_family(product, 40).table
        family = build_family(product, 40)
        for m in range(41):
            for k in range(3):
                got, ref = family.table[m][0][k], want[m][0][k]
                if ref:
                    assert abs(got - ref) <= mpf("1e-74") * abs(ref), (m, k)
                else:
                    assert got == 0, (m, k)

    @pytest.mark.parametrize("alpha, beta", [(0, 0), (2, 61), (0, 100)])
    def test_norms_by_recurrence(self, alpha, beta):
        params = JacobiParams(alpha, beta)
        cache = build_jacobi(params, 40)
        with mp.workprec(768):
            want = [mpmath.exp(log_norm(params, k)) for k in range(41)]
        for k in range(41):
            assert abs(cache.norm(k) - want[k]) <= mpf("1e-74") * want[k], k

    def test_build_makes_no_kernel_sums(self, monkeypatch, intro_product):
        def forbidden(*args):
            raise AssertionError("kernel summed from scratch")

        monkeypatch.setattr(sobolev, "kernel_dk", forbidden)
        monkeypatch.setattr(sobolev, "kernel_poly_dk", forbidden)
        assert intro_product.d_star == 2
        family = build_family(intro_product, 20)
        assert len(family.jacobi_coeffs(20)) == 21

    def test_norm_at_128_bits_matches_640_bits(self):
        # <S_n, S_n> summed over the monomial coefficients lost 8 digits
        # more than 128 bits carry here; h_n + Lambda_n keeps them.
        product = SobolevProduct(JacobiParams(2, 90), [MassPoint(-4, [(0, 2)]), MassPoint(-2, [(0, 2)])])
        with mpmath.workprec(640):
            want = build_family(product, 28).sobolev_norm_sq(28)
        with mpmath.workprec(128):
            got = build_family(product, 28).sobolev_norm_sq(28)
            limit = tol(2)
        assert abs(got - want) <= limit * want

    @pytest.mark.parametrize("which", [0, 1, 2, 3])
    def test_norm_is_the_inner_product(self, all_families, which):
        family = all_families[which]
        for m in range(9):
            sm = family.poly(m)
            want = inner_sobolev(sm, sm, family.product, family.jacobi_cache)
            assert abs(family.sobolev_norm_sq(m) - want) <= tol(3) * want, m


@st.composite
def far_mass_products(draw):
    """(product, n): up to 4 mass points with 1 <= |c| <= 4 and orders
    <= 2, d* <= 8, beta in [0, 120] and n <= 28."""
    locations = draw(st.lists(st.integers(100, 400), min_size=1, max_size=4, unique=True))
    points, budget = [], 8
    for i, hundredths in enumerate(locations):
        sign = draw(st.sampled_from([1, -1]))
        rest = len(locations) - 1 - i  # points still to come, one pair each at least
        orders = draw(st.lists(st.integers(0, 2), min_size=1, max_size=min(3, budget - rest), unique=True))
        budget -= len(orders)
        terms = [(k, draw(st.sampled_from(["0.5", "1", "3"]))) for k in orders]
        points.append(MassPoint(sign * mpf(hundredths) / 100, terms))
    params = JacobiParams(mpf(draw(st.sampled_from(["0", "0.5", "2"]))), draw(st.integers(0, 120)))
    return SobolevProduct(params, points), draw(st.integers(1, 28))


class TestKernelSolve:
    def test_far_order_zero_masses_at_128_bits(self):
        # K_{m-1}(C, C) has an entry near 1e37 from the mass at c = 4; a pivot
        # floor scaled to it called I + K L singular here.
        product = SobolevProduct(
            JacobiParams(mpf("0.5"), 90), [MassPoint(4, [(0, 1)]), MassPoint(mpf("1.25"), [(0, 1)])]
        )
        with mp.workprec(640):
            want = build_family(product, 28).jacobi_coeffs(28)
        with mp.workprec(128):
            got = build_family(product, 28).jacobi_coeffs(28)
            for nu, (a, b) in enumerate(zip(got, want)):
                assert abs(a - b) <= tol(2) * max(1, abs(b)), nu

    def test_far_mass_point_holds_its_digits(self):
        # Orders 0 and 1 at c = 8: K_{m-1}(C, C) grows like 2^(8m), so the
        # solve's residual cancels far below its terms, yet every stored value
        # holds; a residual rule relative to |s| alone refused n = 60 at 128 bits.
        product = SobolevProduct(JacobiParams(0, 0), [MassPoint(8, [(0, 1), (1, 1)])])
        with mp.workprec(512):
            family = build_family(product, 60)
            want = family.deriv_vector(60) + family.jacobi_coeffs(60)
        with mp.workprec(128):
            family = build_family(product, 60)
            family.poly(60)
            got = family.deriv_vector(60) + family.jacobi_coeffs(60)
        with mp.workprec(512):
            assert all(abs(a - b) <= mpmath.ldexp(abs(b), -200) for a, b in zip(got, want))

    def test_close_mass_points_raise_where_the_guard_runs_out(self):
        # Mass points 2^-50 apart: the second Cholesky pivot cancels about 78
        # bits at n = 10, more than the 64 bits the guard holds beyond p = 64,
        # where the stored values would keep about 50 bits.  At p = 128 they
        # keep about 178 and agree with a 512-bit build.
        def product():
            points = (5, 5 + mpmath.ldexp(1, -50))
            return SobolevProduct(JacobiParams(0, 1), [MassPoint(c, [(0, mpf(10) ** 6)]) for c in points])

        with mp.workprec(64), pytest.raises(sobolev.InternalContradiction, match="pivot 1 below 2\\^-64"):
            build_family(product(), 10).deriv_vector(10)
        with mp.workprec(512):
            family = build_family(product(), 10)
            want = family.deriv_vector(10) + family.jacobi_coeffs(10)
        with mp.workprec(128):
            family = build_family(product(), 10)
            got = family.deriv_vector(10) + family.jacobi_coeffs(10)
        with mp.workprec(512):
            assert all(abs(a - b) <= mpmath.ldexp(abs(b), -160) for a, b in zip(got, want))

    def test_one_factorisation_per_degree(self, monkeypatch, ex2_product):
        # Building the family solves nothing; each degree read is factored
        # once, on its first read.
        factor = sobolev.cholesky
        calls = []
        monkeypatch.setattr(sobolev, "cholesky", lambda M: calls.append(len(M)) or factor(M))
        family = build_family(ex2_product, 12)
        assert calls == []
        family.jacobi_coeffs(12)
        assert calls == [ex2_product.d_star]
        for m in list(range(13)) * 2:
            family.jacobi_coeffs(m)
        assert calls == [ex2_product.d_star] * 13

    @pytest.mark.parametrize("which", [0, 1, 2, 3])
    def test_degrees_in_any_order_match_exact_gram_schmidt(self, all_products, which):
        # Each degree is a function of the table alone: asked in shuffled
        # order, S_m has the bits of S_m asked in order, and it matches the
        # exact S_m of Gram-Schmidt over Fraction, which shares no
        # arithmetic with the family.  The oracle takes alpha = 0 and an
        # integer beta; the shipped products have integer c and lambda too.
        product = all_products[which]
        beta = int(product.jacobi.beta)
        pairs = [(product.points[j].c, k, lam) for j, k, lam in product.active_pairs]
        assert product.jacobi.alpha == 0 and beta == product.jacobi.beta
        assert all(c == int(c) and lam == int(lam) for c, _, lam in pairs)
        masses = [(Fraction(int(c)), k, Fraction(int(lam))) for c, k, lam in pairs]
        order = list(range(13))
        random.Random(which).shuffle(order)
        shuffled, in_order = build_family(product, 12), build_family(product, 12)
        got = {m: shuffled.poly(m) for m in order}
        raw = lambda poly: [c._mpf_ for c in poly.coeffs]
        for m in range(13):
            assert raw(got[m]) == raw(in_order.poly(m)), m
            want = [mpf(c.numerator) / c.denominator for c in _rational_sobolev_poly(beta, masses, m)]
            scale = max(abs(c) for c in want)
            assert len(got[m].coeffs) == len(want), m
            assert max(abs(a - b) for a, b in zip(got[m].coeffs, want)) <= tol(2) * scale, m

    @given(far_mass_products())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_no_contradiction_and_guard_bits_suffice(self, case):
        # L^-1 + K is positive definite for every valid product, so no
        # degree m <= n may raise InternalContradiction; the row at 128 bits
        # agrees with the one at 256.
        product, n = case

        def rows():
            family = build_family(product, n)
            return [family.jacobi_coeffs(m) for m in range(n + 1)]

        with mp.workprec(256):
            want = rows()[n]
        with mp.workprec(128):
            got = rows()[n]
            for nu, (a, b) in enumerate(zip(got, want)):
                assert abs(a - b) <= tol(2) * max(1, abs(b)), nu


class TestSequentialOrdering:
    def test_intro_product_is_ordered(self, intro_product):
        flag, seq = is_sequentially_ordered(intro_product)
        assert flag
        assert len(seq) == 2

    def test_examples_are_ordered(self, ex1_product, ex2_product, ex3_product):
        for product in [ex1_product, ex2_product, ex3_product]:
            assert is_sequentially_ordered(product)[0]

    def test_two_orders_at_one_point_not_ordered(self):
        product = SobolevProduct(JacobiParams(0, 0), [MassPoint(2, [(0, 1), (1, 1)])])
        flag, seq = is_sequentially_ordered(product)
        assert not flag
        assert seq is None

    def test_decreasing_orders_not_ordered(self):
        # order-1 mass strictly inside the hull grown by the order-0 mass
        product = SobolevProduct(
            JacobiParams(0, 0), [MassPoint(3, [(0, 1)]), MassPoint(2, [(1, 1)])]
        )
        assert not is_sequentially_ordered(product)[0]


    def test_matches_exhaustive_oracle(self):
        rng = random.Random(20261018)
        flags = set()
        for _ in range(300):
            product = random_product(rng, rng.randint(1, 4))
            if product.d_star > 6:
                continue
            got = is_sequentially_ordered(product)
            assert got == sequential_ordering_oracle(product), product
            flags.add(got[0])
        assert flags == {True, False}

    def test_ten_point_unordered_product_is_fast(self):
        # Nine order-0 masses, then an order-1 mass inside their hull: the
        # exhaustive search would walk all 10! arrangements.
        cs = ["1", "1.5", "2", "3", "4", "-1.25", "-1.5", "-2", "-3"]
        points = [MassPoint(mpf(c), [(0, 1)]) for c in cs] + [MassPoint(mpf("2.5"), [(1, 1)])]
        product = SobolevProduct(JacobiParams(0, 0), points)
        start = time.perf_counter()
        assert is_sequentially_ordered(product) == (False, None)
        assert time.perf_counter() - start < 0.5


class TestQuasiOrthogonality:
    def test_defect_small(self, ex3_family):
        worst = quasi_orthogonality_check(ex3_family, 12)
        s12 = ex3_family.poly(12)
        cache = ex3_family.jacobi_cache
        scale = inner_mu(s12, s12, cache)
        assert worst <= tol(3) * scale

    def test_needs_large_degree(self, ex2_family):
        with pytest.raises(NotApplicable):
            quasi_orthogonality_check(ex2_family, 4)


class TestZeros:
    def test_interior_counts(self, all_families):
        for family in all_families:
            n_pts = len(family.product.points)
            report = zeros_of(family, 8)
            assert report.sign_changes_inside >= 8 - n_pts

    def test_saddle_case_outlier(self, ex3_family):
        report = zeros_of(ex3_family, 12)
        assert report.count_inside == 11
        assert max(report.real_roots) > 2

    def test_zeros_repeat_equal_lists(self, ex1_family):
        first = ex1_family.zeros(10)
        assert ex1_family.zeros(10) == first
        assert ex1_family.zeros(10) is not first

    def test_zeros_survive_caller_mutation(self, ex1_family):
        first = ex1_family.zeros(9)
        want = list(first)
        first.clear()
        assert ex1_family.zeros(9) == want

    def test_zeros_recompute_at_new_precision(self):
        # alpha = beta = 1/2: P_3 = x^3 - x/2, exact at every precision.
        family = build_family(SobolevProduct(JacobiParams("0.5", "0.5"), []), 3)
        low = family.zeros(3)[2][0]
        with mpmath.workprec(512):
            high = family.zeros(3)[2][0]
            assert abs(high - mpmath.sqrt(2) / 2) < mpf(10) ** -150
            assert abs(low - mpmath.sqrt(2) / 2) > mpf(10) ** -100
        assert family.zeros(3)[2][0] == low

    def test_zeros_failure_not_cached(self, monkeypatch):
        family = build_family(SobolevProduct(JacobiParams(0, 100), [MassPoint(2, [(1, 1)])]), 6)
        monkeypatch.setattr(numkernel, "ABERTH_MAX_SWEEPS", 1)
        with pytest.raises(RootFailure):
            family.zeros(6)
        monkeypatch.undo()
        assert len(family.zeros(6)) == 6

    def test_double_seeds_fall_back_to_chebyshev(self):
        # A coefficient beyond the double range: the 53-bit stage cannot
        # run, and the working-precision run starts from the nudged
        # Chebyshev points.
        family = build_family(SobolevProduct(JacobiParams(0, 0), []), 4)
        coeffs = family.jacobi_coeffs(4)[:-1] + [mpf("1e400")]
        cache = family.jacobi_cache
        seeds = numkernel._double_seeds(coeffs, cache.gamma1s, cache.gamma2s)
        want = [complex(mpmath.cos((2 * i + 1) * mpmath.pi / 8), 1e-3 * (-1) ** i) for i in range(4)]
        assert [complex(z) for z in seeds] == pytest.approx(want, abs=1e-15)

    def test_double_seeds_are_nudged_zeros(self, ex1_family):
        # The seeds are the zeros from the 53-bit stage, the real ones nudged
        # off the axis by about 1e-14, with alternating sign.
        cache = ex1_family.jacobi_cache
        seeds = numkernel._double_seeds(ex1_family.jacobi_coeffs(10), cache.gamma1s, cache.gamma2s)
        zeros = ex1_family.zeros(10)
        assert len(set(seeds)) == 10
        for z, (re, im) in zip(sorted(seeds, key=lambda z: (z.real, z.imag)), zeros):
            assert abs(z.real - re) < mpf("1e-12") * (1 + abs(re))
            if im == 0:
                assert mpf("1e-15") < abs(z.imag) < mpf("1e-13") * (1 + abs(re))

    def test_jacobi_expansion_matches_poly(self, all_families):
        points = [mpf("-0.9"), mpf("0.1"), mpf("0.7"), mpf(2), mpc("0.3", "0.2")]
        for family in all_families:
            for n in (1, 5, 8):
                coeffs = family.jacobi_coeffs(n)
                sn = family.poly(n)
                for x in points:
                    value, slope, _ = family.jacobi_cache.series(coeffs).evaluate(x)
                    scale = sum(abs(c) * abs(x) ** k for k, c in enumerate(sn.coeffs))
                    assert abs(value - sn(x)) <= tol(2) * scale
                    assert abs(slope - sn.deriv()(x)) <= tol(2) * scale * (n + 1)


def refined_at_768_bits(product, n, zeros):
    """Each (re, im) zero, refined by Newton's method at 768 bits on the
    monomial coefficients of S_n built at 768 bits.  This shares neither the
    Jacobi expansion nor the Aberth iteration with family.zeros."""
    with mpmath.workprec(768):
        sn = build_family(product, n).poly(n)
        dsn = sn.deriv()
        out = []
        for re, im in zeros:
            z = mpc(re, im)
            for _ in range(20):
                step = sn(z) / dsn(z)
                z -= step
                if abs(step) < mpf(2) ** -700:
                    break
            out.append(z)
    return out


class TestZerosAccuracy:
    """Zeros of S_n at 256 bits against the 768-bit referee.  Finding them
    from the monomial coefficients of S_n (mpmath.polyroots) got only 1.5e-55
    and 3.2e-55 at n = 24 on the two shipped configs below."""

    @pytest.mark.parametrize(
        "product",
        [
            SobolevProduct(JacobiParams(0, 100), [MassPoint(2, [(1, 1)])]),
            SobolevProduct(JacobiParams(0, 110), [MassPoint(1, [(1, 1)]), MassPoint(2, [(2, 1)])]),
        ],
        ids=["large_beta_single_mass", "two_points_mixed_orders"],
    )
    def test_zeros_match_768_bit_referee(self, product):
        zeros = build_family(product, 24).zeros(24)
        self.assert_close(zeros, refined_at_768_bits(product, 24, zeros), mpf("1e-60"))

    def test_near_double_zero_terminates(self):
        # An order-0 and an order-1 mass at c = -1.5 leave two zeros of S_24
        # 7e-13 apart there; Aberth steps stall at the noise level of that
        # cluster and must stop by the noise rule.
        product = SobolevProduct(JacobiParams("0.5", 19), [MassPoint("-1.5", [(0, 1), (1, 1)])])
        zeros = build_family(product, 24).zeros(24)
        self.assert_close(zeros, refined_at_768_bits(product, 24, zeros), mpf("1e-55"))

    def test_near_double_zero_separates(self):
        # Order-0 and order-1 masses of 1/2 at c = -4 leave two real zeros of
        # S_24 at -4 +- 2.1137e-21.  From double-precision seeds, a rule that
        # stops stalling steps froze them 1.9e-24 apart, with 21 correct
        # digits.
        product = SobolevProduct(JacobiParams(2, 19), [MassPoint(-4, [(0, "0.5"), (1, "0.5")])])
        zeros = build_family(product, 24).zeros(24)
        self.assert_close(zeros, refined_at_768_bits(product, 24, zeros), mpf("1e-45"), min_gap=mpf("1e-21"))
        pair = [re for re, im in zeros if abs(re + 4) < mpf("1e-10")]
        assert len(pair) == 2 and abs(pair[1] - pair[0] - mpf("4.2274e-21")) < mpf("1e-24")

    @pytest.mark.parametrize(
        "config,n,floor",
        [
            ("large_beta_single_mass", 24, 76.9),
            ("legendre_saddle", 24, 76.9),
            ("two_points_mixed_orders", 24, 76.67),
            ("two_symmetric_masses", 24, 76.86),
            ("large_beta_single_mass", 40, 76.73),
        ],
    )
    def test_shipped_zeros_match_768_bit_run(self, config, n, floor):
        # Agreement digits, relative to max(1, |reference|), of the 256-bit
        # zeros with a 768-bit run of the same code: 0.5 below what the
        # Aberth iteration with every pull term in mpc gives (77.40, 77.40,
        # 77.18, 77.37 at n = 24; 77.23 at n = 40).
        def zeros(bits):
            with mpmath.workprec(bits):
                cfg = load_config(os.path.join(CONFIG_DIR, f"{config}.json"), n, bits)
                return [mpc(re, im) for re, im in build_family(cfg["product"], n).zeros(n)]

        got, ref = zeros(256), zeros(768)
        assert len(got) == len(ref)
        with mpmath.workprec(768):
            err = max(abs(a - b) / max(1, abs(b)) for a, b in zip(got, ref))
            assert -mpmath.log10(err) >= floor

    @staticmethod
    def assert_close(zeros, referee, limit, min_gap=mpf("1e-20")):
        assert len(zeros) == len(referee)
        with mpmath.workprec(768):
            gaps = [abs(a - b) for i, a in enumerate(referee) for b in referee[i + 1:]]
            assert min(gaps) > min_gap  # n distinct roots: every root of S_n
            assert max(abs(mpc(re, im) - r) for (re, im), r in zip(zeros, referee)) <= limit

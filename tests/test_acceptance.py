"""Acceptance suite: the ten primary criteria, each at its stated tolerance.

Criteria 2, 3, and 4 pin reference zero/eigenvalue lists that were produced
by a double-precision computation and carry errors far above the stated
tolerances for the ill-conditioned configurations (zeros clustering near 1
for large beta).  Those tests are left to fail *honestly*; the accompanying
``*_evidence`` tests prove with exact rational arithmetic that this
implementation's values are the correct ones.  See the evidence docstrings.
"""

from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf

from jacobisobolev.electrostatics import (
    Classification,
    classify,
    critical_point,
    decompose_field,
    gradient,
    hessian,
)
from jacobisobolev.jacobi import JacobiParams, gamma1, gamma2
from jacobisobolev.ladder import (
    build_ladder,
    ode_residual,
)
from jacobisobolev.numkernel import Poly, tol
from jacobisobolev.sobolev import SobolevProduct, build_family, zeros_of
from oracles import _rational_sobolev_poly, compose_raising, energy
from test_sobolev import gram_schmidt_oracle

# ---------------------------------------------------------------------------
# Reference values (double-precision provenance; see module docstring).

EX1_REF_ZEROS = """0.44845 0.563364 0.653317 0.728094 0.791318 0.844674
0.889402 0.925746 0.954364 0.97639 0.989824 0.998408"""

EX1_REF_EIGS = """81.7737 220.5813 383.5185 586.5056 857.6819 1248.8
1857.7 2927.5 5039.9 9986.6 26185 214620"""

EX2_REF_ZEROS = """0.482433 0.590159 0.674139 0.74379 0.802629 0.852355
0.894142 0.928255 0.955716 0.976239 0.990307 0.998211"""

EX2_REF_EIGS = """102.3077 265.8911 459.368 702.7009 1030.2 1504.8
2247.1 3563.2 6146 12806 38783 488410"""

EX3_REF_ZEROS = """-0.979635 -0.894154 -0.746211 -0.545446 -0.305098
-0.0412552 0.227973 0.483321 0.705221 0.87481 0.975632 2.1607"""

EX3_REF_EIGS = """-258.3366 14.0599 34.4135 50.3046 62.6406 70.7275
86.754 107.6368 179.5748 242.5338 975.7989 1388.3"""


def _vals(text):
    return [mpf(s) for s in text.split()]


def _max_abs_dev(got, want):
    return max(abs(a - b) for a, b in zip(got, want))


def _max_rel_dev(got, want):
    return max(abs(a - b) / abs(b) for a, b in zip(got, want))


def _exact_sign(poly, x):
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * x + c
    return (acc > 0) - (acc < 0)


def _bracket_count(poly, zeros, eps):
    """How many claimed zeros are confirmed by an exact sign change."""
    count = 0
    for z in zeros:
        x = Fraction(str(z))
        if _exact_sign(poly, x - eps) != _exact_sign(poly, x + eps):
            count += 1
    return count


# ---------------------------------------------------------------------------


class TestCriterion01:
    def test_intro_cubic_exact(self, intro_family):
        """S_3 of the two-mass symmetric product equals x^3 - (183/20) x."""
        s3 = intro_family.poly(3)
        want = (mpf(0), mpf(-183) / 20, mpf(0), mpf(1))
        for got, ref in zip(s3.coeffs, want):
            if ref == 0:
                assert abs(got) <= mpf("1e-20") * mpf("9.15")
            else:
                assert abs(got - ref) <= mpf("1e-20") * abs(ref)


class TestCriterion02:
    def test_ex1_zeros_match_reference(self, ex1_family):
        """All 12 zeros of S_12 match the reference list to absolute 1e-5.

        Known-red: the reference list is double-precision accurate only;
        see test_ex1_zeros_evidence for the exact-arithmetic proof that the
        computed zeros are the true ones.
        """
        got = zeros_of(ex1_family, 12).real_roots
        assert len(got) == 12
        dev = _max_abs_dev(got, _vals(EX1_REF_ZEROS))
        assert dev <= mpf("1e-5"), (
            f"max deviation {mpmath.nstr(dev, 5)} from the reference zeros; "
            "the reference values are double-precision artifacts for the "
            "ill-conditioned cluster near 1 (see test_ex1_zeros_evidence)"
        )

    def test_ex1_zeros_evidence(self, ex1_family):
        """Exact rational arithmetic confirms our zeros, not the reference.

        The exact S_12 (integer-moment Gram-Schmidt over Fraction) changes
        sign inside +-1.2e-5 brackets around every computed zero, but around
        only a minority of the reference values.
        """
        s12 = _rational_sobolev_poly(100, [(Fraction(2), 1, Fraction(1))], 12)
        eps = Fraction(12, 10**6)
        ours = _bracket_count(s12, zeros_of(ex1_family, 12).real_roots, eps)
        refs = _bracket_count(s12, _vals(EX1_REF_ZEROS), eps)
        assert ours == 12
        assert refs < 12  # the reference list fails its own tolerance


class TestCriterion03:
    def test_ex1_spectrum_matches_reference(self, ex1_family):
        """Hessian eigenvalues match the reference to relative 1e-2 and the
        configuration is a local minimum.

        Known-red for the eigenvalue list: Hessian entries scale as 1/gap^2
        with gaps ~1e-2, so the ~5e-4 zero errors of the reference data
        destroy its spectrum; the list cannot be reproduced even when the
        Hessian is evaluated exactly at the reference zeros themselves.
        The classification itself is asserted (and holds).
        """
        zeros, fd, _ = critical_point(ex1_family, 12)
        report = classify(zeros, fd)
        assert report.classification is Classification.LOCAL_MINIMUM
        assert len(report.hessian_eigs) == 12
        dev = _max_rel_dev(report.hessian_eigs, _vals(EX1_REF_EIGS))
        assert dev <= mpf("1e-2"), (
            f"max relative deviation {mpmath.nstr(dev, 5)} from the reference "
            "spectrum (see TestCriterion03 docstring and "
            "TestCriterion05, whose well-conditioned spectrum matches)"
        )


class TestCriterion04:
    def test_ex2_zeros_and_spectrum(self, ex2_family):
        """Zeros to 1e-5 absolute, eigenvalues to relative 1e-2, minimum.

        Known-red for the same conditioning reasons as criteria 2-3, plus
        an inconsistency in the reference field data at x = 1 (see
        test_ex2_field_evidence).  The classification is asserted and holds.
        """
        got = zeros_of(ex2_family, 12).real_roots
        assert len(got) == 12
        zeros, fd, _ = critical_point(ex2_family, 12)
        report = classify(zeros, fd)
        assert report.classification is Classification.LOCAL_MINIMUM
        zdev = _max_abs_dev(got, _vals(EX2_REF_ZEROS))
        edev = _max_rel_dev(report.hessian_eigs, _vals(EX2_REF_EIGS))
        assert zdev <= mpf("1e-5") and edev <= mpf("1e-2"), (
            f"zero deviation {mpmath.nstr(zdev, 5)}, eigenvalue deviation "
            f"{mpmath.nstr(edev, 5)}; reference data is double-precision "
            "accurate only (see test_ex2_zeros_evidence, test_ex2_field_evidence)"
        )

    def test_ex2_zeros_evidence(self, ex2_family):
        """Exact rational arithmetic confirms our Example-2 zeros."""
        masses = [(Fraction(1), 1, Fraction(1)), (Fraction(2), 2, Fraction(1))]
        s12 = _rational_sobolev_poly(110, masses, 12)
        eps = Fraction(12, 10**6)
        ours = _bracket_count(s12, zeros_of(ex2_family, 12).real_roots, eps)
        refs = _bracket_count(s12, _vals(EX2_REF_ZEROS), eps)
        assert ours == 12
        assert refs < 12

    def test_ex2_field_evidence(self, ex2_family):
        """The computed charge at x = 1 (exponent 1, not 3) is the one for
        which the zeros are actually a critical point of the energy."""
        fd = decompose_field(build_ladder(ex2_family, 12), ex2_family)
        ell_at_1 = next(ell for loc, ell in fd.poles if abs(loc - 1) < mpf("1e-6"))
        assert abs(ell_at_1 - 1) < mpf("1e-20")
        zeros = zeros_of(ex2_family, 12).real_roots
        grad = gradient(fd, zeros)
        assert max(abs(g) for g in grad) <= tol(4)
        # with the exponent-3 variant the gradient is catastrophically off
        fd_variant = decompose_field(build_ladder(ex2_family, 12), ex2_family)
        fd_variant.poles = [
            (loc, ell + 2 if abs(loc - 1) < mpf("1e-6") else ell)
            for loc, ell in fd_variant.poles
        ]
        grad_variant = gradient(fd_variant, zeros)
        assert max(abs(g) for g in grad_variant) > 100


class TestCriterion05:
    def test_ex3_saddle(self, ex3_family):
        """Example 3: zeros to 1e-5 (incl. the outlier beyond the mass
        point), exactly one negative eigenvalue ~ -258.34, SaddlePoint,
        truncated 11x11 Hessian positive definite."""
        got = zeros_of(ex3_family, 12).real_roots
        assert len(got) == 12
        assert _max_abs_dev(got, _vals(EX3_REF_ZEROS)) <= mpf("1e-5")
        assert got[-1] > 2  # outlier beyond the interval

        zeros, fd, _ = critical_point(ex3_family, 12)
        report = classify(zeros, fd)
        assert report.classification is Classification.SADDLE_POINT
        negatives = [e for e in report.hessian_eigs if e < 0]
        assert len(negatives) == 1
        assert abs(negatives[0] + mpf("258.3366")) <= mpf("1e-2") * mpf("258.3366")
        assert _max_rel_dev(report.hessian_eigs, _vals(EX3_REF_EIGS)) <= mpf("1e-2")
        assert report.negative_index_set == [11]
        assert report.truncated_hessian_pd


class TestCriterion06:
    @pytest.mark.parametrize("which", [0, 1, 2, 3])
    def test_ode_residuals(self, all_families, which):
        """ODE residual, relative to the terms that cancel, within 2^-p
        (the rule of SobolevFamily.holds) for every example product and
        2 <= n <= 12."""
        family = all_families[which]
        for n in range(2, 13):
            ld = build_ladder(family, n)
            assert family.holds(ode_residual(ld, family), 1), n


class TestCriterion07:
    def test_classical_reduction(self):
        """With no masses at alpha = beta = 0, n = 6: ODE ratios reduce to
        (1-x^2), -2x, n(n+1), and the recurrence coefficients reduce to
        x - gamma1_n and -gamma2_n, all to relative 1e-20."""
        family = build_family(SobolevProduct(JacobiParams(0, 0), []), 8)
        n = 6
        ld = build_ladder(family, n)
        p2, p1, p0 = ld.P2, ld.P1, ld.P0
        one_minus_x2 = Poly((1, 0, -1))
        r1 = p1 * one_minus_x2 - p2 * Poly((0, -2))
        r0 = p0 * one_minus_x2 - p2 * Poly((n * (n + 1),))
        assert r1.max_abs_coeff() <= mpf("1e-20") * (p2 * Poly((0, -2))).max_abs_coeff()
        assert r0.max_abs_coeff() <= mpf("1e-20") * (
            p2 * Poly((n * (n + 1),))
        ).max_abs_coeff()

        params = family.product.jacobi
        ld_n1 = build_ladder(family, n + 1)
        top = ld_n1.q4 * ld.q0
        mid_ratio, rem1 = divmod(ld_n1.q3 * ld.q0 - ld.q2 * ld_n1.q0, top)
        low_ratio, rem2 = divmod(ld.q1 * ld_n1.q0, top)
        assert rem1.max_abs_coeff() <= mpf("1e-20") * top.max_abs_coeff()
        assert rem2.max_abs_coeff() <= mpf("1e-20") * top.max_abs_coeff()
        assert (mid_ratio - Poly((-gamma1(params, n), 1))).max_abs_coeff() <= mpf("1e-20")
        assert abs(low_ratio.coeff(0) + gamma2(params, n)) <= mpf("1e-20") * gamma2(
            params, n
        )


class TestCriterion08:
    @pytest.mark.parametrize("which", [0, 1, 2, 3])
    def test_oracle_equivalence(self, all_families, which):
        """Monomial Gram-Schmidt agrees with the kernel-system construction
        coefficientwise to 10^-(precision_digits/4) for m <= 8."""
        family = all_families[which]
        oracle = gram_schmidt_oracle(family.product, 8)
        for m in range(9):
            diff = (family.poly(m) - oracle[m]).max_abs_coeff()
            assert diff <= tol(4) * max(family.poly(m).max_abs_coeff(), mpf(1)), m


class TestCriterion09:
    """Property suite."""

    @pytest.mark.parametrize("which", [0, 1, 2, 3])
    def test_lambda_positive(self, all_families, which):
        family = all_families[which]
        min_order = min(k for _, k, _ in family.product.active_pairs)
        for m in range(min_order, 13):
            assert family.lambda_form(m) > 0, m

    @pytest.mark.parametrize("which", [0, 1, 2, 3])
    def test_construction_invariants(self, all_families, which):
        # solving every degree to 12 exercises the kernel-system PD check
        # (m >= d), and the ladders at 5 and 12 the divisibility assertions
        # and the degree table inside build_ladder.
        family = all_families[which]
        for m in range(13):
            family.jacobi_coeffs(m)
        for n in (5, 12):
            ld = build_ladder(family, n)
            d = family.product.d
            assert ld.Delta.degree == 2 * d
            assert ld.q0.degree == 2 * d + 2 and ld.q4.degree == 2 * d

    def test_gradient_hessian_vs_finite_differences(self, ex1_family):
        fd = decompose_field(build_ladder(ex1_family, 12), ex1_family)
        pts = [mpf(x) for x in ["-0.8", "-0.2", "0.5", "0.9"]]
        g = gradient(fd, pts)
        H = hessian([fd.derivatives(w)[1] / 2 for w in pts], pts)
        h = mpf("1e-10")
        for k in range(len(pts)):
            up, dn = list(pts), list(pts)
            up[k] += h
            dn[k] -= h
            fd_g = (energy(fd, up) - energy(fd, dn)) / (2 * h)
            assert abs(fd_g - g[k]) <= mpf("1e-8") * max(1, abs(g[k]))
            gu, gd = gradient(fd, up), gradient(fd, dn)
            for j in range(len(pts)):
                fd_h = (gu[j] - gd[j]) / (2 * h)
                assert abs(fd_h - H[j, k]) <= mpf("1e-8") * max(1, abs(H[j, k]))

    @pytest.mark.parametrize("which", [1, 2, 3])
    def test_critical_point_identity(self, all_families, which):
        # the zeros of S_12 null the gradient of the energy
        family = all_families[which]
        fd = decompose_field(build_ladder(family, 12), family)
        zeros = zeros_of(family, 12).real_roots
        assert max(abs(g) for g in gradient(fd, zeros)) <= tol(4) * 12

    @pytest.mark.parametrize("which", [1, 2, 3])
    def test_sign_changes(self, all_families, which):
        family = all_families[which]
        n_pts = len(family.product.points)
        report = zeros_of(family, 12)
        assert report.sign_changes_inside >= 12 - n_pts


class TestCriterion10:
    def test_raising_composition(self, intro_family):
        """The n-fold raising product applied to S_0 = 1 reproduces S_n for
        n <= 6 on the two-mass symmetric product."""
        for n in range(1, 7):
            got = compose_raising(intro_family, n)
            want = intro_family.poly(n)
            assert (got - want).max_abs_coeff() <= tol(4) * want.max_abs_coeff(), n

"""Tests for the field decomposition, energy, gradient, Hessian, and the
classification of zero configurations."""

import pytest
from mpmath import mpf

from jacobisobolev.electrostatics import (
    Classification,
    SingularConfiguration,
    ZerosNotSimple,
    classify,
    decompose_field,
    gershgorin_sufficient,
    gradient,
    hessian,
)
from jacobisobolev.ladder import build_ladder
from jacobisobolev.numkernel import tol
from jacobisobolev.sobolev import zeros_of
from oracles import energy


def pole_at(fd, loc):
    for p, ell in fd.poles:
        if abs(p - loc) < mpf("1e-6"):
            return ell
    return None


@pytest.fixture(scope="module")
def fd1(ex1_family):
    return decompose_field(build_ladder(ex1_family, 12), ex1_family)


@pytest.fixture(scope="module")
def fd2(ex2_family):
    return decompose_field(build_ladder(ex2_family, 12), ex2_family)


@pytest.fixture(scope="module")
def fd3(ex3_family):
    return decompose_field(build_ladder(ex3_family, 12), ex3_family)


class TestDecomposition:
    def test_simple_mass_exponents(self, fd1):
        # beta-endpoint charge beta+1, plain endpoint 1, order-1 mass 2*1+3
        # less the residues that turn out to vanish at the regular poles
        assert abs(pole_at(fd1, -1) - 101) < mpf("1e-30")
        assert abs(pole_at(fd1, 1) - 1) < mpf("1e-30")
        assert abs(pole_at(fd1, 2) - 3) < mpf("1e-30")

    def test_attractors_example1(self, fd1):
        reals = sorted(a[0] for a in fd1.attractors if a[1] == 0)
        pairs = [(a[0], a[1]) for a in fd1.attractors if a[1] > 0]
        assert len(reals) == 1 and abs(reals[0] - mpf("1.04563")) < mpf("1e-4")
        assert len(pairs) == 1
        assert abs(pairs[0][0] - mpf("1.9406")) < mpf("1e-3")

    def test_high_order_pole_resolution(self, fd2):
        # endpoint + coincident mass point + double delta zero at x = 1:
        # the order-4 pole must reduce to a net simple charge there.
        assert abs(pole_at(fd2, -1) - 111) < mpf("1e-25")
        assert abs(pole_at(fd2, 1) - 1) < mpf("1e-25")
        assert abs(pole_at(fd2, 2) - 4) < mpf("1e-25")
        assert any("order-4 pole" in w for w in fd2.warnings)

    def test_example3_outlier_attractor(self, fd3):
        reals = [a[0] for a in fd3.attractors if a[1] == 0]
        assert len(reals) == 1
        assert abs(reals[0] - mpf("2.12065")) < mpf("1e-4")

    def test_vanishing_charges_dropped(self, fd1, fd3):
        # the delta-zero poles carry exponent ~0 and must not appear
        for fd in (fd1, fd3):
            assert len(fd.poles) == 3

    def test_field_ratio_consistency(self, fd3, ex3_family):
        # decompose_field already reconstructs the ODE coefficient ratio at
        # 50 random points; spot-check one deterministic point here.
        from jacobisobolev.ladder import ode_coeffs

        ld = build_ladder(ex3_family, 12)
        p2, p1, _ = ode_coeffs(ld)
        x = mpf("0.31")
        assert abs(-fd3.external_deriv(x) - p1(x) / p2(x)) <= tol(4) * max(
            1, abs(fd3.external_deriv(x))
        )


class TestEnergyDerivatives:
    def test_gradient_matches_finite_differences(self, fd3):
        pts = [mpf(x) for x in ["-0.9", "-0.4", "0.3", "0.8", "2.4"]]
        g = gradient(fd3, pts)
        h = mpf("1e-10")
        for k in range(len(pts)):
            up = list(pts)
            dn = list(pts)
            up[k] += h
            dn[k] -= h
            fd_val = (energy(fd3, up) - energy(fd3, dn)) / (2 * h)
            assert abs(fd_val - g[k]) <= mpf("1e-8") * max(1, abs(g[k]))

    def test_hessian_matches_finite_differences(self, fd2):
        pts = [mpf(x) for x in ["-0.6", "0.1", "0.7"]]
        H = hessian(fd2, pts)
        h = mpf("1e-10")
        for k in range(len(pts)):
            up = list(pts)
            dn = list(pts)
            up[k] += h
            dn[k] -= h
            gu, gd = gradient(fd2, up), gradient(fd2, dn)
            for j in range(len(pts)):
                fd_val = (gu[j] - gd[j]) / (2 * h)
                assert abs(fd_val - H[j, k]) <= mpf("1e-8") * max(1, abs(H[j, k]))

    def test_coincident_charges_raise(self, fd3):
        with pytest.raises(SingularConfiguration):
            energy(fd3, [mpf("0.5"), mpf("0.5")])

    def test_charge_on_pole_raises(self, fd3):
        with pytest.raises(SingularConfiguration):
            energy(fd3, [mpf(2)])


class TestCriticalPoint:
    @pytest.mark.parametrize("which", [1, 2, 3])
    def test_zeros_are_critical(self, request, which):
        family = request.getfixturevalue(f"ex{which}_family")
        fd = request.getfixturevalue(f"fd{which}")
        zeros = zeros_of(family, 12).real_roots
        grad = gradient(fd, zeros)
        assert max(abs(g) for g in grad) <= tol(4) * 12


class TestClassification:
    def test_example1_minimum(self, fd1, ex1_family):
        report = classify(fd1, ex1_family, 12)
        assert report.classification is Classification.LOCAL_MINIMUM
        assert report.negative_index_set == []
        assert all(e > 0 for e in report.hessian_eigs)

    def test_example2_minimum(self, fd2, ex2_family):
        report = classify(fd2, ex2_family, 12)
        assert report.classification is Classification.LOCAL_MINIMUM

    def test_example3_saddle(self, fd3, ex3_family):
        report = classify(fd3, ex3_family, 12)
        assert report.classification is Classification.SADDLE_POINT
        assert sum(1 for e in report.hessian_eigs if e < 0) == 1
        # the negative direction is the outlier zero beyond the mass point
        assert report.negative_index_set == [11]
        assert report.truncated_hessian_pd

    def test_gershgorin_example1_all_positive(self, fd1, ex1_family):
        zeros = zeros_of(ex1_family, 12).real_roots
        assert all(v > 0 for v in gershgorin_sufficient(fd1, zeros))

    def test_gershgorin_example3_flags_outlier(self, fd3, ex3_family):
        zeros = zeros_of(ex3_family, 12).real_roots
        curv = gershgorin_sufficient(fd3, zeros)
        assert all(v > 0 for v in curv[:-1])
        assert curv[-1] < 0

    def test_complex_zero_config_rejected(self, fd3):
        class _StubFamily:
            def zeros(self, n):
                return [(mpf(0), mpf(-1)), (mpf(0), mpf(1))]  # zeros of x^2 + 1

        with pytest.raises(ZerosNotSimple):
            classify(fd3, _StubFamily(), 2)

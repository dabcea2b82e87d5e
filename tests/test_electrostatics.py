"""Tests for the field decomposition, energy, gradient, Hessian, and the
classification of zero configurations."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mpf

from jacobisobolev.electrostatics import (
    MERGE_TOL,
    Classification,
    FieldDecomposition,
    SingularConfiguration,
    ZerosNotSimple,
    _groups,
    _merged,
    classify,
    critical_point,
    decompose_field,
    gradient,
    hessian,
    simple_zeros,
)
from jacobisobolev.ladder import build_ladder
from jacobisobolev.numkernel import cholesky_pd, sym_eigen, tol
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
        ld = build_ladder(ex3_family, 12)
        p2, p1 = ld.P2, ld.P1
        x = mpf("0.31")
        v1 = fd3.derivatives(x)[0]
        assert abs(-v1 - p1(x) / p2(x)) <= tol(4) * max(1, abs(v1))


class TestEnergyDerivatives:
    def test_gradient_matches_finite_differences(self, fd3):
        _assert_gradient_matches_finite_differences(fd3, [mpf(x) for x in ["-0.9", "-0.4", "0.3", "0.8", "2.4"]])

    def test_hessian_matches_finite_differences(self, fd2):
        _assert_hessian_matches_finite_differences(fd2, [mpf(x) for x in ["-0.6", "0.1", "0.7"]])

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

    @pytest.mark.parametrize("which", [1, 2, 3])
    def test_critical_point_is_the_field_at_the_simple_zeros(self, request, which):
        family = request.getfixturevalue(f"ex{which}_family")
        fd = request.getfixturevalue(f"fd{which}")
        zeros, got, grad = critical_point(family, 12)
        assert zeros == simple_zeros(family, 12)
        assert (got.poles, got.attractors, got.warnings) == (fd.poles, fd.attractors, fd.warnings)
        assert grad == gradient(fd, zeros)


class TestSimpleZeros:
    def test_complex_zero_config_rejected(self):
        with pytest.raises(ZerosNotSimple):
            simple_zeros(_StubFamily([(mpf(0), mpf(-1)), (mpf(0), mpf(1))]), 2)  # x^2 + 1

    def test_close_zeros_rejected(self):
        with pytest.raises(ZerosNotSimple, match="multiple"):
            simple_zeros(_StubFamily([(mpf(0), mpf(0)), (tol(2) / 2, mpf(0))]), 2)


class TestClassification:
    def test_example1_minimum(self, fd1, ex1_family):
        report = classify(simple_zeros(ex1_family, 12), fd1)
        assert report.classification is Classification.LOCAL_MINIMUM
        assert report.negative_index_set == []
        assert all(e > 0 for e in report.hessian_eigs)

    def test_example2_minimum(self, fd2, ex2_family):
        report = classify(simple_zeros(ex2_family, 12), fd2)
        assert report.classification is Classification.LOCAL_MINIMUM

    def test_example3_saddle(self, fd3, ex3_family):
        report = classify(simple_zeros(ex3_family, 12), fd3)
        assert report.classification is Classification.SADDLE_POINT
        assert sum(1 for e in report.hessian_eigs if e < 0) == 1
        # the negative direction is the outlier zero beyond the mass point
        assert report.negative_index_set == [11]
        assert report.truncated_hessian_pd

    def test_gershgorin_example1_all_positive(self, fd1, ex1_family):
        curv = classify(simple_zeros(ex1_family, 12), fd1).gershgorin_curvatures
        assert all(v > 0 for v in curv)

    def test_gershgorin_example3_flags_outlier(self, fd3, ex3_family):
        curv = classify(simple_zeros(ex3_family, 12), fd3).gershgorin_curvatures
        assert all(v > 0 for v in curv[:-1])
        assert curv[-1] < 0

    def test_empty_field_is_degenerate(self):
        # With no external field two charges only repel each other: H is
        # w [[1, -1], [-1, 1]], whose eigenvalue 0 belongs to translation.
        fd = FieldDecomposition(poles=[], attractors=[])
        report = classify([mpf(-1) / 2, mpf(1) / 2], fd)
        assert report.classification is Classification.DEGENERATE
        assert abs(report.hessian_eigs[0]) <= tol(4)
        assert report.negative_index_set == []


class _StubFamily:
    """A family that gives simple_zeros the roots it is built with."""

    def __init__(self, roots):
        self.roots = roots

    def zeros(self, n):
        return self.roots


# Zeros sit on odd multiples of 1/64 in (-1, 1), charges and attractors on
# even ones, so that no charge meets a pole.
_zeros = st.lists(st.integers(-31, 31), min_size=1, max_size=7, unique=True).map(
    lambda ks: [mpf(2 * k + 1) / 64 for k in sorted(ks)]
)
_places = st.integers(-128, 128).map(lambda k: mpf(k) / 32)
_exponents = st.integers(-8, 8).filter(bool).map(lambda k: mpf(k) / 2)


@st.composite
def _fields(draw):
    poles = draw(st.lists(st.tuples(_places, _exponents), max_size=4))
    reals = draw(st.lists(st.tuples(_places, st.just(mpf(0)), _exponents.map(abs)), max_size=3))
    pairs = draw(
        st.lists(st.tuples(_places, st.integers(1, 64).map(lambda k: mpf(k) / 32), _exponents.map(abs)), max_size=3)
    )
    return FieldDecomposition(poles=poles, attractors=reals + pairs)


def _curvatures(fd, pts):
    return [fd.derivatives(w)[1] / 2 for w in pts]


def _assert_gradient_matches_finite_differences(fd, pts):
    g = gradient(fd, pts)
    h = mpf("1e-10")
    for k in range(len(pts)):
        up = list(pts)
        dn = list(pts)
        up[k] += h
        dn[k] -= h
        fd_val = (energy(fd, up) - energy(fd, dn)) / (2 * h)
        assert abs(fd_val - g[k]) <= mpf("1e-8") * max(1, abs(g[k]))


def _assert_hessian_matches_finite_differences(fd, pts):
    H = hessian(_curvatures(fd, pts), pts)
    h = mpf("1e-10")
    for k in range(len(pts)):
        up = list(pts)
        dn = list(pts)
        up[k] += h
        dn[k] -= h
        gu, gd = gradient(fd, up), gradient(fd, dn)
        for j in range(len(pts)):
            fd_val = (gu[j] - gd[j]) / (2 * h)
            assert abs(fd_val - H[j, k]) <= mpf("1e-8") * max(1, abs(H[j, k]))


@given(_fields(), _zeros)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_hessian_matches_finite_differences_on_random_fields(fd, zeros):
    # Poles, real attractors and conjugate pairs: the gradient against the
    # energy oracle, the Hessian against the gradient, so that both of
    # FieldDecomposition.derivatives' values are held against the energy.
    _assert_gradient_matches_finite_differences(fd, zeros)
    _assert_hessian_matches_finite_differences(fd, zeros)


@given(_fields(), _zeros)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_negative_eigenvalues_are_bounded_by_curvatures(fd, zeros):
    # H = diag(curvatures) + a graph Laplacian, which is positive
    # semidefinite, so by Weyl's inequality H has at most as many negative
    # eigenvalues as there are curvatures <= 0; classify reads the negative
    # directions off the curvatures alone and needs no eigenvectors.
    curvatures = _curvatures(fd, zeros)
    H = hessian(curvatures, zeros)
    eigs = sym_eigen(H)
    assert sum(1 for e in eigs if e < 0) <= sum(1 for c in curvatures if c <= 0)
    if all(c > 0 for c in curvatures):
        assert all(e > 0 for e in eigs)
    keep = [k for k, c in enumerate(curvatures) if c > 0]
    if keep:
        assert cholesky_pd([[H[i, j] for j in keep] for i in keep])


@given(st.lists(st.integers(0, 40), max_size=12))
@settings(max_examples=60, deadline=None, derandomize=True)
@example([0, 6, 9, 12])  # the chain {1.5, 2.25, 3} t has mean 2.25 t, within 3 t of 0
def test_groups_partition(quarters):
    # Every item is in exactly one group; items in a group chain within
    # MERGE_TOL of their neighbour, and neighbouring groups do not touch.
    items = [(mpf(q) * MERGE_TOL / 4, i) for i, q in enumerate(quarters)]
    groups = _groups(items, key=lambda item: item[0])
    assert sorted(i for group in groups for _, i in group) == list(range(len(items)))
    for group in groups:
        assert all(_merged(a[0], b[0]) and a[0] <= b[0] for a, b in zip(group, group[1:]))
    for left, right in zip(groups, groups[1:]):
        assert not _merged(left[-1][0], right[0][0])

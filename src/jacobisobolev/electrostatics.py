"""Electrostatic interpretation of the zeros of Jacobi-Sobolev polynomials.

The ratio P1/P2 of ODE coefficients is split, by partial fractions of the
reduced rational function, into repulsive charges at the endpoints, the
mass points, and the zeros of the connection determinant, and attractors at
the zeros of the first ladder determinant.  The zeros of S_n are a critical
point of the resulting logarithmic energy; the Hessian decides whether the
configuration is a local minimum or a saddle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum

import mpmath
from mpmath import mpf

from .ladder import LadderData, build_ladder
from .numkernel import Poly, cholesky_pd, poly_roots, sym_eigen, tol
from .sobolev import SobolevFamily

# Locations closer than this are one location (see _merged).
MERGE_TOL = mpf("1e-9")


class ElectroError(Exception):
    pass


class AssumptionViolated(ElectroError):
    """A pole structure outside the assumptions the energy model needs."""


class SingularConfiguration(ElectroError):
    """Coincident charges or a charge sitting on a pole."""


class ZerosNotSimple(ElectroError):
    """S_n has complex or multiple zeros; classification is undefined."""


class NotCritical(ElectroError):
    """A gradient component at the zeros of S_n exceeds tol(4) n."""


class Classification(str, Enum):
    LOCAL_MINIMUM = "LocalMinimum"
    SADDLE_POINT = "SaddlePoint"
    DEGENERATE = "Degenerate"


@dataclass
class FieldDecomposition:
    """Partial-fraction data of P1/P2: repulsive poles and attractors.

    ``poles`` holds (location, exponent) for the merged repulsive charges;
    ``attractors`` holds (re, im, exponent) where im > 0 stands for a merged
    complex-conjugate pair.  Exponents are the l-values, i.e. twice the
    physical charges.
    """

    poles: list
    attractors: list
    warnings: list = field(default_factory=list)

    def derivatives(self, w) -> tuple:
        """(v'(w), v''(w)) in one pass over the poles and the attractors; away
        from the poles, -v' is the reconstructed P1/P2."""
        w = mpf(w)
        d1, d2 = mpf(0), mpf(0)
        for loc, ell in self.poles:
            d1 -= ell / (w - loc)
            d2 += ell / (w - loc) ** 2
        for re, im, ell in self.attractors:
            if im == 0:
                d1 += ell / (w - re)
                d2 -= ell / (w - re) ** 2
            else:
                t = (w - re) ** 2 + im**2
                d1 += 2 * ell * (w - re) / t
                d2 += 2 * ell * (im**2 - (w - re) ** 2) / t**2
        return d1, d2


def _merged(a, b) -> bool:
    """Whether a and b are one location: every merge decision of
    decompose_field, and nothing else, reads the merge tolerance here."""
    return abs(a - b) <= MERGE_TOL


def _groups(items, key) -> list:
    """Items stably sorted by key, cut into chains wherever two neighbours
    are not _merged: every item lands in exactly one group."""
    out = []
    for item in sorted(items, key=key):
        if out and _merged(key(out[-1][-1]), key(item)):
            out[-1].append(item)
        else:
            out.append([item])
    return out


def _deflate(p: Poly, root, times: int) -> Poly:
    """Synthetic division of p by (x - root)^times, discarding remainders."""
    for _ in range(times):
        q, _ = divmod(p, Poly((-mpf(root), 1)))
        p = q
    return p


def _laurent_residue(psi1: Poly, psi2: Poly, p, mult: int):
    """Residue of psi1/psi2 at a pole p where psi2 vanishes to order mult.

    Writes psi2 = (x-p)^mult g and Taylor-expands psi1/g at p; the
    coefficient of (x-p)^(mult-1) is the residue, and the lower ones are the
    non-logarithmic Laurent coefficients, returned for a vanishing check.
    """
    g = _deflate(psi2, p, mult)
    v = [g.deriv(j)(p) / mpmath.factorial(j) for j in range(mult)]
    if v[0] == 0:
        raise AssumptionViolated(f"pole order at {p} exceeds its structural multiplicity")
    u = [psi1.deriv(j)(p) / mpmath.factorial(j) for j in range(mult)]
    t = []
    for j in range(mult):
        acc = u[j]
        for i in range(j):
            acc -= t[i] * v[j - i]
        t.append(acc / v[0])
    return t[mult - 1], t[: mult - 1]


def decompose_field(ld: LadderData, family: SobolevFamily) -> FieldDecomposition:
    """Extract the charge/attractor structure from the ODE coefficients."""
    product = family.product

    psi1 = ld.phi2 + ld.phi3
    rho_n = product.rho_n_points()
    psi2 = Poly((1, 0, -1)) * rho_n * ld.delta

    # Zeros of delta (the u-points) and of phi1 (the attractors).
    u_pts = poly_roots(ld.delta)
    warnings = [f"delta zero off the real axis: {re} + {im}i" for re, im in u_pts if im != 0]
    sn_zeros = [re for re, im in family.zeros(ld.n) if im == 0]
    for re, im in u_pts:
        if im == 0 and any(_merged(re, z) for z in sn_zeros):
            warnings.append(f"delta zero {re} collides with a zero of S_n")

    # Repulsive pole sources with their structural base exponents, ranked:
    # 0 an endpoint, 1 a mass point (both exact), 2 a delta zero.  A merged
    # pole sits at its first exact source in that order (mass points ascend
    # in c, as a group does), else at the mean of its delta zeros.
    sources = [(mpf(1), mpf(1), 0), (mpf(-1), mpf(1), 0)]
    sources += [(p.c, mpf(2 * p.max_order + 3), 1) for p in product.points]
    sources += [(re, mpf(1), 2) for re, im in u_pts if im == 0]

    poles = []
    for group in _groups(sources, key=lambda s: s[0]):
        first = min(group, key=lambda s: s[2])
        center = first[0] if first[2] < 2 else sum(loc for loc, _, _ in group) / len(group)
        base = sum(b for _, b, _ in group)
        mult = len(group)
        if mult == 1:
            slope = psi2.deriv()(center)
            if slope == 0:
                raise AssumptionViolated(f"pole order at {center} exceeds its structural multiplicity")
            res = psi1(center) / slope
        else:
            res, spurious = _laurent_residue(psi1, psi2, center, mult)
            scale = max(abs(res), mpf(1))
            for j, coeff in enumerate(spurious):
                if abs(coeff) > tol(4) * scale:
                    raise AssumptionViolated(
                        f"non-logarithmic pole part at {center}: "
                        f"order-{mult - j} coefficient {coeff}"
                    )
            warnings.append(
                f"order-{mult} pole of psi2 at {center} resolved by Laurent expansion"
            )
        poles.append((center, base + res))

    # Complex delta zeros: each conjugate pair is a pole pair of psi2 whose
    # unit structural exponent must be cancelled by the psi1/psi2 residue,
    # since the energy model only carries real repulsive charges.
    for re, im in u_pts:
        if im > 0:
            z = mpmath.mpc(re, im)
            res = psi1(z) / psi2.deriv()(z)
            leftover = 1 + res
            if abs(leftover) > tol(4) * max(abs(res), mpf(1)):
                raise AssumptionViolated(
                    f"complex delta zero {re}+{im}i carries exponent {leftover}"
                )

    # Attractors: zeros of phi1 grouped by real part, at the group's mean.
    # The roots of a group whose imaginary part is _merged with zero are one
    # real attractor of that multiplicity (multiple real roots split into
    # spurious tiny-imaginary pairs); the others, grouped by imaginary part,
    # are conjugate pairs, each stored once with im > 0.
    attractors = []
    for group in _groups(poly_roots(ld.phi1), key=lambda r: r[0]):
        re_center = sum(re for re, _ in group) / len(group)
        real_mult = sum(1 for _, im in group if _merged(im, 0))
        if real_mult:
            attractors.append((re_center, mpf(0), mpf(real_mult)))
        upper = [r for r in group if r[1] > 0 and not _merged(r[1], 0)]
        for pair in _groups(upper, key=lambda r: r[1]):
            attractors.append((re_center, sum(im for _, im in pair) / len(pair), mpf(len(pair))))

    # A real attractor sitting on a repulsive pole cancels part of its charge.
    kept_attractors = []
    for re, im, ell in attractors:
        if im == 0:
            hit = next((i for i, (loc, _) in enumerate(poles) if _merged(loc, re)), None)
            if hit is not None:
                loc, cur = poles[hit]
                poles[hit] = (loc, cur - ell)
                continue
            if -1 < re < 1:
                warnings.append(f"real attractor {re} inside (-1,1); classification is heuristic")
        kept_attractors.append((re, im, ell))

    drop_tol = tol(4)
    kept_poles = []
    for loc, ell in poles:
        if abs(ell) < drop_tol:
            continue  # vanishing charge (typically the u-points)
        if ell < 0:
            warnings.append(f"negative repulsive exponent {ell} at {loc}")
        kept_poles.append((loc, ell))

    hull_lo = min([mpf(-1)] + [p.c for p in product.points])
    hull_hi = max([mpf(1)] + [p.c for p in product.points])
    for re, im, _ in kept_attractors:
        if im == 0 and hull_lo < re < hull_hi:
            warnings.append(f"attractor {re} inside the hull of [-1,1] and the mass points")

    fd = FieldDecomposition(poles=kept_poles, attractors=kept_attractors, warnings=warnings)
    _check_reconstruction(fd, ld)
    return fd


def _check_reconstruction(fd: FieldDecomposition, ld: LadderData) -> None:
    """The assembled pole form must reproduce P1/P2 at random points."""
    p2, p1 = ld.P2, ld.P1
    rng = random.Random(20260823)
    rel = tol(4)
    checked = 0
    while checked < 50:
        x = mpf(rng.uniform(-0.999, 0.999))
        if any(abs(x - loc) < mpf("1e-3") for loc, _ in fd.poles):
            continue
        denom = p2(x)
        if abs(denom) < mpf("1e-30") * max(p2.max_abs_coeff(), mpf(1)):
            continue
        direct = p1(x) / denom
        recon = -fd.derivatives(x)[0]
        if abs(direct - recon) > rel * max(abs(direct), mpf(1)):
            raise AssumptionViolated(
                f"partial-fraction reconstruction failed at x={x}: {direct} vs {recon}"
            )
        checked += 1


def gradient(fd: FieldDecomposition, omega) -> list:
    """The energy's gradient, -sum_{i != k} 1/(w_k - w_i) + v'(w_k)/2 for each
    k; SingularConfiguration where a charge sits on a pole, on a real
    attractor or on another charge.  Each pair's 1/(w_k - w_i) is computed
    once, for k < i, and negated for (i, k): rounding to nearest is
    symmetric, so the sums are the ones the per-(k, i) formula gives."""
    omega = [mpf(w) for w in omega]
    n = len(omega)
    for w in omega:
        if any(w == loc for loc, _ in fd.poles):
            raise SingularConfiguration(f"charge coincides with pole {w}")
        if any(im == 0 and w == re for re, im, _ in fd.attractors):
            raise SingularConfiguration(f"charge coincides with attractor {w}")
    inv = {}
    for k in range(n):
        for i in range(k + 1, n):
            diff = omega[k] - omega[i]
            if diff == 0:
                raise SingularConfiguration("coincident charges")
            inv[k, i] = 1 / diff
            inv[i, k] = -inv[k, i]
    out = []
    for k in range(n):
        g = mpf(0)
        for i in range(n):
            if i != k:
                g -= inv[k, i]
        out.append(g + fd.derivatives(omega[k])[0] / 2)
    return out


def hessian(curvatures, omega) -> mpmath.matrix:
    """diag(curvatures) plus the graph Laplacian of the weights 1/(w_k - w_j)^2.
    Each pair's weight is computed once, for k < j, and summed into both
    diagonals in the order k, j run: (w_j - w_k)^2 rounds to (w_k - w_j)^2
    exactly, so the matrix is the one the per-(k, j) formula gives."""
    omega = [mpf(w) for w in omega]
    n = len(omega)
    weight = {}
    for k in range(n):
        for j in range(k + 1, n):
            weight[k, j] = weight[j, k] = 1 / (omega[k] - omega[j]) ** 2
    H = mpmath.matrix(n, n)
    for k in range(n):
        diag = curvatures[k]
        for i in range(n):
            if i != k:
                diag += weight[k, i]
        H[k, k] = diag
        for j in range(k + 1, n):
            H[k, j] = H[j, k] = -weight[k, j]
    return H


@dataclass
class ElectroReport:
    hessian_eigs: list
    classification: Classification
    negative_index_set: list
    truncated_hessian_pd: bool
    gershgorin_curvatures: list


def simple_zeros(family: SobolevFamily, n: int) -> list:
    """The zeros of S_n in ascending order, the charges whose energy is read;
    ZerosNotSimple where one is nonreal or two lie within tol(2)."""
    roots = family.zeros(n)
    if any(im != 0 for _, im in roots):
        raise ZerosNotSimple("S_n has nonreal zeros")
    zeros = sorted(re for re, _ in roots)
    if any(b - a <= tol(2) for a, b in zip(zeros, zeros[1:])):
        raise ZerosNotSimple("S_n has (numerically) multiple zeros")
    return zeros


def critical_point(family: SobolevFamily, n: int) -> tuple:
    """(zeros, field, gradient) of S_n, the one path of electro and verify to
    the critical point: the zeros are read before the field is decomposed, so
    a product that fails both names one cause, and NotCritical is raised
    where a gradient component exceeds tol(4) n."""
    zeros = simple_zeros(family, n)
    fd = decompose_field(build_ladder(family, n), family)
    grad = gradient(fd, zeros)
    worst = max(abs(g) for g in grad)
    if not worst <= tol(4) * n:
        raise NotCritical(f"gradient at zeros {worst}")
    return zeros, fd, grad


def classify(zeros, fd: FieldDecomposition) -> ElectroReport:
    """Classify the critical point that critical_point returns by its Hessian.

    The Hessian is the diagonal of the external curvatures v''(w_k)/2 plus
    the graph Laplacian of the weights 1/(w_k - w_j)^2, which is positive
    semidefinite; by Weyl's inequality it has no more negative eigenvalues
    than curvatures <= 0, so all positive is sufficient for a minimum and the
    saddle's negative index set needs no eigenvectors.  gradient has refused
    a charge on a pole and two coincident charges, so every division is safe.
    """
    curvatures = [fd.derivatives(w)[1] / 2 for w in zeros]
    H = hessian(curvatures, zeros)
    eigs = sym_eigen(H)
    hnorm = mpmath.mnorm(H, "f")
    near_zero = [abs(e) <= tol(4) * hnorm for e in eigs]
    if any(near_zero):
        cls = Classification.DEGENERATE
    elif eigs[0] > 0:
        cls = Classification.LOCAL_MINIMUM
    else:
        cls = Classification.SADDLE_POINT

    negative_set = []
    truncated_pd = True
    if cls is Classification.SADDLE_POINT:
        negative_set = [k for k, c in enumerate(curvatures) if c <= 0]
        keep = [k for k in range(len(zeros)) if k not in negative_set]
        truncated_pd = bool(keep) and cholesky_pd([[H[i, j] for j in keep] for i in keep])

    return ElectroReport(
        hessian_eigs=eigs,
        classification=cls,
        negative_index_set=negative_set,
        truncated_hessian_pd=truncated_pd,
        gershgorin_curvatures=curvatures,
    )

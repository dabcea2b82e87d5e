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

from .ladder import LadderData, ode_coeffs
from .numkernel import Poly, cholesky_pd, poly_roots, sym_eigen, sym_eigenvectors, tol
from .sobolev import SobolevFamily

# Pole locations closer than this are merged into one charge.
MERGE_TOL = mpf("1e-9")


class ElectroError(Exception):
    pass


class AssumptionViolated(ElectroError):
    """A pole structure outside the assumptions the energy model needs."""


class SingularConfiguration(ElectroError):
    """Coincident charges or a charge sitting on a pole."""


class ZerosNotSimple(ElectroError):
    """S_n has complex or multiple zeros; classification is undefined."""


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

    n: int
    poles: list
    attractors: list
    u_points: list
    residues: dict
    warnings: list = field(default_factory=list)

    def external_deriv(self, w) -> mpf:
        """v'(w); away from the poles, -v' is the reconstructed P1/P2."""
        w = mpf(w)
        acc = mpf(0)
        for loc, ell in self.poles:
            acc -= ell / (w - loc)
        for re, im, ell in self.attractors:
            if im == 0:
                acc += ell / (w - re)
            else:
                acc += 2 * ell * (w - re) / ((w - re) ** 2 + im**2)
        return acc

    def external_second_deriv(self, w) -> mpf:
        w = mpf(w)
        acc = mpf(0)
        for loc, ell in self.poles:
            acc += ell / (w - loc) ** 2
        for re, im, ell in self.attractors:
            if im == 0:
                acc -= ell / (w - re) ** 2
            else:
                t = (w - re) ** 2 + im**2
                acc += 2 * ell * (im**2 - (w - re) ** 2) / t**2
        return acc


def _cluster(values, tol_abs):
    """Group sorted scalars into clusters of mutually close values."""
    out = []
    for v in sorted(values):
        if out and abs(v - out[-1][-1]) <= tol_abs:
            out[-1].append(v)
        else:
            out.append([v])
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
    warnings = []

    psi1 = ld.phi2 + ld.phi3
    rho_n = product.rho_n_points()
    psi2 = Poly((1, 0, -1)) * rho_n * ld.delta

    # Zeros of delta (the u-points) and of phi1 (the attractors).
    u_pts = []
    for re, im in poly_roots(ld.delta):
        if im != 0:
            warnings.append(f"delta zero off the real axis: {re} + {im}i")
        u_pts.append((re, im))
    sn_zeros = [re for re, im in family.zeros(ld.n) if im == 0]
    for re, im in u_pts:
        if im == 0 and any(abs(re - z) <= MERGE_TOL for z in sn_zeros):
            warnings.append(f"delta zero {re} collides with a zero of S_n")

    # Repulsive pole sources with their structural base exponents.  The
    # third field marks locations known exactly (endpoints, mass points),
    # preferred as cluster centers over numerically found delta zeros.
    sources = [(mpf(1), mpf(1), True), (mpf(-1), mpf(1), True)]
    for p in product.points:
        sources.append((p.c, mpf(2 * p.max_order + 3), True))
    for re, im in u_pts:
        if im == 0:
            sources.append((re, mpf(1), False))

    clusters = _cluster([loc for loc, _, _ in sources], MERGE_TOL)
    residues = {}
    poles = []
    for group in clusters:
        span = MERGE_TOL * max(1, len(group))
        mean = sum(group) / len(group)
        members = [s for s in sources if abs(s[0] - mean) <= span]
        exact = [loc for loc, _, is_exact in members if is_exact]
        center = exact[0] if exact else mean
        base = sum(b for _, b, _ in members)
        mult = len(members)
        if mult == 1:
            res = psi1(center) / psi2.deriv()(center)
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
        residues[center] = res
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

    # Attractors: zeros of phi1 clustered in the complex plane.  A cluster
    # whose imaginary parts straddle zero within the merge tolerance is one
    # real attractor of that multiplicity (multiple real roots split into
    # spurious tiny-imaginary pairs); otherwise it is a conjugate pair,
    # stored once with im > 0.
    attractors = []
    phi1_roots = poly_roots(ld.phi1)
    for re_group in _cluster([re for re, _ in phi1_roots], MERGE_TOL):
        re_center = sum(re_group) / len(re_group)
        span = MERGE_TOL * max(1, len(re_group))
        ims = [im for re, im in phi1_roots if abs(re - re_center) <= span]
        real_mult = sum(1 for im in ims if abs(im) <= MERGE_TOL)
        if real_mult:
            attractors.append([re_center, mpf(0), mpf(real_mult)])
        for im_group in _cluster([im for im in ims if im > MERGE_TOL], MERGE_TOL):
            attractors.append([re_center, sum(im_group) / len(im_group), mpf(len(im_group))])

    # A real attractor sitting on a repulsive pole cancels part of its charge.
    kept_attractors = []
    for re, im, ell in attractors:
        if im == 0:
            hit = next((i for i, (loc, _) in enumerate(poles) if abs(loc - re) <= MERGE_TOL), None)
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

    fd = FieldDecomposition(
        n=ld.n,
        poles=kept_poles,
        attractors=kept_attractors,
        u_points=u_pts,
        residues=residues,
        warnings=warnings,
    )
    _check_reconstruction(fd, ld)
    return fd


def _check_reconstruction(fd: FieldDecomposition, ld: LadderData) -> None:
    """The assembled pole form must reproduce P1/P2 at random points."""
    p2, p1, _ = ode_coeffs(ld)
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
        recon = -fd.external_deriv(x)
        if abs(direct - recon) > rel * max(abs(direct), mpf(1)):
            raise AssumptionViolated(
                f"partial-fraction reconstruction failed at x={x}: {direct} vs {recon}"
            )
        checked += 1


def gradient(fd: FieldDecomposition, omega) -> list:
    omega = [mpf(w) for w in omega]
    n = len(omega)
    out = []
    for k in range(n):
        g = mpf(0)
        for i in range(n):
            if i == k:
                continue
            diff = omega[k] - omega[i]
            if diff == 0:
                raise SingularConfiguration("coincident charges")
            g -= 1 / diff
        g += fd.external_deriv(omega[k]) / 2
        out.append(g)
    return out


def hessian(fd: FieldDecomposition, omega) -> mpmath.matrix:
    omega = [mpf(w) for w in omega]
    n = len(omega)
    H = mpmath.matrix(n, n)
    for k in range(n):
        diag = fd.external_second_deriv(omega[k]) / 2
        for i in range(n):
            if i == k:
                continue
            diag += 1 / (omega[k] - omega[i]) ** 2
        H[k, k] = diag
        for j in range(k + 1, n):
            H[k, j] = H[j, k] = -1 / (omega[k] - omega[j]) ** 2
    return H


def gershgorin_sufficient(fd: FieldDecomposition, omega) -> list:
    """Per-charge external curvature; all positive is sufficient for a minimum."""
    return [fd.external_second_deriv(mpf(w)) / 2 for w in omega]


@dataclass
class ElectroReport:
    n: int
    zeros: list
    grad_norm: mpf
    hessian_eigs: list
    classification: Classification
    negative_index_set: list
    truncated_hessian_pd: bool
    gershgorin_curvatures: list
    warnings: list


def classify(fd: FieldDecomposition, family: SobolevFamily, n: int) -> ElectroReport:
    """Evaluate gradient/Hessian at the zeros of S_n and classify them."""
    roots = family.zeros(n)
    if any(im != 0 for _, im in roots):
        raise ZerosNotSimple("S_n has nonreal zeros")
    zeros = sorted(re for re, _ in roots)
    for a, b in zip(zeros, zeros[1:]):
        if b - a <= tol(2):
            raise ZerosNotSimple("S_n has (numerically) multiple zeros")

    grad = gradient(fd, zeros)
    grad_norm = max(abs(g) for g in grad)
    H = hessian(fd, zeros)
    eigs = sym_eigen(H)
    hnorm = mpmath.mnorm(H, "f")
    near_zero = [abs(e) <= tol(4) * hnorm for e in eigs]
    if any(near_zero):
        cls = Classification.DEGENERATE
    elif eigs[0] > 0:
        cls = Classification.LOCAL_MINIMUM
    else:
        cls = Classification.SADDLE_POINT

    curvatures = gershgorin_sufficient(fd, zeros)

    negative_set = []
    truncated_pd = True
    if cls is Classification.SADDLE_POINT:
        negative_set = [k for k, c in enumerate(curvatures) if c <= 0]
        n_neg_eigs = sum(1 for e in eigs if e < 0)
        if len(negative_set) < n_neg_eigs:
            negative_set = _augment_by_eigenvectors(H, eigs, negative_set, n_neg_eigs)
        keep = [k for k in range(n) if k not in negative_set]
        truncated_pd = bool(keep) and cholesky_pd(mpmath.matrix([[H[i, j] for j in keep] for i in keep]))

    return ElectroReport(
        n=n,
        zeros=zeros,
        grad_norm=grad_norm,
        hessian_eigs=eigs,
        classification=cls,
        negative_index_set=negative_set,
        truncated_hessian_pd=truncated_pd,
        gershgorin_curvatures=curvatures,
        warnings=list(fd.warnings),
    )


def _augment_by_eigenvectors(H: mpmath.matrix, eigs, negative_set, n_neg: int) -> list:
    """Add coordinates dominating negative-eigenvalue eigenvectors (component
    magnitude above 0.9) until the flagged set covers every negative eigenvalue."""
    out = list(negative_set)
    n = H.rows
    evals, evecs = sym_eigenvectors(H)
    order = sorted(range(n), key=lambda i: evals[i])
    for rank in range(n_neg):
        col = order[rank]
        comps = [abs(evecs[r, col]) for r in range(n)]
        dominant = max(range(n), key=lambda r: comps[r])
        if comps[dominant] > mpf("0.9") and dominant not in out:
            out.append(dominant)
    return sorted(out)

"""Discrete Jacobi-Sobolev inner products and the construction of their
monic orthogonal polynomials S_n.

The inner product is the Jacobi one plus point masses lambda_{j,k} on k-th
derivatives at locations c_j outside (-1, 1).  S_n is obtained from the
monic Jacobi P_n by solving the d* x d* linear system for the derivative
vector of S_n at the mass points and subtracting the corresponding
combination of derivative Christoffel-Darboux kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

import mpmath
from mpmath import mp, mpf

from .jacobi import JacobiCache, JacobiParams, build_jacobi
from .numkernel import Poly, SingularSystem, cholesky_pd, series_roots, solve_dense, taylor_poly, tol

class SobolevError(Exception):
    pass


class InvalidMassPoint(SobolevError):
    pass


class InternalContradiction(SobolevError):
    """The kernel linear system was singular, which the theory rules out."""


@dataclass(frozen=True)
class MassPoint:
    """Location c with derivative-order masses [(k, lambda_{k})], |c| >= 1.

    Zero-mass terms are dropped on construction, so the stored terms are
    exactly the active set at this location.
    """

    c: mpf
    terms: tuple

    def __init__(self, c, terms):
        object.__setattr__(self, "c", mpf(c))
        cleaned = []
        for k, lam in terms:
            lam = mpf(lam)
            if lam < 0:
                raise InvalidMassPoint("masses must be nonnegative")
            if lam > 0:
                cleaned.append((int(k), lam))
        cleaned.sort()
        if abs(self.c) < 1:
            raise InvalidMassPoint("mass points must lie outside (-1, 1)")
        if not cleaned:
            raise InvalidMassPoint("a mass point needs at least one positive mass")
        orders = [k for k, _ in cleaned]
        if len(set(orders)) != len(orders):
            raise InvalidMassPoint("duplicate derivative orders at one location")
        object.__setattr__(self, "terms", tuple(cleaned))

    @property
    def max_order(self) -> int:
        return self.terms[-1][0]


@dataclass(frozen=True)
class SobolevProduct:
    """Jacobi parameters plus the discrete mass-point data."""

    jacobi: JacobiParams
    points: tuple

    def __init__(self, jacobi: JacobiParams, points):
        object.__setattr__(self, "jacobi", jacobi)
        pts = sorted(points, key=lambda p: p.c)
        cs = [p.c for p in pts]
        if len(set(cs)) != len(cs):
            raise InvalidMassPoint("mass-point locations must be distinct")
        object.__setattr__(self, "points", tuple(pts))

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def d(self) -> int:
        return sum(p.max_order + 1 for p in self.points)

    @property
    def active_pairs(self) -> list:
        """Canonical I+ ordering: points by ascending c, orders ascending.

        Entries are (point_index, k, lambda).
        """
        out = []
        for j, p in enumerate(self.points):
            for k, lam in p.terms:
                out.append((j, k, lam))
        return out

    @property
    def d_star(self) -> int:
        return len(self.active_pairs)

    def rho(self) -> Poly:
        out = Poly.one()
        for p in self.points:
            out = out * Poly((-p.c, 1)) ** (p.max_order + 1)
        return out

    def rho_n_points(self) -> Poly:
        return Poly.from_roots([p.c for p in self.points])

    def rho_excess(self) -> Poly:
        """rho / rho_N: each location with multiplicity d_j."""
        out = Poly.one()
        for p in self.points:
            out = out * Poly((-p.c, 1)) ** p.max_order
        return out

    def rho_jk(self, j: int, k: int) -> Poly:
        """rho with the factor at c_j reduced by k+1 powers."""
        out = Poly.one()
        for i, p in enumerate(self.points):
            mult = p.max_order + 1 - (k + 1 if i == j else 0)
            if mult < 0:
                raise ValueError("derivative order exceeds d_j")
            out = out * Poly((-p.c, 1)) ** mult
        return out


def inner_mu(f: Poly, g: Poly, cache: JacobiCache) -> mpf:
    """Jacobi inner product of two polynomials, via Jacobi-basis expansion.

    Exact at working precision: expand f*g in the monic Jacobi basis and
    keep only the P_0 component, whose integral is h_0.
    """
    h = f * g
    if h.is_zero():
        return mpf(0)
    cache.extend(h.degree)
    for m in range(h.degree, 0, -1):
        c = h.coeff(m)
        if c != 0:
            h = h - c * cache.poly(m)
    return h.coeff(0) * cache.norm(0)


def inner_sobolev(f: Poly, g: Poly, product: SobolevProduct, cache: JacobiCache) -> mpf:
    """The full discrete Sobolev inner product."""
    acc = inner_mu(f, g, cache)
    for j, k, lam in product.active_pairs:
        c = product.points[j].c
        acc += lam * f.deriv(k)(c) * g.deriv(k)(c)
    return acc


def _dot(u, v) -> mpf:
    """sum_i u_i v_i, accumulated left to right."""
    return sum((a * b for a, b in zip(u, v)), mpf(0))


def kernel_dk(cache: JacobiCache, n: int, ell: int, k: int, x, y) -> mpf:
    """Derivative kernel K_{n-1}^{(ell,k)}(x, y) by direct summation; the
    reference for SobolevFamily.kernel."""
    x, y = mpf(x), mpf(y)
    acc = mpf(0)
    for nu in range(n):
        p = cache.poly(nu)
        acc += p.deriv(ell)(x) * p.deriv(k)(y) / cache.norm(nu)
    return acc


def kernel_poly_dk(cache: JacobiCache, n: int, k: int, y) -> Poly:
    """K_{n-1}^{(0,k)}(x, y) as a polynomial in x."""
    y = mpf(y)
    out = Poly.zero()
    for nu in range(n):
        p = cache.poly(nu)
        out = out + (p.deriv(k)(y) / cache.norm(nu)) * p
    return out


@dataclass
class SobolevFamily:
    """S_0..S_n with derivative vectors at the mass points, Jacobi
    coefficients, Lambda_m and, on demand, the connection-formula numerators
    (A2, B2) over the denominator rho.

    All of them are read from one table: v_nu = (P_nu^(k)(c_j)) over the
    active pairs, one row per degree.  ``kernel`` holds
    K_top(C, C) = sum_{nu<=top} v_nu v_nu^T / h_nu and grows by one term per
    degree, and S_m = sum_nu a_nu P_nu with a_m = 1 and
    a_nu = -(lambda o s_m) . v_nu / h_nu, where s_m is the derivative vector.
    ``memo`` holds the results of build_ladder, zeros and
    connection_numerators per (kind, n, working precision)."""

    product: SobolevProduct
    jacobi_cache: JacobiCache
    sob_polys: list = field(default_factory=list)
    deriv_vectors: list = field(default_factory=list)
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    jacobi_values: list = field(default_factory=list, init=False, repr=False, compare=False)
    jacobi_rows: list = field(default_factory=list, init=False, repr=False, compare=False)
    lambda_forms: list = field(default_factory=list, init=False, repr=False, compare=False)
    kernel: mpmath.matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.kernel = mpmath.matrix(self.product.d_star, self.product.d_star)

    @property
    def top(self) -> int:
        return len(self.sob_polys) - 1

    def poly(self, m: int) -> Poly:
        self.extend(m)
        return self.sob_polys[m]

    def deriv_vector(self, m: int) -> list:
        self.extend(m)
        return self.deriv_vectors[m]

    def jacobi_coeffs(self, n: int) -> list:
        """a_0..a_n with S_n = sum_nu a_nu P_nu."""
        self.extend(n)
        return self.jacobi_rows[n]

    def memoised(self, kind: str, n: int, build):
        """build() once per (kind, n, working precision)."""
        key = (kind, n, mp.prec)
        if key not in self.memo:
            self.memo[key] = build()
        return self.memo[key]

    def zeros(self, n: int) -> list:
        """Zeros of S_n from its Jacobi expansion (numkernel.series_roots).
        Memoised; each call returns a new list."""

        def build():
            cache = self.jacobi_cache
            return tuple(series_roots(self.jacobi_coeffs(n), cache.gamma1s, cache.gamma2s))

        return list(self.memoised("zeros", n, build))

    def sobolev_norm_sq(self, m: int) -> mpf:
        """<S_m, S_m>_s = <S_m, P_m>_s = h_m + Lambda_m."""
        self.extend(m)
        return self.jacobi_cache.norm(m) + self.lambda_forms[m]

    def extend(self, n: int) -> None:
        while self.top < n:
            self._build_next()

    def _build_next(self) -> None:
        m = self.top + 1
        cache = self.jacobi_cache
        product = self.product
        pairs = product.active_pairs
        dstar = len(pairs)
        pm = cache.poly(m)
        vm = [pm.deriv(k)(product.points[j].c) for j, k, _ in pairs]
        kmat = self.kernel  # K_{m-1}(C, C) over the active pairs

        # Positive-definiteness of L^{-1} + K backs nonsingularity of I + K L.
        if m >= product.d:
            shifted = kmat.copy()
            for i, (_, _, lam) in enumerate(pairs):
                shifted[i, i] += 1 / lam
            if not cholesky_pd(shifted):
                raise InternalContradiction(
                    f"L^-1 + K_{m - 1}(C,C) failed the positive-definiteness check"
                )

        A = [
            [kmat[i, j] * pairs[j][2] + (1 if i == j else 0) for j in range(dstar)]
            for i in range(dstar)
        ]
        try:
            sder = solve_dense(A, vm)
        except SingularSystem as exc:  # theoretically impossible for valid products
            raise InternalContradiction(str(exc)) from exc

        weights = [lam * sval for (_, _, lam), sval in zip(pairs, sder)]
        row = [-_dot(weights, v) / cache.norm(nu) for nu, v in enumerate(self.jacobi_values)]
        row.append(mpf(1))
        sm = sum((a * cache.poly(nu) for nu, a in enumerate(row)), Poly.zero())

        # Consistency: the solved derivative vector equals direct evaluation.
        check_tol = tol(3) * max([mpf(1)] + [abs(v) for v in sder])
        for (j, k, _), sval in zip(pairs, sder):
            direct = sm.deriv(k)(product.points[j].c)
            if abs(direct - sval) > check_tol:
                raise InternalContradiction(
                    f"derivative vector mismatch at pair ({j},{k}): {direct} vs {sval}"
                )

        self.sob_polys.append(sm)
        self.deriv_vectors.append(sder)
        self.jacobi_rows.append(row)
        self.lambda_forms.append(_dot(weights, vm))
        self.jacobi_values.append(vm)
        hm = cache.norm(m)
        for i in range(dstar):
            for j in range(dstar):
                kmat[i, j] += vm[i] * vm[j] / hm

    def connection_numerators(self, m: int):
        """(A2, B2): numerators over rho of the connection coefficients
        F_{1,m}, G_{1,m} with S_m = F_{1,m} P_m + G_{1,m} P_{m-1}."""
        return self.memoised("conn", m, lambda: self._connection_numerators(m))

    def _connection_numerators(self, m: int):
        sder = self.deriv_vector(m)
        product, cache = self.product, self.jacobi_cache
        rho = product.rho()
        if m == 0:
            return rho, Poly.zero()
        a2 = rho
        b2 = Poly.zero()
        hm1 = cache.norm(m - 1)
        for (j, k, lam), sval in zip(product.active_pairs, sder):
            c = product.points[j].c
            coef = mpmath.factorial(k) * lam * sval / hm1
            rjk = product.rho_jk(j, k)
            a2 = a2 - coef * (taylor_poly(cache.poly(m - 1), c, k) * rjk)
            b2 = b2 + coef * (taylor_poly(cache.poly(m), c, k) * rjk)
        return a2, b2


def build_family(product: SobolevProduct, n: int) -> SobolevFamily:
    """Construct the Sobolev family S_0..S_n for the given product."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    max_k = max((k for _, k, _ in product.active_pairs), default=0)
    cache = build_jacobi(product.jacobi, n + max_k + 2)
    fam = SobolevFamily(product, cache)
    fam.extend(n)
    return fam


def is_sequentially_ordered(product: SobolevProduct):
    """Decide whether the product is sequentially ordered w.r.t. (-1, 1).

    Returns (flag, ordering); ordering is the witness list of (c, k) pairs
    when the flag is true, else None.  The pairs are taken in blocks of
    ascending order k.  Within a block every point must lie outside the
    open hull of (-1, 1) and the earlier blocks' points: those left of it
    come first, in decreasing c, then those right of it, in increasing c,
    so that no point falls inside the hull grown by its predecessors.
    Repeated locations are rejected: the second occurrence sits on the hull
    generated by the first.
    """
    pairs = [(product.points[j].c, k) for j, k, _ in product.active_pairs]
    pairs.sort(key=lambda t: t[1])
    if len({c for c, _ in pairs}) != len(pairs):
        return False, None
    lo, hi = mpf(-1), mpf(1)
    seq = []
    for _, block in groupby(pairs, key=lambda t: t[1]):
        block = list(block)
        left = sorted((t for t in block if t[0] <= lo), key=lambda t: t[0], reverse=True)
        right = sorted((t for t in block if t[0] >= hi), key=lambda t: t[0])
        if len(left) + len(right) < len(block):
            return False, None
        seq += left + right
        if left:
            lo = left[-1][0]
        if right:
            hi = right[-1][0]
    return True, seq


@dataclass
class ZeroReport:
    roots: list  # (re, im) pairs, sorted
    real_roots: list
    count_inside: int
    sign_changes_inside: int
    near_mass_points: list  # (c_j, closest real root) per mass point


def zeros_of(family: SobolevFamily, n: int) -> ZeroReport:
    """Zeros of S_n with the interval counts used by the zero-location lemmas."""
    if n < 1:
        raise ValueError("need n >= 1")
    roots = family.zeros(n)
    real_roots = sorted(re for re, im in roots if im == 0)
    inside = [r for r in real_roots if -1 < r < 1]

    # Sign alternation of S_n at midpoints between consecutive interior roots.
    changes = 0
    if inside:
        coeffs = family.jacobi_coeffs(n)
        grid = [mpf(-1)] + inside + [mpf(1)]
        values = [family.jacobi_cache.eval_series(coeffs, (a + b) / 2)[0] for a, b in zip(grid, grid[1:])]
        signs = [mpmath.sign(v) for v in values if v != 0]
        changes = sum(1 for s0, s1 in zip(signs, signs[1:]) if s0 * s1 < 0)

    near = []
    for p in family.product.points:
        if real_roots:
            near.append((p.c, min(real_roots, key=lambda r: abs(r - p.c))))
        else:
            near.append((p.c, None))
    return ZeroReport(roots, real_roots, len(inside), changes, near)

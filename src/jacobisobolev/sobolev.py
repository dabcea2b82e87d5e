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
from mpmath import fdot, mp, mpf

from .jacobi import JacobiCache, JacobiParams, build_jacobi
from .numkernel import Poly, SingularSystem, cholesky, series_roots, solve_dense

class SobolevError(Exception):
    pass


class InvalidMassPoint(SobolevError):
    pass


class InternalContradiction(SobolevError):
    """A degree step failed at the working precision: L^-1 + K_{m-1}(C, C), a
    Gram matrix plus a positive diagonal, lost a Cholesky pivot (to 0, or to
    2^-p of its diagonal), or a solved derivative vector, Jacobi row or
    monomial S_m missed its identity by more than SobolevFamily.holds allows."""


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
            try:
                integral = not isinstance(k, bool) and k == int(k) and k >= 0
            except (TypeError, ValueError, OverflowError):  # None, nan, inf, ...
                integral = False
            if not integral:
                raise InvalidMassPoint(f"derivative orders must be nonnegative integers, got {k!r}")
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
        """prod_j (x - c_j)^(d_j + 1)."""
        return Poly.from_roots([p.c for p in self.points for _ in range(p.max_order + 1)])

    def rho_n_points(self) -> Poly:
        return Poly.from_roots([p.c for p in self.points])

    def rho_excess(self) -> Poly:
        """rho / rho_N: each location with multiplicity d_j."""
        return Poly.from_roots([p.c for p in self.points for _ in range(p.max_order)])

    def rho_jk(self, j: int, k: int) -> Poly:
        """rho with the factor at c_j reduced by k+1 powers."""
        if k > self.points[j].max_order:
            raise ValueError("derivative order exceeds d_j")
        return Poly.from_roots(
            [p.c for i, p in enumerate(self.points) for _ in range(p.max_order + 1 - (k + 1 if i == j else 0))]
        )


def _jacobi_coefficients(f: Poly, cache: JacobiCache) -> list:
    """f_0..f_deg with f = sum_k f_k P_k, peeled from the top down: f_m is the
    coefficient of x^m left once f_{m+1} P_{m+1}, ... are taken off, since
    P_m is monic."""
    cache.extend(f.degree)
    out = [mpf(0)] * (f.degree + 1)
    for m in range(f.degree, -1, -1):
        c = out[m] = f.coeff(m)
        if c != 0 and m > 0:
            f = f - c * cache.poly(m)
    return out


def inner_mu(f: Poly, g: Poly, cache: JacobiCache) -> mpf:
    """Jacobi inner product of two polynomials, sum_k f_k g_k h_k over their
    monic Jacobi coefficients: the P_k are orthogonal with norms h_k, and
    f g is never expanded."""
    pairs = zip(_jacobi_coefficients(f, cache), _jacobi_coefficients(g, cache))
    return sum((a * b * cache.norm(k) for k, (a, b) in enumerate(pairs)), mpf(0))


def inner_sobolev(f: Poly, g: Poly, product: SobolevProduct, cache: JacobiCache) -> mpf:
    """The full discrete Sobolev inner product."""
    acc = inner_mu(f, g, cache)
    for j, k, lam in product.active_pairs:
        c = product.points[j].c
        acc += lam * f.deriv(k)(c) * g.deriv(k)(c)
    return acc


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
    """S_m through its derivative vector at the mass points, Lambda_m, its
    Jacobi coefficients and, on demand, its monomial form, each degree
    solved once and only where it is read.

    Everything is read from one table, grown by one row per degree: for each
    mass point c_j, the values P_nu^(k)(c_j) for k <= d_j, by the
    differentiated recurrence
    P_{nu+1}^(k)(c) = (c - gamma1_nu) P_nu^(k)(c) + k P_nu^(k-1)(c)
    - gamma2_nu P_{nu-1}^(k)(c), which computes the dominant solution for
    |c| >= 1 and so runs forward stably (Gautschi, SIAM Review 9, 1967).
    v_nu is its restriction to the active pairs, and ``kernel(m)`` sums
    K_{m-1}(C, C) = sum_{nu<m} v_nu v_nu^T / h_nu from the table.  The
    derivative vector s_m of S_m solves (I + K_{m-1} L) s_m = v_m, that is
    (L^-1 + K_{m-1}) w_m = v_m with w_m = L s_m: a Gram matrix plus a
    positive diagonal, so one Cholesky factorisation solves it, and a failed
    one is an InternalContradiction.  S_m = sum_nu a_nu P_nu with a_m = 1 and
    a_nu = -w_m . v_nu / h_nu, and Lambda_m = w_m . v_m.  The first read of
    degree m solves it in O(m d*^2 + d*^3) and keeps (s_m, Lambda_m, a) in
    ``degrees``; ``poly`` builds the monomial form only when asked.  ``memo``
    holds the results of zeros and of the ladder layer's build_ladder and
    connection_level per (kind, n, working precision of the call).

    Precision.  ``prec`` is the working precision p at construction, and
    ``guard()`` is the precision 2p at which everything the family stores is
    computed: the JacobiCache (built inside the guard, so its gamma1, gamma2,
    h and monomial P_k), the table, the kernel, the solve, the derivative
    vectors, the Lambda_m, the Jacobi rows, the monomial S_m and the ladder
    layer's connection levels and bundles.  K grows with the distance of the
    mass points from [-1, 1], the solve loses up to log2 of its condition
    number, and the ladder's products cancel, so p bits would not hold the
    printed digits.  Every identity check of the family and of the ladder
    layer reads one rule, ``holds``, and so does the solve's pivot check.
    Root finding, electrostatics and the reports run at the caller's
    precision and read the stored values as they are."""

    product: SobolevProduct
    prec: int = field(init=False)
    jacobi_cache: JacobiCache = field(init=False, repr=False, compare=False)
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    table: list = field(default_factory=list, init=False, repr=False, compare=False)
    degrees: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    sob_polys: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.prec = mp.prec
        with self.guard():
            self.jacobi_cache = build_jacobi(self.product.jacobi, 0)

    def guard(self):
        """The family's working precision 2p, as a context manager."""
        return mp.workprec(2 * self.prec)

    def holds(self, residual: mpf, size: mpf) -> bool:
        """The one threshold rule of the identity checks: |residual| <=
        2^-p max(1, size) at the family's p, where size is the magnitude of
        the terms that cancel to the residual.  It is read in the guard, where
        abs() and the shift by p are exact, wherever it is asked."""
        with self.guard():
            return abs(residual) <= mpmath.ldexp(max(mpf(1), size), -self.prec)

    def deriv_vector(self, m: int) -> list:
        return self._degree(m)[0]

    def lambda_form(self, m: int) -> mpf:
        """Lambda_m = S_m(C)^T L P_m(C), the positive quadratic form controlling
        the leading coefficients of Delta."""
        return self._degree(m)[1]

    def jacobi_coeffs(self, m: int) -> list:
        """a_0..a_m with S_m = sum_nu a_nu P_nu."""
        return self._degree(m)[2]

    def poly(self, m: int) -> Poly:
        """S_m in monomial form, summed from its Jacobi coefficients on first
        use and checked by Horner's rule at the mass points: each derivative
        must hold the solved s_m to 2^-p of the sum of |a_i c^i| over its
        Horner terms."""
        if m not in self.sob_polys:
            sder = self.deriv_vector(m)
            with self.guard():
                cache = self.jacobi_cache
                row = self.jacobi_coeffs(m)
                sm = sum((a * cache.poly(nu) for nu, a in enumerate(row)), Poly.zero())
                for (j, k, _), sval in zip(self.product.active_pairs, sder):
                    dk, c = sm.deriv(k), self.product.points[j].c
                    direct = dk(c)
                    if not self.holds(direct - sval, Poly(map(abs, dk.coeffs))(abs(c))):
                        raise InternalContradiction(
                            f"derivative vector mismatch at pair ({j},{k}): {direct} vs {sval}"
                        )
            self.sob_polys[m] = sm
        return self.sob_polys[m]

    def memoised(self, kind: str, n: int, build):
        """build() once per (kind, n, working precision)."""
        key = (kind, n, mp.prec)
        if key not in self.memo:
            self.memo[key] = build()
        return self.memo[key]

    def zeros(self, n: int) -> list:
        """Zeros of S_n from its Jacobi expansion (numkernel.series_roots), at
        the working precision.  Memoised; each call returns a new list."""

        def build():
            cache = self.jacobi_cache
            return tuple(series_roots(self.jacobi_coeffs(n), cache.gamma1s, cache.gamma2s))

        return list(self.memoised("zeros", n, build))

    def sobolev_norm_sq(self, m: int) -> mpf:
        """<S_m, S_m>_s = <S_m, P_m>_s = h_m + Lambda_m."""
        return self.jacobi_cache.norm(m) + self.lambda_form(m)

    def extend(self, n: int) -> None:
        """Grow the Jacobi cache and the table through degree n."""
        if len(self.table) > n:
            return
        with self.guard():
            self.jacobi_cache.extend(n)
            while len(self.table) <= n:
                self.table.append(self._next_table_row(len(self.table)))

    def _on_pairs(self, nu: int) -> list:
        """v_nu: the table row of degree nu over the active pairs."""
        return [self.table[nu][j][k] for j, k, _ in self.product.active_pairs]

    def _next_table_row(self, m: int) -> list:
        points = self.product.points
        if m == 0:
            return [[mpf(1)] + [mpf(0)] * p.max_order for p in points]
        cache = self.jacobi_cache
        g1, g2 = cache.gamma1s[m - 1], cache.gamma2s[m - 1]
        prev = self.table[m - 1]
        prev2 = self.table[m - 2] if m >= 2 else [[0] * len(r) for r in prev]
        out = []
        for p, r1, r2 in zip(points, prev, prev2):
            shift = p.c - g1
            row = [shift * r1[0] - g2 * r2[0]]
            row += [shift * r1[k] + k * r1[k - 1] - g2 * r2[k] for k in range(1, len(r1))]
            out.append(row)
        return out

    def kernel(self, m: int) -> list:
        """K_{m-1}(C, C) over the active pairs, from table rows 0..m-1 at 2p,
        each entry summed in ascending nu."""
        self.extend(m - 1)
        dstar = self.product.d_star
        kmat = [[mpf(0)] * dstar for _ in range(dstar)]
        with self.guard():
            for nu in range(m):
                v, h = self._on_pairs(nu), self.jacobi_cache.norm(nu)
                for i in range(dstar):
                    for j in range(i + 1):
                        kmat[i][j] += v[i] * v[j] / h
                        kmat[j][i] = kmat[i][j]
        return kmat

    def _degree(self, m: int) -> tuple:
        """(s_m, Lambda_m, a_0..a_m), solved at 2p on the first read of m."""
        if m in self.degrees:
            return self.degrees[m]
        self.extend(m)
        pairs = self.product.active_pairs
        cache = self.jacobi_cache
        with self.guard():
            kmat = self.kernel(m)
            values = [self._on_pairs(nu) for nu in range(m + 1)]
            vm = values[m]
            shifted = [list(row) for row in kmat]
            for i, (_, _, lam) in enumerate(pairs):
                shifted[i][i] += 1 / lam
            try:
                factor = cholesky(shifted)
            except SingularSystem as exc:  # theoretically impossible for valid products
                raise InternalContradiction(f"L^-1 + K_{m - 1}(C,C): {exc}") from exc
            # A pivot within 2^-p of its diagonal (mass points close together) has
            # cancelled the p bits that the guard holds beyond p.
            for i in range(len(pairs)):
                if self.holds(factor[i][i] ** 2 / shifted[i][i], 1):
                    raise InternalContradiction(f"L^-1 + K_{m - 1}(C,C): pivot {i} below 2^-{self.prec}")
            weights = solve_dense(shifted, vm, factor)
            sder = [w / lam for (_, _, lam), w in zip(pairs, weights)]

            # Consistency: the solved derivative vector satisfies s + K L s = v_m,
            # and the Jacobi row gives it back: sum_nu a_nu v_nu = s_m, each to
            # 2^-p of the magnitudes of its terms, which cancel as K grows.
            row = [-fdot(weights, v) / cache.norm(nu) for nu, v in enumerate(values[:m])] + [mpf(1)]
            abs_weights, abs_row = [abs(w) for w in weights], [abs(a) for a in row]
            for i, ((j, k, _), sval) in enumerate(zip(pairs, sder)):
                resid = sval + fdot(kmat[i], weights) - vm[i]
                if not self.holds(resid, abs(sval) + fdot(map(abs, kmat[i]), abs_weights) + abs(vm[i])):
                    raise InternalContradiction(f"kernel system residual {resid} at pair ({j},{k})")
                column = [v[i] for v in values]
                direct = fdot(row, column)
                if not self.holds(direct - sval, fdot(abs_row, map(abs, column))):
                    raise InternalContradiction(
                        f"Jacobi row of S_{m} off the derivative vector at pair ({j},{k}): {direct} vs {sval}"
                    )
            self.degrees[m] = (sder, fdot(weights, vm), row)
        return self.degrees[m]


def build_family(product: SobolevProduct, n: int) -> SobolevFamily:
    """The Sobolev family of the given product, its table grown through
    degree n; each degree is solved where it is first read."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    family = SobolevFamily(product)
    family.extend(n)
    return family


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
        evaluate = family.jacobi_cache.series(family.jacobi_coeffs(n)).evaluate
        grid = [mpf(-1)] + inside + [mpf(1)]
        values = [evaluate((a + b) / 2)[0] for a, b in zip(grid, grid[1:])]
        signs = [mpmath.sign(v) for v in values if v != 0]
        changes = sum(1 for s0, s1 in zip(signs, signs[1:]) if s0 * s1 < 0)

    near = []
    for p in family.product.points:
        if real_roots:
            near.append((p.c, min(real_roots, key=lambda r: abs(r - p.c))))
        else:
            near.append((p.c, None))
    return ZeroReport(roots, real_roots, len(inside), changes, near)

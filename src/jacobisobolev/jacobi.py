"""Monic Jacobi polynomials: recurrence construction, norms, point values,
and the classical first-order ladder (raising/lowering) coefficients.

Conventions: the weight is (1-x)^alpha (1+x)^beta on [-1, 1] with
alpha, beta > -1, and all polynomials are monic.  The norms come from the
recurrence: h_0 = 2^(alpha+beta+1) Gamma(alpha+1) Gamma(beta+1) /
Gamma(alpha+beta+2) (norm0) and h_n = gamma2_n h_{n-1}.  gamma2_1 is taken
in cancelled form, so alpha + beta = -1 (Chebyshev of the first kind) needs
no special case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import mpmath
from mpmath import mp, mpf

from .numkernel import FixedPointSeries, Poly, relative_residual


class InvalidMeasure(Exception):
    """Jacobi parameters outside alpha, beta > -1."""


@dataclass(frozen=True)
class JacobiParams:
    alpha: mpf
    beta: mpf

    def __post_init__(self):
        object.__setattr__(self, "alpha", mpf(self.alpha))
        object.__setattr__(self, "beta", mpf(self.beta))
        if not (self.alpha > -1 and self.beta > -1):
            raise InvalidMeasure("alpha and beta must both exceed -1")


def gamma1(params: JacobiParams, n: int) -> mpf:
    """Recurrence coefficient of P_n in x*P_n (diagonal term)."""
    a, b = params.alpha, params.beta
    if n == 0:
        # Cancelled form; the generic formula is 0/0 when alpha + beta = 0.
        return (b - a) / (a + b + 2)
    s = 2 * n + a + b
    return (b * b - a * a) / (s * (s + 2))


def gamma2(params: JacobiParams, n: int) -> mpf:
    """Recurrence coefficient of P_{n-1} in x*P_n; equals h_n / h_{n-1}."""
    a, b = params.alpha, params.beta
    s = 2 * n + a + b
    if n == 1:
        # Cancelled (1 + a + b) / (s - 1) factor; 0/0 when alpha + beta = -1.
        return 4 * (1 + a) * (1 + b) / (s * s * (s + 1))
    return 4 * n * (n + a) * (n + b) * (n + a + b) / (s * s * (s * s - 1))


def norm0(params: JacobiParams) -> mpf:
    """h_0 = ||1||^2 = 2^(alpha+beta+1) B(alpha+1, beta+1)."""
    a, b = params.alpha, params.beta
    return mpmath.power(2, a + b + 1) * mpmath.gamma(a + 1) * mpmath.gamma(b + 1) / mpmath.gamma(a + b + 2)


@dataclass
class JacobiCache:
    """Monic Jacobi recurrence coefficients and norms through a requested
    degree, grown append-only.  The monomial form of P_k is built the first
    time poly(k) asks for it, coefficient by coefficient from the recurrence
    [x^i] P_k = [x^(i-1)] P_{k-1} - gamma1 [x^i] P_{k-1} - gamma2 [x^i] P_{k-2}.

    Everything the cache stores is computed at ``prec``, the working
    precision at construction, whatever the precision of the call that grows
    it; SobolevFamily builds its cache inside its guard, at twice the working
    precision."""

    params: JacobiParams
    prec: int = field(init=False)
    norms: list = field(default_factory=list, init=False)
    gamma1s: list = field(default_factory=list, init=False)
    gamma2s: list = field(default_factory=list, init=False)
    polys: list = field(default_factory=list, init=False)

    def __post_init__(self):
        self.prec = mp.prec

    @property
    def top(self) -> int:
        return len(self.norms) - 1

    def extend(self, n: int) -> None:
        if self.top >= n:
            return
        with mp.workprec(self.prec):
            while self.top < n:
                k = self.top + 1
                if k == 0:
                    self.norms.append(norm0(self.params))
                    self.gamma2s.append(mpf(0))
                else:
                    g2 = gamma2(self.params, k)
                    self.norms.append(g2 * self.norms[k - 1])
                    self.gamma2s.append(g2)
                self.gamma1s.append(gamma1(self.params, k))

    def poly(self, k: int) -> Poly:
        self.extend(k)
        polys = self.polys
        if len(polys) > k:
            return polys[k]
        with mp.workprec(self.prec):
            if not polys:
                polys.append(Poly.one())
            while len(polys) <= k:
                # Each coefficient rounded in the order of the Poly expression
                # (x - gamma1) P_{j-1} - gamma2 P_{j-2}.
                j = len(polys)
                p1 = polys[j - 1].coeffs
                g1, g2 = self.gamma1s[j - 1], self.gamma2s[j - 1]
                cs = [a - g1 * b for a, b in zip((0,) + p1, p1)] + [p1[-1]]
                if j >= 2:
                    p2 = polys[j - 2].coeffs
                    cs[: len(p2)] = [a - g2 * b for a, b in zip(cs, p2)]
                polys.append(Poly._of(cs))
        return polys[k]

    def norm(self, k: int) -> mpf:
        self.extend(k)
        return self.norms[k]

    def series(self, coeffs) -> FixedPointSeries:
        """The evaluator of sum_k coeffs[k] P_k over this cache's recurrence,
        at working precision."""
        self.extend(len(coeffs) - 1)
        return FixedPointSeries(coeffs, self.gamma1s, self.gamma2s)


def build_jacobi(params: JacobiParams, n: int) -> JacobiCache:
    """Build the monic Jacobi cache through degree n."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    cache = JacobiCache(params)
    cache.extend(n)
    return cache


def ladder_coeffs(params: JacobiParams, n: int):
    """Classical ladder coefficients (a_n(x), c_n(x), d_n) for degree n >= 1,
    where 2n+alpha+beta > 0.  With b_n = (2n+alpha+beta+1) gamma2_n they satisfy

        -(a_n/b_n) P_n + ((1-x^2)/b_n) P_n'      = P_{n-1},
        -(c_n/d_n) P_{n-1} + ((1-x^2)/d_n) P_{n-1}' = P_n.
    """
    a, b = params.alpha, params.beta
    s = 2 * n + a + b
    return Poly((b - a, s)) * (-mpf(n) / s), Poly((a - b, s)) * ((n + a + b) / s), -(s - 1)


def classical_ode_residual(cache: JacobiCache, n: int) -> mpf:
    """Relative residual of (1-x^2)P_n'' + (b-a-(a+b+2)x)P_n' + n(n+a+b+1)P_n,
    taken at the cache's precision, where P_n is stored."""
    a, b = cache.params.alpha, cache.params.beta
    p = cache.poly(n)
    with mp.workprec(cache.prec):
        terms = [Poly((1, 0, -1)) * p.deriv(2), Poly((b - a, -(a + b + 2))) * p.deriv(), (n * (n + a + b + 1)) * p]
        return relative_residual(terms)

"""Monic Jacobi polynomials: recurrence construction, norms, point values,
and the classical first-order ladder (raising/lowering) coefficients.

Conventions: the weight is (1-x)^alpha (1+x)^beta on [-1, 1] with
alpha, beta > -1, and all polynomials are monic.  Norms are accumulated in
log-Gamma form so that extreme parameters (beta ~ 100) stay representable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import mpmath
from mpmath import mpf

from .numkernel import Poly, series_values


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
    return 4 * n * (n + a) * (n + b) * (n + a + b) / (s * s * (s * s - 1))


def log_norm(params: JacobiParams, n: int) -> mpf:
    """log of h_n = ||P_n||^2, via log-Gamma accumulation."""
    a, b = params.alpha, params.beta
    lg = mpmath.loggamma
    return (
        (2 * n + a + b + 1) * mpmath.log(2)
        + lg(n + 1)
        + lg(n + a + 1)
        + lg(n + b + 1)
        + lg(n + a + b + 1)
        - lg(2 * n + a + b + 2)
        - lg(2 * n + a + b + 1)
    )


@dataclass
class JacobiCache:
    """Monic Jacobi data through a requested degree, grown append-only."""

    params: JacobiParams
    polys: list = field(default_factory=list)
    norms: list = field(default_factory=list)
    gamma1s: list = field(default_factory=list)
    gamma2s: list = field(default_factory=list)

    @property
    def top(self) -> int:
        return len(self.polys) - 1

    def extend(self, n: int) -> None:
        while self.top < n:
            k = self.top + 1
            if k == 0:
                self.polys.append(Poly.one())
            else:
                # gamma1_{k-1} and gamma2_{k-1} were stored by the previous step.
                p = Poly.x() * self.polys[k - 1] - self.gamma1s[k - 1] * self.polys[k - 1]
                if k >= 2:
                    p = p - self.gamma2s[k - 1] * self.polys[k - 2]
                self.polys.append(p)
            self.norms.append(mpmath.exp(log_norm(self.params, k)))
            self.gamma1s.append(gamma1(self.params, k))
            self.gamma2s.append(gamma2(self.params, k) if k >= 1 else mpf(0))

    def poly(self, k: int) -> Poly:
        self.extend(k)
        return self.polys[k]

    def norm(self, k: int) -> mpf:
        self.extend(k)
        return self.norms[k]

    def eval_series(self, coeffs, x):
        """series_values of coeffs at x over this cache's recurrence."""
        self.extend(len(coeffs) - 1)
        return series_values(coeffs, self.gamma1s, self.gamma2s, x)


def build_jacobi(params: JacobiParams, n: int) -> JacobiCache:
    """Build the monic Jacobi cache through degree n."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    cache = JacobiCache(params)
    cache.extend(n)
    return cache


def ladder_coeffs(params: JacobiParams, n: int):
    """Classical ladder coefficients (a_n(x), b_n, c_n(x), d_n) for degree n.

    They satisfy, for n >= 1,

        -(a_n/b_n) P_n + ((1-x^2)/b_n) P_n'      = P_{n-1},
        -(c_n/d_n) P_{n-1} + ((1-x^2)/d_n) P_{n-1}' = P_n.

    For n = 0 the degenerate values a_0 = 0, b_0 = 0 are returned with the
    cancelled form of c_0; callers that hit the b_0 denominator must branch.
    """
    a, b = params.alpha, params.beta
    s = 2 * n + a + b
    if n == 0:
        a_poly = Poly.zero()
        b_coef = mpf(0)
        c_poly = Poly((a - b, a + b))  # cancelled (n+a+b)/(2n+a+b) factor
    else:
        a_poly = Poly((b - a, s)) * (-mpf(n) / s)
        b_coef = 4 * n * (n + a) * (n + b) * (n + a + b) / (s * s * (s - 1))
        c_poly = Poly((a - b, s)) * ((n + a + b) / s)
    d_coef = -(s - 1)
    return a_poly, b_coef, c_poly, d_coef


def raise_over_gamma2(params: JacobiParams, n: int) -> mpf:
    """The ratio b_n / gamma2_n = 2n + alpha + beta + 1, valid for n >= 0.

    Both factors vanish at n = 0; this is the continuous continuation used
    by the Sobolev ladder construction at its lowest index.
    """
    return 2 * n + params.alpha + params.beta + 1


def classical_ode_residual(cache: JacobiCache, n: int) -> mpf:
    """Max |coefficient| of (1-x^2)P_n'' + (b-a-(a+b+2)x)P_n' + n(n+a+b+1)P_n."""
    a, b = cache.params.alpha, cache.params.beta
    p = cache.poly(n)
    lhs = (
        Poly((1, 0, -1)) * p.deriv(2)
        + Poly((b - a, -(a + b + 2))) * p.deriv()
        + (n * (n + a + b + 1)) * p
    )
    return lhs.max_abs_coeff()

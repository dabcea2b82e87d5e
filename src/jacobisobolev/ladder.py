"""Ladder structure for Jacobi-Sobolev polynomials: the 2x2 connection
system between (S_n, S_{n-1}) and (P_n, P_{n-1}), its determinants, the
five q-polynomials, the second-order ODE with polynomial coefficients, and
the rational-coefficient recurrence.

Each identity the bundle is built from (Delta / rho, Delta_i / rho_(d-N) and
the derivative connection) is checked inside the family's guard by its one
rule, SobolevFamily.holds: what the cancellation of the theory leaves must
hold to 2^-p of the numerator.  The first-order ladder operators, the ODE
and the recurrence are product identities; their residuals are measured
here and judged by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
from mpmath import mpf

from .jacobi import ladder_coeffs
from .numkernel import Poly, relative_residual
from .sobolev import SobolevFamily


class StructureError(Exception):
    """A structural identity of the ladder algebra failed numerically."""


def _exact_div(num: Poly, den: Poly, family: SobolevFamily, what: str) -> Poly:
    """num / den, whose remainder must hold to 2^-p of num (family.holds)."""
    quot, rem = divmod(num, den)
    if not family.holds(rem.max_abs_coeff(), num.max_abs_coeff()):
        raise StructureError(f"{what}: division remainder {rem.max_abs_coeff()} above 2^-{family.prec} of num")
    return quot


def _leading(terms: list, expected: int, family: SobolevFamily, what: str) -> Poly:
    """The sum of terms, of degree expected: its coefficient of x^expected must
    not hold to 0 against the terms' own coefficients there (family.holds),
    and none above it may survive."""
    total = sum(terms[1:], terms[0])
    lead = total.coeff(expected)
    if total.degree > expected:
        raise StructureError(f"{what}: degree {total.degree}, expected {expected}")
    if family.holds(lead, max(abs(t.coeff(expected)) for t in terms)):
        raise StructureError(f"{what}: leading coefficient {lead} of degree {expected} holds to 0")
    return total


@dataclass
class LadderData:
    """Per-n bundle of the connection polynomials, the q-polynomials and
    the coefficients (P2, P1, P0) of the second-order ODE of S_n."""

    n: int
    A2: Poly
    B2: Poly
    C2: Poly
    D2: Poly
    Delta: Poly
    delta: Poly
    Lambda_cur: mpf  # Lambda_n
    q0: Poly
    q1: Poly
    q2: Poly
    q3: Poly
    q4: Poly
    phi1: Poly
    phi2: Poly
    phi3: Poly
    P2: Poly
    P1: Poly
    P0: Poly


def _taylor(derivs, c, k: int) -> Poly:
    """sum_{i<=k} derivs[i]/i! (x - c)^i: the Taylor polynomial of degree
    <= k at c of a function whose derivatives there are derivs[i]."""
    base = Poly((-c, 1))
    out = Poly.zero()
    fact = mpf(1)
    power = Poly.one()
    for i in range(k + 1):
        if i > 0:
            fact *= i
            power = power * base
        out = out + power * (derivs[i] / fact)
    return out


def connection_level(family: SobolevFamily, m: int):
    """(A2, B2/gamma2_m, A3, B3/gamma2_m) at family level m: the numerators
    over rho of the connection coefficients F_{1,m}, G_{1,m} with
    S_m = F_{1,m} P_m + G_{1,m} P_{m-1}, and of its derivative form
    (1-x^2)(rho S_m)' = A3 P_m + B3 P_{m-1}.  Over gamma2_m = h_m / h_{m-1},
    level 0 is finite: (rho, 0, (1-x^2) rho', (alpha+beta+1) rho).  Computed
    inside the family's guard and memoised per (m, working precision)."""
    return family.memoised("conn", m, lambda: _connection_level(family, m))


def _connection_level(family: SobolevFamily, m: int):
    sder = family.deriv_vector(m)
    product, cache = family.product, family.jacobi_cache
    a, b = product.jacobi.alpha, product.jacobi.beta
    with family.guard():
        rho, one_minus_x2 = product.rho(), Poly((1, 0, -1))
        if m == 0:
            return rho, Poly.zero(), one_minus_x2 * rho.deriv(), (a + b + 1) * rho
        a2, b2 = rho, Poly.zero()
        hm1, hm = cache.norm(m - 1), cache.norm(m)
        prev, cur = family.table[m - 1], family.table[m]
        for (j, k, lam), sval in zip(product.active_pairs, sder):
            c = product.points[j].c
            weight = mpmath.factorial(k) * lam * sval
            rjk = product.rho_jk(j, k)
            a2 = a2 - (weight / hm1) * (_taylor(prev[j], c, k) * rjk)
            b2 = b2 + (weight / hm) * (_taylor(cur[j], c, k) * rjk)
        a_hat, c_hat, d_hat = ladder_coeffs(product.jacobi, m)
        # d_m B2 = (d_m gamma2_m) B2/gamma2_m and b_m / gamma2_m = 2m + alpha + beta + 1.
        a3 = a2.deriv() * one_minus_x2 + a_hat * a2 + (d_hat * cache.gamma2s[m]) * b2
        b3 = b2.deriv() * one_minus_x2 + (2 * m + a + b + 1) * a2 + c_hat * b2
    return a2, b2, a3, b3


def build_ladder(family: SobolevFamily, n: int) -> LadderData:
    """Assemble the LadderData bundle at index n >= 1 from connection levels n - 1 and n.

    The bundle is computed inside the family's guard, where its identity
    checks ask family.holds.  It is memoised on the family per (n, working
    precision), so a repeat call returns the same object.
    """
    if n < 1:
        raise ValueError("ladder data needs n >= 1")
    return family.memoised("ladder", n, lambda: _build_ladder(family, n))


def _build_ladder(family: SobolevFamily, n: int) -> LadderData:
    sn = family.poly(n)
    a2n, b2n, a3n, b3n = connection_level(family, n)
    a2p, b2p, a3p, b3p = connection_level(family, n - 1)
    lam_prev = family.lambda_form(n - 1)
    lam_cur = family.lambda_form(n)
    with family.guard():
        product = family.product
        cache = family.jacobi_cache
        d = product.d

        # Level n - 1 in the basis (P_n, P_{n-1}), by
        # gamma2_{n-1} P_{n-2} = (x - gamma1_{n-1}) P_{n-1} - P_n; level n's B2, B3.
        shift = Poly((-cache.gamma1s[n - 1], 1))
        c2 = -b2p
        c3, d3 = -b3p, a3p + shift * b3p
        b2n, b3n = cache.gamma2s[n] * b2n, cache.gamma2s[n] * b3n

        # Only D2 and q1..q4 have their degrees checked (_leading): each is a
        # sum of two terms of the same top degree, whose leading terms can cancel.
        # Every other degree follows from these, since Poly arithmetic never
        # raises a degree and a product's degree is exactly the sum (mpmath
        # does not underflow).  rho is monic of degree d, so A2 is exactly d
        # with leading 1, B2 and C2 are at most d - 1, B3 and C3 at most d,
        # A3 and D3 at most d + 1; then Delta is exactly 2d, q0 exactly
        # 2d + 2, P2 exactly 6d + 4, P1 at most 6d + 3 and P0 at most 6d + 2.
        d2 = _leading([a2p, shift * b2p], d, family, "D2")

        delta_big = a2n * d2 - c2 * b2n
        rho = product.rho()
        delta_small = _exact_div(delta_big, rho, family, "Delta / rho")

        # Lambda_m vanishes identically when every active derivative order
        # exceeds m; positivity is only claimed once some order k <= m exists.
        min_order = min((k for _, k, _ in product.active_pairs), default=0)
        for m, lam in ((n - 1, lam_prev), (n, lam_cur)):
            if product.d_star > 0 and min_order <= m and not lam > 0:
                raise StructureError(f"Lambda_{m} positivity failed: {lam}")

        one_minus_x2 = Poly((1, 0, -1))
        dd2 = b3n * c2 - a3n * d2
        dd3 = b2n * c3 - a2n * d3
        field_part = one_minus_x2 * rho.deriv() * delta_small

        q0 = one_minus_x2 * delta_big
        q1 = _leading([b3n * a2n, -(a3n * b2n)], 2 * d, family, "q1")
        q2 = _leading([field_part, dd2], 2 * d + 1, family, "q2")
        q3 = _leading([field_part, dd3], 2 * d + 1, family, "q3")
        q4 = _leading([c3 * d2, -(d3 * c2)], 2 * d, family, "q4")

        rho_excess = product.rho_excess()
        phi1 = _exact_div(q1, rho_excess, family, "Delta1 / rho_(d-N)")
        phi2 = _exact_div(dd2, rho_excess, family, "Delta2 / rho_(d-N)")
        phi3 = _exact_div(dd3, rho_excess, family, "Delta3 / rho_(d-N)")

        # Cross-check the two routes to the lowering identity at sample points:
        # (1-x^2)(rho S_n)' must equal A3 P_n + B3 P_{n-1}.
        lhs = one_minus_x2 * (rho * sn).deriv()
        rhs = a3n * cache.poly(n) + b3n * cache.poly(n - 1)
        if not family.holds((lhs - rhs).max_abs_coeff(), lhs.max_abs_coeff()):
            raise StructureError("derivative connection identity failed")

        # The second-order ODE P2 S_n'' + P1 S_n' + P0 S_n = 0.
        p2 = q1 * q0 * q0
        p1 = q0 * (q1 * q2 + q1 * q3 + q0.deriv() * q1 - q0 * q1.deriv())
        p0 = q1 * q2 * q3 + q0 * (q2.deriv() * q1 - q2 * q1.deriv()) - q4 * q1 * q1

        return LadderData(
            n=n,
            A2=a2n,
            B2=b2n,
            C2=c2,
            D2=d2,
            Delta=delta_big,
            delta=delta_small,
            Lambda_cur=lam_cur,
            q0=q0,
            q1=q1,
            q2=q2,
            q3=q3,
            q4=q4,
            phi1=phi1,
            phi2=phi2,
            phi3=phi3,
            P2=p2,
            P1=p1,
            P0=p0,
        )


def ode_residual(ld: LadderData, family: SobolevFamily) -> mpf:
    """Relative residual of P2 S_n'' + P1 S_n' + P0 S_n, taken inside the
    family's guard, where the ODE and S_n are stored."""
    sn = family.poly(ld.n)
    with family.guard():
        return relative_residual([ld.P2 * sn.deriv(2), ld.P1 * sn.deriv(), ld.P0 * sn])


def ladder_residual(ld: LadderData, family: SobolevFamily) -> mpf:
    """The larger relative residual of the lowering identity
    q1 S_{n-1} = q2 S_n + q0 S_n' and the raising identity
    q4 S_n = q3 S_{n-1} + q0 S_{n-1}', taken inside the family's guard."""
    sn, sm = family.poly(ld.n), family.poly(ld.n - 1)
    with family.guard():
        return max(relative_residual([ld.q1 * sm, -(ld.q2 * sn), -(ld.q0 * sn.deriv())]),
                   relative_residual([ld.q4 * sn, -(ld.q3 * sm), -(ld.q0 * sm.deriv())]))


def recurrence_residual(family: SobolevFamily, n: int) -> mpf:
    """Relative residual of the rational three-term recurrence at index n,
    in the statement form with q_{1,n}, taken inside the family's guard."""
    if n < 1:
        raise ValueError("recurrence needs n >= 1")
    ld_n = build_ladder(family, n)
    ld_n1 = build_ladder(family, n + 1)
    s_prev, s_cur, s_next = family.poly(n - 1), family.poly(n), family.poly(n + 1)
    with family.guard():
        top = ld_n1.q4 * ld_n.q0 * s_next
        mid = (ld_n.q2 * ld_n1.q0 - ld_n1.q3 * ld_n.q0) * s_cur
        low = -(ld_n.q1 * ld_n1.q0 * s_prev)
        return relative_residual([top, mid, low])

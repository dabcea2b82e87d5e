"""Ladder structure for Jacobi-Sobolev polynomials: the 2x2 connection
system between (S_n, S_{n-1}) and (P_n, P_{n-1}), its determinants, the
five q-polynomials, the first-order ladder operators, the second-order ODE
with polynomial coefficients, and the rational-coefficient recurrence.

All identities are verified by exact polynomial division with a remainder
norm assertion, which turns the symbolic cancellations of the theory into
quantitative alarms for numerical degradation.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mpf

from .jacobi import gamma1, gamma2, ladder_coeffs, raise_over_gamma2
from .numkernel import Poly, tol
from .sobolev import SobolevFamily


class StructureError(Exception):
    """A structural identity of the ladder algebra failed numerically."""


def _exact_div(num: Poly, den: Poly, rel_tol, what: str) -> Poly:
    quot, rem = divmod(num, den)
    scale = max(num.max_abs_coeff(), mpf(1))
    if rem.max_abs_coeff() > mpf(rel_tol) * scale:
        raise StructureError(
            f"{what}: division remainder {rem.max_abs_coeff()} above {mpf(rel_tol) * scale}"
        )
    return quot


def _assert_degree(p: Poly, expected: int, what: str, exact: bool = True) -> None:
    if p.degree > expected:
        raise StructureError(f"{what}: degree {p.degree} exceeds {expected}")
    if exact and p.degree != expected:
        raise StructureError(f"{what}: degree {p.degree}, expected {expected}")


@dataclass
class LadderData:
    """Per-n bundle of the connection polynomials and their derived objects."""

    n: int
    A2: Poly
    B2: Poly
    A3: Poly
    B3: Poly
    C2: Poly
    D2: Poly
    C3: Poly
    D3: Poly
    Delta: Poly
    delta: Poly
    Lambda_prev: mpf  # Lambda_{n-1}
    Lambda_cur: mpf  # Lambda_n
    q0: Poly
    q1: Poly
    q2: Poly
    q3: Poly
    q4: Poly
    Delta1: Poly
    Delta2: Poly
    Delta3: Poly
    phi1: Poly
    phi2: Poly
    phi3: Poly


def _conn_level(family: SobolevFamily, m: int):
    """(A2, B2, A3, B3) at family level m."""
    a2, b2 = family.connection_numerators(m)
    params = family.product.jacobi
    a_hat, b_hat, c_hat, d_hat = ladder_coeffs(params, m)
    one_minus_x2 = Poly((1, 0, -1))
    a3 = a2.deriv() * one_minus_x2 + a_hat * a2 + d_hat * b2
    b3 = b2.deriv() * one_minus_x2 + b_hat * a2 + c_hat * b2
    return a2, b2, a3, b3


def lambda_form(family: SobolevFamily, m: int) -> mpf:
    """Lambda_m = S_m(C)^T L P_m(C), the positive quadratic form controlling
    the leading coefficients of Delta."""
    family.extend(m)
    return family.lambda_forms[m]


def build_ladder(family: SobolevFamily, n: int) -> LadderData:
    """Assemble the LadderData bundle at index n (n >= 1).

    Index 1 uses the continuous limit of the C/D formulas, since the
    generic expressions divide by gamma2_0 = 0 against vanishing numerators.
    The bundle is memoised on the family per (n, working precision), so a
    repeat call returns the same object.
    """
    if n < 1:
        raise ValueError("ladder data needs n >= 1")
    return family.memoised("ladder", n, lambda: _build_ladder(family, n))


def _build_ladder(family: SobolevFamily, n: int) -> LadderData:
    family.extend(n)
    product = family.product
    params = product.jacobi
    d = product.d

    a2n, b2n, a3n, b3n = _conn_level(family, n)
    a2p, b2p, a3p, b3p = _conn_level(family, n - 1)

    if n >= 2:
        g1 = gamma1(params, n - 1)
        g2 = gamma2(params, n - 1)
        shift = Poly((-g1, 1))
        c2 = -(1 / g2) * b2p
        d2 = a2p + (1 / g2) * (shift * b2p)
        c3 = -(1 / g2) * b3p
        d3 = a3p + (1 / g2) * (shift * b3p)
    else:
        # B2_0 = 0 identically; B3_0 = b_hat_0 * A2_0 with b_hat_0/gamma2_0
        # continued as alpha + beta + 1.
        ratio = raise_over_gamma2(params, 0)
        shift = Poly((-gamma1(params, 0), 1))
        c2 = Poly.zero()
        d2 = a2p
        c3 = -ratio * a2p
        d3 = a3p + ratio * (shift * a2p)

    half = tol(2)
    third = tol(3)
    _assert_degree(a2n, d, "A2", exact=True)
    _assert_degree(b2n, d - 1, "B2", exact=False)
    _assert_degree(a3n, d + 1, "A3", exact=False)
    _assert_degree(b3n, d, "B3", exact=False)
    _assert_degree(c2, d - 1, "C2", exact=False)
    _assert_degree(d2, d, "D2", exact=True)
    _assert_degree(c3, d, "C3", exact=False)
    _assert_degree(d3, d + 1, "D3", exact=False)

    delta_big = a2n * d2 - c2 * b2n
    _assert_degree(delta_big, 2 * d, "Delta")

    rho = product.rho()
    delta_small = _exact_div(delta_big, rho, third, "Delta / rho")

    # Lambda_m vanishes identically when every active derivative order
    # exceeds m; positivity is only claimed once some order k <= m exists.
    min_order = min((k for _, k, _ in product.active_pairs), default=0)
    lam_prev = lambda_form(family, n - 1)
    lam_cur = lambda_form(family, n)
    for m, lam in ((n - 1, lam_prev), (n, lam_cur)):
        if product.d_star > 0 and min_order <= m and not lam > 0:
            raise StructureError(f"Lambda_{m} positivity failed: {lam}")

    one_minus_x2 = Poly((1, 0, -1))
    d1 = b3n * a2n - a3n * b2n
    dd2 = b3n * c2 - a3n * d2
    dd3 = b2n * c3 - a2n * d3
    field_part = one_minus_x2 * rho.deriv() * delta_small

    q0 = one_minus_x2 * delta_big
    q1 = d1
    q2 = field_part + dd2
    q3 = field_part + dd3
    q4 = c3 * d2 - d3 * c2

    _assert_degree(q0, 2 * d + 2, "q0")
    _assert_degree(q1, 2 * d, "q1")
    _assert_degree(q2, 2 * d + 1, "q2")
    _assert_degree(q3, 2 * d + 1, "q3")
    _assert_degree(q4, 2 * d, "q4")

    rho_excess = product.rho_excess()
    phi1 = _exact_div(d1, rho_excess, third, "Delta1 / rho_(d-N)")
    phi2 = _exact_div(dd2, rho_excess, third, "Delta2 / rho_(d-N)")
    phi3 = _exact_div(dd3, rho_excess, third, "Delta3 / rho_(d-N)")

    # Cross-check the two routes to the lowering identity at sample points:
    # (1-x^2)(rho S_n)' must equal A3 P_n + B3 P_{n-1}.
    cache = family.jacobi_cache
    sn = family.poly(n)
    lhs = one_minus_x2 * (rho * sn).deriv()
    rhs = a3n * cache.poly(n) + b3n * cache.poly(n - 1)
    if (lhs - rhs).max_abs_coeff() > half * max(lhs.max_abs_coeff(), mpf(1)):
        raise StructureError("derivative connection identity failed")

    return LadderData(
        n=n,
        A2=a2n,
        B2=b2n,
        A3=a3n,
        B3=b3n,
        C2=c2,
        D2=d2,
        C3=c3,
        D3=d3,
        Delta=delta_big,
        delta=delta_small,
        Lambda_prev=lam_prev,
        Lambda_cur=lam_cur,
        q0=q0,
        q1=q1,
        q2=q2,
        q3=q3,
        q4=q4,
        Delta1=d1,
        Delta2=dd2,
        Delta3=dd3,
        phi1=phi1,
        phi2=phi2,
        phi3=phi3,
    )


def apply_lowering(ld: LadderData, family: SobolevFamily) -> Poly:
    """S_{n-1} = (q2 S_n + q0 S_n') / q1, with an exact-division assertion."""
    sn = family.poly(ld.n)
    num = ld.q2 * sn + ld.q0 * sn.deriv()
    return _exact_div(num, ld.q1, tol(3), "lowering")


def apply_raising(ld: LadderData, family: SobolevFamily) -> Poly:
    """S_n = (q3 S_{n-1} + q0 S_{n-1}') / q4, with an exact-division assertion."""
    sm = family.poly(ld.n - 1)
    num = ld.q3 * sm + ld.q0 * sm.deriv()
    return _exact_div(num, ld.q4, tol(3), "raising")


def ode_coeffs(ld: LadderData):
    """Coefficients (P2, P1, P0) of the second-order ODE satisfied by S_n."""
    q0, q1, q2, q3, q4 = ld.q0, ld.q1, ld.q2, ld.q3, ld.q4
    p2 = q1 * q0 * q0
    p1 = q0 * (q1 * q2 + q1 * q3 + q0.deriv() * q1 - q0 * q1.deriv())
    p0 = q1 * q2 * q3 + q0 * (q2.deriv() * q1 - q2 * q1.deriv()) - q4 * q1 * q1
    d = (ld.Delta.degree) // 2
    _assert_degree(p2, 6 * d + 4, "ODE leading coefficient")
    _assert_degree(p1, 6 * d + 3, "ODE first-order coefficient", exact=False)
    _assert_degree(p0, 6 * d + 2, "ODE zeroth-order coefficient", exact=False)
    return p2, p1, p0


def ode_residual(ld: LadderData, family: SobolevFamily) -> mpf:
    """Relative coefficient norm of P2 S_n'' + P1 S_n' + P0 S_n."""
    p2, p1, p0 = ode_coeffs(ld)
    sn = family.poly(ld.n)
    terms = [p2 * sn.deriv(2), p1 * sn.deriv(), p0 * sn]
    resid = terms[0] + terms[1] + terms[2]
    scale = max(t.max_abs_coeff() for t in terms)
    return resid.max_abs_coeff() / max(scale, mpf(1))


def recurrence_residual(family: SobolevFamily, n: int) -> mpf:
    """Relative residual of the rational three-term recurrence at index n,
    in the statement form with q_{1,n}."""
    if n < 1:
        raise ValueError("recurrence needs n >= 1")
    ld_n = build_ladder(family, n)
    ld_n1 = build_ladder(family, n + 1)
    s_prev, s_cur, s_next = family.poly(n - 1), family.poly(n), family.poly(n + 1)
    lhs = ld_n1.q4 * ld_n.q0 * s_next
    mid = (ld_n1.q3 * ld_n.q0 - ld_n.q2 * ld_n1.q0) * s_cur
    low = ld_n.q1 * ld_n1.q0 * s_prev
    resid = lhs - mid - low
    scale = max(lhs.max_abs_coeff(), mid.max_abs_coeff(), low.max_abs_coeff(), mpf(1))
    return resid.max_abs_coeff() / scale

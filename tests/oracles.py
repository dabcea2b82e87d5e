"""The paper's identities as referees for the library.

None of these is on a path that the CLI runs: each restates a result of
the theory (the closed Christoffel-Darboux kernel, Cramer recovery of P_n,
the n-fold raising product, the Lambda law for the leading coefficient of
Delta, quasi-orthogonality, P_n(1) in closed form, the logarithmic energy)
so that a test can hold the library's construction against it.
"""

import mpmath
from mpmath import mpf

from jacobisobolev.electrostatics import FieldDecomposition, SingularConfiguration
from jacobisobolev.jacobi import JacobiCache, JacobiParams, gamma2
from jacobisobolev.ladder import LadderData, _exact_div, build_ladder, lambda_form
from jacobisobolev.numkernel import Poly, taylor_poly, tol
from jacobisobolev.sobolev import SobolevError, SobolevFamily, inner_mu

# Below this separation the closed Christoffel-Darboux form of the kernel
# is numerically unsafe and the direct sum is used instead.
CD_SEPARATION = mpf("1e-8")


class NotApplicable(SobolevError):
    pass


def kernel_dk_closed(cache: JacobiCache, n: int, k: int, x, y) -> mpf:
    """Closed Christoffel-Darboux form of K_{n-1}^{(0,k)}; needs x far from y."""
    x, y = mpf(x), mpf(y)
    if abs(x - y) <= CD_SEPARATION:
        raise ValueError("closed kernel form is unstable near the diagonal")
    pn, pm = cache.poly(n), cache.poly(n - 1)
    qn = taylor_poly(pn, y, k)
    qm = taylor_poly(pm, y, k)
    num = mpmath.factorial(k) * (qm(x) * pn(x) - qn(x) * pm(x))
    return num / (cache.norm(n - 1) * (x - y) ** (k + 1))


def jacobi_at_one(params: JacobiParams, n: int) -> mpf:
    """Closed-form value P_n(1) (monic normalization)."""
    a, b = params.alpha, params.beta
    lg = mpmath.loggamma
    return mpmath.exp(
        n * mpmath.log(2) + lg(n + a + 1) - lg(a + 1) + lg(n + a + b + 1) - lg(2 * n + a + b + 1)
    )


def quasi_orthogonality_check(family: SobolevFamily, n: int) -> mpf:
    """Max |<S_n, rho_hat * x^i>_mu| over 0 <= i <= n - d - 1."""
    product = family.product
    d = product.d
    if n <= d:
        raise NotApplicable(f"quasi-orthogonality needs n > d (= {d})")
    rho_hat = Poly.one()
    for p in product.points:
        if p.c <= -1:
            rho_hat = rho_hat * Poly((-p.c, 1)) ** (p.max_order + 1)
        else:
            rho_hat = rho_hat * Poly((p.c, -1)) ** (p.max_order + 1)
    sn = family.poly(n)
    worst = mpf(0)
    for i in range(n - d):
        val = abs(inner_mu(sn, rho_hat * Poly.x() ** i, family.jacobi_cache))
        worst = max(worst, val)
    return worst


def delta_leading_expected(family: SobolevFamily, n: int) -> mpf:
    """Expected leading coefficient of Delta_n from the Lambda law."""
    d = family.product.d
    b2p = family.connection_numerators(n - 1)[1]
    lead = b2p.coeff(d - 1)
    if abs(lead) <= tol(2) * max(b2p.max_abs_coeff(), mpf(1)):
        return mpf(1)
    g2 = gamma2(family.product.jacobi, n - 1)
    h = family.jacobi_cache.norm(n - 2)
    return 1 + lambda_form(family, n - 1) / (g2 * h)


def recover_jacobi(ld: LadderData, family: SobolevFamily):
    """Reconstruct (P_n, P_{n-1}) from (S_n, S_{n-1}) via Cramer's rule."""
    n = ld.n
    rho = family.product.rho()
    sn, sm = family.poly(n), family.poly(n - 1)
    third = tol(3)
    pn = _exact_div(rho * (ld.D2 * sn - ld.B2 * sm), ld.Delta, third, "P_n recovery")
    pm = _exact_div(rho * (ld.A2 * sm - ld.C2 * sn), ld.Delta, third, "P_{n-1} recovery")
    return pn, pm


def compose_raising(family: SobolevFamily, n: int) -> Poly:
    """S_n as the n-fold raising-operator product applied to S_0 = 1."""
    f = Poly.one()
    for m in range(1, n + 1):
        ld = build_ladder(family, m)
        f = _exact_div(ld.q3 * f + ld.q0 * f.deriv(), ld.q4, tol(3), f"raising step {m}")
    return f


def shifted_recurrence_residual(family: SobolevFamily, n: int) -> mpf:
    """ladder.recurrence_residual with q_{1,n+1} in place of q_{1,n}: the
    variant appearing in the proof, for comparison."""
    ld_n = build_ladder(family, n)
    ld_n1 = build_ladder(family, n + 1)
    s_prev, s_cur, s_next = family.poly(n - 1), family.poly(n), family.poly(n + 1)
    lhs = ld_n1.q4 * ld_n.q0 * s_next
    mid = (ld_n1.q3 * ld_n.q0 - ld_n.q2 * ld_n1.q0) * s_cur
    low = ld_n1.q1 * ld_n1.q0 * s_prev
    resid = lhs - mid - low
    scale = max(lhs.max_abs_coeff(), mid.max_abs_coeff(), low.max_abs_coeff(), mpf(1))
    return resid.max_abs_coeff() / scale


def external_value(fd: FieldDecomposition, w) -> mpf:
    """v(w): twice the per-charge external potential at w."""
    w = mpf(w)
    acc = mpf(0)
    for loc, ell in fd.poles:
        dist = abs(w - loc)
        if dist == 0:
            raise SingularConfiguration(f"charge coincides with pole {loc}")
        acc -= ell * mpmath.log(dist)
    for re, im, ell in fd.attractors:
        if im == 0:
            dist = abs(w - re)
            if dist == 0:
                raise SingularConfiguration(f"charge coincides with attractor {re}")
            acc += ell * mpmath.log(dist)
        else:
            # One stored entry stands for the conjugate pair, exponent
            # ell per root: ell * (log|w-e| + log|w-conj(e)|).
            acc += ell * mpmath.log((w - re) ** 2 + im**2)
    return acc


def energy(fd: FieldDecomposition, omega) -> mpf:
    """Total logarithmic energy of the configuration omega."""
    omega = [mpf(w) for w in omega]
    n = len(omega)
    acc = mpf(0)
    for k in range(n):
        for j in range(k + 1, n):
            diff = abs(omega[j] - omega[k])
            if diff == 0:
                raise SingularConfiguration("coincident charges")
            acc -= mpmath.log(diff)
    for w in omega:
        acc += external_value(fd, w) / 2
    return acc

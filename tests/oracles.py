"""The paper's identities as referees for the library.

None of these is on a path that the CLI runs: each restates a result of
the theory (the Jacobi norms by log-Gamma sums, Taylor polynomials of a
monomial form, the closed Christoffel-Darboux kernel, Cramer recovery of P_n,
the n-fold raising product, the Lambda law for the leading coefficient of
Delta, quasi-orthogonality, P_n(1) in closed form, the logarithmic energy,
the exact S_n by Gram-Schmidt over Fraction, the exact Jacobi row of S_n by
the family's own algorithm over Fraction) so that a test can hold the
library's construction against it.
"""

from fractions import Fraction
from math import comb, factorial

import mpmath
from mpmath import mpf

from jacobisobolev.electrostatics import FieldDecomposition, SingularConfiguration
from jacobisobolev.jacobi import JacobiCache, JacobiParams, gamma2
from jacobisobolev.ladder import LadderData, _exact_div, build_ladder, connection_level
from jacobisobolev.numkernel import Poly, tol
from jacobisobolev.sobolev import SobolevError, SobolevFamily, inner_mu

# Below this separation the closed Christoffel-Darboux form of the kernel
# is numerically unsafe and the direct sum is used instead.
CD_SEPARATION = mpf("1e-8")


class NotApplicable(SobolevError):
    pass


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


def taylor_poly(f: Poly, y, k: int) -> Poly:
    """Taylor polynomial of degree <= k of f centered at y, in powers of x."""
    if k < 0:
        raise ValueError("Taylor order must be nonnegative")
    y = mpf(y)
    base = Poly((-y, 1))
    out = Poly.zero()
    fact = mpf(1)
    power = Poly.one()
    g = f
    for nu in range(k + 1):
        if nu > 0:
            fact *= nu
            power = power * base
            g = g.deriv()
        out = out + power * (g(y) / fact)
    return out


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
    b2p = connection_level(family, n - 1)[1]
    lead = b2p.coeff(d - 1)
    if abs(lead) <= tol(2) * max(b2p.max_abs_coeff(), mpf(1)):
        return mpf(1)
    g2 = gamma2(family.product.jacobi, n - 1)
    h = family.jacobi_cache.norm(n - 2)
    return 1 + family.lambda_form(n - 1) / (g2 * h)


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


# Exact rational oracle: moments of (1+x)^beta on [-1, 1] in closed form,
# Gram-Schmidt over Fraction.  Completely independent of the mpf pipeline.


def _rational_moments(beta, top):
    def moment(i):
        return sum(
            Fraction(comb(i, j) * (-1) ** (i - j) * 2 ** (beta + 1 + j), beta + 1 + j)
            for j in range(i + 1)
        )

    return [moment(i) for i in range(top + 1)]


def _rational_sobolev_poly(beta, masses, n):
    """Exact monic S_n for integer beta and rational masses [(c, k, lam)]."""
    moments = _rational_moments(beta, 2 * n + 1)

    def deriv(p, k):
        for _ in range(k):
            p = [Fraction(i) * c for i, c in enumerate(p)][1:]
        return p

    def ev(p, x):
        acc = Fraction(0)
        for c in reversed(p):
            acc = acc * x + c
        return acc

    def inner(p, q):
        s = Fraction(0)
        for a, ca in enumerate(p):
            for b, cb in enumerate(q):
                s += ca * cb * moments[a + b]
        for c, k, lam in masses:
            s += lam * ev(deriv(p, k), c) * ev(deriv(q, k), c)
        return s

    basis = []
    for m in range(n + 1):
        v = [Fraction(0)] * m + [Fraction(1)]
        for b in basis:
            coef = inner(v, b) / inner(b, b)
            v = [vc - coef * bc for vc, bc in zip(v, b + [Fraction(0)] * (len(v) - len(b)))]
        basis.append(v)
    return [c / basis[n][-1] for c in basis[n]]


# Exact Jacobi row: the family's algorithm (the derivative table, the kernel
# K_{n-1}(C, C), the solve of L^-1 + K, a_nu = -w . v_nu / h_nu) over
# Fraction, for integer alpha, beta and rational c, lambda.  It shares the
# formulas of the connection theory with the library but none of its
# arithmetic, so it decides what rounding alone cannot.


def _exact_gammas(alpha, beta, n):
    """gamma1_k and gamma2_k (gamma2_0 = 0) of the monic Jacobi recurrence,
    k = 0..n, as in jacobi.gamma1 and jacobi.gamma2."""
    a, b = Fraction(alpha), Fraction(beta)
    g1, g2 = [(b - a) / (a + b + 2)], [Fraction(0)]
    for k in range(1, n + 1):
        s = 2 * k + a + b
        g1.append((b * b - a * a) / (s * (s + 2)))
        if k == 1:
            g2.append(4 * (1 + a) * (1 + b) / (s * s * (s + 1)))
        else:
            g2.append(4 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s * s - 1)))
    return g1, g2


def exact_jacobi_row(alpha, beta, points, n):
    """a_0..a_n with S_n = sum_nu a_nu P_nu, exactly, for integer alpha and
    beta and points [(c, [(k, lambda), ...]), ...] with rational c, lambda."""
    g1, g2 = _exact_gammas(alpha, beta, n)
    h = [Fraction(2 ** (alpha + beta + 1) * factorial(alpha) * factorial(beta), factorial(alpha + beta + 1))]
    for k in range(1, n + 1):
        h.append(g2[k] * h[-1])
    pairs = [(Fraction(c), k, Fraction(lam)) for c, terms in points for k, lam in terms]
    # values[nu][i] = P_nu^(k_i)(c_i), by the differentiated recurrence.
    top = max((k for _, k, _ in pairs), default=0)
    rows = {c: [[Fraction(1)] + [Fraction(0)] * top] for c, _, _ in pairs}
    for c, table in rows.items():
        prev2 = [Fraction(0)] * (top + 1)
        for nu in range(1, n + 1):
            prev = table[-1]
            table.append([(c - g1[nu - 1]) * prev[k] + (k * prev[k - 1] if k else 0) - g2[nu - 1] * prev2[k]
                          for k in range(top + 1)])
            prev2 = prev
    values = [[rows[c][nu][k] for c, k, _ in pairs] for nu in range(n + 1)]
    d = len(pairs)
    system = [[sum(values[nu][i] * values[nu][j] / h[nu] for nu in range(n)) + (1 / lam if i == j else 0)
               for j in range(d)] + [values[n][i]] for i, (_, _, lam) in enumerate(pairs)]
    for col in range(d):
        pivot = next(r for r in range(col, d) if system[r][col] != 0)
        system[col], system[pivot] = system[pivot], system[col]
        for r in range(d):
            if r != col and system[r][col] != 0:
                f = system[r][col] / system[col][col]
                system[r] = [x - f * y for x, y in zip(system[r], system[col])]
    w = [system[i][d] / system[i][i] for i in range(d)]
    return [-sum(wi * vi for wi, vi in zip(w, values[nu])) / h[nu] for nu in range(n)] + [Fraction(1)]


def exact_series(alpha, beta, coeffs, x):
    """sum_nu coeffs[nu] P_nu(x), exactly, with P_nu from the monic
    recurrence; x rational."""
    g1, g2 = _exact_gammas(alpha, beta, len(coeffs))
    x = Fraction(x)
    prev, cur, acc = Fraction(0), Fraction(1), Fraction(0)
    for nu, a in enumerate(coeffs):
        acc += a * cur
        prev, cur = cur, (x - g1[nu]) * cur - g2[nu] * prev
    return acc


def exact_monomial(alpha, beta, coeffs):
    """sum_nu coeffs[nu] P_nu in ascending monomial coefficients, exactly."""
    g1, g2 = _exact_gammas(alpha, beta, len(coeffs))
    zero = [Fraction(0)] * len(coeffs)
    prev, cur, out = zero, [Fraction(1)] + zero[1:], zero
    for nu, a in enumerate(coeffs):
        out = [o + a * p for o, p in zip(out, cur)]
        # P_{nu+1} = (x - gamma1_nu) P_nu - gamma2_nu P_{nu-1}, cut to deg n.
        prev, cur = cur, [s - g1[nu] * p - g2[nu] * q for s, p, q in zip([Fraction(0)] + cur, cur, prev)]
    return out

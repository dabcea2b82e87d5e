"""The paper's identities as referees for the library.

None of these is on a path that the CLI runs: each restates a result of
the theory (the Jacobi norms by log-Gamma sums, Taylor polynomials of a
monomial form, the closed Christoffel-Darboux kernel, Cramer recovery of P_n,
the n-fold raising product, the Lambda law for the leading coefficient of
Delta, quasi-orthogonality, P_n(1) in closed form, the logarithmic energy,
the exact S_n by Gram-Schmidt over Fraction, the exact Jacobi row of S_n by
the family's own algorithm over Fraction, its exact ladder and ODE, and the
exact zeros of delta and phi1 at and near the sources) so that a test can
hold the library's construction against it.
"""

from fractions import Fraction
from math import comb, factorial

import mpmath
from mpmath import mpf

from jacobisobolev.electrostatics import FieldDecomposition, SingularConfiguration
from jacobisobolev.jacobi import JacobiCache, JacobiParams, gamma2
from jacobisobolev.ladder import LadderData, build_ladder, connection_level
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
    # (x - c)^m for c <= -1 and (c - x)^m = (-1)^m (x - c)^m otherwise.
    rho_hat = Poly.one()
    for p in product.points:
        m = p.max_order + 1
        rho_hat = rho_hat * Poly.from_roots([p.c] * m) * (1 if p.c <= -1 else (-1) ** m)
    sn = family.poly(n)
    worst = mpf(0)
    for i in range(n - d):
        val = abs(inner_mu(sn, rho_hat * Poly.from_roots([0] * i), family.jacobi_cache))
        worst = max(worst, val)
    return worst


def delta_leading_expected(family: SobolevFamily, n: int) -> mpf:
    """Expected leading coefficient of Delta_n from the Lambda law."""
    d = family.product.d
    g2 = gamma2(family.product.jacobi, n - 1)
    b2p = g2 * connection_level(family, n - 1)[1]
    lead = b2p.coeff(d - 1)
    if abs(lead) <= tol(2) * max(b2p.max_abs_coeff(), mpf(1)):
        return mpf(1)
    h = family.jacobi_cache.norm(n - 2)
    return 1 + family.lambda_form(n - 1) / (g2 * h)


def _divide(num: Poly, den: Poly, what: str) -> Poly:
    """num / den at the working precision, asserting a remainder within
    tol(3) of max(1, |num|); the referee's own rule, shared with no library
    check."""
    quot, rem = divmod(num, den)
    residual = rem.max_abs_coeff()
    assert residual <= tol(3) * max(num.max_abs_coeff(), mpf(1)), f"{what}: remainder {residual}"
    return quot


def recover_jacobi(ld: LadderData, family: SobolevFamily):
    """Reconstruct (P_n, P_{n-1}) from (S_n, S_{n-1}) via Cramer's rule."""
    n = ld.n
    rho = family.product.rho()
    sn, sm = family.poly(n), family.poly(n - 1)
    pn = _divide(rho * (ld.D2 * sn - ld.B2 * sm), ld.Delta, "P_n recovery")
    pm = _divide(rho * (ld.A2 * sm - ld.C2 * sn), ld.Delta, "P_{n-1} recovery")
    return pn, pm


def compose_raising(family: SobolevFamily, n: int) -> Poly:
    """S_n as the n-fold raising-operator product applied to S_0 = 1."""
    f = Poly.one()
    for m in range(1, n + 1):
        ld = build_ladder(family, m)
        f = _divide(ld.q3 * f + ld.q0 * f.deriv(), ld.q4, f"raising step {m}")
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


def _exact_solve(alpha, beta, points, n):
    """The family's degree-n solve over Fraction: (g1, g2, h, pairs, rows, w)
    with pairs [(c, k, lambda)] in the order of points, rows[c][nu][k] =
    P_nu^(k)(c) for nu <= n and k up to the largest order, by the
    differentiated recurrence, and w the solution of (L^-1 + K_{n-1}) w = v_n
    by Gauss-Jordan elimination, so that s_n = w / lambda."""
    g1, g2 = _exact_gammas(alpha, beta, n)
    h = [Fraction(2 ** (alpha + beta + 1) * factorial(alpha) * factorial(beta), factorial(alpha + beta + 1))]
    for k in range(1, n + 1):
        h.append(g2[k] * h[-1])
    pairs = [(Fraction(c), k, Fraction(lam)) for c, terms in points for k, lam in terms]
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
    return g1, g2, h, pairs, rows, w


def exact_jacobi_row(alpha, beta, points, n):
    """a_0..a_n with S_n = sum_nu a_nu P_nu, exactly, for integer alpha and
    beta and points [(c, [(k, lambda), ...]), ...] with rational c, lambda."""
    _, _, h, pairs, rows, w = _exact_solve(alpha, beta, points, n)
    return [-sum(wi * rows[c][nu][k] for wi, (c, k, _) in zip(w, pairs)) / h[nu] for nu in range(n)] + [Fraction(1)]


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


# Exact ladder and ODE: the connection levels, the C/D elimination, the
# q-polynomials and the ODE coefficients as ladder.py states them, over
# Fraction from the exact solve above.


class _QPoly:
    """A polynomial over Fraction, ascending coefficients, no trailing zero."""

    def __init__(self, coeffs=()):
        cs = [Fraction(x) for x in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = cs

    @classmethod
    def from_roots(cls, roots):
        out = cls([1])
        for r in roots:
            out = out * cls([-r, 1])
        return out

    def __add__(self, other):
        a, b = sorted((self.coeffs, other.coeffs), key=len, reverse=True)
        return _QPoly([x + y for x, y in zip(a, b)] + a[len(b):])

    def __neg__(self):
        return _QPoly([-x for x in self.coeffs])

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if not isinstance(other, _QPoly):
            return _QPoly([other * x for x in self.coeffs])
        out = [Fraction(0)] * max(len(self.coeffs) + len(other.coeffs) - 1, 0)
        for i, x in enumerate(self.coeffs):
            for j, y in enumerate(other.coeffs):
                out[i + j] += x * y
        return _QPoly(out)

    __rmul__ = __mul__

    def deriv(self):
        return _QPoly([i * x for i, x in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __divmod__(self, den):
        rem, dn = list(self.coeffs), len(den.coeffs) - 1
        quot = [Fraction(0)] * max(len(rem) - dn, 0)
        for k in reversed(range(len(quot))):
            quot[k] = rem[k + dn] / den.coeffs[-1]
            for j, y in enumerate(den.coeffs):
                rem[k + j] -= quot[k] * y
        return _QPoly(quot), _QPoly(rem)

    def exact_div(self, den, what):
        """self / den, asserting a zero remainder."""
        quot, rem = divmod(self, den)
        assert not rem.coeffs, f"{what}: nonzero remainder"
        return quot


def _exact_ladder_coeffs(a, b, m):
    """(a_m(x), b_m, c_m(x), d_m) of jacobi.ladder_coeffs, with the cancelled
    forms of c_0 and b_1 (a_0 = b_0 = 0)."""
    s = 2 * m + a + b
    if m == 0:
        return _QPoly(), Fraction(0), _QPoly([a - b, a + b]), -(s - 1)
    b_coef = 4 * (1 + a) * (1 + b) / (s * s) if m == 1 else 4 * m * (m + a) * (m + b) * (m + a + b) / (s * s * (s - 1))
    return _QPoly([-m * (b - a) / s, -m]), b_coef, _QPoly([(m + a + b) * (a - b) / s, m + a + b]), -(s - 1)


ODE_KEYS = ("q0", "q1", "q2", "q3", "q4", "ode_p2", "ode_p1", "ode_p0")


def exact_ladder(alpha, beta, points, n):
    """Lambda_n, q0..q4 and P0..P2 of S_n (n >= 1) exactly, keyed by the
    names of the `ode` report, for integer alpha and beta and points
    [(c, [(k, lambda), ...]), ...] with rational c, lambda.  Asserts that rho
    divides Delta and that rho_(d-N) divides Delta1, Delta2 and Delta3."""
    polys, lam_n = _exact_bundle(alpha, beta, points, n)
    return dict({key: polys[key].coeffs for key in ODE_KEYS}, lambda_n=lam_n)


def _exact_bundle(alpha, beta, points, n):
    """The ODE polynomials of exact_ladder and delta, phi1 as _QPoly, keyed
    by name, and Lambda_n."""
    a, b = Fraction(alpha), Fraction(beta)
    orders = {Fraction(c): max(k for k, _ in terms) for c, terms in points}

    def rho_minus(drop):
        """prod_j (x - c_j)^(d_j + 1 - drop.get(c_j, 0))."""
        return _QPoly.from_roots([c for c, dj in orders.items() for _ in range(dj + 1 - drop.get(c, 0))])

    def taylor(derivs, c, k):
        return sum((_QPoly.from_roots([c] * i) * (derivs[i] / factorial(i)) for i in range(k + 1)), _QPoly())

    rho, one_minus_x2 = rho_minus({}), _QPoly([1, 0, -1])

    def level(m):
        """(A2, B2, A3, B3, Lambda_m, gamma1, gamma2) at level m."""
        g1, g2, h, pairs, rows, w = _exact_solve(alpha, beta, points, m)
        a2, b2 = rho, _QPoly()
        if m > 0:
            for (c, k, lam), wi in zip(pairs, w):
                coef = factorial(k) * lam * (wi / lam) / h[m - 1]  # k! lambda s_m / h_(m-1)
                rjk = rho_minus({c: k + 1})
                a2 = a2 - coef * (taylor(rows[c][m - 1], c, k) * rjk)
                b2 = b2 + coef * (taylor(rows[c][m], c, k) * rjk)
        a_hat, b_hat, c_hat, d_hat = _exact_ladder_coeffs(a, b, m)
        a3 = a2.deriv() * one_minus_x2 + a_hat * a2 + d_hat * b2
        b3 = b2.deriv() * one_minus_x2 + b_hat * a2 + c_hat * b2
        lam_m = sum((wi * rows[c][m][k] for (c, k, _), wi in zip(pairs, w)), Fraction(0))
        return a2, b2, a3, b3, lam_m, g1, g2

    a2n, b2n, a3n, b3n, lam_n, g1, g2 = level(n)
    a2p, b2p, a3p, b3p, _, _, _ = level(n - 1)
    shift = _QPoly([-g1[n - 1], 1])
    if n >= 2:
        inv = 1 / g2[n - 1]
        c2, d2 = b2p * -inv, a2p + shift * b2p * inv
        c3, d3 = b3p * -inv, a3p + shift * b3p * inv
    else:
        # b_0 / gamma2_0 continued as alpha + beta + 1.
        ratio = a + b + 1
        c2, d2 = _QPoly(), a2p
        c3, d3 = a2p * -ratio, a3p + shift * a2p * ratio
    delta_big = a2n * d2 - c2 * b2n
    delta_small = delta_big.exact_div(rho, "Delta / rho")
    d1, dd2, dd3 = b3n * a2n - a3n * b2n, b3n * c2 - a3n * d2, b2n * c3 - a2n * d3
    rho_excess = rho_minus({c: 1 for c in orders})
    phi1, _, _ = [delta_i.exact_div(rho_excess, f"{what} / rho_(d-N)")
                  for what, delta_i in (("Delta1", d1), ("Delta2", dd2), ("Delta3", dd3))]
    field_part = one_minus_x2 * rho.deriv() * delta_small
    q0, q1, q2, q3 = one_minus_x2 * delta_big, d1, field_part + dd2, field_part + dd3
    q4 = c3 * d2 - d3 * c2
    p2 = q1 * q0 * q0
    p1 = q0 * (q1 * q2 + q1 * q3 + q0.deriv() * q1 - q0 * q1.deriv())
    p0 = q1 * q2 * q3 + q0 * (q2.deriv() * q1 - q2 * q1.deriv()) - q4 * q1 * q1
    polys = {"q0": q0, "q1": q1, "q2": q2, "q3": q3, "q4": q4, "ode_p2": p2, "ode_p1": p1, "ode_p0": p0}
    return dict(polys, delta=delta_small, phi1=phi1), lam_n


def _sturm_count(p, lo, hi):
    """Distinct real zeros of p in (lo, hi], by Sturm's theorem; neither end
    may be a zero."""
    assert p(lo) != 0 and p(hi) != 0
    chain = [p, p.deriv()]
    while chain[-1].coeffs:
        chain.append(-divmod(chain[-2], chain[-1])[1])

    def variations(x):
        signs = [v > 0 for v in (q(x) for q in chain[:-1]) if v != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return variations(lo) - variations(hi)


def exact_field(alpha, beta, points, n, exponents=(6, 9, 12, 15)):
    """delta = Delta / rho and phi1 = Delta1 / rho_(d-N) of S_n (n >= 1) over
    Fraction, as exact_ladder takes them, and their structure at every source
    c (the endpoints -1, 1 and the mass points).  Returns (coeffs, structure):
    coeffs[name] the ascending coefficients for name in ("delta", "phi1"),
    and structure[name, c] = (multiplicity, near): the exact multiplicity of
    the zero at c, by repeated exact division by x - c, and near[e] the
    number of the other distinct real zeros within 10^-e of c, by Sturm's
    theorem on the quotient, for each e in exponents."""
    polys, _ = _exact_bundle(alpha, beta, points, n)
    sources = sorted({Fraction(-1), Fraction(1)} | {Fraction(c) for c, _ in points})
    radii = {e: Fraction(1, 10**e) for e in exponents}
    structure = {}
    for name in ("delta", "phi1"):
        for c in sources:
            p, mult = polys[name], 0
            while p(c) == 0:
                p, mult = p.exact_div(_QPoly([-c, 1]), f"{name} at {c}"), mult + 1
            structure[name, c] = (mult, {e: _sturm_count(p, c - r, c + r) for e, r in radii.items()})
    return {name: polys[name].coeffs for name in ("delta", "phi1")}, structure

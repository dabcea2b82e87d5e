"""Arbitrary-precision numerical substrate: scalars, dense polynomials,
small dense linear algebra, and polynomial root finding.

All scalars are mpmath ``mpf`` values evaluated at the current working
precision ``mp.prec``, which the caller sets (the CLI from its config;
importing the package leaves it alone).  Every object here is immutable
after construction and every operation is a pure function of its inputs.

Root finding (series_roots) runs one Aberth iteration in two stages.  The
double-precision stage iterates in Python ``complex`` and evaluates the
series with series_values on float copies of its inputs.  The stage at
working precision iterates in ``mpc`` and evaluates the series with
FixedPointSeries, in Python ``int`` fixed point with a documented error
bound; its pull sum takes the terms of well-separated roots in ``complex``
and only the others in ``mpc`` (aberth_roots).  series_values in
``mpf``/``mpc`` arithmetic is the tests' referee.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, Sequence

import mpmath
from mpmath import libmp, mp, mpc, mpf

# Real-root snapping threshold of aberth_roots.
ROOT_SNAP_TOL = mpf("1e-20")

# Imaginary offsets, with alternating sign, of the double-precision Aberth
# seeds (absolute) and of the real roots it returns (relative): the iteration
# cannot leave the real axis from real seeds, and a polynomial may have
# complex zeros.
SEED_NUDGE = 1e-3
ROOT_NUDGE = 1e-14


class NumKernelError(Exception):
    pass


class DegenerateDivisor(NumKernelError):
    """Division by the zero polynomial."""


class DegenerateInput(NumKernelError):
    """Operation applied to a degenerate argument (e.g. zero polynomial)."""


class SingularSystem(NumKernelError):
    """solve_dense was given a matrix that is not positive definite: its
    Cholesky factorisation met a pivot that is not strictly positive."""


class EigenFailure(NumKernelError):
    """The symmetric eigensolver failed to converge."""


class RootFailure(NumKernelError):
    """The polynomial root finder failed to converge."""


def precision_digits() -> int:
    """Decimal digits carried by the current working precision."""
    return int(math.floor(mp.prec * math.log10(2)))


def tol(frac: int) -> mpf:
    """Tolerance 10^-(precision_digits/frac), the convention used throughout."""
    return mpf(10) ** -(precision_digits() // frac)


class Poly:
    """Dense real polynomial with ascending-order coefficients.

    The zero polynomial is represented by an empty coefficient tuple and has
    degree -1 (sentinel).  Exact zeros in the leading position are stripped
    on construction.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        self.coeffs = Poly._stripped([mpf(c) for c in coeffs])

    @staticmethod
    def _stripped(cs: list) -> tuple:
        while cs and cs[-1] == 0:
            cs.pop()
        return tuple(cs)

    @classmethod
    def _of(cls, cs: list) -> "Poly":
        """The Poly of mpf coefficients already at working precision, built
        without a second rounding pass."""
        p = cls.__new__(cls)
        p.coeffs = cls._stripped(cs)
        return p

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @classmethod
    def from_roots(cls, roots: Sequence) -> "Poly":
        p = cls.one()
        for r in roots:
            p = p * cls((-mpf(r), 1))
        return p

    # -- basic queries ------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> mpf:
        if not self.coeffs:
            return mpf(0)
        return self.coeffs[-1]

    def coeff(self, k: int) -> mpf:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return mpf(0)

    def max_abs_coeff(self) -> mpf:
        if not self.coeffs:
            return mpf(0)
        return max(abs(c) for c in self.coeffs)

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        return Poly._sum(self.coeffs, other.coeffs)

    def __neg__(self) -> "Poly":
        return Poly._of([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        # Negated first and then added, so that a coefficient carrying more
        # bits than the working precision is rounded as self + (-other) does.
        return Poly._sum(self.coeffs, [-c for c in other.coeffs])

    @staticmethod
    def _sum(a: Sequence, b: Sequence) -> "Poly":
        if len(a) < len(b):
            a, b = b, a
        # +c rounds a copied coefficient to the working precision, as mpf(c).
        return Poly._of([x + y for x, y in zip(a, b)] + [+c for c in a[len(b):]])

    def __mul__(self, other) -> "Poly":
        """Scalar multiple, or the product: exact in Python ints over one
        common binary exponent per factor (_integers), each coefficient of
        the result rounded once to the working precision."""
        if not isinstance(other, Poly):
            c = mpf(other)
            return Poly._of([c * a for a in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Poly.zero()
        xs, x_exp = _integers(self.coeffs)
        ys, y_exp = _integers(other.coeffs)
        acc = [0] * (len(xs) + len(ys) - 1)
        for i, a in enumerate(xs):
            if a:
                for k, b in enumerate(ys, i):
                    acc[k] += a * b
        exp = x_exp + y_exp
        prec, rounding = mp._prec_rounding
        make, from_man_exp = mp.make_mpf, libmp.from_man_exp
        return Poly._of([make(from_man_exp(v, exp, prec, rounding)) for v in acc])

    __rmul__ = __mul__

    def __divmod__(self, other: "Poly"):
        if other.is_zero():
            raise DegenerateDivisor("division by the zero polynomial")
        if self.degree < other.degree:
            return Poly.zero(), self
        rem = list(self.coeffs)
        dn = other.degree
        lead = other.coeffs[-1]
        quot = [mpf(0)] * (self.degree - dn + 1)
        for k in range(len(quot) - 1, -1, -1):
            q = rem[k + dn] / lead
            quot[k] = q
            for j in range(dn + 1):
                rem[k + j] -= q * other.coeffs[j]
        return Poly(quot), Poly(rem[:dn])

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __pow__(self, exp: int) -> "Poly":
        if exp < 0:
            raise ValueError("negative polynomial powers are not defined")
        out = Poly.one()
        base = self
        for _ in range(exp):
            out = out * base
        return out

    def deriv(self, k: int = 1) -> "Poly":
        p = self
        for _ in range(k):
            p = Poly._of([i * c for i, c in enumerate(p.coeffs) if i > 0])
        return p

    def __call__(self, x):
        # Horner's scheme; accepts mpf or mpc arguments.
        acc = mpf(0) if not isinstance(x, mpc) else mpc(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self) -> str:
        return f"Poly({[mpmath.nstr(c, 12) for c in self.coeffs]})"

    def _mpmath_(self, prec, rounding):
        # mpmath converts the other operand of mpf * Poly through this hook
        # first; failing here makes it return NotImplemented (so __rmul__
        # runs) before its fallback formats the polynomial into a TypeError.
        raise TypeError("a Poly is not an mpmath scalar")


def _integers(coeffs: Sequence) -> tuple:
    """(ints, e) with coeffs[i] == ints[i] 2^e exactly: e is the smallest
    exponent of a nonzero coefficient (an exact zero sets none).  Raises
    DegenerateInput on a non-finite coefficient, which is never read as 0."""
    raws = [c._mpf_ for c in coeffs]
    if any(not man and exp for _, man, exp, _ in raws):
        raise DegenerateInput("polynomial product of a non-finite coefficient")
    e = min(exp for _, man, exp, _ in raws if man)
    return [(-man if sign else man) << (exp - e) if man else 0 for sign, man, exp, _ in raws], e


def relative_residual(terms: Sequence[Poly]) -> mpf:
    """max |coeff(sum of terms)| / max(1, largest |coeff| of any term): what
    is left of polynomial terms that cancel, relative to their size."""
    resid = sum(terms, Poly.zero()).max_abs_coeff()
    return resid / max(mpf(1), *(t.max_abs_coeff() for t in terms))


def sym_eigen(M: mpmath.matrix) -> list:
    """Eigenvalues of a symmetric matrix (mpmath's ``eigsy``), sorted ascending."""
    try:
        return sorted(mpmath.eigsy(M, eigvals_only=True))
    except RuntimeError as exc:
        raise EigenFailure(str(exc)) from exc


def cholesky(A: Sequence[Sequence]) -> list:
    """Rows of the lower Cholesky factor of the symmetric A, given as rows;
    SingularSystem where a pivot is not strictly positive.  Each inner product is summed exactly by
    mpmath.fdot, then rounded (mpmath.cholesky rejects every pivot below an absolute epsilon)."""
    n = len(A)
    L = [[mpf(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            s = A[i][j] - mpmath.fdot(L[i][:j], L[j][:j])
            if i == j:
                if s <= 0:
                    raise SingularSystem("matrix is not positive definite")
                L[i][i] = mpmath.sqrt(s)
            else:
                L[i][j] = s / L[j][j]
    return L


def solve_dense(A: Sequence[Sequence], b: Sequence, factor: list | None = None) -> list:
    """Solve A x = b for a symmetric positive definite A, given as a list of
    rows, by its Cholesky factor (given, or factored here) and two triangular
    solves; SingularSystem where A is not positive definite.  No threshold
    scaled to the entries is involved, so a badly scaled A is solved as is."""
    n = len(A)
    if any(len(row) != n for row in A) or len(b) != n:
        raise ValueError("dimension mismatch")
    L = factor or cholesky(A)
    y = []
    for i, row in enumerate(L):
        y.append((b[i] - mpmath.fdot(row[:i], y)) / row[i])
    x = [mpf(0)] * n
    for i in reversed(range(n)):
        x[i] = (y[i] - mpmath.fdot((L[k][i], x[k]) for k in range(i + 1, n))) / L[i][i]
    return x


def cholesky_pd(M: Sequence[Sequence]) -> bool:
    """True iff the symmetric M, given as a list of rows, admits a Cholesky
    factorization with strictly positive pivots."""
    try:
        cholesky(M)
    except SingularSystem:
        return False
    return True


def poly_roots(p: Poly) -> list:
    """All roots of p as (re, im) pairs, as series_roots returns them: a
    monomial is the series over the recurrence with gamma1 = gamma2 = 0."""
    if p.is_zero():
        raise DegenerateInput("zero polynomial has no well-defined roots")
    if p.degree < 1:
        return []
    return series_roots(list(p.coeffs), [0] * p.degree, [0] * p.degree)


def series_values(coeffs, gamma1s, gamma2s, x):
    """(f(x), f'(x), sum_k |coeffs[k] P_k(x)|) for f = sum_k coeffs[k] P_k,
    by the monic three-term recurrence with gamma1s[k], gamma2s[k]: O(len(coeffs))
    operations, in the arithmetic of the arguments (mpf, mpc, float or complex)."""
    p_prev, p = 0, 1
    d_prev, d = 0, 0
    value, slope, scale = coeffs[0], 0, abs(coeffs[0])
    for k in range(len(coeffs) - 1):
        shift = x - gamma1s[k]
        g2 = gamma2s[k]
        p_prev, p, d_prev, d = p, shift * p - g2 * p_prev, d, p + shift * d - g2 * d_prev
        term = coeffs[k + 1] * p
        value += term
        slope += coeffs[k + 1] * d
        scale += abs(term)
    return value, slope, scale


def _raw(x):
    """The raw mpf tuple of x, not rounded to the working precision."""
    return x._mpf_ if isinstance(x, mpf) else mpf(x)._mpf_


class FixedPointSeries:
    """f = sum_k coeffs[k] P_k, the P_k monic with recurrence coefficients
    gamma1s[k], gamma2s[k], evaluated at working precision p in integer fixed
    point: the recurrences of series_values on Python ints with F fractional
    bits, each product shifted right by F.

    The inputs are taken as they are, not rounded to p bits.  The integer
    form is built once: the coefficients are divided by 2^e, the power of two
    at or above the largest |coeffs[k]| (exact, and the roots stay), and
    they, the gammas and the argument are truncated to F bits.
    Products are exact, each step of the recurrence floors each component
    once, and the sums of c_k P_k, c_k P_k' and |c_k| |P_k| are exact
    (|P_k| by isqrt); value, slope and scale are returned exactly.

    Error bound.  Let u = 2^(-F), A = max_k |z - gamma1s[k]|,
    B = max_k |gamma2s[k]|, and R the larger of 1 and the positive root of
    t^2 = A t + B.  Then each |P_k| in fixed point is at most
    (1 + 1.5 u k) R^k, its error at most 5 u k R^k (truncated inputs and
    floors, carried by the recurrence), and the value's error at most

        E(z) = 2^(e - F) 2 (n + 1) (1 + 2.5 n) R^n,

    the factor 2 covering 1 + 1.5 u n, the truncations in A and B, and the
    float arithmetic of R.  An evaluation starts at F = p + 64 + 2n, and
    where E(z) > 2^(-p) scale(z) it runs again with F raised by the deficit
    in bits (doubled while every term is 0, at most MAX_RUNS runs in all).
    """

    MAX_RUNS = 4

    def __init__(self, coeffs: Sequence, gamma1s: Sequence, gamma2s: Sequence):
        n = self.n = len(coeffs) - 1
        self.prec = mp.prec
        self.coeffs = [_raw(c) for c in coeffs]
        self.gammas = [(_raw(g1), _raw(g2)) for g1, g2 in zip(gamma1s[:n], gamma2s[:n])]
        self.exp = max((exp + bc for _, man, exp, bc in self.coeffs if man), default=0)
        gamma1 = [libmp.to_float(g1) for g1, _ in self.gammas] or [0.0]
        self.gamma1_range = (min(gamma1), max(gamma1))
        self.gamma2_max = max((abs(libmp.to_float(g2)) for _, g2 in self.gammas), default=0.0)
        self.log2_count = math.log2(2 * (n + 1) * (1 + 2.5 * n))
        self.start_bits = self.prec + 64 + 2 * n
        self.start_form = self._form(self.start_bits)

    def _form(self, bits: int):
        """(2^(bits - e) c_k, 2^bits (gamma1_k, gamma2_k)) as ints."""
        return (
            [libmp.to_fixed(c, bits - self.exp) for c in self.coeffs],
            [(libmp.to_fixed(g1, bits), libmp.to_fixed(g2, bits)) for g1, g2 in self.gammas],
        )

    def _log2_growth(self, z) -> float:
        """n log2 R of the bound E(z)."""
        w = complex(z)
        lo, hi = self.gamma1_range
        a = max(abs(w - lo), abs(w - hi))
        r = (a + math.sqrt(a * a + 4 * self.gamma2_max)) / 2
        if not math.isfinite(r):
            return self.n * (mpmath.mag(z) + 1.0)  # R <= 2 |z| <= 2^(mag(z) + 1)
        return self.n * math.log2(max(1.0, r))

    def evaluate(self, z):
        """(f(z), f'(z), sum_k |coeffs[k] P_k(z)|) for an mpf or mpc z, as
        series_values returns them."""
        return self._evaluate(z)[:3]

    def evaluate_bounded(self, z):
        """evaluate(z) and the bound E(z) on the error of its value."""
        value, slope, scale, bits, growth = self._evaluate(z)
        return value, slope, scale, mpf(2) ** (self.exp - bits + self.log2_count + growth)

    def _evaluate(self, z):
        real = not isinstance(z, mpc)
        xr, xi = (_raw(z), libmp.fzero) if real else z._mpc_
        growth = self._log2_growth(z)
        bits, form = self.start_bits, self.start_form
        for run in range(self.MAX_RUNS):
            value, slope, total = self._run(form, bits, xr, xi)
            # log2 of E(z) / (2^(-p) scale(z)).
            deficit = self.log2_count + growth + self.prec + bits - math.log2(total) if total else math.inf
            if deficit <= 0 or run == self.MAX_RUNS - 1:
                break
            bits += math.ceil(deficit) + 4 if total else bits
            form = self._form(bits)
        exp = self.exp - 2 * bits
        value, slope = (
            mp.make_mpf(libmp.from_man_exp(v[0], exp))
            if real
            else mp.make_mpc((libmp.from_man_exp(v[0], exp), libmp.from_man_exp(v[1], exp)))
            for v in (value, slope)
        )
        return value, slope, mp.make_mpf(libmp.from_man_exp(total, exp)), bits, growth

    def _run(self, form, F: int, xr, xi):
        """2^(2F - e) times (f, f') as (re, im) int pairs and sum_k |c_k P_k|,
        at F fractional bits."""
        coeffs, gammas = form
        xr, xi = libmp.to_fixed(xr, F), libmp.to_fixed(xi, F)
        pr, pi, qr, qi = 1 << F, 0, 0, 0  # P_k, P_{k-1}
        dr, di, er, ei = 0, 0, 0, 0  # P_k', P_{k-1}'
        vr, vi = coeffs[0] << F, 0
        sr = si = 0
        total = abs(coeffs[0]) << F
        isqrt = math.isqrt
        for c, (g1, g2) in zip(coeffs[1:], gammas):
            ar = xr - g1
            pr, pi, qr, qi, dr, di, er, ei = (
                (ar * pr - xi * pi - g2 * qr) >> F,
                (ar * pi + xi * pr - g2 * qi) >> F,
                pr,
                pi,
                pr + ((ar * dr - xi * di - g2 * er) >> F),
                pi + ((ar * di + xi * dr - g2 * ei) >> F),
                dr,
                di,
            )
            vr += c * pr
            vi += c * pi
            sr += c * dr
            si += c * di
            total += abs(c) * (isqrt(pr * pr + pi * pi) if pi else abs(pr))
        return (vr, vi), (sr, si), total


def series_roots(coeffs: Sequence, gamma1s: Sequence, gamma2s: Sequence) -> list:
    """All roots of sum_k coeffs[k] P_k, the P_k monic with recurrence
    coefficients gamma1s[k], gamma2s[k], as aberth_roots returns them: Aberth
    iteration at working precision on FixedPointSeries, seeded with the zeros
    from a double-precision run of the same iteration on series_values in
    floats (_double_seeds)."""
    seeds = _double_seeds(coeffs, gamma1s, gamma2s)
    return aberth_roots(FixedPointSeries(coeffs, gamma1s, gamma2s).evaluate, seeds)


def _double_seeds(coeffs: Sequence, gamma1s: Sequence, gamma2s: Sequence) -> list:
    """Starting points for the Aberth iteration on sum_k coeffs[k] P_k at
    working precision: its zeros from the same iteration run on float
    copies of the coefficients and the recurrence, in complex arithmetic
    from nudged Chebyshev points, each real one nudged off the axis by
    ROOT_NUDGE (1 + |x|).  When that run fails or leaves a non-finite or
    repeated root, the nudged Chebyshev points themselves."""
    n = len(coeffs) - 1
    chebyshev = [
        complex(math.cos((2 * i + 1) * math.pi / (2 * n)), SEED_NUDGE if i % 2 == 0 else -SEED_NUDGE)
        for i in range(n)
    ]
    try:
        floats = [[float(v) for v in vs[: n + 1]] for vs in (coeffs, gamma1s, gamma2s)]
        with mp.workprec(53):
            roots = aberth_roots(lambda z: series_values(*floats, z), chebyshev)
        seeds = [
            mpc(re, im or (ROOT_NUDGE if i % 2 == 0 else -ROOT_NUDGE) * (1 + abs(re)))
            for i, (re, im) in enumerate(roots)
        ]
    except (RootFailure, ArithmeticError):
        seeds = []
    if len(set(seeds)) == n and all(mpmath.isfinite(z) for z in seeds):
        return seeds
    return [mpc(z) for z in chebyshev]


# Sweep cap of aberth_roots below 512 bits.  Seeded from the double-precision
# stage of series_roots, a simple zero takes about 3 sweeps; a pair
# converging linearly onto an exact double zero takes about p / 4, since its
# noise level needs |z - x| near 2^(-p/2).
ABERTH_MAX_SWEEPS = 200

# Relative separation above which a pull term of aberth_roots is taken from
# the complex copies of the iterates: their rounding then moves the term by
# at most about 2^-26 of itself.
PULL_FAR = 2.0**-26


def aberth_roots(evaluate, seeds: Sequence) -> list:
    """All roots of a real polynomial of degree len(seeds) by Aberth-Ehrlich
    iteration, as (re, im) pairs with im snapped to 0 when
    |im| < ROOT_SNAP_TOL (1 + |re|), and each nonreal root paired with its
    nearest conjugate into an exact conjugate pair, +i first
    (_conjugate_pairs); sorted by real part.

    ``evaluate(z)`` returns (p(z), p'(z), s(z)), where s(z) >= 0 bounds the
    sizes of the terms summed into p(z); ``seeds`` are distinct starting
    points, one per root.  The arithmetic is that of the seeds and of
    ``evaluate``.  series_roots runs it twice: in Python complex under
    mp.workprec(53) on series_values over floats, then in mpc at working
    precision p on FixedPointSeries.evaluate, which evaluates in integer
    fixed point and returns mpc values.  Sweeps are Gauss-Seidel (each
    update is used at once) and a root is frozen once its step is at most
    2^(-7p/8) (1 + |z|), or after the step taken from a point where
    |p(z)| <= n 2^(-p) s(z): there the value is rounding noise, as near a
    multiple zero, and no further step can gain.  Raises RootFailure after
    ABERTH_MAX_SWEEPS max(1, p // 256) sweeps.

    The step is N / (1 - N pull) with N = p(z) / p'(z) and pull =
    sum_{j != i} 1 / (z_i - z_j).  It vanishes exactly where p(z) = 0,
    whatever the pull, so the pull's accuracy shapes only the path and not
    the roots, whose accuracy is set by ``evaluate`` and the freeze rules.
    With mpc iterates the pull is therefore summed mostly in double
    precision (_pull): a term is taken in complex from double copies
    of the iterates when both are finite and farther apart than
    PULL_FAR (1 + |z_i|), and in mpc otherwise, for roots beyond the double
    range and for close pairs whose separation the copies would lose.
    """
    zs = list(seeds)
    n = len(zs)
    done_eps = mpf(2) ** (-(7 * mp.prec) // 8)
    noise_eps = n * mpf(2) ** -mp.prec
    max_sweeps = ABERTH_MAX_SWEEPS * max(1, mp.prec // 256)
    # Complex copies of mpc iterates (None where not finite), for the pull.
    copies = [_double_copy(z) for z in zs] if zs and isinstance(zs[0], mpc) else None
    active = set(range(n))
    for _ in range(max_sweeps):
        for i in sorted(active):
            z = zs[i]
            value, slope, scale = evaluate(z)
            if value == 0:
                active.discard(i)
                continue
            if slope == 0:
                raise RootFailure(f"degree-{n} Aberth iteration: zero derivative at {z}")
            ratio = value / slope
            step = ratio / (1 - ratio * _pull(zs, copies, i))
            zs[i] = z - step
            if copies:
                copies[i] = _double_copy(zs[i])
            if abs(step) <= done_eps * (1 + abs(zs[i])) or abs(value) <= noise_eps * scale:
                active.discard(i)
        if not active:
            roots = []
            for z in zs:
                re, im = mpf(z.real), mpf(z.imag)
                roots.append((re, mpf(0) if abs(im) < ROOT_SNAP_TOL * (1 + abs(re)) else im))
            return _conjugate_pairs(roots)
    raise RootFailure(f"degree-{n} Aberth iteration: no convergence in {max_sweeps} sweeps")


def _double_copy(z):
    """complex(z) for an mpc z, or None where that is not finite."""
    w = complex(z)
    return w if cmath.isfinite(w) else None


def _pull(zs: list, copies, i: int):
    """sum_{j != i} 1 / (zs[i] - zs[j]) in the arithmetic of zs, or, given
    the complex copies of mpc iterates, as an mpc: a term in complex from the
    copies where both are finite and farther apart than PULL_FAR (1 + |copy
    of zs[i]|), the other terms in mpc at working precision."""
    z, zf = zs[i], copies[i] if copies else None
    if zf is None:
        return sum(1 / (z - w) for j, w in enumerate(zs) if j != i)
    far = PULL_FAR * (1 + abs(zf))
    fast, exact = 0j, 0
    for j, wf in enumerate(copies):
        if j != i:
            if wf is not None and abs(d := zf - wf) > far:
                fast += 1 / d
            else:
                exact += 1 / (z - zs[j])
    return exact + mpc(fast)


def _conjugate_pairs(roots: list) -> list:
    """(re, im) roots of a real polynomial with each root of im > 0 paired
    to the nearest conjugate of a root of im < 0, the pair given their mean
    real part and mean |im|, sorted by real part then by -im (+i first)."""
    lower = [r for r in roots if r[1] < 0]
    out = [r for r in roots if r[1] == 0]
    for re, im in (r for r in roots if r[1] > 0):
        if not lower:
            out.append((re, im))
            continue
        re2, im2 = lower.pop(min(range(len(lower)), key=lambda j: abs(mpc(re - lower[j][0], im + lower[j][1]))))
        re, im = (re + re2) / 2, (im - im2) / 2
        out += [(re, im), (re, -im)]
    return sorted(out + lower, key=lambda r: (r[0], -r[1]))

"""Arbitrary-precision numerical substrate: scalars, dense polynomials,
small dense linear algebra, and polynomial root finding.

All scalars are mpmath ``mpf`` values evaluated at the current working
precision (default 256 mantissa bits, see :func:`set_precision`).  Every
object here is immutable after construction and every operation is a pure
function of its inputs.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import mpmath
from mpmath import mp, mpf, mpc

DEFAULT_PRECISION_BITS = 256

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
    """Linear system with a pivot below the singularity threshold."""


class EigenFailure(NumKernelError):
    """The symmetric eigensolver failed to converge."""


class RootFailure(NumKernelError):
    """The polynomial root finder failed to converge."""


def set_precision(bits: int = DEFAULT_PRECISION_BITS) -> None:
    """Set the working precision (mantissa bits) for all computations."""
    if bits < 53:
        raise ValueError("working precision below double makes no sense here")
    mp.prec = bits


def precision_digits() -> int:
    """Decimal digits carried by the current working precision."""
    return int(math.floor(mp.prec * math.log10(2)))


def tol(frac: int) -> mpf:
    """Tolerance 10^-(precision_digits/frac), the convention used throughout."""
    return mpf(10) ** -(precision_digits() // frac)


set_precision()


class Poly:
    """Dense real polynomial with ascending-order coefficients.

    The zero polynomial is represented by an empty coefficient tuple and has
    degree -1 (sentinel).  Exact zeros in the leading position are stripped
    on construction.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [mpf(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

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
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            c = mpf(other)
            return Poly(tuple(c * a for a in self.coeffs))
        if self.is_zero() or other.is_zero():
            return Poly.zero()
        out = [mpf(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

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
            p = Poly(tuple(i * c for i, c in enumerate(p.coeffs) if i > 0))
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


def _eigsy(M: mpmath.matrix, eigvals_only: bool):
    try:
        return mpmath.eigsy(M, eigvals_only=eigvals_only)
    except RuntimeError as exc:
        raise EigenFailure(str(exc)) from exc


def sym_eigen(M: mpmath.matrix) -> list:
    """Eigenvalues of a symmetric matrix (mpmath's ``eigsy``), sorted ascending."""
    return sorted(_eigsy(M, eigvals_only=True))


def sym_eigenvectors(M: mpmath.matrix):
    """(eigenvalues, eigenvector matrix) of a symmetric matrix, in mpmath's
    order: column i of the matrix belongs to eigenvalue i."""
    return _eigsy(M, eigvals_only=False)


def solve_dense(A: Sequence[Sequence], b: Sequence) -> list:
    """Solve A x = b by Gaussian elimination with partial pivoting."""
    n = len(A)
    if any(len(row) != n for row in A) or len(b) != n:
        raise ValueError("dimension mismatch")
    M = [[mpf(v) for v in row] + [mpf(b[i])] for i, row in enumerate(A)]
    scale = max((abs(v) for row in M for v in row), default=mpf(0))
    pivot_floor = tol(2) * max(scale, mpf(1))
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(M[r][col]))
        if abs(M[piv][col]) <= pivot_floor:
            raise SingularSystem(f"pivot below threshold at column {col}")
        M[col], M[piv] = M[piv], M[col]
        for r in range(col + 1, n):
            f = M[r][col] / M[col][col]
            if f == 0:
                continue
            for c in range(col, n + 1):
                M[r][c] -= f * M[col][c]
    x = [mpf(0)] * n
    for r in range(n - 1, -1, -1):
        acc = M[r][n]
        for c in range(r + 1, n):
            acc -= M[r][c] * x[c]
        x[r] = acc / M[r][r]
    return x


def cholesky_pd(M: mpmath.matrix) -> bool:
    """True iff the symmetric M admits a Cholesky factorization with strictly
    positive pivots.  (mpmath.cholesky instead rejects every pivot below an
    absolute epsilon.)"""
    n = M.rows
    L = [[mpf(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            s = M[i, j]
            for k in range(j):
                s -= L[i][k] * L[j][k]
            if i == j:
                if s <= 0:
                    return False
                L[i][i] = mpmath.sqrt(s)
            else:
                L[i][j] = s / L[j][j]
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


def series_roots(coeffs: Sequence, gamma1s: Sequence, gamma2s: Sequence) -> list:
    """All roots of sum_k coeffs[k] P_k, the P_k monic with recurrence
    coefficients gamma1s[k], gamma2s[k], as aberth_roots returns them: Aberth
    iteration at working precision, seeded with the zeros from a
    double-precision run of the same iteration (_double_seeds)."""
    seeds = _double_seeds(coeffs, gamma1s, gamma2s)
    return aberth_roots(lambda z: series_values(coeffs, gamma1s, gamma2s, z), seeds)


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


def aberth_roots(evaluate, seeds: Sequence) -> list:
    """All roots of a polynomial of degree len(seeds) by Aberth-Ehrlich
    iteration, as (re, im) pairs sorted by real part then imaginary, with
    im snapped to 0 when |im| < ROOT_SNAP_TOL (1 + |re|).

    ``evaluate(z)`` returns (p(z), p'(z), s(z)), where s(z) >= 0 bounds the
    sizes of the terms summed into p(z); ``seeds`` are distinct starting
    points, one per root.  The arithmetic is that of the seeds and of
    ``evaluate``: mpc at working precision p, or Python complex under
    mp.workprec(53).  Sweeps are Gauss-Seidel (each update is used at once)
    and a root is frozen once its step is at most 2^(-7p/8) (1 + |z|), or
    after the step taken from a point where |p(z)| <= n 2^(-p) s(z): there
    the value is rounding noise, as near a multiple zero, and no further
    step can gain.  Raises RootFailure after ABERTH_MAX_SWEEPS max(1, p // 256)
    sweeps.
    """
    zs = list(seeds)
    n = len(zs)
    done_eps = mpf(2) ** (-(7 * mp.prec) // 8)
    noise_eps = n * mpf(2) ** -mp.prec
    max_sweeps = ABERTH_MAX_SWEEPS * max(1, mp.prec // 256)
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
            pull = sum(1 / (z - w) for j, w in enumerate(zs) if j != i)
            step = ratio / (1 - ratio * pull)
            zs[i] = z - step
            if abs(step) <= done_eps * (1 + abs(zs[i])) or abs(value) <= noise_eps * scale:
                active.discard(i)
        if not active:
            roots = []
            for z in zs:
                re, im = mpf(z.real), mpf(z.imag)
                roots.append((re, mpf(0) if abs(im) < ROOT_SNAP_TOL * (1 + abs(re)) else im))
            return sorted(roots)
    raise RootFailure(f"degree-{n} Aberth iteration: no convergence in {max_sweeps} sweeps")

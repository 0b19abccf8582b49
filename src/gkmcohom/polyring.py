"""Homogeneous graded polynomials over Z and F_p in a fixed monomial order.

A weight is an integer vector of length k (the torus rank); it doubles as
the coefficient list of a linear form.  Polynomials of a fixed degree are
stored as dense coefficient vectors indexed by the graded-lex monomial
order with x1 > x2 > ... > xk, so a polynomial *is* a column vector for
the integer linear algebra with zero translation cost.

Degree -1 is allowed and denotes the zero polynomial (no monomials); it
shows up as the natural home of difference quotients of degree-0 classes.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .intlinalg import IntMatrix, kernel, unimodular_inverse

Weight = tuple[int, ...]


# ---------------------------------------------------------------------------
# weight helpers


def content(w) -> int:
    """gcd of the coordinates (0 for the zero vector)."""
    g = 0
    for x in w:
        g = gcd(g, x)
    return g


def sign_normalize(w) -> Weight:
    """Flip the sign so the first nonzero coordinate is positive."""
    for x in w:
        if x > 0:
            return tuple(w)
        if x < 0:
            return tuple(-y for y in w)
    return tuple(w)


def weights_parallel(a, b) -> bool:
    """True if a and b are linearly dependent over Q."""
    n = len(a)
    for i in range(n):
        for j in range(i + 1, n):
            if a[i] * b[j] - a[j] * b[i] != 0:
                return False
    return True


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def xgcd_vector(w) -> tuple[int, list[int]]:
    """(g, c) with g = gcd(w) >= 0 and sum(c_i * w_i) = g."""
    g = 0
    coeffs = [0] * len(w)
    for i, wi in enumerate(w):
        if wi == 0:
            continue
        if g == 0:
            g = abs(wi)
            coeffs = [0] * len(w)
            coeffs[i] = 1 if wi > 0 else -1
        else:
            g2, s, t = _xgcd(g, wi)
            if g2 < 0:  # floor-division Euclid may end on a negative remainder
                g2, s, t = -g2, -s, -t
            coeffs = [c * s for c in coeffs]
            coeffs[i] += t
            g = g2
    return g, coeffs


# ---------------------------------------------------------------------------
# monomials


@lru_cache(maxsize=None)
def monomials(k: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Exponent vectors of degree d, graded-lex descending (x1 biggest)."""
    if d < 0:
        return ()
    if k == 1:
        return ((d,),)
    out = []
    for e in range(d, -1, -1):
        for rest in monomials(k - 1, d - e):
            out.append((e,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_index(k: int, d: int) -> dict:
    return {m: i for i, m in enumerate(monomials(k, d))}


def num_monomials(k: int, d: int) -> int:
    return len(monomials(k, d))


def var_names(k: int) -> list[str]:
    """Torus variable names: x, y, z for k <= 3, else x1 .. xk."""
    if k <= 3:
        return ["x", "y", "z"][:k]
    return [f"x{i + 1}" for i in range(k)]


# ---------------------------------------------------------------------------
# graded polynomials


class GradedPoly:
    """Homogeneous polynomial of one degree; immutable once built.

    ``p == 0`` means integer coefficients, otherwise coefficients live in
    F_p and are kept reduced into [0, p).
    """

    __slots__ = ("k", "degree", "p", "coeffs")

    def __init__(self, k: int, degree: int, coeffs, p: int = 0):
        if k < 1:
            raise ValueError("need at least one variable")
        if degree < -1:
            degree = -1
        coeffs = tuple(int(c) % p if p else int(c) for c in coeffs)
        if len(coeffs) != num_monomials(k, degree):
            raise ValueError(
                f"expected {num_monomials(k, degree)} coefficients, got {len(coeffs)}"
            )
        self.k = k
        self.degree = degree
        self.p = p
        self.coeffs = coeffs

    @classmethod
    def zero(cls, k: int, degree: int, p: int = 0) -> "GradedPoly":
        return cls(k, degree, [0] * num_monomials(k, degree), p)

    @classmethod
    def constant(cls, k: int, c: int, p: int = 0) -> "GradedPoly":
        return cls(k, 0, [c], p)

    @classmethod
    def from_terms(cls, k: int, degree: int, terms: dict, p: int = 0) -> "GradedPoly":
        idx = monomial_index(k, degree)
        coeffs = [0] * num_monomials(k, degree)
        for exps, c in terms.items():
            coeffs[idx[tuple(exps)]] = c
        return cls(k, degree, coeffs, p)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def coefficient(self, exps) -> int:
        return self.coeffs[monomial_index(self.k, self.degree)[tuple(exps)]]

    def _check_compatible(self, other: "GradedPoly") -> None:
        if self.k != other.k or self.p != other.p:
            raise ValueError("ring mismatch")

    def __add__(self, other: "GradedPoly") -> "GradedPoly":
        self._check_compatible(other)
        if self.degree != other.degree:
            if self.is_zero() and other.is_zero():
                return GradedPoly.zero(self.k, max(self.degree, other.degree), self.p)
            raise ValueError("degree mismatch")
        return GradedPoly(
            self.k,
            self.degree,
            [a + b for a, b in zip(self.coeffs, other.coeffs)],
            self.p,
        )

    def __neg__(self) -> "GradedPoly":
        return GradedPoly(self.k, self.degree, [-c for c in self.coeffs], self.p)

    def __sub__(self, other: "GradedPoly") -> "GradedPoly":
        return self + (-other)

    def scale(self, c: int) -> "GradedPoly":
        return GradedPoly(self.k, self.degree, [c * x for x in self.coeffs], self.p)

    def __mul__(self, other: "GradedPoly") -> "GradedPoly":
        self._check_compatible(other)
        if self.degree < 0 or other.degree < 0:
            return GradedPoly.zero(self.k, self.degree + other.degree, self.p)
        d = self.degree + other.degree
        idx = monomial_index(self.k, d)
        out = [0] * num_monomials(self.k, d)
        mons_a = monomials(self.k, self.degree)
        mons_b = monomials(self.k, other.degree)
        for i, ca in enumerate(self.coeffs):
            if ca == 0:
                continue
            ma = mons_a[i]
            for j, cb in enumerate(other.coeffs):
                if cb == 0:
                    continue
                mb = mons_b[j]
                out[idx[tuple(a + b for a, b in zip(ma, mb))]] += ca * cb
        return GradedPoly(self.k, d, out, self.p)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GradedPoly)
            and self.k == other.k
            and self.p == other.p
            and (
                (self.degree == other.degree and self.coeffs == other.coeffs)
                or (self.is_zero() and other.is_zero())
            )
        )

    def __hash__(self) -> int:
        if self.is_zero():
            return hash((self.k, self.p, "zero"))
        return hash((self.k, self.p, self.degree, self.coeffs))

    def render(self) -> str:
        """Fixed-order textual form, e.g. ``x^2 - 3*x*y + 2*y^2``."""
        names = var_names(self.k)
        parts: list[str] = []
        for exps, c in zip(monomials(self.k, self.degree), self.coeffs):
            if c == 0:
                continue
            factors = []
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(c)
            if mag != 1 or not factors:
                factors.insert(0, str(mag))
            body = "*".join(factors)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        ring = "Z" if self.p == 0 else f"Z_{self.p}"
        return f"<{self.render()} ({ring}, deg {self.degree})>"


def linear_from_weight(w, p: int = 0) -> GradedPoly:
    """The linear form with coefficient vector w."""
    return GradedPoly(len(w), 1, list(w), p)


def reduce_mod_p(f: GradedPoly, p: int) -> GradedPoly:
    """Reduce integer coefficients into F_p."""
    if f.p != 0:
        raise ValueError("polynomial is already modular")
    return GradedPoly(f.k, f.degree, f.coeffs, p)


def compose_linear(f: GradedPoly, mat: IntMatrix) -> GradedPoly:
    """Substitute x_i = sum_j mat[i][j] * y_j; returns a polynomial in y.

    The definitional, uncached form of any linear substitution; the
    division and the edge rows use the cached ``substitution_matrix``.
    """
    if mat.rows != f.k or mat.cols != f.k:
        raise ValueError("substitution matrix must be k x k")
    if f.degree <= 0:
        return f
    lin = [GradedPoly(f.k, 1, mat.data[i], f.p) for i in range(f.k)]
    # incremental powers of each substituted variable
    powers: list[list[GradedPoly]] = [[GradedPoly.constant(f.k, 1, f.p)] for _ in lin]
    out = GradedPoly.zero(f.k, f.degree, f.p)
    for exps, c in zip(monomials(f.k, f.degree), f.coeffs):
        if c == 0:
            continue
        term = GradedPoly.constant(f.k, c, f.p)
        for i, e in enumerate(exps):
            while len(powers[i]) <= e:
                powers[i].append(powers[i][-1] * lin[i])
            if e:
                term = term * powers[i][e]
        out = out + term
    return out


@lru_cache(maxsize=None)
def _split_matrix(w0: Weight) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Rows of a unimodular A with w0^T A = (1, 0, ..., 0), then of A^-1.

    Under x = A y the linear form of the primitive weight w0 becomes y1.
    """
    k = len(w0)
    _, coeffs = xgcd_vector(w0)
    cols = [coeffs] + [list(v) for v in kernel(IntMatrix([list(w0)])).vectors]
    a = IntMatrix(cols, cols=k).transpose()
    return tuple(map(tuple, a.data)), tuple(map(tuple, unimodular_inverse(a).data))


@lru_cache(maxsize=None)
def substitution_matrix(w0: Weight, d: int, inverse: bool = False) -> tuple:
    """The degree-d coefficient map T(w0, d) of the split substitution.

    Column c is the image of the c-th degree-d monomial under x = A y
    (A from ``_split_matrix``, so the linear form of w0 becomes y1), or
    under y = A^-1 x when ``inverse``; it is stored sparse, as a tuple of
    (row, coefficient) pairs in the degree-d monomial order.  Each degree
    is one multiplication by a linear form per column of degree d - 1.
    ``w0`` must be a tuple; the result is shared, immutable and held for
    the life of the process.
    """
    if d < 0:
        return ()
    if d == 0:
        return (((0, 1),),)
    k = len(w0)
    rows = _split_matrix(w0)[1 if inverse else 0]
    lower = monomials(k, d - 1)
    lower_idx = monomial_index(k, d - 1)
    idx = monomial_index(k, d)
    prev = substitution_matrix(w0, d - 1, inverse)
    cols = []
    for mono in monomials(k, d):
        i = next(j for j, e in enumerate(mono) if e)
        base = prev[lower_idx[mono[:i] + (mono[i] - 1,) + mono[i + 1 :]]]
        acc: dict[int, int] = {}
        for r, v in base:
            src = lower[r]
            for j, a in enumerate(rows[i]):
                if a:
                    key = idx[src[:j] + (src[j] + 1,) + src[j + 1 :]]
                    acc[key] = acc.get(key, 0) + v * a
        cols.append(tuple(sorted((r, v) for r, v in acc.items() if v)))
    return tuple(cols)


def _substitute(cols: tuple, coeffs, size: int) -> list[int]:
    """The vector T * coeffs for a ``substitution_matrix`` T."""
    out = [0] * size
    for c, x in enumerate(coeffs):
        if x:
            for r, v in cols[c]:
                out[r] += v * x
    return out


@lru_cache(maxsize=None)
def divisibility_rows(w: Weight, d: int, p: int = 0) -> tuple:
    """Rows on the degree-d coefficients that say "w divides f".

    Entries are (row, modulus), the row a tuple of sparse (column,
    coefficient) pairs.  Over Z (p = 0), f is a multiple of the linear
    form of w iff row . f is divisible by the modulus for every entry
    (modulus 0: row . f = 0); over F_p every row . f must vanish mod p.
    With w = m * w0 (m the content) and T = ``substitution_matrix(w0, d)``:
    over Z the y1-free rows of T with modulus 0 and, when m > 1, the other
    rows with modulus m; over F_p with p | m the identity rows (w reduces
    to zero, which divides only zero); otherwise, m being a unit, the
    y1-free rows of T.  ``w`` must be a tuple; the result is cached.
    """
    mons = monomials(len(w), d)
    m = content(w)
    if p and m % p == 0:
        return tuple((((c, 1),), 0) for c in range(len(mons)))
    rows: list[list] = [[] for _ in mons]
    for c, col in enumerate(substitution_matrix(tuple(x // m for x in w), d)):
        for r, v in col:
            rows[r].append((c, v))
    return tuple(
        (tuple(rows[r]), 0 if mono[0] == 0 else m)
        for r, mono in enumerate(mons)
        if mono[0] == 0 or (not p and m > 1)
    )


def divide_by_linear(f: GradedPoly, w) -> GradedPoly | None:
    """Exact quotient f / (linear form of w) over Z, or None.

    Works entirely over Z: after the unimodular change of coordinates of
    ``substitution_matrix`` the divisor becomes m*y1 (m the content of
    w), so divisibility is a check on y1-free monomials plus coefficient
    divisibility by m; the quotient goes back by the inverse map.
    """
    if f.p != 0:
        raise ValueError("integer division only; reduce afterwards")
    if not any(w):
        raise ValueError("cannot divide by the zero weight")
    if len(w) != f.k:
        raise ValueError("weight length mismatch")
    k, d = f.k, f.degree
    if f.is_zero():
        return GradedPoly.zero(k, d - 1)
    m = content(w)
    w0 = tuple(x // m for x in w)
    g = _substitute(substitution_matrix(w0, d), f.coeffs, num_monomials(k, d))
    idx = monomial_index(k, d)
    q = []
    for exps in monomials(k, d - 1):
        c = g[idx[(exps[0] + 1,) + exps[1:]]]
        if c % m != 0:
            return None
        q.append(c // m)
    for exps, c in zip(monomials(k, d), g):
        if exps[0] == 0 and c != 0:
            return None
    n_lo = num_monomials(k, d - 1)
    return GradedPoly(k, d - 1, _substitute(substitution_matrix(w0, d - 1, True), q, n_lo))


def congruent_mod_weight(f: GradedPoly, g: GradedPoly, w) -> bool:
    """Whether f - g is a polynomial multiple of the linear form of w.

    Both rings read the ``divisibility_rows`` of w on the coefficient
    difference: over Z a row must vanish where its modulus is 0 and be
    divisible by the modulus otherwise; over F_p every row must vanish
    mod p, so a weight that reduces to zero turns the condition into
    equality.
    """
    if f.k != g.k or f.p != g.p:
        raise ValueError("ring mismatch")
    if f.degree != g.degree:
        if f.is_zero() and g.is_zero():
            return True
        raise ValueError("degree mismatch")
    if f.coeffs == g.coeffs:
        return True
    diff = [a - b for a, b in zip(f.coeffs, g.coeffs)]
    for row, modulus in divisibility_rows(tuple(w), f.degree, f.p):
        value = sum(v * diff[c] for c, v in row)
        if f.p or modulus:
            value %= f.p or modulus
        if value:
            return False
    return True

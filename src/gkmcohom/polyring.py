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


def is_multiple_of(v, w) -> bool:
    """True if v lies in Z*w."""
    if not any(v):
        return True
    if not any(w):
        return False
    i = next(k for k, x in enumerate(w) if x != 0)
    if v[i] % w[i] != 0:
        return False
    t = v[i] // w[i]
    return all(x == t * y for x, y in zip(v, w))


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
    """Substitute x_i = sum_j mat[i][j] * y_j; returns a polynomial in y."""
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


def _split_matrix(w0) -> tuple[IntMatrix, IntMatrix]:
    """Unimodular A with w0^T A = (1, 0, ..., 0), plus its inverse."""
    k = len(w0)
    _, coeffs = xgcd_vector(w0)
    cols = [coeffs] + [list(v) for v in kernel(IntMatrix([list(w0)])).vectors]
    a = IntMatrix(cols, cols=k).transpose()
    return a, unimodular_inverse(a)


def divide_by_linear(f: GradedPoly, w) -> GradedPoly | None:
    """Exact quotient f / (linear form of w) over Z, or None.

    Works entirely over Z: after an unimodular change of coordinates the
    divisor becomes m*y1 (m the content of w), so divisibility is a check
    on y1-free monomials plus coefficient divisibility by m.
    """
    if f.p != 0:
        raise ValueError("integer division only; reduce afterwards")
    if not any(w):
        raise ValueError("cannot divide by the zero weight")
    if len(w) != f.k:
        raise ValueError("weight length mismatch")
    if f.is_zero():
        return GradedPoly.zero(f.k, f.degree - 1)
    m = content(w)
    w0 = tuple(x // m for x in w)
    a, a_inv = _split_matrix(w0)
    g = compose_linear(f, a)
    # quotient by m*y1 in the new coordinates
    d = f.degree
    idx_src = monomial_index(f.k, d)
    q_coeffs = [0] * num_monomials(f.k, d - 1)
    for pos, exps in enumerate(monomials(f.k, d - 1)):
        c = g.coeffs[idx_src[(exps[0] + 1,) + exps[1:]]]
        if c % m != 0:
            return None
        q_coeffs[pos] = c // m
    for exps, c in zip(monomials(f.k, d), g.coeffs):
        if exps[0] == 0 and c != 0:
            return None
    return compose_linear(GradedPoly(f.k, d - 1, q_coeffs), a_inv)


def _modp_divisible_by_linear(h: GradedPoly, w, p: int) -> bool:
    """Whether the reduced linear form of w divides h over F_p."""
    wr = [x % p for x in w]
    j = next(i for i, x in enumerate(wr) if x != 0)
    inv = pow(wr[j], p - 2, p)
    rows = []
    for i in range(h.k):
        if i == j:
            rows.append([(-inv * wr[c]) % p if c != j else 0 for c in range(h.k)])
        else:
            rows.append([1 if c == i else 0 for c in range(h.k)])
    return compose_linear(h, IntMatrix(rows)).is_zero()


def congruent_mod_weight(f: GradedPoly, g: GradedPoly, w) -> bool:
    """Whether f - g is a polynomial multiple of the linear form of w.

    Over Z this is exact divisibility; over F_p the weight is reduced
    first, and a zero reduction turns the condition into equality.
    """
    if f.k != g.k or f.p != g.p:
        raise ValueError("ring mismatch")
    if f.degree != g.degree and not (f.is_zero() and g.is_zero()):
        raise ValueError("degree mismatch")
    diff = f - g
    if diff.is_zero():
        return True
    if f.p == 0:
        return divide_by_linear(diff, w) is not None
    if not any(x % f.p for x in w):
        return False  # zero form divides only zero, and diff is nonzero
    return _modp_divisible_by_linear(diff, w, f.p)


class PolySeries:
    """Finite sum of homogeneous components, one per degree."""

    __slots__ = ("k", "p", "parts")

    def __init__(self, k: int, p: int = 0, parts: dict | None = None):
        self.k = k
        self.p = p
        self.parts: dict[int, GradedPoly] = {}
        for d, f in (parts or {}).items():
            if f.k != k or f.p != p:
                raise ValueError("ring mismatch")
            if not f.is_zero():
                self.parts[d] = f

    @classmethod
    def one(cls, k: int, p: int = 0) -> "PolySeries":
        return cls(k, p, {0: GradedPoly.constant(k, 1, p)})

    @classmethod
    def from_poly(cls, f: GradedPoly) -> "PolySeries":
        return cls(f.k, f.p, {f.degree: f})

    def component(self, d: int) -> GradedPoly:
        return self.parts.get(d, GradedPoly.zero(self.k, d, self.p))

    def degrees(self) -> list[int]:
        return sorted(self.parts)

    def __add__(self, other: "PolySeries") -> "PolySeries":
        if self.k != other.k or self.p != other.p:
            raise ValueError("ring mismatch")
        out: dict[int, GradedPoly] = dict(self.parts)
        for d, f in other.parts.items():
            out[d] = out[d] + f if d in out else f
        return PolySeries(self.k, self.p, out)

    def __sub__(self, other: "PolySeries") -> "PolySeries":
        neg = PolySeries(other.k, other.p, {d: -f for d, f in other.parts.items()})
        return self + neg

    def __mul__(self, other: "PolySeries") -> "PolySeries":
        if self.k != other.k or self.p != other.p:
            raise ValueError("ring mismatch")
        out: dict[int, GradedPoly] = {}
        for d1, f in self.parts.items():
            for d2, g in other.parts.items():
                prod = f * g
                d = d1 + d2
                out[d] = out[d] + prod if d in out else prod
        return PolySeries(self.k, self.p, out)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PolySeries)
            and self.k == other.k
            and self.p == other.p
            and self.parts == other.parts
        )

    def render(self) -> str:
        if not self.parts:
            return "0"
        return " + ".join(f"({self.parts[d].render()})" for d in self.degrees())

    def __repr__(self) -> str:
        return f"<series {self.render()}>"

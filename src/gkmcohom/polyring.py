"""Homogeneous graded polynomials over Z and F_p in a fixed monomial order.

A weight is an integer vector of length k (the torus rank); it doubles as
the coefficient list of a linear form.  Polynomials of a fixed degree are
stored as dense coefficient vectors indexed by the graded-lex monomial
order with x1 > x2 > ... > xk, so a polynomial *is* a column vector for
the integer linear algebra with zero translation cost.

Degree -1 is allowed and denotes the zero polynomial (no monomials); it
shows up as the natural home of difference quotients of degree-0 classes.

The public ``GradedPoly(...)`` checks and normalizes its input; the
arithmetic builds its results, whose length is right by construction,
with the unchecked ``GradedPoly._of``.  ``GradedPoly.zero`` is one shared
object per (k, degree, p), products read a cached table of monomial
indices per (k, da, db), and ``render`` reads the monomials' strings
from a cached table per (k, d).  The hot loops work on coefficient lists and
wrap a result once: ``elementary_symmetric`` (the star components of the
Stiefel-Whitney classes) and ``divide_coeffs`` (the long division behind
``divide_by_linear``).  Every linear change of variables on coefficients
is one cached builder, ``linear_substitution``, on k x k integer rows:
the split of a label for its divisibility rows (``substitution_matrix``),
and the map back of a graded piece solved in a basis made of the labels.
The split completes a primitive label to a unimodular matrix by 2 x 2
Bezout steps (``_split_matrix``), so the module imports no linear
algebra; ``compose_linear``, the definitional substitution, takes the
same rows.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement
from math import gcd
from operator import sub

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


# ---------------------------------------------------------------------------
# monomials


@lru_cache(maxsize=None)
def monomials(k: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Exponent vectors of degree d, graded-lex descending (x1 biggest),
    in the order of ``combinations_with_replacement(range(k), d)``.  Each
    is the differences of (0, c_1, .., c_{k-1}, d) for its partial sums
    c_1 <= .. <= c_{k-1} in [0, d], so it costs O(k) whatever d; the sums
    ascend as the vectors descend."""
    if d < 0 or not k:
        return () if d else ((),)
    sums = combinations_with_replacement(range(d + 1), k - 1)
    return tuple(reversed([tuple(map(sub, c + (d,), (0,) + c)) for c in sums]))


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


@lru_cache(maxsize=None)
def _monomial_strings(k: int, d: int) -> tuple[str, ...]:
    """The degree-d monomials as ``render`` writes them, e.g. ``x^2*y``;
    the empty string for the constant monomial."""
    names = var_names(k)
    return tuple(
        "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e)
        for exps in monomials(k, d)
    )


# ---------------------------------------------------------------------------
# graded polynomials


def _reduced(coeffs, p: int) -> tuple:
    """The integer coefficients as a tuple, reduced into [0, p) when p > 0."""
    return tuple(c % p for c in coeffs) if p else tuple(coeffs)


@lru_cache(maxsize=None)
def _product_table(k: int, da: int, db: int) -> tuple[tuple[int, ...], ...]:
    """Entry [i][j] is the index, in the degree-(da + db) order, of the
    product of the i-th degree-da and the j-th degree-db monomial."""
    idx = monomial_index(k, da + db)
    return tuple(
        tuple(idx[tuple(a + b for a, b in zip(ma, mb))] for mb in monomials(k, db))
        for ma in monomials(k, da)
    )


class GradedPoly:
    """Homogeneous polynomial of one degree; immutable once built.

    ``p == 0`` means integer coefficients, otherwise coefficients live in
    F_p and are kept reduced into [0, p).  The public constructor checks
    its input; arithmetic results, whose length is right by construction,
    come from the unchecked ``_of``.
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
    def _of(cls, k: int, degree: int, coeffs: tuple, p: int) -> "GradedPoly":
        """Unchecked: ``coeffs`` is a tuple of ints, already reduced mod p,
        of the length of the degree (at least -1)."""
        f = object.__new__(cls)
        f.k = k
        f.degree = degree
        f.p = p
        f.coeffs = coeffs
        return f

    @classmethod
    def zero(cls, k: int, degree: int, p: int = 0) -> "GradedPoly":
        """The zero of that degree; one shared immutable object per (k, degree, p)."""
        return _zero(k, max(degree, -1), p)

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
        return self._plus(other, 1)

    def __sub__(self, other: "GradedPoly") -> "GradedPoly":
        return self._plus(other, -1)

    def _plus(self, other: "GradedPoly", sign: int) -> "GradedPoly":
        self._check_compatible(other)
        if self.degree != other.degree:
            if self.is_zero() and other.is_zero():
                return GradedPoly.zero(self.k, max(self.degree, other.degree), self.p)
            raise ValueError("degree mismatch")
        coeffs = [a + sign * b for a, b in zip(self.coeffs, other.coeffs)]
        return GradedPoly._of(self.k, self.degree, _reduced(coeffs, self.p), self.p)

    def __neg__(self) -> "GradedPoly":
        return self.scale(-1)

    def scale(self, c: int) -> "GradedPoly":
        coeffs = [c * x for x in self.coeffs]
        return GradedPoly._of(self.k, self.degree, _reduced(coeffs, self.p), self.p)

    def __mul__(self, other: "GradedPoly") -> "GradedPoly":
        self._check_compatible(other)
        k, p = self.k, self.p
        if self.degree < 0 or other.degree < 0:
            return GradedPoly.zero(k, self.degree + other.degree, p)
        d = self.degree + other.degree
        out = [0] * num_monomials(k, d)
        pairs = [(cb, j) for j, cb in enumerate(other.coeffs) if cb]
        for ca, row in zip(self.coeffs, _product_table(k, self.degree, other.degree)):
            if ca:
                for cb, j in pairs:
                    out[row[j]] += ca * cb
        return GradedPoly._of(k, d, _reduced(out, p), p)

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
        parts: list[str] = []
        for name, c in zip(_monomial_strings(self.k, self.degree), self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if not name:
                body = str(mag)
            elif mag != 1:
                body = f"{mag}*{name}"
            else:
                body = name
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        ring = "Z" if self.p == 0 else f"Z_{self.p}"
        return f"<{self.render()} ({ring}, deg {self.degree})>"


@lru_cache(maxsize=None)
def _zero(k: int, degree: int, p: int) -> GradedPoly:
    return GradedPoly(k, degree, [0] * num_monomials(k, degree), p)


def linear_from_weight(w, p: int = 0) -> GradedPoly:
    """The linear form with coefficient vector w."""
    return GradedPoly(len(w), 1, list(w), p)


def reduce_mod_p(f: GradedPoly, p: int) -> GradedPoly:
    """Reduce integer coefficients into F_p."""
    if f.p != 0:
        raise ValueError("polynomial is already modular")
    return GradedPoly._of(f.k, f.degree, _reduced(f.coeffs, p), p)


def elementary_symmetric(k: int, weights, p: int = 0) -> list[GradedPoly]:
    """Components 0..n of the product of (1 + w) over the n weights, over
    Z (p = 0) or F_p: entry d is the d-th elementary symmetric polynomial
    of their linear forms.

    Built by e_d <- e_d + e_{d-1} * w per weight, d descending, in place
    on integer coefficient lists through the product table of a degree
    by a linear form; each degree is reduced and wrapped once at the end.
    """
    comps = [[1]]
    for w in weights:
        terms = [(j, x) for j, x in enumerate(w) if x]
        comps.append([0] * num_monomials(k, len(comps)))
        for d in range(len(comps) - 1, 0, -1):
            out = comps[d]
            for c, row in zip(comps[d - 1], _product_table(k, d - 1, 1)):
                if c:
                    for j, x in terms:
                        out[row[j]] += c * x
    return [GradedPoly._of(k, d, _reduced(cs, p), p) for d, cs in enumerate(comps)]


def compose_linear(f: GradedPoly, rows) -> GradedPoly:
    """Substitute x_i = sum_j rows[i][j] * y_j; returns a polynomial in y.

    The definitional, uncached form of any linear substitution, on k x k
    integer ``rows`` as ``linear_substitution`` takes them; the edge rows
    and the map-back of a re-based graded piece read the cached
    coefficient map of ``linear_substitution`` instead.
    """
    if len(rows) != f.k or any(len(row) != f.k for row in rows):
        raise ValueError("substitution matrix must be k x k")
    if f.degree <= 0:
        return f
    lin = [GradedPoly(f.k, 1, row, f.p) for row in rows]
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
def _split_matrix(w0: Weight) -> tuple[tuple[int, ...], ...]:
    """Rows of a unimodular A with w0^T A = (1, 0, ..., 0).

    Under x = A y the linear form of the primitive weight w0 becomes y1.
    A chain of 2 x 2 Bezout steps builds a unimodular U with U w0 = (g,
    0, ..., 0): with s v0 + t vi = g = gcd(v0, vi) for the entries v of U
    w0 so far, rows 0 and i of U become s r0 + t ri and (v0/g) ri - (vi/g)
    r0, a step of determinant 1 that leaves g at 0 and 0 at i.  Then g =
    +-1, and A is U^T with its first column multiplied by g.
    """
    k = len(w0)
    u = [[int(i == j) for j in range(k)] for i in range(k)]
    v0 = w0[0]
    for i, vi in enumerate(w0[1:], 1):
        if vi:
            g, s, t = _xgcd(v0, vi)
            a, b = v0 // g, vi // g
            r0, ri = u[0], u[i]
            u[0] = [s * x + t * y for x, y in zip(r0, ri)]
            u[i] = [a * y - b * x for x, y in zip(r0, ri)]
            v0 = g
    u[0] = [v0 * x for x in u[0]]
    return tuple(zip(*u))


_substitutions: dict[tuple, list[tuple]] = {}


def linear_substitution(rows: tuple, d: int) -> tuple:
    """The degree-d coefficient map of the substitution x_i = sum_j
    rows[i][j] * y_j, for any k x k integer ``rows`` (a tuple of tuples).

    Column c is the image of the c-th degree-d monomial, stored sparse,
    as a tuple of (row, coefficient) pairs in the degree-d monomial order.
    Degrees are built in a loop, each one multiplication by a linear form
    per column of the degree below, and kept per ``rows``, so each is built
    once.  The result is shared, immutable and held for the life of the
    process.
    """
    if d < 0:
        return ()
    built = _substitutions.setdefault(rows, [(((0, 1),),)])
    k = len(rows)
    while len(built) <= d:
        top = len(built)
        lower = monomials(k, top - 1)
        lower_idx = monomial_index(k, top - 1)
        idx = monomial_index(k, top)
        cols = []
        for mono in monomials(k, top):
            i = next(j for j, e in enumerate(mono) if e)
            base = built[-1][lower_idx[mono[:i] + (mono[i] - 1,) + mono[i + 1 :]]]
            acc: dict[int, int] = {}
            for r, v in base:
                src = lower[r]
                for j, a in enumerate(rows[i]):
                    if a:
                        key = idx[src[:j] + (src[j] + 1,) + src[j + 1 :]]
                        acc[key] = acc.get(key, 0) + v * a
            cols.append(tuple(sorted((r, v) for r, v in acc.items() if v)))
        built.append(tuple(cols))
    return built[d]


def substitution_matrix(w0: Weight, d: int) -> tuple:
    """The degree-d coefficient map T(w0, d) of the split substitution:
    ``linear_substitution`` of x = A y, A from ``_split_matrix``, so the
    linear form of w0 becomes y1.  Only ``divisibility_rows`` reads it.
    ``w0`` must be a tuple."""
    return linear_substitution(_split_matrix(w0), d)


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
    y1-free rows of T.  ``w`` must be a tuple, and a zero weight raises
    ValueError; the result is cached.
    """
    m = content(w)
    if not m:
        raise ValueError("cannot divide by the zero weight")
    mons = monomials(len(w), d)
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

    Long division in the stored order, x_i the first variable of w: the
    quotient coefficient of a degree-(d-1) monomial m is the remainder's
    entry at m * x_i over w_i; it is final when m is reached, since the
    other monomials m * x_i / x_j (x_j later in w) come before m.  Then
    that multiple of m * w leaves the remainder, which must end at zero.
    """
    if f.p != 0:
        raise ValueError("integer division only; reduce afterwards")
    if not any(w):
        raise ValueError("cannot divide by the zero weight")
    if len(w) != f.k:
        raise ValueError("weight length mismatch")
    q = divide_coeffs(f.k, f.degree, f.coeffs, w)
    return None if q is None else GradedPoly._of(f.k, max(f.degree - 1, -1), q, 0)


def divide_coeffs(k: int, d: int, coeffs, w) -> tuple | None:
    """``divide_by_linear`` on the integer coefficients of a degree-d
    polynomial, unchecked: the quotient's coefficients (none below degree
    0), or None.  ``w`` is a nonzero weight of length k."""
    if not any(coeffs):
        return (0,) * num_monomials(k, d - 1)
    terms = [(j, x) for j, x in enumerate(w) if x]
    i, lead = terms[0]
    table = _product_table(k, d - 1, 1)
    rem = list(coeffs)
    q = []
    for row in table:
        c, r = divmod(rem[row[i]], lead)
        if r:
            return None
        if c:
            for j, x in terms:
                rem[row[j]] -= c * x
        q.append(c)
    if any(rem):
        return None
    return tuple(q)


def congruent_mod_weight(f: GradedPoly, g: GradedPoly, w) -> bool:
    """Whether f - g is a polynomial multiple of the linear form of w.

    Both rings read the ``divisibility_rows`` of w on the coefficient
    difference: over Z a row must vanish where its modulus is 0 and be
    divisible by the modulus otherwise; over F_p every row must vanish
    mod p, so a weight that reduces to zero turns the condition into
    equality.  A weight of the wrong length, or the zero weight when f !=
    g, raises ValueError, as in ``divide_by_linear``.
    """
    if f.k != g.k or f.p != g.p:
        raise ValueError("ring mismatch")
    if len(w) != f.k:
        raise ValueError("weight length mismatch")
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

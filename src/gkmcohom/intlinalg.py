"""Exact integer linear algebra over plain Python ints.

Everything downstream (edge congruences, cohomology lattices, preimage
searches) reduces to Hermite normal forms, integer kernels, and exact
solvers, so this module keeps them small and auditable.  No floats, no
numpy; arbitrary precision throughout.

Conventions:
  * ``IntMatrix`` is dense, row major; the sparse eliminator behind
    ``sparse_kernel`` takes rows as ``{column: value}`` dicts and leaves
    only a small remainder, if any, to the dense ``kernel``;
  * ``LatticeBasis`` is the one canonical row basis of both rings: the
    HNF over Z (p = 0), the RREF over F_p, so equal spans have equal
    ``vectors`` and one ``coordinates_of`` serves both;
  * ``hnf`` is row-style: pivots positive, strictly increasing pivot
    columns, entries above a pivot reduced into ``[0, pivot)``, zero rows
    at the bottom;
  * ``_hnf_rows`` is the one dense echelon, HNF over Z and RREF over F_p
    (``modp_rref`` wraps it): over a field the two coincide, as every
    pivot scales to 1 and an entry reduced into ``[0, 1)`` is 0;
  * pivot selection always takes the entry of smallest absolute value to
    keep intermediate coefficients small.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass


class IntMatrix:
    """Dense integer matrix backed by a list of row lists."""

    __slots__ = ("data", "rows", "cols")

    def __init__(self, data: list[list[int]], cols: int | None = None):
        data = [list(row) for row in data]
        if data:
            width = len(data[0])
            for row in data:
                if len(row) != width:
                    raise ValueError("ragged rows")
                for x in row:
                    if not isinstance(x, int):
                        raise ValueError(f"non-integer entry {x!r}")
            if cols is not None and cols != width:
                raise ValueError("cols does not match row width")
            cols = width
        elif cols is None:
            cols = 0
        self.data = data
        self.rows = len(data)
        self.cols = cols

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        return IntMatrix(
            [self.data[i] + other.data[i] for i in range(self.rows)],
            cols=self.cols + other.cols,
        )

    def neg(self) -> "IntMatrix":
        return IntMatrix([[-x for x in row] for row in self.data], cols=self.cols)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self) -> str:
        return f"IntMatrix({self.data!r})"


def _row_addmul(target: list[int], source: list[int], factor: int, p: int) -> None:
    if p:
        target[:] = [(x + factor * y) % p for x, y in zip(target, source)]
    else:
        for k in range(len(target)):
            target[k] += factor * source[k]


def _hnf_rows(h: list[list[int]], ncols: int, p: int = 0) -> list[list[int]]:
    """Row Hermite normal form of ``h`` over Z (p = 0), or its RREF over
    F_p (entries already in [0, p)), in place, pivoting only on the first
    ``ncols`` columns; any later columns ride along with every row
    operation (``hnf`` puts the identity there to record the transform).

    Column elimination is euclidean: the smallest-magnitude entry is
    swapped into pivot position and all other entries in the column are
    reduced by it until one survivor remains; over F_p the pivot is
    first scaled to 1, so one pass clears the column.
    """
    nrows = len(h)
    cur = 0
    for j in range(ncols):
        if cur >= nrows:
            break
        while True:
            piv = None
            for i in range(cur, nrows):
                if h[i][j] != 0 and (piv is None or abs(h[i][j]) < abs(h[piv][j])):
                    piv = i
            if piv is None:
                break
            if piv != cur:
                h[cur], h[piv] = h[piv], h[cur]
            if p and h[cur][j] != 1:
                inv = pow(h[cur][j], p - 2, p)
                h[cur] = [x * inv % p for x in h[cur]]
            d = h[cur][j]
            finished = True
            for i in range(cur + 1, nrows):
                if h[i][j] != 0:
                    q = h[i][j] // d
                    if q:
                        _row_addmul(h[i], h[cur], -q, p)
                    if h[i][j] != 0:
                        finished = False
            if finished:
                break
        if h[cur][j] != 0:
            if h[cur][j] < 0:
                h[cur] = [-x for x in h[cur]]
            d = h[cur][j]
            for i in range(cur):
                q = h[i][j] // d
                if q:
                    _row_addmul(h[i], h[cur], -q, p)
            cur += 1
    return h


def hnf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form: ``(h, u)`` with ``u`` unimodular and
    ``u * m == h``, from ``_hnf_rows`` on ``[m | I]``."""
    rows = [row + [int(i == r) for i in range(m.rows)] for r, row in enumerate(m.data)]
    _hnf_rows(rows, m.cols)
    h = IntMatrix([row[: m.cols] for row in rows], cols=m.cols)
    return h, IntMatrix([row[m.cols :] for row in rows], cols=m.rows)


@dataclass(frozen=True)
class LatticeBasis:
    """Span of row vectors in Z^n (p = 0) or F_p^n, given by its canonical
    row basis: the nonzero HNF rows over Z, the RREF rows over F_p.

    Two equal spans always produce identical ``vectors``, so equality is
    tuple equality.
    """

    ambient_dim: int
    vectors: tuple[tuple[int, ...], ...]
    p: int = 0

    @classmethod
    def from_vectors(cls, ambient_dim: int, vecs: list, p: int = 0) -> "LatticeBasis":
        rows = [list(v) for v in vecs]
        if any(len(row) != ambient_dim for row in rows):
            raise ValueError("vector length mismatch")
        rows = modp_rref(rows, p)[0] if p else _hnf_rows(rows, ambient_dim)
        return cls(ambient_dim, tuple(tuple(row) for row in rows if any(row)), p)

    @property
    def rank(self) -> int:
        return len(self.vectors)

    def _reduce(self, v) -> tuple[list[int], list[int]]:
        """Subtract the basis rows from v, pivot by pivot; returns the
        residual (reduced mod p over F_p) and the coordinates so far.
        Over F_p every pivot is 1, so only Z can stop on a non-multiple."""
        p = self.p
        residual = list(v)
        coords = [0] * len(self.vectors)
        for i, row in enumerate(self.vectors):
            j = next(k for k, x in enumerate(row) if x != 0)
            x = residual[j] % p if p else residual[j]
            if x == 0:
                continue
            if x % row[j] != 0:
                return residual, coords
            c = coords[i] = x // row[j]
            for k in range(j, self.ambient_dim):
                residual[k] -= c * row[k]
        if p:
            residual = [x % p for x in residual]
        return residual, coords

    def coordinates_of(self, v) -> list[int] | None:
        """Coordinates of v in this basis (in [0, p) over F_p), or None if
        v lies outside the span."""
        if len(v) != self.ambient_dim:
            raise ValueError("vector length mismatch")
        residual, coords = self._reduce(v)
        return None if any(residual) else coords


def kernel(m: IntMatrix) -> LatticeBasis:
    """Basis of the right kernel {v : m v = 0}; automatically saturated."""
    h, u = hnf(m.transpose())
    vecs = [u.data[i] for i in range(h.rows) if not any(h.data[i])]
    return LatticeBasis.from_vectors(m.cols, vecs)


def kernel_into_cokernel(m: IntMatrix, d: IntMatrix) -> LatticeBasis:
    """Basis of {v : m v lies in the column image of d}, by dense HNF.

    The projection of ker([m | -d]) onto the first block.  The slack
    coordinates of d come last, so the HNF rows of that kernel whose
    pivot lies among the first ``m.cols`` coordinates, cut there, are
    already the HNF of the projection, and every other row cuts to zero.
    Deliberately no saturation: the result is exactly the preimage
    lattice, torsion quotients and all.  The graded pieces use
    ``sparse_kernel``; this dense version is the reference it is tested
    against.
    """
    if m.rows != d.rows:
        raise ValueError("row count mismatch")
    joint = kernel(m.hstack(d.neg()))
    return LatticeBasis(m.cols, tuple(v[: m.cols] for v in joint.vectors if any(v[: m.cols])))


def _eliminate(rows: list[dict[int, int]], ncols: int, p: int):
    """Structured Gaussian elimination on sparse rows, which it consumes.

    Only columns below ``ncols`` pivot, and only on a unit of the ring:
    an entry of +-1 over Z (p = 0), any nonzero entry over F_p (entries
    already reduced into [0, p)).  Markowitz order on the rows: the
    shortest row with a unit entry pivots next.  Within it the rightmost
    unit column pivots, so the columns that never pivot tend to be the
    early ones and the lifted kernel basis comes out close to its HNF (or
    RREF): on CP^4 degree 10 that makes the final dense echelon
    ``_hnf_rows`` more than ten times cheaper than the Markowitz choice
    of the column met by the fewest rows, whose lower fill-in saves far
    less.  The pivot column is cleared from every other row, so each
    pivot row expresses its column through later pivot columns and the
    columns that never pivot.  Returns ``(pivots, leftover)``: the
    (column, inverse of the pivot entry, rest of the row as (column,
    value) pairs) triples in pivot order, and the nonzero rows left
    without a unit entry (always none over F_p).
    """
    colrows: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for c in row:
            if c < ncols:
                colrows.setdefault(c, set()).add(i)
    active = {i for i, row in enumerate(rows) if row}
    heap = [(len(rows[i]), i) for i in active]
    heapq.heapify(heap)
    pivots = []
    while heap:
        length, i = heapq.heappop(heap)
        row = rows[i]
        if i not in active or len(row) != length:
            continue  # pivoted already, or changed and pushed again
        units = [c for c, v in row.items() if c < ncols and (p or v == 1 or v == -1)]
        if not units:
            continue  # comes back on the heap if a later pivot changes it
        c = max(units)
        inv = pow(row.pop(c), p - 2, p) if p else row.pop(c)
        rest = list(row.items())
        active.discard(i)
        for col, _ in rest:
            if col < ncols:
                colrows[col].discard(i)
        colrows[c].discard(i)
        for k in colrows.pop(c):
            target = rows[k]
            f = target.pop(c) * inv
            for col, v in rest:
                new = target.get(col, 0) - f * v
                if p:
                    new %= p
                if new:
                    if col < ncols and col not in target:
                        colrows[col].add(k)
                    target[col] = new
                else:
                    del target[col]
                    if col < ncols:
                        colrows[col].discard(k)
            if target:
                heapq.heappush(heap, (len(target), k))
            else:
                active.discard(k)
        pivots.append((c, inv, rest))
    return pivots, [rows[i] for i in sorted(active)]


def _lift(pivots, gens: list[dict[int, int]], ncols: int, p: int) -> list[list[int]]:
    """The kernel vectors with the given values off the pivot columns, cut
    to the first ``ncols`` coordinates.  Each pivot value is solved from
    its row, last pivot first, so the columns that row still meets are
    known; the values are kept per column, as {generator: value}, so a
    column no generator reaches costs nothing."""
    values: dict[int, dict[int, int]] = {}
    for g, gen in enumerate(gens):
        for c, x in gen.items():
            values.setdefault(c, {})[g] = x
    for c, inv, rest in reversed(pivots):
        acc: dict[int, int] = {}
        for col, v in rest:
            for g, x in values.get(col, {}).items():
                acc[g] = acc.get(g, 0) + v * x
        solved = {g: -inv * s % p if p else -inv * s for g, s in acc.items()}
        solved = {g: x for g, x in solved.items() if x}
        if solved:
            values[c] = solved
    vecs = [[0] * ncols for _ in gens]
    for c, column in values.items():
        if c < ncols:
            for g, x in column.items():
                vecs[g][c] = x
    return vecs


def sparse_kernel(
    rows: list[dict[int, int]], moduli: list[int], ncols: int, p: int = 0
) -> LatticeBasis:
    """Lattice of x in Z^ncols with row_i . x divisible by moduli[i] >= 0
    for every i (modulus 0: row_i . x = 0), or over F_p (p > 0) the space
    of x with every row_i . x = 0; rows are given as ``{column: value}``
    on the columns below ``ncols``, and a modulus of 1 drops its row.

    Over Z the kernel of the rows with one slack column of value -m per
    row of modulus m > 1, projected onto x.  ``_eliminate`` pivots on the
    units of the x columns only (+-1 over Z, any nonzero entry over F_p),
    so every pivot is an invertible substitution and the kernel stays
    exact; slack entries are multiples of their modulus and never pivot.
    The leftover rows (no unit entry; none over F_p) go to the dense
    ``kernel`` on the columns they meet; every other non-pivot column is
    a free generator.  Each generator is lifted through the pivot rows
    and cut to x, and ``LatticeBasis.from_vectors`` makes the result
    canonical (HNF or RREF), so over Z it equals ``kernel_into_cokernel``
    of the same system.  No saturation, as there: torsion quotients stay.
    """
    if len(rows) != len(moduli):
        raise ValueError("one modulus per row required")
    if p and not is_prime(p):
        raise ValueError(f"{p} is not prime")
    work, slack = [], ncols
    for row, modulus in zip(rows, moduli):
        if modulus == 1:
            continue  # every integer is divisible by 1
        if any(not 0 <= c < ncols for c in row):
            raise ValueError("row entry outside the first ncols columns")
        row = {c: v % p if p else v for c, v in row.items()}
        row = {c: v for c, v in row.items() if v}
        if modulus > 1:
            if p:
                raise ValueError("over F_p every modulus must be 0 or 1")
            row[slack] = -modulus
            slack += 1
        work.append(row)
    pivots, leftover = _eliminate(work, ncols, p)
    met = {c for row in leftover for c in row}
    pivoted = {c for c, _, _ in pivots}
    gens = [{c: 1} for c in range(slack) if c not in pivoted and c not in met]
    if leftover:
        cols = sorted(met)
        dense = IntMatrix([[row.get(c, 0) for c in cols] for row in leftover], cols=len(cols))
        gens += [{c: x for c, x in zip(cols, vec) if x} for vec in kernel(dense).vectors]
    return LatticeBasis.from_vectors(ncols, _lift(pivots, gens, ncols, p), p)


def rows_hold(rows: list[dict[int, int]], moduli: list[int], vectors, p: int = 0) -> bool:
    """Whether every vector meets every row in the sense of
    ``sparse_kernel(rows, moduli, ncols, p)``: over Z, row . x is 0 where
    the modulus is 0 and divisible by it otherwise; over F_p it is 0 mod
    p; a modulus of 1 drops its row.

    One sparse product for all vectors at once: the vectors are indexed
    by column as {column: [(vector index, value)]}, and each row sums
    its entries times the values of the vectors that meet its columns.
    """
    by_column: dict[int, list[tuple[int, int]]] = {}
    for i, vec in enumerate(vectors):
        for c, x in enumerate(vec):
            if x:
                by_column.setdefault(c, []).append((i, x))
    for row, modulus in zip(rows, moduli):
        if modulus == 1:
            continue
        acc: dict[int, int] = {}
        for c, v in row.items():
            for i, x in by_column.get(c, ()):
                acc[i] = acc.get(i, 0) + v * x
        m = p or modulus
        for s in acc.values():
            if s % m if m else s:
                return False
    return True


def _solve_linear(a: IntMatrix, target: list[int]) -> list[int] | None:
    """One integer solution z of a z = target, or None."""
    if len(target) != a.rows:
        raise ValueError("target length mismatch")
    h, u = hnf(a.transpose())
    # row i of h equals a applied to row i of u, and the nonzero rows of h
    # come first, so they are the HNF basis of the image lattice
    image = LatticeBasis(a.rows, tuple(tuple(row) for row in h.data if any(row)))
    residual, coords = image._reduce(target)
    if any(residual):
        return None
    z = [0] * a.cols
    for i, c in enumerate(coords):
        if c:
            _row_addmul(z, u.data[i], c, 0)
    return z


def solve_with_image(m: IntMatrix, d: IntMatrix, target: list[int]) -> list[int] | None:
    """Some v with m v congruent to target modulo the column image of d."""
    if m.rows != d.rows:
        raise ValueError("row count mismatch")
    z = _solve_linear(m.hstack(d), target)
    return None if z is None else z[: m.cols]


# Miller-Rabin with the first 13 primes as bases is exact below PRIME_BOUND,
# the least strong pseudoprime to all of them (Sorenson and Webster 2017)
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Deterministic primality for p < PRIME_BOUND; a larger p raises
    ValueError."""
    if p >= PRIME_BOUND:
        raise ValueError(f"primality is decided only below {PRIME_BOUND}")
    if p < 2:
        return False
    for a in _WITNESSES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def modp_rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over F_p; returns (nonzero rows, pivot cols)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    mat = _hnf_rows([[x % p for x in row] for row in rows], len(rows[0]) if rows else 0, p)
    mat = [row for row in mat if any(row)]
    return mat, [row.index(1) for row in mat]  # the first nonzero entry is the pivot 1


def modp_solve(rows: list[list[int]], target: list[int], p: int) -> list[int] | None:
    """One solution x of rows * x = target over F_p, or None."""
    if len(rows) != len(target):
        raise ValueError("target length mismatch")
    ncols = len(rows[0]) if rows else 0
    rref, pivots = modp_rref([list(r) + [t] for r, t in zip(rows, target)], p)
    if ncols in pivots:
        return None
    solved = {j: row[ncols] for row, j in zip(rref, pivots)}
    return [solved.get(j, 0) for j in range(ncols)]

"""Exact linear algebra over plain Python ints: Hermite normal forms,
integer kernels and solvers over Z, echelon forms over F_p.  No floats,
no numpy; arbitrary precision throughout.

Conventions:
  * ``IntMatrix`` is dense, row major; the sparse routines take rows as
    ``{column: value}`` dicts, and over Z ``sparse_kernel`` runs one
    ``_eliminate`` on every column, which divides the rows it is left
    with by their content and pivots on them again, and leaves only the
    rows that have no entry +-1 even so, if any, to the dense ``kernel``;
    a solve that needs none of the three (slack, division, dense rest) is
    clean, and its lattice reduced mod any prime is the F_p kernel;
  * ``LatticeBasis`` is the one canonical row basis of both rings: the
    HNF over Z (p = 0), the RREF over F_p, each row kept sparse as the
    sorted ``(column, value)`` pairs of its nonzero entries, so equal
    spans have equal ``vectors`` and one ``coordinates_of`` serves both;
  * ``hnf`` is row-style: pivots positive, strictly increasing pivot
    columns, entries above a pivot reduced into ``[0, pivot)``, zero rows
    at the bottom; the dense ``_hnf_rows`` computes it, pivoting on the
    entry of smallest absolute value to keep coefficients small;
  * over Z the form of the rows picks the echelon: ``{column: value}``
    rows (the lifted kernels, 2 % nonzero on Q4k3 in degree 8) go to the
    sparse pivot-first ``_z_echelon``, list rows (``hnf``, ``kernel`` and
    the re-based map-back, 56 % nonzero on Fl4-skew in degree 4) to
    ``_hnf_rows``, which walks a dense row faster than a dict;
  * over F_p the one echelon is the sparse Gauss-Jordan ``_fp_echelon``,
    behind ``LatticeBasis.from_vectors``, ``modp_rref``, ``modp_solve``
    and ``sparse_kernel``, which reads the kernel straight off it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import gcd


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

    @classmethod
    def _of(cls, data: list[list[int]], cols: int) -> "IntMatrix":
        """Unchecked and uncopied: rows of ints built in this module."""
        m = object.__new__(cls)
        m.data = data
        m.rows = len(data)
        m.cols = cols
        return m

    def transpose(self) -> "IntMatrix":
        return IntMatrix._of(
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)], self.rows
        )

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        return IntMatrix._of(
            [self.data[i] + other.data[i] for i in range(self.rows)], self.cols + other.cols
        )

    def neg(self) -> "IntMatrix":
        return IntMatrix._of([[-x for x in row] for row in self.data], self.cols)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self) -> str:
        return f"IntMatrix({self.data!r})"


def _row_addmul(target: list[int], source: list[int], factor: int, start: int = 0) -> None:
    """target += factor * source from column ``start`` on."""
    for k in range(start, len(target)):
        target[k] += factor * source[k]


def _hnf_rows(h: list[list[int]], ncols: int) -> list[list[int]]:
    """Row Hermite normal form of ``h`` over Z, in place, pivoting only on
    the first ``ncols`` columns; later columns ride along (``hnf`` records
    the transform there).  Column elimination is euclidean: the first
    entry of smallest magnitude is swapped into pivot position and the
    others are reduced by it until one survivor remains.  Every row from
    ``cur`` on is zero left of column j, and so is every row update, so
    each starts at column j."""
    nrows = len(h)
    cur = 0
    for j in range(ncols):
        if cur >= nrows:
            break
        while True:
            piv = None
            for i in range(cur, nrows):
                x = h[i][j]
                if x != 0 and (piv is None or abs(x) < abs(h[piv][j])):
                    piv = i
                    if x == 1 or x == -1:
                        break  # no later entry is smaller
            if piv is None:
                break
            if piv != cur:
                h[cur], h[piv] = h[piv], h[cur]
            d = h[cur][j]
            finished = True
            for i in range(cur + 1, nrows):
                if h[i][j] != 0:
                    q = h[i][j] // d
                    if q:
                        _row_addmul(h[i], h[cur], -q, j)
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
                    _row_addmul(h[i], h[cur], -q, j)
            cur += 1
    return h


def hnf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form: ``(h, u)`` with ``u`` unimodular and
    ``u * m == h``, from ``_hnf_rows`` on ``[m | I]``."""
    rows = [row + [int(i == r) for i in range(m.rows)] for r, row in enumerate(m.data)]
    _hnf_rows(rows, m.cols)
    h = IntMatrix._of([row[: m.cols] for row in rows], m.cols)
    return h, IntMatrix._of([row[m.cols :] for row in rows], m.rows)


def _z_echelon(rows) -> dict[int, dict[int, int]]:
    """HNF over Z of ``{column: value}`` rows (left intact), as {pivot
    column: pivot row}.  Each row in turn is reduced pivot first, as in
    ``_fp_echelon``: on a pivot column it takes away the floor multiple of
    the pivot row, and a nonzero remainder, smaller than the pivot, takes
    its place while the old pivot row goes on (the euclidean step of
    ``_hnf_rows``); on a new leading column the row pivots, made
    positive.  Then each pivot row, the last first, reduces its entries
    on later pivot columns into ``[0, pivot)``, in column order off a
    heap: the rows below are reduced already and add entries only to the
    right of the column they clear."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        v = dict(row) if 0 not in row.values() else {c: x for c, x in row.items() if x}
        while v:
            lead = min(v)
            r = pivots.get(lead)
            if r is None:
                pivots[lead] = v if v[lead] > 0 else {c: -x for c, x in v.items()}
                break
            q = v[lead] // r[lead]
            if q:
                _z_addmul(v, r, -q)
            if lead in v:
                pivots[lead], v = v, r
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        todo = list(row.keys() & pivots.keys())
        heapq.heapify(todo)
        heapq.heappop(todo)  # the row's own pivot, its first column
        while todo:
            j = heapq.heappop(todo)
            r = pivots[j]
            q = row.get(j, 0) // r[j]
            if q:
                for c in _z_addmul(row, r, -q):
                    if c in pivots:
                        heapq.heappush(todo, c)
    return pivots


def _z_addmul(target: dict[int, int], source: dict[int, int], f: int) -> list[int]:
    """target += f * source on ``{column: value}`` rows over Z; returns the
    columns that were zero in target and are not now."""
    new = []
    for c, x in source.items():
        y = target.get(c, 0) + f * x
        if y:
            if c not in target:
                new.append(c)
            target[c] = y
        else:
            del target[c]
    return new


@dataclass(frozen=True)
class LatticeBasis:
    """Span of row vectors in Z^n (p = 0) or F_p^n, given by its canonical
    row basis: the nonzero HNF rows over Z, the RREF rows over F_p, each
    as the sorted ``(column, value)`` pairs of its nonzero entries.  Equal
    spans have identical ``vectors``, so equality is tuple equality."""

    ambient_dim: int
    vectors: tuple[tuple[tuple[int, int], ...], ...]
    p: int = 0

    @classmethod
    def from_vectors(cls, ambient_dim: int, vecs: list, p: int = 0) -> "LatticeBasis":
        """The canonical basis of the span of ``vecs``: ``{column: value}``
        dicts, or sequences of length ``ambient_dim``.  Over Z the form
        picks the echelon (``_z_echelon`` for dicts, ``_hnf_rows`` for
        sequences); over F_p both go to ``_fp_echelon``."""
        if not (vecs and isinstance(vecs[0], dict)):
            if any(len(v) != ambient_dim for v in vecs):
                raise ValueError("vector length mismatch")
            if not p:
                dense = _hnf_rows([list(v) for v in vecs], ambient_dim)
                return cls(ambient_dim, tuple(_pairs(row) for row in dense if any(row)))
            vecs = [dict(_pairs(v)) for v in vecs]
        elif any(min(v) < 0 or max(v) >= ambient_dim for v in vecs if v):
            raise ValueError("vector entry outside the ambient coordinates")
        if not p:
            pivots = _z_echelon(vecs)
            return cls(ambient_dim, tuple(tuple(sorted(pivots[c].items())) for c in sorted(pivots)))
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        pivots = _fp_echelon(vecs, ambient_dim, p)
        rows = tuple(((c, 1), *sorted(pivots[c].items())) for c in sorted(pivots))
        return cls(ambient_dim, rows, p)

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
            j, lead = row[0]
            x = residual[j] % p if p else residual[j]
            if x == 0:
                continue
            if x % lead != 0:
                return residual, coords
            c = coords[i] = x // lead
            for k, y in row:
                residual[k] -= c * y
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


def _pairs(row) -> tuple[tuple[int, int], ...]:
    """The (column, value) pairs of the nonzero entries of a list row."""
    return tuple((c, x) for c, x in enumerate(row) if x)


def dense_row(entries, width: int) -> list[int]:
    """The list row of the given width with the (column, value) entries."""
    row = [0] * width
    for c, x in entries:
        row[c] = x
    return row


def kernel(m: IntMatrix) -> LatticeBasis:
    """Basis of the right kernel {v : m v = 0}; automatically saturated."""
    h, u = hnf(m.transpose())
    vecs = [u.data[i] for i in range(h.rows) if not any(h.data[i])]
    return LatticeBasis.from_vectors(m.cols, vecs)


def kernel_into_cokernel(m: IntMatrix, d: IntMatrix) -> LatticeBasis:
    """Basis of {v : m v lies in the column image of d}, by dense HNF:
    the projection of ker([m | -d]) onto the first block.  With the slack
    coordinates last, the HNF rows of that kernel with a pivot among the
    first ``m.cols`` coordinates, cut there, are already the HNF of the
    projection.  No saturation: torsion quotients stay.  The reference
    that ``sparse_kernel`` is tested against.
    """
    if m.rows != d.rows:
        raise ValueError("row count mismatch")
    joint = kernel(m.hstack(d.neg()))
    cut = (tuple((c, x) for c, x in v if c < m.cols) for v in joint.vectors)
    return LatticeBasis(m.cols, tuple(v for v in cut if v))


def _eliminate(rows: list[dict[int, int]], ncols: int):
    """Structured Gaussian elimination over Z on sparse rows, consumed.

    Only columns below ``ncols`` pivot (later columns ride along), and
    only on an entry +-1, so every pivot is a unimodular substitution.  The
    shortest row with such an entry pivots next (Markowitz order), on its
    rightmost one, so the columns that never pivot tend to be the early
    ones and the lifted kernel basis comes out close to its canonical
    form: on CP^4 degree 10 that made the final (then dense) echelon more
    than ten times cheaper than pivoting on the column met by the fewest
    rows.  Each pivot column is cleared from every other row.  Each row is
    an equation over Z, so once no row left has an entry +-1, every row
    is divided by its content, which keeps its integer solutions, and the
    divided rows look again; dividing only then keeps the unit pivots in
    the order they had before any division.  Returns ``(pivots,
    leftover, divided)``: the (column, inverse of the pivot entry, rest of
    the row as (column, value) pairs) triples in pivot order, the nonzero
    rows left, primitive and without an entry +-1 below ``ncols``, and
    whether any row was divided by a content above 1."""
    colrows: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for c in row:
            if c < ncols:
                colrows.setdefault(c, set()).add(i)
    active = {i for i, row in enumerate(rows) if row}
    heap = [(len(rows[i]), i) for i in active]
    heapq.heapify(heap)
    pivots = []
    divided = False
    while True:
        if not heap:  # drained: divide each row left by its content, look again
            for k in active:
                g = gcd(*rows[k].values())
                if g > 1:
                    rows[k] = {c: v // g for c, v in rows[k].items()}
                    heap.append((len(rows[k]), k))
                    divided = True
            if not heap:
                break
            heapq.heapify(heap)
        length, i = heapq.heappop(heap)
        row = rows[i]
        if i not in active or len(row) != length:
            continue  # pivoted already, or changed and pushed again
        units = [c for c, v in row.items() if c < ncols and (v == 1 or v == -1)]
        if not units:
            continue  # comes back on the heap if a later pivot changes it
        c = max(units)
        inv = row.pop(c)  # +-1 is its own inverse
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
    return pivots, [rows[i] for i in sorted(active)], divided


def _lift(pivots, gens: list[dict[int, int]], ncols: int) -> list[dict[int, int]]:
    """The kernel vectors with the given values off the pivot columns, cut
    to the first ``ncols`` coordinates, as ``{column: value}`` rows.  Each
    pivot value is solved from its row, last pivot first, so the columns
    that row still meets are known; values are kept per column as
    {generator: value}."""
    values: dict[int, dict[int, int]] = {}
    for g, gen in enumerate(gens):
        for c, x in gen.items():
            values.setdefault(c, {})[g] = x
    for c, inv, rest in reversed(pivots):
        acc: dict[int, int] = {}
        for col, v in rest:
            for g, x in values.get(col, {}).items():
                acc[g] = acc.get(g, 0) + v * x
        solved = {g: -inv * s for g, s in acc.items() if s}
        if solved:
            values[c] = solved
    vecs: list[dict[int, int]] = [{} for _ in gens]
    for c in sorted(values):  # rows come out sorted, so the HNF sorts them in one pass
        if c < ncols:
            for g, x in values[c].items():
                vecs[g][c] = x
    return vecs


def sparse_kernel(
    rows: list[dict[int, int]], moduli: list[int], ncols: int, p: int = 0
) -> tuple[LatticeBasis, bool]:
    """Lattice of x in Z^ncols with row_i . x divisible by moduli[i] >= 0
    for every i (modulus 0: row_i . x = 0), or over F_p (p > 0) the space
    of x with every row_i . x = 0; rows are ``{column: value}`` on the
    columns below ``ncols``, and a modulus of 1 drops its row.

    Returns the kernel and whether its solve was clean, which only a
    solve over Z can be: no row of modulus above 1 (so no slack column),
    no row divided by its content and no row left for the dense
    ``kernel``.  Then the rows are unimodular combinations of the pivot
    rows, triangular with +-1 pivots, and the lattice is spanned by one
    lifted vector per free column, 1 there and 0 on the other free
    columns.  So for every prime q the rows have as many pivots over F_q
    as over Q, the lattice reduced mod q has the dimension of the F_q
    kernel of the same rows and lies in it, and the RREF of the reduced
    lattice is that kernel.  Over F_p the flag is False.

    Over F_p the kernel is read off ``_fp_echelon`` of the rows with
    their columns reversed: that RREF pivots on the latest columns, so the
    vector that is 1 at a free column f and minus the pivot rows' entries
    at f elsewhere is nonzero only at f and at later pivot columns, and
    these vectors, by ascending f, are the kernel's RREF.

    Over Z the kernel of the rows with one slack column of value -m per
    row of modulus m > 1, projected onto x.  ``_eliminate`` pivots on the
    +-1 entries of every column, slack columns included: a slack entry
    stays a multiple of its modulus until its row is divided by its
    content (on a content-2 label the rows left read 2s + 2t = 0 on slack
    columns alone).  Every pivot is a unimodular substitution of the joint
    (x, slack) system, so the projection onto x is unchanged.  The rows
    still left go to the dense ``kernel`` on the columns they meet; every
    other non-pivot column is a free generator.  The generators, lifted
    through the pivot rows and cut to x, are made canonical by
    ``LatticeBasis.from_vectors``, so the result equals
    ``kernel_into_cokernel`` of the same system.
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
        row = {c: v for c, v in row.items() if v}
        if modulus > 1:
            if p:
                raise ValueError("over F_p every modulus must be 0 or 1")
            row[slack] = -modulus
            slack += 1
        work.append(row)
    if p:
        last = ncols - 1
        pivots = _fp_echelon([{last - c: v for c, v in row.items()} for row in work], ncols, p)
        vecs = {f: {f: 1} for f in range(ncols) if last - f not in pivots}
        for c, rest in pivots.items():
            for f, x in rest.items():
                vecs[last - f][last - c] = -x % p
        return LatticeBasis(ncols, tuple(tuple(sorted(v.items())) for v in vecs.values()), p), False
    pivots, leftover, divided = _eliminate(work, slack)
    met = {c for row in leftover for c in row}
    pivoted = {c for c, _, _ in pivots}
    gens = [{c: 1} for c in range(slack) if c not in pivoted and c not in met]
    if leftover:
        cols = sorted(met)
        dense = IntMatrix._of([[row.get(c, 0) for c in cols] for row in leftover], len(cols))
        gens += [{cols[c]: x for c, x in vec} for vec in kernel(dense).vectors]
    clean = slack == ncols and not divided and not leftover
    return LatticeBasis.from_vectors(ncols, _lift(pivots, gens, ncols)), clean


def rows_hold(rows: list[dict[int, int]], moduli: list[int], vectors, p: int = 0) -> bool:
    """Whether every vector meets every row in the sense of
    ``sparse_kernel(rows, moduli, ncols, p)``, by one sparse product for
    all vectors at once: the vectors indexed by column as {column:
    [(vector index, value)]}, each row sums its entries times the values
    of the vectors that meet its columns."""
    by_column: dict[int, list[tuple[int, int]]] = {}
    for i, vec in enumerate(vectors):
        for c, x in vec:
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


def solve_with_image(m: IntMatrix, d: IntMatrix, target: list[int]) -> list[int] | None:
    """Some v with m v congruent to target modulo the column image of d."""
    if m.rows != d.rows:
        raise ValueError("row count mismatch")
    if len(target) != m.rows:
        raise ValueError("target length mismatch")
    a = m.hstack(d)
    h, u = hnf(a.transpose())
    # row i of h equals a applied to row i of u, and the nonzero rows of h
    # come first, so they are the HNF basis of the image lattice
    image = LatticeBasis(a.rows, tuple(_pairs(row) for row in h.data if any(row)))
    residual, coords = image._reduce(target)
    if any(residual):
        return None
    z = [0] * a.cols
    for i, c in enumerate(coords):
        if c:
            _row_addmul(z, u.data[i], c)
    return z[: m.cols]


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


def _addmul(target: dict[int, int], source: dict[int, int], f: int, p: int) -> None:
    """target += f * source over F_p on ``{column: value}`` rows, f != 0."""
    for c, x in source.items():
        y = (target.get(c, 0) + f * x) % p
        if y:
            target[c] = y
        else:
            del target[c]  # f * x != 0, so c was in target


def _fp_echelon(rows, ncols: int, p: int, track: bool = False) -> dict[int, dict[int, int]]:
    """RREF over F_p of ``{column: value}`` rows (left intact, entries
    unreduced) by incremental Gauss-Jordan in index order, as {pivot
    column: rest of the pivot row}.  A row cleared of the pivots so far
    pivots on its first column below ``ncols``, the one leading column it
    adds to the span, scaled to 1 and cleared from the earlier pivot rows.
    Later columns ride along: ``track`` puts 1 at ``ncols + i`` on row i,
    so each pivot row carries its combination of the rows."""
    pivots: dict[int, dict[int, int]] = {}
    for i, row in enumerate(rows):
        v = {c: y for c, x in row.items() if (y := x % p)}
        if track:
            v[ncols + i] = 1
        for c in [c for c in v if c in pivots]:  # a pivot row is 0 on the other pivots
            _addmul(v, pivots[c], -v.pop(c), p)
        lead = min(v, default=ncols)
        if lead < ncols:
            inv = pow(v.pop(lead), p - 2, p)
            if inv != 1:
                v = {c: x * inv % p for c, x in v.items()}
            for rest in pivots.values():
                if lead in rest:
                    _addmul(rest, v, -rest.pop(lead), p)
            pivots[lead] = v
    return pivots


def modp_rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over F_p; returns (nonzero rows, pivot cols)."""
    n = len(rows[0]) if rows else 0
    vectors = LatticeBasis.from_vectors(n, rows, p).vectors
    return [dense_row(v, n) for v in vectors], [v[0][0] for v in vectors]


def modp_solve(images: list[dict[int, int]], target: list[int], p: int) -> list[int] | None:
    """Coefficients x with sum_i x_i images[i] = target over F_p, 0 on each
    image in the span of those before it, or None; the images are
    ``{column: value}`` rows on the coordinates of target.  Cleared by the
    tracked ``_fp_echelon`` of the images, target keeps -x on the tracking
    columns, and nothing on its own exactly when it lies in their span."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    n = len(target)
    if any(max(image, default=-1) >= n for image in images):
        raise ValueError("image entry outside the target's coordinates")
    pivots = _fp_echelon(images, n, p, track=True)
    t = {c: y for c, x in enumerate(target) if (y := x % p)}
    for c in [c for c in t if c in pivots]:
        _addmul(t, pivots[c], -t.pop(c), p)
    if min(t, default=n) < n:
        return None
    x = [0] * len(images)
    for c, v in t.items():
        x[c - n] = -v % p
    return x

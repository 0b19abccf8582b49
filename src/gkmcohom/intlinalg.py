"""Exact integer linear algebra over plain Python ints.

Everything downstream (edge congruences, cohomology lattices, preimage
searches) reduces to Hermite normal forms, integer kernels, and exact
solvers, so this module keeps them small and auditable.  No floats, no
numpy; arbitrary precision throughout.

Conventions:
  * matrices are dense, row major;
  * ``hnf`` is row-style: pivots positive, strictly increasing pivot
    columns, entries above a pivot reduced into ``[0, pivot)``, zero rows
    at the bottom;
  * pivot selection always takes the entry of smallest absolute value to
    keep intermediate coefficients small.
"""

from __future__ import annotations

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

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

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


def _row_addmul(target: list[int], source: list[int], factor: int) -> None:
    for k in range(len(target)):
        target[k] += factor * source[k]


def hnf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form.

    Returns ``(h, u)`` with ``u`` unimodular and ``u * m == h``.  Column
    elimination is euclidean: the smallest-magnitude entry is swapped into
    pivot position and all other entries in the column are reduced by it
    until one survivor remains.
    """
    h = [row.copy() for row in m.data]
    u = [[1 if i == j else 0 for j in range(m.rows)] for i in range(m.rows)]
    cur = 0
    for j in range(m.cols):
        if cur >= m.rows:
            break
        while True:
            piv = None
            for i in range(cur, m.rows):
                if h[i][j] != 0 and (piv is None or abs(h[i][j]) < abs(h[piv][j])):
                    piv = i
            if piv is None:
                break
            if piv != cur:
                h[cur], h[piv] = h[piv], h[cur]
                u[cur], u[piv] = u[piv], u[cur]
            p = h[cur][j]
            finished = True
            for i in range(cur + 1, m.rows):
                if h[i][j] != 0:
                    q = h[i][j] // p
                    if q:
                        _row_addmul(h[i], h[cur], -q)
                        _row_addmul(u[i], u[cur], -q)
                    if h[i][j] != 0:
                        finished = False
            if finished:
                break
        if cur < m.rows and h[cur][j] != 0:
            if h[cur][j] < 0:
                h[cur] = [-x for x in h[cur]]
                u[cur] = [-x for x in u[cur]]
            p = h[cur][j]
            for i in range(cur):
                q = h[i][j] // p
                if q:
                    _row_addmul(h[i], h[cur], -q)
                    _row_addmul(u[i], u[cur], -q)
            cur += 1
    return IntMatrix(h, cols=m.cols), IntMatrix(u, cols=m.rows)


def unimodular_inverse(m: IntMatrix) -> IntMatrix:
    """Inverse of a unimodular matrix (its HNF must be the identity)."""
    h, u = hnf(m)
    if h != IntMatrix.identity(m.rows):
        raise ValueError("matrix is not unimodular")
    return u


@dataclass(frozen=True)
class LatticeBasis:
    """Sublattice of Z^n given by an HNF-canonical row basis.

    Two equal sublattices always produce identical ``vectors``, so lattice
    equality is tuple equality.
    """

    ambient_dim: int
    vectors: tuple[tuple[int, ...], ...]

    @classmethod
    def from_vectors(cls, ambient_dim: int, vecs: list) -> "LatticeBasis":
        if not vecs:
            return cls(ambient_dim, ())
        h, _ = hnf(IntMatrix([list(v) for v in vecs], cols=ambient_dim))
        rows = [tuple(row) for row in h.data if any(row)]
        return cls(ambient_dim, tuple(rows))

    @property
    def rank(self) -> int:
        return len(self.vectors)

    def _reduce(self, v) -> tuple[list[int], list[int]]:
        residual = list(v)
        coords = [0] * len(self.vectors)
        for i, row in enumerate(self.vectors):
            j = next(k for k, x in enumerate(row) if x != 0)
            if residual[j] == 0:
                continue
            if residual[j] % row[j] != 0:
                return residual, coords
            c = residual[j] // row[j]
            coords[i] = c
            for k in range(j, self.ambient_dim):
                residual[k] -= c * row[k]
        return residual, coords

    def coordinates_of(self, v) -> list[int] | None:
        """Integer coordinates of v in this basis, or None if outside."""
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
    """Basis of {v : m v lies in the column image of d}.

    The projection of ker([m | -d]) onto the first block.  The slack
    coordinates of d come last, so the HNF rows of that kernel whose
    pivot lies among the first ``m.cols`` coordinates, cut there, are
    already the HNF of the projection, and every other row cuts to zero.
    Deliberately no saturation: the result is exactly the preimage
    lattice, torsion quotients and all.
    """
    if m.rows != d.rows:
        raise ValueError("row count mismatch")
    joint = kernel(m.hstack(d.neg()))
    return LatticeBasis(m.cols, tuple(v[: m.cols] for v in joint.vectors if any(v[: m.cols])))


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
            _row_addmul(z, u.data[i], c)
    return z


def solve_with_image(m: IntMatrix, d: IntMatrix, target: list[int]) -> list[int] | None:
    """Some v with m v congruent to target modulo the column image of d."""
    if m.rows != d.rows:
        raise ValueError("row count mismatch")
    z = _solve_linear(m.hstack(d), target)
    return None if z is None else z[: m.cols]


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def modp_rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over F_p; returns (nonzero rows, pivot cols)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    mat = [[x % p for x in row] for row in rows]
    pivots: list[int] = []
    cur = 0
    ncols = len(mat[0]) if mat else 0
    for j in range(ncols):
        piv = next((i for i in range(cur, len(mat)) if mat[i][j] % p != 0), None)
        if piv is None:
            continue
        mat[cur], mat[piv] = mat[piv], mat[cur]
        inv = pow(mat[cur][j], p - 2, p)
        mat[cur] = [(x * inv) % p for x in mat[cur]]
        for i in range(len(mat)):
            if i != cur and mat[i][j]:
                f = mat[i][j]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[cur])]
        pivots.append(j)
        cur += 1
        if cur == len(mat):
            break
    return mat[:cur], pivots


def modp_kernel(m: IntMatrix, p: int) -> list[list[int]]:
    """Basis of the kernel of m over F_p, entries reduced into [0, p)."""
    rref, pivots = modp_rref(m.data, p)
    pivot_set = set(pivots)
    basis = []
    for j in range(m.cols):
        if j in pivot_set:
            continue
        v = [0] * m.cols
        v[j] = 1
        for i, pj in enumerate(pivots):
            v[pj] = (-rref[i][j]) % p
        basis.append(v)
    return basis


def modp_solve(rows: list[list[int]], target: list[int], p: int) -> list[int] | None:
    """One solution x of rows * x = target over F_p, or None."""
    if len(rows) != len(target):
        raise ValueError("target length mismatch")
    ncols = len(rows[0]) if rows else 0
    aug = [list(r) + [t] for r, t in zip(rows, target)]
    if not aug:
        return []
    rref, pivots = modp_rref(aug, p)
    x = [0] * ncols
    for i, j in enumerate(pivots):
        if j == ncols:
            return None
        x[j] = rref[i][ncols]
    return x

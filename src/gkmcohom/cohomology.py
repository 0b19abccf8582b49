"""Graded equivariant graph cohomology over Z and Z/p.

A degree-2d class assigns a homogeneous degree-d polynomial to every
vertex such that across each edge the difference of the endpoint values
is divisible by the edge label.  The condition is local to each edge and
has one encoding, the cached ``polyring.divisibility_rows``: with label =
m * w0 (m the content), the substitution
``polyring.substitution_matrix(w0, d)`` turns w0 into y1, and the label
divides f_u - f_v iff the substituted difference vanishes at the y1-free
monomials and is divisible by m at the others.  ``_edge_rows`` writes
these rows on the vertex coefficients for the graded pieces, and
``membership_z`` reads the same rows through
``polyring.congruent_mod_weight`` for single classes.  Over Z the
classes form the HNF lattice of vertex vectors meeting those rows, with
one slack column of value m per row of an edge with m > 1.  Over Z/p an
edge with p | m forces equal endpoint values; on any other edge m is a
unit, so only the y1-free rows remain, and the classes are the RREF basis
of the F_p kernel.  Over Z/p the edges with p | m also carry an extra
summand of difference quotients; the comparison map
``reduce_class_mod_p`` lands in that enlarged ring and
``integral_preimage`` decides whether a mod-p class comes from an
integral one.
"""

from __future__ import annotations

from .graph import Conventions, DEFAULT_CONVENTIONS, GkmGraph, InvariantError, edges_div_p
from .intlinalg import (
    IntMatrix,
    is_prime,
    kernel_into_cokernel,
    modp_kernel,
    modp_rref,
    modp_solve,
)
from .polyring import (
    GradedPoly,
    congruent_mod_weight,
    divide_by_linear,
    divisibility_rows,
    num_monomials,
    reduce_mod_p,
)


def _normalize_values(k: int, d: int, p: int, values) -> tuple:
    out = []
    for f in values:
        if not isinstance(f, GradedPoly):
            raise TypeError("vertex values must be GradedPoly")
        if f.k != k or f.p != p:
            raise ValueError("vertex value in the wrong polynomial ring")
        if f.degree != d:
            if not f.is_zero():
                raise ValueError(f"vertex value has degree {f.degree}, expected {d}")
            f = GradedPoly.zero(k, d, p)
        out.append(f)
    return tuple(out)


class GraphClassZ:
    """Integral class: one degree-d polynomial per vertex, degree2 = 2d."""

    __slots__ = ("graph", "degree2", "values")

    def __init__(self, graph: GkmGraph, degree2: int, values):
        if degree2 < 0 or degree2 % 2:
            raise ValueError("cohomological degree must be even and non-negative")
        if len(values) != len(graph.vertices):
            raise ValueError("one value per vertex required")
        self.graph = graph
        self.degree2 = degree2
        self.values = _normalize_values(graph.torus_rank, degree2 // 2, 0, values)

    @classmethod
    def zero(cls, graph: GkmGraph, degree2: int) -> "GraphClassZ":
        d = degree2 // 2
        z = GradedPoly.zero(graph.torus_rank, d)
        return cls(graph, degree2, (z,) * len(graph.vertices))

    def to_vector(self) -> list[int]:
        out: list[int] = []
        for f in self.values:
            out.extend(f.coeffs)
        return out

    def _check_peer(self, other: "GraphClassZ") -> None:
        if self.graph is not other.graph and self.graph != other.graph:
            raise ValueError("classes live on different graphs")

    def __add__(self, other: "GraphClassZ") -> "GraphClassZ":
        self._check_peer(other)
        if self.degree2 != other.degree2:
            raise ValueError("degree mismatch")
        return GraphClassZ(
            self.graph,
            self.degree2,
            [a + b for a, b in zip(self.values, other.values)],
        )

    def __sub__(self, other: "GraphClassZ") -> "GraphClassZ":
        return self + other.scale(-1)

    def scale(self, c: int) -> "GraphClassZ":
        return GraphClassZ(self.graph, self.degree2, [f.scale(c) for f in self.values])

    def __neg__(self) -> "GraphClassZ":
        return self.scale(-1)

    def __mul__(self, other: "GraphClassZ") -> "GraphClassZ":
        self._check_peer(other)
        return GraphClassZ(
            self.graph,
            self.degree2 + other.degree2,
            [a * b for a, b in zip(self.values, other.values)],
        )

    def module_mul(self, poly: GradedPoly) -> "GraphClassZ":
        """Multiply by a global polynomial (same value at every vertex)."""
        if poly.p != 0 or poly.k != self.graph.torus_rank:
            raise ValueError("module multiplier must be integral in the same variables")
        shift = 2 * poly.degree if not poly.is_zero() else 0
        return GraphClassZ(self.graph, self.degree2 + shift, [f * poly for f in self.values])

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphClassZ):
            return NotImplemented
        return (
            self.graph == other.graph
            and self.degree2 == other.degree2
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash((self.degree2, self.values))

    def render_values(self) -> list[str]:
        return [f.render() for f in self.values]

    def __repr__(self) -> str:
        return f"GraphClassZ(deg {self.degree2}: {', '.join(self.render_values())})"


class GraphClassModP:
    """Mod-p class with vertex part and difference-quotient part.

    The quotient part assigns to every edge whose label vanishes mod p a
    polynomial of degree d-1 (a cohomological shift of 2 down).
    """

    __slots__ = ("graph", "p", "degree2", "values", "b_part")

    def __init__(self, graph: GkmGraph, p: int, degree2: int, values, b_part=None):
        if not is_prime(p):
            raise ValueError("p must be prime")
        if degree2 < 0 or degree2 % 2:
            raise ValueError("cohomological degree must be even and non-negative")
        if len(values) != len(graph.vertices):
            raise ValueError("one value per vertex required")
        self.graph = graph
        self.p = p
        self.degree2 = degree2
        d = degree2 // 2
        self.values = _normalize_values(graph.torus_rank, d, p, values)
        special = edges_div_p(graph, p)
        b_part = dict(b_part or {})
        for e in b_part:
            if e not in special:
                raise ValueError(f"edge {e} has nonzero label mod {p}; no quotient slot")
        fixed = {}
        for e in special:
            f = b_part.get(e)
            if f is None or f.is_zero():
                f = GradedPoly.zero(graph.torus_rank, d - 1, p)
            if f.k != graph.torus_rank or f.p != p:
                raise ValueError("quotient value in the wrong ring")
            if not f.is_zero() and f.degree != d - 1:
                raise ValueError("quotient value has the wrong degree")
            fixed[e] = f
        self.b_part = fixed

    @classmethod
    def zero(cls, graph: GkmGraph, p: int, degree2: int) -> "GraphClassModP":
        d = degree2 // 2
        z = GradedPoly.zero(graph.torus_rank, d, p)
        return cls(graph, p, degree2, (z,) * len(graph.vertices))

    def _check_peer(self, other: "GraphClassModP") -> None:
        if self.graph != other.graph or self.p != other.p:
            raise ValueError("classes live in different rings")

    def __add__(self, other: "GraphClassModP") -> "GraphClassModP":
        self._check_peer(other)
        if self.degree2 != other.degree2:
            raise ValueError("degree mismatch")
        return GraphClassModP(
            self.graph,
            self.p,
            self.degree2,
            [a + b for a, b in zip(self.values, other.values)],
            {e: self.b_part[e] + other.b_part[e] for e in self.b_part},
        )

    def scale(self, c: int) -> "GraphClassModP":
        return GraphClassModP(
            self.graph,
            self.p,
            self.degree2,
            [f.scale(c) for f in self.values],
            {e: f.scale(c) for e, f in self.b_part.items()},
        )

    def __sub__(self, other: "GraphClassModP") -> "GraphClassModP":
        return self + other.scale(-1)

    def __mul__(self, other: "GraphClassModP") -> "GraphClassModP":
        return product_modp(self, other)

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.values) and all(
            f.is_zero() for f in self.b_part.values()
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphClassModP):
            return NotImplemented
        return (
            self.graph == other.graph
            and self.p == other.p
            and self.degree2 == other.degree2
            and self.values == other.values
            and self.b_part == other.b_part
        )

    def __hash__(self) -> int:
        return hash((self.p, self.degree2, self.values, tuple(sorted(self.b_part.items()))))

    def to_vector(self) -> list[int]:
        """Vertex coefficients then quotient coefficients, edges ascending."""
        out: list[int] = []
        for f in self.values:
            out.extend(f.coeffs)
        for e in sorted(self.b_part):
            out.extend(self.b_part[e].coeffs)
        return out

    def render_values(self) -> list[str]:
        return [f.render() for f in self.values]

    def render_b_part(self) -> dict[int, str]:
        return {e: f.render() for e, f in sorted(self.b_part.items())}

    def __repr__(self) -> str:
        vals = ", ".join(self.render_values())
        bs = "; ".join(f"e{e}: {f.render()}" for e, f in sorted(self.b_part.items()))
        return f"GraphClassModP(p={self.p}, deg {self.degree2}: {vals} | {bs})"


def product_modp(a: GraphClassModP, b: GraphClassModP) -> GraphClassModP:
    """(f, g)(f', g') = (ff', fg' + f'g), using the common endpoint value.

    Well-defined because an edge with vanishing label mod p forces equal
    endpoint values, which is asserted.
    """
    a._check_peer(b)
    g = a.graph
    values = [x * y for x, y in zip(a.values, b.values)]
    b_out = {}
    for e in a.b_part:
        oe = g.default_oriented(e)
        u, v = g.initial(oe), g.terminal(oe)
        if a.values[u] != a.values[v] or b.values[u] != b.values[v]:
            raise ValueError(f"endpoint values differ across edge {e}; not a valid class")
        b_out[e] = a.values[u] * b.b_part[e] + b.values[u] * a.b_part[e]
    return GraphClassModP(g, a.p, a.degree2 + b.degree2, values, b_out)


def membership_z(g: GkmGraph, cls: GraphClassZ | GraphClassModP) -> bool:
    """True iff endpoint differences are divisible by the edge labels.

    Serves both rings: over Z the divisibility is exact, over Z/p it is
    the mod-p congruence on the vertex part (the quotient part of a
    mod-p class is free data).
    """
    if cls.graph != g:
        raise ValueError("class belongs to a different graph")
    for e in range(len(g.edges)):
        oe = g.default_oriented(e)
        u, v = g.initial(oe), g.terminal(oe)
        if not congruent_mod_weight(cls.values[u], cls.values[v], g.label(e)):
            return False
    return True


membership_modp = membership_z


def _edge_rows(g: GkmGraph, d: int, p: int | None) -> tuple[list[list[int]], list[int]]:
    """Divisibility across every edge as rows on the vertex coefficients.

    Returns (rows, moduli): ``polyring.divisibility_rows`` of each label,
    applied to f_u - f_v.  A class is a vertex vector whose every row is
    divisible by its modulus over Z, or vanishes over Z/p.
    """
    n = num_monomials(g.torus_rank, d)
    width = len(g.vertices) * n
    rows, moduli = [], []
    for e in range(len(g.edges)):
        oe = g.default_oriented(e)
        u, v = g.initial(oe), g.terminal(oe)
        for entries, modulus in divisibility_rows(g.label(e), d, p or 0):
            row = [0] * width
            for c, val in entries:
                row[u * n + c] = val
                row[v * n + c] = -val
            rows.append(row)
            moduli.append(modulus)
    return rows, moduli


class CohomLattice:
    """Basis of one graded piece, over Z or over Z/p."""

    __slots__ = ("graph", "degree2", "p", "basis", "lattice", "_modp_vectors")

    def __init__(self, graph, degree2, p, basis, lattice=None, modp_vectors=None):
        self.graph = graph
        self.degree2 = degree2
        self.p = p
        self.basis = tuple(basis)
        self.lattice = lattice
        self._modp_vectors = modp_vectors

    @property
    def ring(self) -> str:
        return "Z" if self.p == 0 else f"Z_{self.p}"

    @property
    def rank(self) -> int:
        return len(self.basis)

    def contains(self, cls) -> bool:
        return self.coordinates_of(cls) is not None

    def coordinates_of(self, cls):
        """Coordinates in this basis, or None if outside the span."""
        if self.p == 0:
            if not isinstance(cls, GraphClassZ):
                raise TypeError("expected an integral class")
            return self.lattice.coordinates_of(cls.to_vector())
        if not isinstance(cls, GraphClassModP) or cls.p != self.p:
            raise TypeError(f"expected a mod-{self.p} class")
        if any(not f.is_zero() for f in cls.b_part.values()):
            return None
        target = []
        for f in cls.values:
            target.extend(f.coeffs)
        if not self._modp_vectors:
            return [] if all(c % self.p == 0 for c in target) else None
        rows = [
            [vec[i] for vec in self._modp_vectors] for i in range(len(self._modp_vectors[0]))
        ]
        return modp_solve(rows, target, self.p)

    def to_report(self) -> dict:
        report = {
            "degree": self.degree2,
            "ring": self.ring,
            "rank": self.rank,
            "basis": [cls.render_values() for cls in self.basis],
            "b_part_labels": [] if self.p == 0 else edges_div_p(self.graph, self.p),
        }
        return report


def _graded_piece(g: GkmGraph, degree2: int, p: int | None) -> CohomLattice:
    """One graded piece over Z (p is None) or Z/p, from the edge rows.

    Only the kernel step depends on the ring: over Z the HNF lattice of
    vertex vectors whose rows meet their moduli (one slack column per
    row of modulus > 1), over Z/p the RREF of the F_p kernel of the rows.
    """
    if degree2 < 0 or degree2 % 2:
        raise ValueError("cohomological degree must be even and non-negative")
    key = ("h_z", degree2) if p is None else ("h_modp", degree2, p)
    if key in g._cache:
        return g._cache[key]
    d = degree2 // 2
    k = g.torus_rank
    n = num_monomials(k, d)
    rows, moduli = _edge_rows(g, d, p)
    system = IntMatrix(rows, cols=len(g.vertices) * n)
    if p is None:
        slack_rows = [i for i, modulus in enumerate(moduli) if modulus]
        slack = [[mod if i == j else 0 for j in slack_rows] for i, mod in enumerate(moduli)]
        lat = kernel_into_cokernel(system, IntMatrix(slack, cols=len(slack_rows)))
        vectors = lat.vectors
    else:
        lat = None
        vectors, _ = modp_rref(modp_kernel(system, p), p)
    basis = []
    for vec in vectors:
        vals = [GradedPoly(k, d, vec[i * n : (i + 1) * n], p or 0) for i in range(len(g.vertices))]
        cls = GraphClassZ(g, degree2, vals) if p is None else GraphClassModP(g, p, degree2, vals)
        if not membership_z(g, cls):
            raise InvariantError(f"kernel solver produced a non-class in degree {degree2}")
        basis.append(cls)
    result = CohomLattice(
        g, degree2, p or 0, basis, lattice=lat, modp_vectors=None if p is None else vectors
    )
    g._cache[key] = result
    return result


def compute_h_z(g: GkmGraph, degree2: int) -> CohomLattice:
    """Integral graded piece: vertex vectors whose differences are in the
    image of multiplication by the edge labels."""
    return _graded_piece(g, degree2, None)


def compute_h_modp(g: GkmGraph, degree2: int, p: int) -> CohomLattice:
    """Mod-p graded piece; edges with vanishing label force equal endpoints."""
    if not is_prime(p):
        raise ValueError("p must be prime")
    return _graded_piece(g, degree2, p)


def reduce_class_mod_p(
    g: GkmGraph,
    cls: GraphClassZ,
    p: int,
    conventions: Conventions = DEFAULT_CONVENTIONS,
) -> GraphClassModP:
    """Vertex-wise reduction plus difference quotients across the edges
    whose label vanishes mod p.

    The quotient across such an edge e is (f_init - f_term) divided by
    the signed lift of the label, then reduced; orientation and lift
    come from ``conventions``.
    """
    if cls.graph != g:
        raise ValueError("class belongs to a different graph")
    if not is_prime(p):
        raise ValueError("p must be prime")
    values = [reduce_mod_p(f, p) for f in cls.values]
    b_part = {}
    for e in edges_div_p(g, p):
        oe = conventions.oriented(g, e)
        u, v = g.initial(oe), g.terminal(oe)
        diff = cls.values[u] - cls.values[v]
        quotient = divide_by_linear(diff, conventions.lift(g, e))
        if quotient is None:
            raise ValueError(f"difference across edge {e} is not divisible by its label")
        b_part[e] = reduce_mod_p(quotient, p)
    return GraphClassModP(g, p, cls.degree2, values, b_part)


def integral_preimage(
    g: GkmGraph,
    target: GraphClassModP,
    conventions: Conventions = DEFAULT_CONVENTIONS,
) -> GraphClassZ | None:
    """An integral class reducing to the target, or None.

    The reduction map kills exactly p times the integral piece, so its
    image is spanned over Z/p by the reductions of an integral basis;
    one mod-p solve decides membership and produces a preimage.
    """
    lattice = compute_h_z(g, target.degree2)
    images = [
        reduce_class_mod_p(g, cls, target.p, conventions).to_vector() for cls in lattice.basis
    ]
    target_vec = target.to_vector()
    if not images:
        return None if any(c % target.p for c in target_vec) else GraphClassZ.zero(g, target.degree2)
    rows = [[img[i] for img in images] for i in range(len(target_vec))]
    coeffs = modp_solve(rows, target_vec, target.p)
    if coeffs is None:
        return None
    out = GraphClassZ.zero(g, target.degree2)
    for c, cls in zip(coeffs, lattice.basis):
        if c:
            out = out + cls.scale(c)
    if reduce_class_mod_p(g, out, target.p, conventions) != target:
        raise InvariantError("integral preimage does not reduce to the target")
    return out

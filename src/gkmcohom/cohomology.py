"""Graded equivariant graph cohomology over Z and Z/p.

One type, ``GraphClass``, holds a class of either ring; ``p = 0`` means
Z, as for ``GradedPoly``.  A class is one polynomial per vertex and, over
Z/p only, one quotient polynomial per edge whose label vanishes mod p
(over Z no label vanishes).  ``a * b`` is the product of that enlarged
ring, (f, g)(f', g') = (ff', fg' + f'g); over Z it is vertex-wise.

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
of the F_p kernel.  The comparison map ``reduce_class_mod_p`` fills in
the quotient part from the difference quotients across those edges, and
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


class GraphClass:
    """A class over Z (p = 0) or Z/p: one degree-d polynomial per vertex,
    degree2 = 2d, and over Z/p one quotient polynomial of degree d-1 (a
    cohomological shift of 2 down) per edge whose label vanishes mod p.

    Over Z no label vanishes, so the quotient part ``b_part`` is empty and
    the constructor does not scan the edges.
    """

    __slots__ = ("graph", "p", "degree2", "values", "b_part")

    def __init__(self, graph: GkmGraph, degree2: int, values, p: int = 0, b_part=None):
        if p and not is_prime(p):
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
        special = edges_div_p(graph, p) if p else ()
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
    def zero(cls, graph: GkmGraph, degree2: int, p: int = 0) -> "GraphClass":
        z = GradedPoly.zero(graph.torus_rank, degree2 // 2, p)
        return cls(graph, degree2, (z,) * len(graph.vertices), p)

    def _check_peer(self, other: "GraphClass") -> None:
        if self.graph is not other.graph and self.graph != other.graph:
            raise ValueError("classes live on different graphs")
        if self.p != other.p:
            raise ValueError("classes live in different rings")

    def __add__(self, other: "GraphClass") -> "GraphClass":
        self._check_peer(other)
        if self.degree2 != other.degree2:
            if not (self.is_zero() or other.is_zero()):
                raise ValueError("degree mismatch")
            # a zero multiplier keeps the degree of its class, so a zero
            # summand of another degree is absorbed, as zeros are for GradedPoly
            return max(self, other, key=lambda c: (not c.is_zero(), c.degree2))
        return GraphClass(
            self.graph,
            self.degree2,
            [a + b for a, b in zip(self.values, other.values)],
            self.p,
            {e: self.b_part[e] + other.b_part[e] for e in self.b_part},
        )

    def scale(self, c: int) -> "GraphClass":
        return GraphClass(
            self.graph,
            self.degree2,
            [f.scale(c) for f in self.values],
            self.p,
            {e: f.scale(c) for e, f in self.b_part.items()},
        )

    def __sub__(self, other: "GraphClass") -> "GraphClass":
        return self + other.scale(-1)

    def __neg__(self) -> "GraphClass":
        return self.scale(-1)

    def __mul__(self, other: "GraphClass") -> "GraphClass":
        """(f, g)(f', g') = (ff', fg' + f'g), using the common endpoint value.

        Well-defined because an edge with vanishing label mod p forces
        equal endpoint values, which is checked.  Over Z there is no
        quotient part and this is the vertex-wise product.
        """
        self._check_peer(other)
        g = self.graph
        b_out = {}
        for e in self.b_part:
            oe = g.default_oriented(e)
            u, v = g.initial(oe), g.terminal(oe)
            if self.values[u] != self.values[v] or other.values[u] != other.values[v]:
                raise ValueError(f"endpoint values differ across edge {e}; not a valid class")
            b_out[e] = self.values[u] * other.b_part[e] + other.values[u] * self.b_part[e]
        values = [a * b for a, b in zip(self.values, other.values)]
        return GraphClass(g, self.degree2 + other.degree2, values, self.p, b_out)

    def module_mul(self, poly: GradedPoly) -> "GraphClass":
        """Multiply by a global polynomial (same value at every vertex)."""
        if poly.p != self.p or poly.k != self.graph.torus_rank:
            raise ValueError("module multiplier must be in the ring of the class")
        shift = 2 * poly.degree if not poly.is_zero() else 0
        return GraphClass(
            self.graph,
            self.degree2 + shift,
            [f * poly for f in self.values],
            self.p,
            {e: f * poly for e, f in self.b_part.items()},
        )

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.values) and all(
            f.is_zero() for f in self.b_part.values()
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphClass):
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
        if self.b_part:
            vals += " | " + "; ".join(f"e{e}: {s}" for e, s in self.render_b_part().items())
        return f"GraphClass(p={self.p}, deg {self.degree2}: {vals})"


def membership_z(g: GkmGraph, cls: GraphClass) -> bool:
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


def _edge_rows(g: GkmGraph, d: int, p: int) -> tuple[list[list[int]], list[int]]:
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
        for entries, modulus in divisibility_rows(g.label(e), d, p):
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
        if not isinstance(cls, GraphClass) or cls.p != self.p:
            raise TypeError(f"expected a class over {self.ring}")
        if self.p == 0:
            return self.lattice.coordinates_of(cls.to_vector())
        if any(not f.is_zero() for f in cls.b_part.values()):
            return None
        target = []
        for f in cls.values:
            target.extend(f.coeffs)
        rows = [[vec[i] for vec in self._modp_vectors] for i in range(len(target))]
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


def _graded_piece(g: GkmGraph, degree2: int, p: int) -> CohomLattice:
    """One graded piece over Z (p = 0) or Z/p, from the edge rows.

    Only the kernel step depends on the ring: over Z the HNF lattice of
    vertex vectors whose rows meet their moduli (one slack column per
    row of modulus > 1), over Z/p the RREF of the F_p kernel of the rows.
    """
    if degree2 < 0 or degree2 % 2:
        raise ValueError("cohomological degree must be even and non-negative")
    key = ("graded_piece", degree2, p)
    if key in g._cache:
        return g._cache[key]
    d = degree2 // 2
    k = g.torus_rank
    n = num_monomials(k, d)
    rows, moduli = _edge_rows(g, d, p)
    system = IntMatrix(rows, cols=len(g.vertices) * n)
    if not p:
        slack_rows = [i for i, modulus in enumerate(moduli) if modulus]
        slack = [[mod if i == j else 0 for j in slack_rows] for i, mod in enumerate(moduli)]
        lat = kernel_into_cokernel(system, IntMatrix(slack, cols=len(slack_rows)))
        vectors = lat.vectors
    else:
        lat = None
        vectors, _ = modp_rref(modp_kernel(system, p), p)
    basis = []
    for vec in vectors:
        vals = [GradedPoly(k, d, vec[i * n : (i + 1) * n], p) for i in range(len(g.vertices))]
        cls = GraphClass(g, degree2, vals, p)
        if not membership_z(g, cls):
            raise InvariantError(f"kernel solver produced a non-class in degree {degree2}")
        basis.append(cls)
    result = CohomLattice(g, degree2, p, basis, lattice=lat, modp_vectors=vectors if p else None)
    g._cache[key] = result
    return result


def compute_h_z(g: GkmGraph, degree2: int) -> CohomLattice:
    """Integral graded piece: vertex vectors whose differences are in the
    image of multiplication by the edge labels."""
    return _graded_piece(g, degree2, 0)


def compute_h_modp(g: GkmGraph, degree2: int, p: int) -> CohomLattice:
    """Mod-p graded piece; edges with vanishing label force equal endpoints."""
    if not is_prime(p):
        raise ValueError("p must be prime")
    return _graded_piece(g, degree2, p)


def reduce_class_mod_p(
    g: GkmGraph,
    cls: GraphClass,
    p: int,
    conventions: Conventions = DEFAULT_CONVENTIONS,
) -> GraphClass:
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
    return GraphClass(g, cls.degree2, values, p, b_part)


def integral_preimage(
    g: GkmGraph,
    target: GraphClass,
    conventions: Conventions = DEFAULT_CONVENTIONS,
) -> GraphClass | None:
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
    rows = [[img[i] for img in images] for i in range(len(target_vec))]
    coeffs = modp_solve(rows, target_vec, target.p)
    if coeffs is None:
        return None
    out = GraphClass.zero(g, target.degree2)
    for c, cls in zip(coeffs, lattice.basis):
        if c:
            out = out + cls.scale(c)
    if reduce_class_mod_p(g, out, target.p, conventions) != target:
        raise InvariantError("integral preimage does not reduce to the target")
    return out

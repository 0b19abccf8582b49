"""Graded equivariant graph cohomology over Z and Z/p.

One type, ``GraphClass``, holds a class of either ring; ``p = 0`` means
Z, as for ``GradedPoly``.  A class is one polynomial per vertex and, over
Z/p only, one quotient polynomial per edge whose label vanishes mod p
(over Z no label vanishes).  ``a * b`` is the product of that enlarged
ring, (f, g)(f', g') = (ff', fg' + f'g); over Z it is vertex-wise.

A degree-2d class assigns a homogeneous degree-d polynomial to every
vertex such that across each edge the label divides the difference of
the endpoint values.  The condition has one encoding, the cached
``polyring.divisibility_rows``: with label = m * w0 (m the content), the
label divides f_u - f_v iff the difference, with w0 turned into y1 by
``polyring.substitution_matrix(w0, d)``, vanishes at the y1-free
monomials and is divisible by m at the others.  Over Z/p an edge with
p | m forces equal endpoint values; on any other edge m is a unit, so
only the y1-free rows remain.  ``_edge_rows`` writes these rows on the
vertex coefficients, and each graded piece is their kernel, checked once
against them (``_graded_piece``); ``membership_z`` reads the same rows
through ``polyring.congruent_mod_weight`` for single classes.

The piece depends on the labels as elements of Z^k, not on the
coordinates they are written in, but the cost of the integer elimination
does.  So over Z a graph whose labels are cheaper in a basis B of Z^k
made of k of its own labels (``_label_basis``, read once per graph off
one HNF) is solved on the rows of its re-based labels, and the solution
is mapped back by the substitution y_i = b_i . x.  Fl4 with its labels in
a skewed basis, for one, is solved on the labels of Fl4 with the
coordinates permuted.  Every other graph, and every graph over Z/p, is
solved as given.

Both pieces of one degree come from ``compute_h_z_and_modp``.  When the
integral solve is clean (``intlinalg.sparse_kernel``: every row of
modulus 0, no row divided by its content, none left for the dense
``kernel``), the integral basis reduced mod p is the mod-p piece, and
only its check runs; any other graph, say with a label of content above
1 from degree 2 on, is solved over Z/p as well.

Lattice vectors are the sorted (column, value) pairs of their nonzero
entries (``intlinalg.LatticeBasis``), and every reader here takes the
pairs: the check, the basis classes, the reductions and the preimage.
Only the re-based map-back writes list rows, which are mostly nonzero
and go to the dense ``intlinalg._hnf_rows``.

The comparison map ``reduce_class_mod_p`` takes one class to Z/p: it
reduces the vertex part and fills in the quotient part from the
difference quotients across the edges whose label vanishes mod p.
``integral_preimage`` decides whether a mod-p class comes from an
integral one with one mod-p solve on the rank-many reductions of the
integral basis, read off its lattice vectors as sparse rows
(``_reduction_images``), and checks the preimage with
``reduce_class_mod_p``.
"""

from __future__ import annotations

from .graph import Conventions, DEFAULT_CONVENTIONS, GkmGraph, InvariantError, edges_div_p
from .intlinalg import LatticeBasis, dense_row, is_prime, modp_solve, rows_hold, sparse_kernel
from .polyring import (
    GradedPoly,
    congruent_mod_weight,
    content,
    divide_by_linear,
    divide_coeffs,
    divisibility_rows,
    linear_substitution,
    num_monomials,
    reduce_mod_p,
    sign_normalize,
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


def _rendered(polys) -> list[str]:
    """``render()`` of each polynomial, all of one ring and degree (as the
    values, or the quotients, of one class are), rendering each distinct
    coefficient tuple once: all vertices of a ``total_sw`` component on a
    flag manifold share one."""
    memo: dict[tuple, str] = {}
    out = []
    for f in polys:
        got = memo.get(f.coeffs)
        if got is None:
            got = memo[f.coeffs] = f.render()
        out.append(got)
    return out


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

    def check_graph(self, g: GkmGraph) -> None:
        """Raise ValueError unless the class was built on g or on a graph
        equal to it."""
        if self.graph is not g and self.graph != g:
            raise ValueError("class belongs to a different graph")

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
            # summand of another degree is absorbed; GradedPoly is stricter
            # and merges two zeros of different degrees only
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
        equal endpoint values (checked, so either endpoint serves).  Over
        Z there is no quotient part and this is the vertex-wise product.
        """
        self._check_peer(other)
        g = self.graph
        b_out = {}
        for e in self.b_part:
            u, v, _ = g.edges[e]
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
        return _rendered(self.values)

    def render_b_part(self) -> dict[int, str]:
        edges = sorted(self.b_part)
        return dict(zip(edges, _rendered(self.b_part[e] for e in edges)))

    def __repr__(self) -> str:
        vals = ", ".join(self.render_values())
        if self.b_part:
            vals += " | " + "; ".join(f"e{e}: {s}" for e, s in self.render_b_part().items())
        return f"GraphClass(p={self.p}, deg {self.degree2}: {vals})"


def membership_z(g: GkmGraph, cls: GraphClass) -> bool:
    """True iff endpoint differences are divisible by the edge labels.

    Serves both rings: over Z the divisibility is exact, over Z/p it is
    the mod-p congruence on the vertex part (the quotient part of a
    mod-p class is free data).  An edge whose endpoints share one value
    object is skipped: the difference is zero, which every label divides
    (``total_sw`` gives all vertices with one sorted mod-2 star one value).
    """
    cls.check_graph(g)
    values = cls.values
    for u, v, label in g.edges:
        a, b = values[u], values[v]
        if a is not b and not congruent_mod_weight(a, b, label):
            return False
    return True


membership_modp = membership_z


def _edge_rows(
    g: GkmGraph, d: int, p: int, relabel: dict | None = None
) -> tuple[list[dict[int, int]], list[int]]:
    """Divisibility across every edge as (rows, moduli): the sparse
    ``{column: value}`` rows of ``polyring.divisibility_rows`` of each
    label, or of its image under ``relabel``, applied to f_u - f_v for the
    stored endpoints (u, v).  A class is a vertex vector whose every row
    is divisible by its modulus over Z, or vanishes over Z/p, whatever the
    row's sign or direction."""
    n = num_monomials(g.torus_rank, d)
    rows, moduli = [], []
    for u, v, label in g.edges:
        for entries, modulus in divisibility_rows(relabel[label] if relabel else label, d, p):
            row = {}
            for c, val in entries:
                row[u * n + c] = val
                row[v * n + c] = -val
            rows.append(row)
            moduli.append(modulus)
    return rows, moduli


def _label_basis(g: GkmGraph):
    """A basis of Z^k made of the graph's own labels, in which they are
    cheaper to solve, found once and kept on the graph: None to keep the
    coordinates they are given in, or ``(B, {label: sign-normalized
    alpha'})``.

    Let P be the distinct primitive labels, sign-normalized and sorted,
    and E the HNF of the k rows [coordinate i of every label in P | e_i]:
    E = U [P^T | I] with U unimodular.  Its pivot columns are the labels
    that raise the rank in turn, the rows b_1..b_k of B; a pivot in the
    identity block means the labels span less than Q^k.  B is unimodular
    iff every pivot is 1, and then U B^T = I: the identity block of E is
    U = (B^T)^-1, and the label alpha is sum_j alpha'_j b_j with alpha' =
    U alpha.  In the variables y_j = b_j . x the linear form of alpha is
    that of alpha'.  B is kept when it is not made of signed unit vectors
    (which change no cost) and the alpha' have a smaller sum of absolute
    entries than the labels.
    """
    key = "label_basis"
    if key in g._cache:
        return g._cache[key]
    k = g.torus_rank
    labels = {label for _, _, label in g.edges}
    order = sorted({sign_normalize([x // content(lab) for x in lab]) for lab in labels})
    m = len(order)
    rows = [[w[i] for w in order] + [int(i == j) for j in range(k)] for i in range(k)]
    echelon = LatticeBasis.from_vectors(m + k, rows).vectors
    basis = tuple(order[row[0][0]] for row in echelon if row[0][0] < m)
    found = None
    if (
        len(basis) == k
        and all(row[0][1] == 1 for row in echelon)
        and any(sum(map(bool, b)) > 1 for b in basis)
    ):
        relabel = {  # U alpha, with U the entries from column m on
            lab: sign_normalize([sum(x * lab[c - m] for c, x in row if c >= m) for row in echelon])
            for lab in labels
        }
        if sum(abs(x) for lab in relabel.values() for x in lab) < sum(abs(x) for lab in labels for x in lab):
            found = basis, relabel
    g._cache[key] = found
    return found


class CohomLattice:
    """One graded piece, over Z or over Z/p, held as the canonical
    ``LatticeBasis`` of its vertex vectors; ``basis`` builds the classes
    from that lattice on each read."""

    __slots__ = ("graph", "degree2", "lattice")

    def __init__(self, graph, degree2, lattice):
        self.graph = graph
        self.degree2 = degree2
        self.lattice = lattice

    @property
    def p(self) -> int:
        return self.lattice.p

    @property
    def ring(self) -> str:
        return "Z" if self.p == 0 else f"Z_{self.p}"

    @property
    def rank(self) -> int:
        return self.lattice.rank

    @property
    def basis(self) -> tuple:
        """The basis classes, one per lattice vector, built anew on each
        read: bind the result to reuse it."""
        g, degree2, p = self.graph, self.degree2, self.p
        return tuple(_vertex_class(g, degree2, vec, p) for vec in self.lattice.vectors)

    def coordinates_of(self, cls):
        """Coordinates in this basis, or None if outside the span (over
        Z/p also when the quotient part is nonzero).  The class must live
        on this piece's graph and in its degree."""
        if not isinstance(cls, GraphClass) or cls.p != self.p:
            raise TypeError(f"expected a class over {self.ring}")
        cls.check_graph(self.graph)
        if cls.degree2 != self.degree2:
            raise ValueError(f"class of degree {cls.degree2} in the degree-{self.degree2} piece")
        if any(not f.is_zero() for f in cls.b_part.values()):
            return None
        return self.lattice.coordinates_of([c for f in cls.values for c in f.coeffs])

    def to_report(self) -> dict:
        return {
            "degree": self.degree2,
            "ring": self.ring,
            "rank": self.rank,
            "basis": [cls.render_values() for cls in self.basis],
            "b_part_labels": [] if self.p == 0 else edges_div_p(self.graph, self.p),
        }


def _vertex_class(g: GkmGraph, degree2: int, entries, p: int) -> GraphClass:
    """The class with the vertex coefficients of the (column, value)
    ``entries`` (reduced mod p over Z/p) and a zero quotient part."""
    k, d = g.torus_rank, degree2 // 2
    n = num_monomials(k, d)
    vec = dense_row(entries, len(g.vertices) * n)
    values = [GradedPoly._of(k, d, tuple(vec[i : i + n]), p) for i in range(0, len(vec), n)]
    return GraphClass(g, degree2, values, p)


def _map_back(lat: LatticeBasis, sub: tuple, n: int) -> list[list[int]]:
    """Each lattice vector with every vertex block of n coefficients taken
    through the sparse coefficient map ``sub`` (column c: the image of the
    c-th monomial as (row, coefficient) pairs), as a list row: the images
    are mostly nonzero, which ``_hnf_rows`` walks faster than dicts."""
    out = []
    for vec in lat.vectors:
        image = [0] * lat.ambient_dim
        for c, x in vec:
            base, mono = divmod(c, n)
            base *= n
            for r, v in sub[mono]:
                image[base + r] += x * v
        out.append(image)
    return out


def _graded_piece(g: GkmGraph, degree2: int, p: int) -> tuple[CohomLattice, bool]:
    """One graded piece over Z (p = 0) or Z/p, from the sparse edge rows,
    and whether its solve was clean (``intlinalg.sparse_kernel``).

    Over Z the rows are solved in the basis of the graph's own labels
    that ``_label_basis`` picks, if any: with y_j = b_j . x, a label
    alpha = sum_j alpha'_j b_j is the linear form alpha' of y, and the
    substitution is a ring automorphism, so the piece in y is that of the
    re-based labels.  Over Z/p the rows of the labels as given are
    solved: the F_p echelon has no coefficient growth to avoid.

    One kernel step for both rings, ``intlinalg.sparse_kernel(rows,
    moduli, width, p)``, canonical (HNF or RREF) so the basis does not
    depend on the pivot order.  Over Z: one elimination on the +-1
    entries of the sparse rows, with one slack column of value -m per row
    of modulus m > 1, that divides the rows it is left with by their
    content and pivots on them again, the dense ``kernel`` on the rows
    still left without a +-1, and the lifted kernel put in HNF.  Over
    Z/p: the kernel read off one sparse echelon of the rows.  A re-based
    solve is mapped back vertex block by vertex block through the
    degree-d substitution y_i = b_i . x (``polyring.linear_substitution``
    of B) and put in HNF again by ``LatticeBasis.from_vectors``, which
    depends on the lattice only, so the piece is the same whatever basis
    solved it; the substitution is unimodular, so a clean re-based solve
    stays clean.  ``_checked`` then meets every row of the graph's own
    labels with every lattice vector, and a vector that breaks an edge
    congruence, in the solve or in the map-back, raises
    ``InvariantError``.  The piece is that lattice: no class is built
    here (see ``CohomLattice.basis``)."""
    if degree2 < 0 or degree2 % 2:
        raise ValueError("cohomological degree must be even and non-negative")
    d = degree2 // 2
    n = num_monomials(g.torus_rank, d)
    width = len(g.vertices) * n
    basis = None if p else _label_basis(g)
    rows, moduli = _edge_rows(g, d, p, basis[1] if basis else None)
    lat, clean = sparse_kernel(rows, moduli, width, p)
    if basis:
        back = _map_back(lat, linear_substitution(basis[0], d), n)
        lat = LatticeBasis.from_vectors(width, back)
        rows, moduli = _edge_rows(g, d, 0)  # the check reads the labels as given
    return _checked(g, degree2, lat, rows, moduli), clean


def _checked(g: GkmGraph, degree2: int, lat: LatticeBasis, rows, moduli) -> CohomLattice:
    """The piece of the lattice, once ``intlinalg.rows_hold`` has met the
    edge rows of the graph's own labels (over the lattice's ring) with
    every lattice vector in one sparse product; a vector that breaks a
    row raises ``InvariantError``."""
    if not rows_hold(rows, moduli, lat.vectors, lat.p):
        raise InvariantError(f"kernel solver produced a non-class in degree {degree2}")
    return CohomLattice(g, degree2, lat)


def compute_h_z(g: GkmGraph, degree2: int) -> CohomLattice:
    """Integral graded piece: vertex vectors whose differences are in the
    image of multiplication by the edge labels."""
    return _graded_piece(g, degree2, 0)[0]


def compute_h_modp(g: GkmGraph, degree2: int, p: int) -> CohomLattice:
    """Mod-p graded piece; edges with vanishing label force equal endpoints."""
    if not is_prime(p):
        raise ValueError("p must be prime")
    return _graded_piece(g, degree2, p)[0]


def compute_h_z_and_modp(
    g: GkmGraph, degree2: int, p: int
) -> tuple[CohomLattice, CohomLattice, int]:
    """The integral and the mod-p piece of one degree, and the rank over
    F_p of the vertex-wise reduction of the integral basis (the rank of
    H(Z) (x) Z_p -> H(Z_p)).

    The integral piece is solved first, and its HNF reduced mod p.  When
    that solve was clean, the reduced lattice is the mod-p piece (see
    ``intlinalg.sparse_kernel``; a re-based solve differs from one on the
    labels as given by a unimodular substitution, which keeps that), so
    it is only checked against the mod-p rows of the graph's own labels.
    Otherwise, say with a label that is not primitive or rows left for
    the dense ``kernel``, the mod-p piece is solved on its own.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    h_z, clean = _graded_piece(g, degree2, 0)
    lat = h_z.lattice
    reduced = LatticeBasis.from_vectors(lat.ambient_dim, [dict(v) for v in lat.vectors], p)
    if clean:
        h_p = _checked(g, degree2, reduced, *_edge_rows(g, degree2 // 2, p))
    else:
        h_p = _graded_piece(g, degree2, p)[0]
    return h_z, h_p, reduced.rank


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
    cls.check_graph(g)
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


def _reduction_images(
    g: GkmGraph, lattice: CohomLattice, p: int, conventions: Conventions
) -> list[dict[int, int]]:
    """``reduce_class_mod_p(g, cls, p, conventions).to_vector()`` for every
    class of an integral basis, read off its lattice vectors as
    ``{column: value}`` rows of the nonzero entries: each coefficient mod
    p, then per edge whose label vanishes mod p, in ascending order, the
    long-division quotient of the initial minus the terminal vertex block
    by the lift (orientation and lift from ``conventions``), reduced mod
    p.  An edge whose two blocks are equal, both zero say, has a zero
    quotient and is skipped."""
    k, d = g.torus_rank, lattice.degree2 // 2
    n = num_monomials(k, d)
    special = []
    for e in edges_div_p(g, p):
        oe = conventions.oriented(g, e)
        special.append((e, g.initial(oe) * n, g.terminal(oe) * n, conventions.lift(g, e)))
    width, step = lattice.lattice.ambient_dim, num_monomials(k, d - 1)
    images = []
    for vec in lattice.lattice.vectors:
        image = {c: y for c, x in vec if (y := x % p)}
        dense = dense_row(vec, width) if special else None
        offset = width
        for e, u, v, lift in special:
            a, b = dense[u : u + n], dense[v : v + n]
            if a != b:
                quotient = divide_coeffs(k, d, [x - y for x, y in zip(a, b)], lift)
                if quotient is None:
                    raise InvariantError(f"basis class not divisible across edge {e}")
                for c, x in enumerate(quotient, offset):
                    if x % p:
                        image[c] = x % p
            offset += step
        images.append(image)
    return images


def integral_preimage(
    g: GkmGraph,
    target: GraphClass,
    conventions: Conventions = DEFAULT_CONVENTIONS,
) -> GraphClass | None:
    """An integral class reducing to the target, or None.

    The reduction map kills exactly p times the integral piece, so its
    image is spanned over Z/p by the rank-many reductions of an integral
    basis (``_reduction_images``); one ``modp_solve`` on them finds the
    preimage, which ``reduce_class_mod_p`` must map back to the target.
    """
    target.check_graph(g)
    p = target.p
    if not is_prime(p):
        raise ValueError("p must be prime")
    lattice = compute_h_z(g, target.degree2)
    coeffs = modp_solve(_reduction_images(g, lattice, p, conventions), target.to_vector(), p)
    if coeffs is None:
        return None
    vec: dict[int, int] = {}
    for c, basis_vec in zip(coeffs, lattice.lattice.vectors):
        if c:
            for i, x in basis_vec:
                vec[i] = vec.get(i, 0) + c * x
    out = _vertex_class(g, target.degree2, vec.items(), 0)
    if reduce_class_mod_p(g, out, p, conventions) != target:
        raise InvariantError("integral preimage does not reduce to the target")
    return out

"""Compatible connections, their sign data, and orientability.

A connection assigns to every oriented edge e a bijection between the
stars of its endpoints sending e to its reverse, such that each edge of
the source star is congruent to a signed copy of its image modulo the
label of e.  Matchings are searched per unoriented edge (the reverse
orientation carries the inverse bijection, so edges are independent).

Congruence modulo Z*le is decided by one canonical residue: with i the
first nonzero coordinate of le, r(v) = v - (v[i] // le[i]) * le, and v is
congruent to v' iff r(v) == r(v') (floor division picks one
representative of v[i] mod le[i], also for non-primitive labels and a
negative le[i]).  ``transport_sign`` compares residues, and
``edge_matchings`` computes r(lf) once per source and r(+-lh) once per
target of an edge, then looks the allowed targets up by residue.

A star is carried across an edge with the congruence-forced signs by
``transport_signs`` alone: the holonomy signs, the Stiefel-Whitney
quotients, the spin criteria and the Thom edge classes all read it.
"""

from __future__ import annotations

from itertools import islice, product as iproduct
from math import prod

from .graph import GkmGraph, OrientedEdge


class Connection:
    """Family of star bijections, one per oriented edge."""

    __slots__ = ("graph", "_maps")

    def __init__(self, graph: GkmGraph, maps: dict):
        self.graph = graph
        self._maps = maps

    def apply(self, e: OrientedEdge, f: OrientedEdge) -> OrientedEdge:
        return self._maps[e][f]

    def map_along(self, e: OrientedEdge) -> dict:
        return dict(self._maps[e])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Connection):
            return NotImplemented
        return self.graph == other.graph and self._maps == other._maps

    def to_dict(self) -> dict:
        out = []
        for eid in range(len(self.graph.edges)):
            oe = self.graph.default_oriented(eid)
            pairs = sorted(
                (src.render(), dst.render()) for src, dst in self._maps[oe].items()
            )
            out.append({"along": oe.render(), "pairs": [list(p) for p in pairs]})
        return {"connection": out}


def residue(v, le) -> tuple:
    """Canonical representative of v modulo Z*le.

    r(v) = v - (v[i] // le[i]) * le for the first nonzero coordinate i of
    le, so v - v' is a multiple of le iff r(v) == r(v').  The zero vector
    as le leaves v as it is (only v itself is congruent to v).
    """
    for i, x in enumerate(le):
        if x:
            t = v[i] // x
            return tuple(a - t * b for a, b in zip(v, le))
    return tuple(v)


def transport_sign(src_lift, dst_label, edge_label) -> int | None:
    """The sign s with src_lift - s * dst_label a multiple of edge_label.

    Returns 1 or -1 when one sign fits, None when neither does, and 0 when
    both do (adjacent labels that fail linear independence).
    """
    key = residue(src_lift, edge_label)
    fits_pos = key == residue(dst_label, edge_label)
    fits_neg = key == residue(tuple(-c for c in dst_label), edge_label)
    if fits_pos:
        return 0 if fits_neg else 1
    return -1 if fits_neg else None


def forced_lift(src_lift, dst_label, edge_label) -> tuple | None:
    """The signed copy of dst_label congruent to src_lift mod edge_label, or None."""
    sign = transport_sign(src_lift, dst_label, edge_label)
    if sign == 0:
        raise ValueError("ambiguous sign transport; adjacent labels not independent")
    return None if sign is None else tuple(sign * c for c in dst_label)


def _matchings(g: GkmGraph, edge_id: int):
    """Generate the compatible bijections for one unoriented edge in
    enumeration order (see ``edge_matchings``)."""
    e = g.default_oriented(edge_id)
    ebar = e.reverse()
    sources = [f for f in g.star(g.initial(e)) if f != e]
    targets = [h for h in g.star(g.terminal(e)) if h != ebar]
    if len(sources) != len(targets):
        return
    le = g.label(edge_id)
    by_residue: dict[tuple, list] = {}
    for h in targets:
        lh = g.label(h.edge)
        for key in {residue(lh, le), residue(tuple(-c for c in lh), le)}:
            by_residue.setdefault(key, []).append(h)
    allowed = [by_residue.get(residue(g.label(f.edge), le), ()) for f in sources]
    used: set = set()
    current: dict = {}

    def backtrack(i: int):
        if i == len(sources):
            yield {e: ebar, **current}
            return
        f = sources[i]
        for h in allowed[i]:
            if h in used:
                continue
            used.add(h)
            current[f] = h
            yield from backtrack(i + 1)
            del current[f]
            used.discard(h)

    yield from backtrack(0)


def edge_matchings(g: GkmGraph, edge_id: int) -> list[dict]:
    """All compatible bijections for one unoriented edge.

    Keys run over the star of the initial vertex of the default
    orientation (including the edge itself, which always maps to its
    reverse); enumeration order is lexicographic in the canonical star
    order.
    """
    return list(_matchings(g, edge_id))


def _assemble(g: GkmGraph, chosen: dict) -> Connection:
    maps: dict = {}
    for eid, matching in chosen.items():
        e = g.default_oriented(eid)
        maps[e] = dict(matching)
        maps[e.reverse()] = {h: f for f, h in matching.items()}
    return Connection(g, maps)


def first_matching(g: GkmGraph, edge_id: int) -> dict | None:
    """The first compatible bijection at one edge, or None.

    The search stops at the first bijection.  Taking it at every edge
    gives the first connection that ``enumerate_connections`` yields,
    without holding every edge's matchings at once.
    """
    return next(_matchings(g, edge_id), None)


def find_connection(g: GkmGraph) -> Connection | None:
    """Lexicographically first compatible connection, or None."""
    chosen = {}
    for eid in range(len(g.edges)):
        chosen[eid] = first_matching(g, eid)
        if chosen[eid] is None:
            return None
    return _assemble(g, chosen)


def enumerate_connections(g: GkmGraph, limit: int | None = None):
    """All compatible connections (cartesian product of edge matchings).

    Yields at most ``limit`` connections when given; the count grows as
    the product of per-edge matching counts, so always cap in callers.
    """
    per_edge = []
    for eid in range(len(g.edges)):
        options = edge_matchings(g, eid)
        if not options:
            return
        per_edge.append(options)
    combos = iproduct(*per_edge)
    if limit is not None:
        combos = islice(combos, limit)
    for combo in combos:
        yield _assemble(g, dict(enumerate(combo)))


def connection_from_matchings(g: GkmGraph, matchings: dict) -> Connection:
    """Build a connection from explicit per-edge matchings, validating
    bijectivity and the congruence condition."""
    chosen = {}
    for eid in range(len(g.edges)):
        if eid not in matchings:
            chosen[eid] = first_matching(g, eid)
            if chosen[eid] is None:
                raise ValueError(f"edge {eid} admits no compatible bijection")
            continue
        e = g.default_oriented(eid)
        m = dict(matchings[eid])
        m.setdefault(e, e.reverse())
        sources = set(g.star(g.initial(e)))
        targets = set(g.star(g.terminal(e)))
        if set(m) != sources or set(m.values()) != targets:
            raise ValueError(f"edge {eid}: matching is not a star bijection")
        if m[e] != e.reverse():
            raise ValueError(f"edge {eid}: matching must send the edge to its reverse")
        le = g.label(eid)
        for f, h in m.items():
            if f != e and transport_sign(g.label(f.edge), g.label(h.edge), le) is None:
                raise ValueError(
                    f"edge {eid}: pair {f.render()} -> {h.render()} violates the "
                    f"congruence"
                )
        chosen[eid] = m
    return _assemble(g, chosen)


def transport_signs(g: GkmGraph, oe: OrientedEdge, image, lifts=None) -> dict:
    """The sign carrying each star edge of initial(oe) across oe.

    ``image`` maps the star of initial(oe) onto the star of terminal(oe);
    ``lifts`` gives a signed lift per source edge (default: its label).
    For every f other than oe the result holds the sign s with
    lift(f) - s * label(image(f)) in Z * label(oe).  Raises ValueError
    when no sign fits (the bijection is not compatible) or when both do
    (adjacent labels fail linear independence).
    """
    le = g.label(oe.edge)
    signs = {}
    for f in g.star(g.initial(oe)):
        if f == oe:
            continue
        lift = g.label(f.edge) if lifts is None else lifts[f]
        sign = transport_sign(lift, g.label(image[f].edge), le)
        if sign == 0:
            raise ValueError(
                f"ambiguous transport sign along edge {oe.edge}: adjacent "
                f"labels fail linear independence"
            )
        if sign is None:
            raise ValueError(f"connection is not compatible along edge {oe.edge}")
        signs[f] = sign
    return signs


def holonomy_signs(g: GkmGraph, c: Connection) -> dict:
    """Sign eta(e) for every oriented edge.

    eta(e) is minus the product of the ``transport_signs`` along e over
    the star without e itself.
    """
    eta: dict = {}
    for eid in range(len(g.edges)):
        for oe in (g.default_oriented(eid), g.default_oriented(eid).reverse()):
            eta[oe] = -prod(transport_signs(g, oe, c.map_along(oe)).values())
    return eta


def is_orientable(g: GkmGraph, c: Connection | None = None) -> bool:
    """Whether eta-products along all closed edge paths are +1.

    On the two-step paths (e, reverse e) this asks for a symmetric eta;
    then every closed-path product is +1 iff there is a vertex sign
    sigma with eta(e) = sigma(u) * sigma(v) on every edge.  One
    breadth-first pass per component fixes sigma from its root along
    tree edges; one pass over the edges checks both orientations of
    every edge against it.
    """
    if c is None:
        c = find_connection(g)
        if c is None:
            raise ValueError("graph admits no compatible connection")
    eta = holonomy_signs(g, c)
    sigma: dict[int, int] = {}
    for root in range(len(g.vertices)):
        if root in sigma:
            continue
        sigma[root] = 1
        queue = [root]
        for v in queue:
            for f in g.star(v):
                w = g.terminal(f)
                if w not in sigma:
                    sigma[w] = sigma[v] * eta[f]
                    queue.append(w)
    for eid in range(len(g.edges)):
        oe = g.default_oriented(eid)
        if not eta[oe] == eta[oe.reverse()] == sigma[g.initial(oe)] * sigma[g.terminal(oe)]:
            return False
    return True

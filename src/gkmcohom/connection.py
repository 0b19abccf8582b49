"""Compatible connections, their sign data, and orientability.

A connection assigns to every oriented edge e a bijection between the
stars of its endpoints sending e to its reverse, such that each edge of
the source star is congruent to a signed copy of its image modulo the
label of e.  Matchings are searched per unoriented edge (the reverse
orientation carries the inverse bijection, so edges are independent), by
one depth-first search on an explicit stack over the allowed targets of
each source (``_matchings``).  A ``Connection`` is these per-edge matchings,
one dict per edge along its default orientation, and nothing else:
``map_along`` returns a read-only view of one, and reads the reverse
orientation as its inverse.

Congruence modulo Z*le is decided by one canonical residue: with i the
first nonzero coordinate of le, r(v) = v - (v[i] // le[i]) * le, and v is
congruent to v' iff r(v) == r(v') (floor division picks one
representative of v[i] mod le[i], also for non-primitive labels and a
negative le[i]).

Residues depend on labels only, and a GKM graph carries far fewer
distinct labels than edges (Fl5: 600 edges, 10 labels).  So they are
kept per graph, in ``g._cache``: one residue table per edge label, holding
the pair (r(v), r(-v)) per vector.  A transport sign is two comparisons
of residues from that table, so it is not stored: ``graph_sign`` is the
one place that reads a sign, off the table its caller fetched
(``_residues``), and ``transport_signs``, ``forced_lift`` and
``connection_from_matchings`` all read it there (``edge_matchings`` looks
the allowed targets up by residue).  A 0 (both signs fit) or None
(neither does) is an outcome, not a verdict: the caller raises on it on
every read.  The uncached ``transport_sign`` is the definition
``graph_sign`` is tested against.

A star is carried across an edge with the congruence-forced signs by
``transport_signs`` alone: the holonomy signs, the Stiefel-Whitney
quotients, the spin criteria and the Thom edge classes all read it.
"""

from __future__ import annotations

from itertools import islice, product as iproduct
from math import prod
from types import MappingProxyType

from .graph import DomainError, GkmGraph, OrientedEdge


class Connection:
    """Family of star bijections, one per oriented edge.

    It holds one matching per unoriented edge, keyed by edge id: the
    bijection along the default orientation.  The reverse orientation
    carries the inverse bijection by definition, so it is not stored;
    ``map_along`` and ``apply`` read it off the matching.  The matchings
    are never changed, so connections may share them."""

    __slots__ = ("graph", "_matchings")

    def __init__(self, graph: GkmGraph, matchings: dict):
        self.graph = graph
        self._matchings = matchings

    def apply(self, e: OrientedEdge, f: OrientedEdge) -> OrientedEdge:
        matching = self._matchings[e.edge]
        if e in matching:  # the default orientation is a key of its own matching
            return matching[f]
        for src, dst in matching.items():
            if dst == f:
                return src
        raise KeyError(f)

    def map_along(self, e: OrientedEdge) -> MappingProxyType:
        """The star bijection along e, as a read-only view; for the
        reverse orientation it is the inverse, built on this read."""
        matching = self._matchings[e.edge]
        if e in matching:
            return MappingProxyType(matching)
        return MappingProxyType({h: f for f, h in matching.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Connection):
            return NotImplemented
        return self.graph == other.graph and self._matchings == other._matchings

    def to_dict(self) -> dict:
        out = []
        for eid in range(len(self.graph.edges)):
            oe = self.graph.default_oriented(eid)
            pairs = sorted(
                (src.render(), dst.render()) for src, dst in self._matchings[eid].items()
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


def _sign_of(r, dst_residues) -> int | None:
    """The transport sign from the residue of the lift and the residues
    (r(lh), r(-lh)) of the image label: 1 or -1 when one sign fits, None
    when neither does, 0 when both do."""
    fits_pos = r == dst_residues[0]
    fits_neg = r == dst_residues[1]
    if fits_pos:
        return 0 if fits_neg else 1
    return -1 if fits_neg else None


def transport_sign(src_lift, dst_label, edge_label) -> int | None:
    """The sign s with src_lift - s * dst_label a multiple of edge_label.

    Returns 1 or -1 when one sign fits, None when neither does, and 0 when
    both do (adjacent labels that fail linear independence).  Uncached:
    the definition that ``graph_sign`` reads off the residue table of a
    graph.
    """
    dst = (residue(dst_label, edge_label), residue(tuple(-c for c in dst_label), edge_label))
    return _sign_of(residue(src_lift, edge_label), dst)


class _Residues(dict):
    """(residue(v, le), residue(-v, le)) per vector v, for one edge label
    le; each entry is computed on its first read."""

    __slots__ = ("le",)

    def __init__(self, le):
        super().__init__()
        self.le = le

    def __missing__(self, v) -> tuple:
        got = self[v] = (residue(v, self.le), residue(tuple(-c for c in v), self.le))
        return got


def _residues(g: GkmGraph, edge_label) -> _Residues:
    """The residue table of one edge label of g, kept in ``g._cache`` so
    it dies with the graph."""
    key = ("residues", edge_label)
    got = g._cache.get(key)
    if got is None:
        got = g._cache[key] = _Residues(edge_label)
    return got


def graph_sign(residues: _Residues, src_lift, dst_label) -> int | None:
    """``transport_sign(src_lift, dst_label, residues.le)``, read off the
    residue table of that edge label."""
    return _sign_of(residues[src_lift][0], residues[dst_label])


def forced_lift(g: GkmGraph, src_lift, dst_label, edge_label) -> tuple | None:
    """The signed copy of dst_label congruent to src_lift mod edge_label, or
    None; the sign is read by ``graph_sign``."""
    sign = graph_sign(_residues(g, edge_label), src_lift, dst_label)
    if sign == 0:
        raise DomainError("ambiguous sign transport; adjacent labels not independent")
    return None if sign is None else tuple(sign * c for c in dst_label)


def _matchings(g: GkmGraph, edge_id: int):
    """Generate the compatible bijections for one unoriented edge in
    enumeration order (see ``edge_matchings``): ``choice[i]`` is the next
    allowed target to try for source i, ``picked[i]`` the target it holds."""
    edges = g.edges
    u, v, le = edges[edge_id]
    e, ebar = OrientedEdge(edge_id, u > v), OrientedEdge(edge_id, u < v)
    sources = [f for f in g.star(v if u > v else u) if f.edge != edge_id]
    targets = [h for h in g.star(u if u > v else v) if h.edge != edge_id]
    n = len(sources)
    if n != len(targets):
        return
    residues = _residues(g, le)
    by_residue: dict[tuple, list] = {}
    for j, h in enumerate(targets):
        pos, neg = residues[edges[h.edge][2]]
        by_residue.setdefault(pos, []).append(j)
        if neg != pos:
            by_residue.setdefault(neg, []).append(j)
    allowed = [by_residue.get(residues[edges[f.edge][2]][0], ()) for f in sources]
    taken = [False] * n
    choice = [0] * n
    picked = [0] * n
    i = 0
    while i >= 0:
        if i == n:
            matching = {e: ebar}
            matching.update(zip(sources, [targets[j] for j in picked]))
            yield matching
        else:
            row = allowed[i]
            c = choice[i]
            while c < len(row) and taken[row[c]]:
                c += 1
            if c < len(row):
                choice[i] = c + 1
                picked[i] = row[c]
                taken[row[c]] = True
                i += 1
                continue
            choice[i] = 0
        i -= 1
        if i >= 0:
            taken[picked[i]] = False


def edge_matchings(g: GkmGraph, edge_id: int) -> list[dict]:
    """All compatible bijections for one unoriented edge.

    Keys run over the star of the initial vertex of the default
    orientation (including the edge itself, which always maps to its
    reverse); enumeration order is lexicographic in the canonical star
    order.
    """
    return list(_matchings(g, edge_id))


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
    return Connection(g, chosen)


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
        yield Connection(g, dict(enumerate(combo)))


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
        residues = _residues(g, g.label(eid))
        for f, h in m.items():
            if f != e and graph_sign(residues, g.label(f.edge), g.label(h.edge)) is None:
                raise ValueError(
                    f"edge {eid}: pair {f.render()} -> {h.render()} violates the "
                    f"congruence"
                )
        chosen[eid] = m
    return Connection(g, chosen)


def transport_signs(g: GkmGraph, oe: OrientedEdge, image, lifts=None) -> dict:
    """The sign carrying each star edge of initial(oe) across oe.

    ``image`` maps the star of initial(oe) onto the star of terminal(oe);
    ``lifts`` gives a signed lift per source edge (default: its label).
    For every f other than oe the result holds the sign s with
    lift(f) - s * label(image(f)) in Z * label(oe).  Raises ValueError
    when no sign fits (the bijection is not compatible), and its subclass
    ``DomainError`` when both do (adjacent labels fail linear
    independence, a property of the graph).
    """
    residues = _residues(g, g.label(oe.edge))
    signs = {}
    for f in g.star(g.initial(oe)):
        if f == oe:
            continue
        lift = g.label(f.edge) if lifts is None else lifts[f]
        sign = graph_sign(residues, lift, g.label(image[f].edge))
        if sign == 0:
            raise DomainError(
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
    the star without e itself.  It is computed once per unoriented edge
    and stored under both orientations, as eta(reverse e) = eta(e): a
    ``Connection`` holds one matching per edge and the reverse reads its
    inverse, and the residue test is symmetric (lf - s * lh is in Z * le
    iff lh - s * lf is).
    """
    eta: dict = {}
    for eid in range(len(g.edges)):
        oe = g.default_oriented(eid)
        eta[oe] = eta[oe.reverse()] = -prod(transport_signs(g, oe, c.map_along(oe)).values())
    return eta


def is_orientable(g: GkmGraph, c: Connection | None = None) -> bool:
    """Whether eta-products along all closed edge paths are +1.

    eta is symmetric (see ``holonomy_signs``), so every closed-path
    product is +1 iff there is a vertex sign sigma with eta(e) =
    sigma(u) * sigma(v) on every edge.  One breadth-first pass per
    component fixes sigma from its root along tree edges and checks it on
    every other star edge as it reads it.
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
                elif sigma[w] != sigma[v] * eta[f]:
                    return False
    return True

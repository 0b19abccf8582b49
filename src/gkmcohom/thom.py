"""Thom classes for 3-valent graphs over a rank-2 torus.

Connection paths are the orbits of (previous edge, current edge) pairs
under the rule "next = connection of the reversed previous edge along
the current one".  In a 3-valent graph each step leaves one normal edge
at the current vertex; transporting a sign for the normal labels along
the path yields a degree-2 class, and together with the classical edge
and vertex classes these sums reproduce the even characteristic-class
components.

A path class lives on the initial vertices of its normal edges, an edge
class on the two endpoints of its edge and a vertex class on one vertex,
so all three are built as {vertex: value} maps (``_path_values``,
``_edge_values``, ``_vertex_values``; the star products read
``polyring.elementary_symmetric``) and checked on the edges of the stars
of that support alone (``_check_local``): every other edge joins two
zeros, so this is exactly the condition of ``membership_z``.

An edge or vertex value depends only on the labels around it, and a GKM
graph repeats these pictures (a 64-gon prism has one sorted vertex star
and a few edge pictures).  So ``verify_sw3valent`` keys each value by its
local input (``_local_values``) and multiplies out and checks each key
once per call, for all the connections it checks.  It searches the
matchings of each edge once, builds every connection it checks from
those lists, adds the maps straight into the per-vertex sums and renders
the sums of the reported connection only; the public
``thom_class_of_*`` functions build and check their value on every call
and spread it into a whole class.
"""

from __future__ import annotations

from itertools import product as iproduct

from .charclasses import total_sw
from .cohomology import GraphClass, reduce_class_mod_p
from .connection import (
    Connection,
    edge_matchings,
    find_connection,
    first_matching,
    forced_sign,
    is_orientable,
    transport_signs,
)
from .graph import DomainError, GkmGraph, InvariantError, OrientedEdge
from .polyring import GradedPoly, congruent_mod_weight, elementary_symmetric, linear_from_weight


class ConnectionPath:
    """Closed edge path following the connection, canonically rotated.

    The stored representative is the lexicographically smallest rotation
    among both traversal directions, so equal path classes compare equal.
    ``self_reversed`` marks paths whose reversal is a rotation of
    themselves (they traverse some edge in both directions).
    """

    __slots__ = ("graph", "edges", "self_reversed")

    def __init__(self, graph: GkmGraph, edges, self_reversed: bool):
        self.graph = graph
        self.edges = tuple(edges)
        self.self_reversed = self_reversed

    def __len__(self) -> int:
        return len(self.edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConnectionPath):
            return NotImplemented
        return self.graph == other.graph and self.edges == other.edges

    def __hash__(self) -> int:
        return hash(self.edges)

    def render(self) -> str:
        return " ".join(oe.render() for oe in self.edges)

    def normal_slots(self) -> list[tuple[int, OrientedEdge, int]]:
        """Per position: (vertex, normal oriented edge, incoming edge id).

        Only defined for 3-valent graphs, where removing the incoming and
        outgoing edges from a star leaves exactly one normal edge.
        """
        g = self.graph
        slots = []
        l = len(self.edges)
        for j in range(l):
            prev = self.edges[(j - 1) % l]
            cur = self.edges[j]
            v = g.initial(cur)
            if g.terminal(prev) != v:
                raise ValueError("path edges are not consecutive")
            blocked = {prev.reverse(), cur}
            normals = [oe for oe in g.star(v) if oe not in blocked]
            if len(normals) != 1:
                raise ValueError("normal edge undefined; graph is not 3-valent")
            slots.append((v, normals[0], prev.edge))
        return slots


def _successor(c: Connection, pair: tuple) -> tuple:
    prev, cur = pair
    return (cur, c.apply(cur, prev.reverse()))


def connection_paths(g: GkmGraph, c: Connection | None = None) -> list[ConnectionPath]:
    """All connection paths, deduplicated up to rotation and reversal.

    Every ordered pair of consecutive oriented edges (no backtracking)
    belongs to exactly one traversal; a path and its reversal count once.
    """
    if c is not None:
        c.check_graph(g)
    else:
        c = find_connection(g)
        if c is None:
            raise ValueError("graph admits no compatible connection")
    pairs = []
    for v in range(len(g.vertices)):
        for into in g.star(v):
            prev = into.reverse()
            for cur in g.star(v):
                if cur != into:
                    pairs.append((prev, cur))
    total = len(pairs)
    seen: set = set()
    out = []
    covered = 0
    for start in pairs:
        if start in seen:
            continue
        orbit = []
        pair = start
        while True:
            orbit.append(pair)
            seen.add(pair)
            pair = _successor(c, pair)
            if pair == start:
                break
        edges = tuple(cur for _, cur in orbit)
        reversed_pairs = [(cur.reverse(), prev.reverse()) for prev, cur in orbit]
        self_reversed = reversed_pairs[0] in set(orbit)
        if self_reversed:
            if set(reversed_pairs) != set(orbit):
                raise InvariantError("a self-reversed path is not closed under reversal")
            covered += len(orbit)
        else:
            for rp in reversed_pairs:
                seen.add(rp)
            covered += 2 * len(orbit)
        reversed_edges = tuple(oe.reverse() for oe in reversed(edges))
        # the smallest rotation in either direction
        canon = min(e[s:] + e[:s] for e in (edges, reversed_edges) for s in range(len(e)))
        out.append(ConnectionPath(g, canon, self_reversed))
    n = g.valence
    if total != n * (n - 1) * len(g.vertices):
        raise InvariantError("pair count differs from n(n-1) per vertex")
    if covered != total:
        raise InvariantError("paths do not partition the pair set")
    out.sort(key=lambda p: p.edges)
    return out


def thom_class_of_path(
    g: GkmGraph, c: Connection, path: ConnectionPath, initial_sign: int = 1
) -> GraphClass:
    """Degree-2 class of a connection path via normal-label sign transport.

    The lift of the lexicographically smallest normal edge is its
    sign-normalized label times ``initial_sign`` (1 or -1); successive
    normal labels take the sign forced by congruence modulo the edge
    between them.  The closing congruence holds exactly when the graph is
    orientable and is checked; a doubly-crossed normal edge must
    receive the same sign both times.
    """
    c.check_graph(g)
    if g.torus_rank != 2:
        raise ValueError("path classes require torus rank 2")
    if initial_sign not in (1, -1):
        raise ValueError("initial_sign must be 1 or -1")
    return _sum_values(g, 2, [_path_values(g, c, path, initial_sign)])


def _path_values(g: GkmGraph, c: Connection, path: ConnectionPath, initial_sign: int) -> dict:
    """The nonzero values of the path class, checked: at each initial
    vertex of a normal edge, the sum of the transported lifts there, each
    lift carried as the sign of its normal label."""
    slots = path.normal_slots()
    start = min(range(len(slots)), key=lambda j: slots[j][1])
    rotated = slots[start:] + slots[:start]
    prev = rotated[0][1]
    signs: dict[OrientedEdge, int] = {prev: initial_sign}
    for _, normal, between in rotated[1:]:
        step = forced_sign(g, prev.edge, normal.edge, between)
        if step is None:
            raise ValueError("sign transport failed; connection not compatible")
        sign = signs[prev] * step
        if signs.setdefault(normal, sign) != sign:
            raise ValueError(f"normal edge {normal.render()} crossed twice with conflicting signs")
        prev = normal
    _, first_normal, between = rotated[0]
    closing = forced_sign(g, prev.edge, first_normal.edge, between)
    if closing is None or signs[prev] * closing != signs[first_normal]:
        raise ValueError("closing congruence failed; the graph is not orientable")
    sums: dict[int, tuple] = {}
    for oe, s in signs.items():
        v = g.initial(oe)
        w = sums.get(v, (0,) * g.torus_rank)
        sums[v] = tuple(a + s * b for a, b in zip(w, g.label(oe.edge)))
    values = {v: linear_from_weight(w) for v, w in sums.items() if any(w)}
    _check_local(g, 1, values, "path")
    return values


def _check_local(g: GkmGraph, degree: int, values: dict, kind: str) -> None:
    """``membership_z`` for a class of polynomial degree ``degree`` that
    vanishes off the vertices of ``values``: only the edges of their stars
    can fail, every other edge joins two zeros."""
    zero = GradedPoly.zero(g.torus_rank, degree)
    seen = set()
    for vertex in values:
        for oe in g.star(vertex):
            if oe.edge in seen:
                continue
            seen.add(oe.edge)
            u, v, label = g.edges[oe.edge]
            if not congruent_mod_weight(values.get(u, zero), values.get(v, zero), label):
                raise InvariantError(f"{kind} class violates an edge congruence")


def _local_values(
    g: GkmGraph, memo: dict, kind: str, degree: int, support, key, factors
) -> dict:
    """{vertex: value} on ``support``: the product of the weights of each
    list in ``factors``, in order.  ``key`` determines the factors and
    every label the check reads, so they are multiplied out and checked by
    ``_check_local`` on the first occurrence of (kind, key) in ``memo``
    only, and read back after."""
    got = memo.get((kind, key))
    if got is None:
        got = [elementary_symmetric(g.torus_rank, ws)[-1] for ws in factors]
        _check_local(g, degree, dict(zip(support, got)), kind)
        memo[kind, key] = got
    return dict(zip(support, got))


def _edge_values(g: GkmGraph, c: Connection, edge_id: int, memo: dict) -> dict:
    """The two values of the degree-4 edge class, checked: the product of
    the other star labels at the initial vertex, and of their images with
    the transported signs at the terminal vertex.

    The key is the edge label, the sorted other labels at the initial
    vertex, the sorted signed image lifts and the sorted labels of the
    other edges joining the same two endpoints (whose check compares the
    two values rather than one value with zero)."""
    oe = g.default_oriented(edge_id)
    ends = (g.initial(oe), g.terminal(oe))
    image = c.map_along(oe)
    signs = transport_signs(g, oe, image)
    src = tuple(sorted(g.label(l.edge) for l in signs))
    dst = tuple(sorted(tuple(s * x for x in g.label(image[l].edge)) for l, s in signs.items()))
    parallel = tuple(sorted(g.label(l.edge) for l in signs if g.terminal(l) == ends[1]))
    key = (g.label(edge_id), src, dst, parallel)
    return _local_values(g, memo, "edge", 2, ends, key, (src, dst))


def _vertex_values(g: GkmGraph, vertex: int, memo: dict) -> dict:
    """The one value of the degree-6 vertex class, checked: the product of
    the star labels, keyed by their sorted tuple."""
    star = tuple(sorted(g.label(oe.edge) for oe in g.star(vertex)))
    return _local_values(g, memo, "vertex", 3, (vertex,), star, (star,))


def thom_class_of_edge(g: GkmGraph, c: Connection, edge_id: int) -> GraphClass:
    """Degree-4 class supported on the endpoints of one edge."""
    c.check_graph(g)
    if g.torus_rank != 2:
        raise ValueError("edge classes require torus rank 2")
    if g.valence != 3:
        raise ValueError("edge classes require a 3-valent graph")
    return _sum_values(g, 4, [_edge_values(g, c, edge_id, {})])


def thom_class_of_vertex(g: GkmGraph, vertex: int) -> GraphClass:
    """Degree-6 class supported on one vertex: product of its star labels."""
    if g.valence != 3:
        raise ValueError("vertex classes require a 3-valent graph")
    return _sum_values(g, 6, [_vertex_values(g, vertex, {})])


def _sum_values(g: GkmGraph, degree2: int, supported) -> GraphClass:
    """Vertex-wise sum of classes given by their nonzero values, each a
    {vertex: value} map."""
    sums = [GradedPoly.zero(g.torus_rank, degree2 // 2)] * len(g.vertices)
    for values in supported:
        for v, f in values.items():
            sums[v] = sums[v] + f
    return GraphClass(g, degree2, sums)


_MATCHES = ("degree2_match", "degree4_match", "degree6_match")


def verify_sw3valent(g: GkmGraph, connection: Connection | None = None) -> dict:
    """Compare reduced Thom-class sums with the characteristic components.

    For a 3-valent orientable rank-2 graph the reductions of the three
    sums (over paths, edges, vertices) must equal the degree-2, 4 and 6
    components of the total class.  When at most eight connections exist
    the comparison covers all of them, each built from the per-edge
    matching lists and checked once; otherwise only the given connection
    is checked, or without one the first, built from the first
    matching at every edge.  Every matching of an edge is listed only
    while the product of the counts so far is at most eight; after that
    each edge is searched for its first matching alone.

    The report describes the given connection, or without one the first,
    and renders its sums once; of the other checked connections only the
    mod-2 comparisons are kept, and each match flag is their ``all``.

    One memo per call, shared by all the connections checked, keys each
    vertex and edge value by its local input (the sorted star labels; for
    an edge see ``_edge_values``, whose key keeps multigraphs exact), and
    a key is multiplied out and checked on its first occurrence only.
    """
    if connection is not None:
        connection.check_graph(g)
    if g.valence != 3:
        raise DomainError("verification requires a 3-valent graph")
    if g.torus_rank != 2:
        raise DomainError("verification requires torus rank 2")
    # one matching search per edge; the connections are the combinations
    per_edge, count = [], 1
    for eid in range(len(g.edges)):
        if count <= 8:
            per_edge.append(edge_matchings(g, eid))
        else:
            first = first_matching(g, eid)
            per_edge.append([] if first is None else [first])
        count *= len(per_edge[-1])
    if count <= 8:
        checked = [Connection(g, dict(enumerate(combo))) for combo in iproduct(*per_edge)]
    elif connection is None:
        # the first matching at every edge: the connection find_connection gives
        checked = [Connection(g, {eid: ms[0] for eid, ms in enumerate(per_edge)})]
    else:
        checked = [connection]
    if connection is None:
        if not checked:
            raise DomainError("graph admits no compatible connection")
        connection = checked[0]
    if not is_orientable(g, connection):
        raise DomainError("graph is not orientable")

    memo: dict = {}
    vertex_sum = _sum_values(g, 6, (_vertex_values(g, v, memo) for v in range(len(g.vertices))))
    matched = []
    for c in [connection] + [alt for alt in checked if alt != connection]:
        sw = total_sw(g, c)
        c_paths = connection_paths(g, c)
        sums = (
            _sum_values(g, 2, (_path_values(g, c, p, 1) for p in c_paths)),
            _sum_values(g, 4, (_edge_values(g, c, e, memo) for e in range(len(g.edges)))),
            vertex_sum,
        )
        matched.append([reduce_class_mod_p(g, s, 2) == sw.component(s.degree2) for s in sums])
        if c is connection:
            paths, reported = c_paths, sums
    report = {
        "paths": [p.render() for p in paths],
        "path_count": len(paths),
        "self_reversed_paths": sum(1 for p in paths if p.self_reversed),
        "connections_checked": len(checked),
        **dict(zip(_MATCHES, map(all, zip(*matched)))),
        "sums": {str(s.degree2): s.render_values() for s in reported},
    }
    report["all_match"] = all(report[key] for key in _MATCHES)
    return report

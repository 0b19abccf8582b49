"""Compatible connections, their sign data, and orientability.

A connection assigns to every oriented edge e a bijection between the
stars of its endpoints sending e to its reverse, such that each edge of
the source star is congruent to a signed copy of its image modulo the
label of e.  Matchings are searched per unoriented edge (the reverse
orientation carries the inverse bijection, so edges are independent), by
one depth-first search on an explicit stack over the allowed targets of
each source (``_matchings``, behind ``edge_matchings``).  The first
matching, the one every connection search takes, is the search's first
leaf: congruence up to sign splits sources and targets into complete
blocks, so the search reaches that leaf without backtracking, and
``first_matching`` takes it in one greedy pass.  Both read the allowed
targets off class maps that all stars with one label set share.  A
``Connection`` is these per-edge matchings, one dict per edge along its
default orientation, and nothing else: ``map_along`` returns a read-only
view of one, and reads the reverse orientation as its inverse.

Congruence modulo Z*le is decided by one canonical residue: with i the
first nonzero coordinate of le, r(v) = v - (v[i] // le[i]) * le, and v is
congruent to v' iff r(v) == r(v') (floor division picks one
representative of v[i] mod le[i], also for non-primitive labels and a
negative le[i]).

Residues depend on labels only, and a GKM graph carries far fewer
distinct labels than edges (Fl5: 600 edges, 10 labels).  So each graph
keeps one label table, in ``g._cache``: its distinct stored labels in
edge order, with a per-edge list of their ids, and per edge label, per
label id, the pair of interned residue-class ids of (r(v), r(-v)),
computed on first read; the search and the signs compare small integers,
not label tuples.  A lift is a sign: every lift is s * v for a label v
and s = +-1, and transport_sign(s * v, w, le) = s * transport_sign(v, w,
le) (0 and None included), so callers carry s and the table never grows
past the graph's labels.  A transport sign is two comparisons of class
ids, so it is not stored: ``graph_sign`` is the one place that reads a
sign, off the row of the edge label its caller fetched, and
``transport_signs``, ``holonomy_signs``, ``forced_sign`` and
``connection_from_matchings`` all read it there (``edge_matchings`` and
``first_matching`` look the allowed targets up by class id; the table
also keeps each star's label ids and, per edge label and star label
set, the targets of each class).  A 0 (both signs fit) or None
(neither does) is an outcome, not a verdict: the caller raises on it on
every read.  The uncached ``transport_sign`` is the definition
``graph_sign`` is tested against.

A star is carried across an edge with the congruence-forced signs by
``transport_signs``: the Stiefel-Whitney quotients, the spin criteria
and the Thom edge classes all read it, and ``holonomy_signs`` reads the
same signs straight off each stored matching.  A function that takes a
graph and a connection raises ValueError when the connection was built
on another graph (``Connection.check_graph``).
"""

from __future__ import annotations

from itertools import islice, product as iproduct
from types import MappingProxyType

from .graph import DomainError, GkmGraph, OrientedEdge


class Connection:
    """Family of star bijections, one per oriented edge.

    It holds one matching per unoriented edge, keyed by edge id: the
    bijection along the default orientation.  The reverse orientation
    carries the inverse bijection by definition, so it is not stored;
    ``map_along`` and ``apply`` read it off the matching.  The matchings
    are never changed, so connections may share them.  Raises ValueError
    unless there is exactly one matching per edge id of the graph."""

    __slots__ = ("graph", "_matchings")

    def __init__(self, graph: GkmGraph, matchings: dict):
        if matchings.keys() != set(range(len(graph.edges))):
            raise ValueError("a connection needs exactly one matching per edge id")
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

    def check_graph(self, g: GkmGraph) -> None:
        """Raise ValueError unless the connection was built on g or on a
        graph equal to it."""
        if self.graph is not g and self.graph != g:
            raise ValueError("connection belongs to a different graph")

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


def transport_sign(src_lift, dst_label, edge_label) -> int | None:
    """The sign s with src_lift - s * dst_label a multiple of edge_label.

    Returns 1 or -1 when one sign fits, None when neither does, and 0 when
    both do (adjacent labels that fail linear independence).  Uncached:
    the definition that ``graph_sign`` reads off the label table of a
    graph.
    """
    r = residue(src_lift, edge_label)
    fits_pos = r == residue(dst_label, edge_label)
    fits_neg = r == residue(tuple(-c for c in dst_label), edge_label)
    if fits_pos:
        return 0 if fits_neg else 1
    return -1 if fits_neg else None


class _ResidueRow(dict):
    """The residue classes of one edge label ``le``: per label id v, the
    pair of class ids of (r(v), r(-v)).  Residues are interned to ids in
    ``classes``; each entry is computed on its first read (a full row
    would take L residues per edge label, L^2 when all L differ)."""

    __slots__ = ("le", "labels", "classes")

    def __init__(self, le, labels: tuple):
        super().__init__()
        self.le = le
        self.labels = labels
        self.classes: dict[tuple, int] = {}

    def __missing__(self, vid: int) -> tuple:
        v, classes = self.labels[vid], self.classes
        pos = classes.setdefault(residue(v, self.le), len(classes))
        neg = classes.setdefault(residue(tuple(-c for c in v), self.le), len(classes))
        got = self[vid] = (pos, neg)
        return got


class _LabelTable:
    """A graph's distinct stored labels, in edge order: ``of_edge`` gives
    each edge's label id.  One ``_ResidueRow`` per edge label id is made
    on its first read.

    For the matching search it also keeps, per vertex, the label ids of
    its star in star order (``star_labels``), their set (``star_keys``)
    and the ascending star positions of each label id
    (``star_positions``); and per (edge label id, star key) the map from
    class id to the label ids t of that star with r(t) or r(-t) in the
    class (``class_map``), made on its first read.  Stars with one label
    set share their maps."""

    __slots__ = ("labels", "of_edge", "rows", "star_labels", "star_keys", "star_positions", "maps")

    def __init__(self, g: GkmGraph):
        ids: dict[tuple, int] = {}
        of_edge = self.of_edge = tuple(ids.setdefault(label, len(ids)) for _, _, label in g.edges)
        self.labels = tuple(ids)
        self.rows: dict[int, _ResidueRow] = {}
        self.star_labels = [
            tuple(of_edge[f.edge] for f in g.star(v)) for v in range(len(g.vertices))
        ]
        self.star_keys = [frozenset(star) for star in self.star_labels]
        self.star_positions = []
        for star in self.star_labels:
            positions: dict[int, list] = {}
            for j, t in enumerate(star):
                positions.setdefault(t, []).append(j)
            self.star_positions.append(positions)
        self.maps: dict[tuple, dict[int, list]] = {}

    def row(self, le_id: int) -> _ResidueRow:
        got = self.rows.get(le_id)
        if got is None:
            got = self.rows[le_id] = _ResidueRow(self.labels[le_id], self.labels)
        return got

    def class_map(self, le_id: int, key: frozenset) -> dict[int, list]:
        got = self.maps.get((le_id, key))
        if got is None:
            residues = self.row(le_id)
            got = self.maps[le_id, key] = {}
            for t in key:
                pos, neg = residues[t]
                got.setdefault(pos, []).append(t)
                if neg != pos:
                    got.setdefault(neg, []).append(t)
        return got


def _label_table(g: GkmGraph) -> _LabelTable:
    """The label table of g, kept in ``g._cache`` so it dies with the
    graph."""
    got = g._cache.get("labels")
    if got is None:
        got = g._cache["labels"] = _LabelTable(g)
    return got


def graph_sign(row: _ResidueRow, src: int, dst: int) -> int | None:
    """``transport_sign`` of the labels with ids src and dst across the
    edge label of ``row``, read off their residue classes."""
    r = row[src][0]
    pos, neg = row[dst]
    if r == pos:
        return 0 if r == neg else 1
    return -1 if r == neg else None


def _sign_error(sign, edge_id: int) -> ValueError:
    """The error for a failed sign read along an edge: ``DomainError``
    when both signs fit (adjacent labels fail linear independence, a
    property of the graph), ValueError when neither does."""
    if sign == 0:
        return DomainError(
            f"ambiguous transport sign along edge {edge_id}: adjacent "
            f"labels fail linear independence"
        )
    return ValueError(f"connection is not compatible along edge {edge_id}")


def forced_sign(g: GkmGraph, src_edge: int, dst_edge: int, edge: int) -> int | None:
    """``transport_sign`` of the labels of edges src_edge and dst_edge
    across the label of ``edge``, read by ``graph_sign``: 1 or -1, None
    when neither sign fits.  A signed lift s * label(src_edge) takes s
    times this sign.  Raises ``DomainError`` when both signs fit."""
    table = _label_table(g)
    of_edge = table.of_edge
    sign = graph_sign(table.row(of_edge[edge]), of_edge[src_edge], of_edge[dst_edge])
    if sign == 0:
        raise DomainError("ambiguous sign transport; adjacent labels not independent")
    return sign


def _matchings(g: GkmGraph, edge_id: int):
    """Generate the compatible bijections for one unoriented edge in
    enumeration order (see ``edge_matchings``): ``allowed[i]`` lists the
    target star positions source i may take, read off the class map of
    the target star, ``choice[i]`` is the next of them to try and
    ``picked[i]`` the one it holds; the edge's own slot is taken from the
    start."""
    u, v, _ = g.edges[edge_id]
    src, dst = (v, u) if u > v else (u, v)
    e, ebar = OrientedEdge(edge_id, u > v), OrientedEdge(edge_id, u < v)
    sources = [f for f in g.star(src) if f.edge != edge_id]
    targets = g.star(dst)
    n = len(sources)
    if n + 1 != len(targets):
        return
    table = _label_table(g)
    le_id = table.of_edge[edge_id]
    residues = table.row(le_id)
    classes = table.class_map(le_id, table.star_keys[dst])
    positions = table.star_positions[dst]
    allowed = [
        sorted(j for t in classes.get(residues[table.of_edge[f.edge]][0], ()) for j in positions[t])
        for f in sources
    ]
    taken = [False] * len(targets)
    for j in positions[le_id]:
        taken[j] = targets[j].edge == edge_id
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

    It is the first leaf of ``_matchings``, taken in one greedy pass: each
    source, in star order, takes its first free allowed target, read off
    the class map of the target star.  Congruence up to sign is an
    equivalence relation (a source may take a target exactly when their
    labels lie in one orbit of +-1 on the residues modulo the edge
    label), so sources and targets fall into complete blocks and the
    search never backtracks on its way to the first leaf: a source that
    finds no free target means its block has more sources than targets,
    and no matching exists.  Taking it at every edge gives the first
    connection that ``enumerate_connections`` yields, without holding
    every edge's matchings at once.
    """
    u, v, _ = g.edges[edge_id]
    src, dst = (v, u) if u > v else (u, v)
    sources, targets = g.star(src), g.star(dst)
    n = len(targets)
    if len(sources) != n:
        return None
    table = _label_table(g)
    le_id = table.of_edge[edge_id]
    residues = table.row(le_id)
    classes = table.class_map(le_id, table.star_keys[dst])
    positions = table.star_positions[dst]
    taken = [False] * n
    for j in positions[le_id]:
        taken[j] = targets[j].edge == edge_id
    e = OrientedEdge(edge_id, u > v)
    matching = {e: e.reverse()}
    for f, t in zip(sources, table.star_labels[src]):
        if f.edge == edge_id:
            continue
        first = n
        for h in classes.get(residues[t][0], ()):
            for j in positions[h]:
                if not taken[j]:
                    if j < first:
                        first = j
                    break
        if first == n:
            return None
        taken[first] = True
        matching[f] = targets[first]
    return matching


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
    bijectivity and the congruence condition; a key that is not an edge
    id of g raises ValueError.  An edge without a matching takes its
    first one."""
    unknown = [eid for eid in matchings if eid not in range(len(g.edges))]
    if unknown:
        raise ValueError(f"no edge ids {', '.join(map(repr, unknown))} in the graph")
    table = _label_table(g)
    of_edge = table.of_edge
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
        residues = table.row(of_edge[eid])
        for f, h in m.items():
            if f != e and graph_sign(residues, of_edge[f.edge], of_edge[h.edge]) is None:
                raise ValueError(
                    f"edge {eid}: pair {f.render()} -> {h.render()} violates the "
                    f"congruence"
                )
        chosen[eid] = m
    return Connection(g, chosen)


def transport_signs(g: GkmGraph, oe: OrientedEdge, image, signs=None) -> dict:
    """The sign carrying each star edge of initial(oe) across oe.

    ``image`` maps the star of initial(oe) onto the star of terminal(oe);
    ``signs`` gives the sign s of the lift s * label(f) per source edge f
    (default: 1).  For every f other than oe the result holds the sign t
    with s * label(f) - t * label(image(f)) in Z * label(oe), read as s
    times the sign of label(f) itself.  Raises ValueError when no sign
    fits (the bijection is not compatible), and its subclass
    ``DomainError`` when both do (adjacent labels fail linear
    independence, a property of the graph).
    """
    table = _label_table(g)
    of_edge = table.of_edge
    residues = table.row(of_edge[oe.edge])
    out = {}
    for f in g.star(g.initial(oe)):
        if f == oe:
            continue
        sign = graph_sign(residues, of_edge[f.edge], of_edge[image[f].edge])
        if not sign:
            raise _sign_error(sign, oe.edge)
        out[f] = sign if signs is None else signs[f] * sign
    return out


def holonomy_signs(g: GkmGraph, c: Connection) -> dict:
    """Sign eta(e) for every oriented edge.

    eta(e) is minus the product of the transport signs along e over the
    star without e itself (those of ``transport_signs``, read here off
    each stored matching).  It is computed once per unoriented edge and
    stored under both orientations, as eta(reverse e) = eta(e): a
    ``Connection`` holds one matching per edge and the reverse reads its
    inverse, and the residue test is symmetric (lf - s * lh is in Z * le
    iff lh - s * lf is).
    """
    c.check_graph(g)
    table = _label_table(g)
    of_edge = table.of_edge
    matchings = c._matchings
    eta: dict = {}
    for eid, (u, v, _) in enumerate(g.edges):
        residues = table.row(of_edge[eid])
        product = -1
        for f, h in matchings[eid].items():
            if f.edge != eid:
                sign = graph_sign(residues, of_edge[f.edge], of_edge[h.edge])
                if not sign:
                    raise _sign_error(sign, eid)
                product *= sign
        eta[OrientedEdge(eid, u > v)] = eta[OrientedEdge(eid, u < v)] = product
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

"""Built-in example graphs, addressable from the CLI as ``fixtures:NAME``."""

from __future__ import annotations

from .graph import GkmGraph


def paper8() -> GkmGraph:
    """Four vertices joined by four double edges (8 edges), torus rank 2.

    The square lr-ur-ul-ll carries the label pairs (x, 2y) on the two
    vertical double edges, (x+y, x+2y) on top and (x-y, x-2y) on the
    bottom.  Vertex order runs counterclockwise from the lower right;
    edge order is right, top, left, bottom, outer label first.  The graph
    is 4-valent, orientable, not spin, and its total characteristic class
    fails the degree-2 realizability obstruction.
    """
    return GkmGraph(
        2,
        ["lr", "ur", "ul", "ll"],
        [
            ("lr", "ur", (1, 0)),
            ("lr", "ur", (0, 2)),
            ("ur", "ul", (1, 1)),
            ("ur", "ul", (1, 2)),
            ("ul", "ll", (1, 0)),
            ("ul", "ll", (0, 2)),
            ("ll", "lr", (1, -1)),
            ("ll", "lr", (1, -2)),
        ],
    )


def paper8_generators() -> dict:
    """Module generators of the integral graph cohomology of paper8.

    Degrees 0, 4, 4, 8; components in vertex order (lr, ur, ul, ll).
    """
    from .cohomology import GraphClass
    from .polyring import GradedPoly

    g = paper8()

    def cls(degree2, lr, ur, ul, ll):
        d = degree2 // 2
        polys = [
            GradedPoly.from_terms(2, d, terms) if terms else GradedPoly.zero(2, d)
            for terms in (lr, ur, ul, ll)
        ]
        return GraphClass(g, degree2, tuple(polys))

    a1 = cls(0, {(0, 0): 1}, {(0, 0): 1}, {(0, 0): 1}, {(0, 0): 1})
    a2 = cls(
        4,
        {(2, 0): 1, (1, 1): -3, (0, 2): 2},
        {(2, 0): 1, (1, 1): 3, (0, 2): 2},
        None,
        None,
    )
    a3 = cls(4, None, {(1, 1): 2}, {(1, 1): 2}, None)
    a4 = cls(8, {(3, 1): 2, (2, 2): -6, (1, 3): 4}, None, None, None)
    return {"a1": a1, "a2": a2, "a3": a3, "a4": a4}


def sphere(w) -> GkmGraph:
    """Two vertices joined by a single edge with label w."""
    w = tuple(w)
    return GkmGraph(len(w), ["n", "s"], [("n", "s", w)])


def product(w1, w2, w3) -> GkmGraph:
    """Product of three one-edge graphs: the labeled cube graph.

    Vertices are bitstrings c0c1c2 (bit i = position along factor i);
    edges come axis by axis, each labeled with that factor's weight.
    """
    w1, w2, w3 = tuple(w1), tuple(w2), tuple(w3)
    k = len(w1)
    if len(w2) != k or len(w3) != k:
        raise ValueError("factor weights must share one torus rank")
    names = []
    for i in range(8):
        c = (i & 1, (i >> 1) & 1, (i >> 2) & 1)
        names.append(f"{c[0]}{c[1]}{c[2]}")
    edges = []
    for axis, w in enumerate((w1, w2, w3)):
        for i in range(8):
            if not i & (1 << axis):
                edges.append((names[i], names[i | (1 << axis)], w))
    return GkmGraph(k, names, edges)


def polygon(n_gon: int, wa=(1, 0), wb=(0, 1)) -> GkmGraph:
    """Even polygon with alternating labels wa, wb (2-valent)."""
    if n_gon < 3 or n_gon % 2:
        raise ValueError("need an even polygon with at least 4 vertices")
    names = [f"p{i}" for i in range(n_gon)]
    edges = [
        (names[i], names[(i + 1) % n_gon], wa if i % 2 == 0 else wb)
        for i in range(n_gon)
    ]
    return GkmGraph(len(wa), names, edges)


def _times_edge(g: GkmGraph, w) -> GkmGraph:
    """g times one edge labeled w: vertex v of g becomes vL0 and vL1.
    Edge order: the edges of g in layer L0, then in layer L1, then one
    vertical edge per vertex."""
    n = len(g.vertices)
    names = [f"{v}L{layer}" for layer in (0, 1) for v in g.vertices]
    edges = [(u + layer * n, v + layer * n, lab) for layer in (0, 1) for u, v, lab in g.edges]
    edges += [(i, i + n, w) for i in range(n)]
    return GkmGraph(g.torus_rank, names, edges)


def polygon2n_x_edge(n: int, wa=(1, 0), wb=(0, 1), wv=(1, 1)) -> GkmGraph:
    """Product of a 2n-gon (labels alternating wa, wb) with one edge (wv).

    3-valent on 4n vertices: two polygon layers plus vertical edges.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return _times_edge(polygon(2 * n, wa, wb), wv)


def triangle() -> GkmGraph:
    """2-valent triangle with labels (1,0), (0,1), (1,1); orientable."""
    return GkmGraph(
        2,
        ["t0", "t1", "t2"],
        [("t0", "t1", (1, 0)), ("t1", "t2", (0, 1)), ("t2", "t0", (1, 1))],
    )


def triangle_x_edge() -> GkmGraph:
    """Product of the triangle with one edge; 3-valent, orientable."""
    return _times_edge(triangle(), (1, -1))


def k4() -> GkmGraph:
    """Complete graph on four vertices, opposite edges sharing a label.

    Labels (1,0), (0,1), (1,1) on the three opposite-edge pairs.  Valid,
    effective, coprime, and a compatible connection exists, yet every
    triangle has sign product -1: the smallest non-orientable example.
    """
    return GkmGraph(
        2,
        ["v0", "v1", "v2", "v3"],
        [
            ("v0", "v1", (1, 0)),
            ("v0", "v2", (0, 1)),
            ("v0", "v3", (1, 1)),
            ("v1", "v2", (1, 1)),
            ("v1", "v3", (0, 1)),
            ("v2", "v3", (1, 0)),
        ],
    )


# name -> (constructor, parameter names); "n" takes one integer, every other
# parameter one comma-separated integer vector
_REGISTRY = {
    "paper8": (paper8, ()),
    "sphere": (sphere, ("w",)),
    "product": (product, ("w1", "w2", "w3")),
    "polygon": (polygon, ("n",)),
    "polygon2n_x_edge": (polygon2n_x_edge, ("n",)),
    "triangle": (triangle, ()),
    "triangle_x_edge": (triangle_x_edge, ()),
    "k4": (k4, ()),
}


def from_spec(spec: str) -> GkmGraph:
    """Resolve a fixture reference like ``sphere(2,0)`` or ``paper8``."""
    spec = spec.strip()
    if spec.startswith("fixtures:"):
        spec = spec[len("fixtures:") :]
    name, sep, rest = spec.partition("(")
    name = name.strip()
    if sep and not rest.endswith(")"):
        raise ValueError(f"malformed fixture reference {spec!r}")
    args = rest[:-1].strip()
    if name not in _REGISTRY:
        raise ValueError(f"unknown fixture {name!r}")
    build, params = _REGISTRY[name]
    groups = args.split(";") if args else []
    values = []
    try:
        if len(groups) != len(params):
            raise ValueError
        for param, group in zip(params, groups):
            vec = tuple(int(x) for x in group.split(","))
            if param == "n":
                (vec,) = vec
            values.append(vec)
    except ValueError:
        usage = f"{name}({';'.join(params)})" if params else name
        raise ValueError(f"fixture {name!r} expects {usage}, got {spec!r}") from None
    return build(*values)

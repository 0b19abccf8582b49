"""Connection paths and path/edge/vertex classes on 3-valent graphs."""

from __future__ import annotations

import itertools
import random
from math import prod

import pytest

from gkmcohom import (
    connection_from_matchings,
    connection_paths,
    enumerate_connections,
    find_connection,
    membership_z,
    reduce_class_mod_p,
    thom_class_of_edge,
    thom_class_of_path,
    thom_class_of_vertex,
    total_sw,
    validate_gkm,
    verify_sw3valent,
)
from gkmcohom import Connection, GkmGraph, GraphClass, GradedPoly, fixtures
from gkmcohom.connection import edge_matchings, first_matching, transport_sign
from gkmcohom.graph import DomainError, InvariantError, OrientedEdge
from gkmcohom.polyring import sign_normalize
from gkmcohom.thom import _check_local, _edge_values, _vertex_values

from helpers import (
    random_3valent_orientable,
    random_gkm_graphs,
    random_prisms_with_few_connections,
    shuffled_graph,
    verify_sw3valent_oracle,
)


def oe(text: str) -> OrientedEdge:
    return OrientedEdge(int(text[:-1]), text[-1] == "-")


# ---------------------------------------------------------------------------
# path decomposition


def test_path_counts_on_fixtures():
    cases = [
        (fixtures.polygon2n_x_edge(2), 6),
        (fixtures.polygon2n_x_edge(3), 8),
        (fixtures.triangle_x_edge(), 5),
        (fixtures.product((1, 0), (0, 1), (1, 1)), 6),
    ]
    for g, expected in cases:
        assert len(connection_paths(g)) == expected


def _walk_graphs() -> list:
    """3- and 4-valent random graphs, orientable 3-valent ones, prisms
    with two to eight connections and the 3-valent fixtures."""
    graphs = random_gkm_graphs(53, 4) + random_gkm_graphs(57, 4, valences=(4,))
    graphs += random_3valent_orientable(59, 4)
    graphs += random_prisms_with_few_connections(61, 2)
    graphs += [
        fixtures.polygon2n_x_edge(2),
        fixtures.polygon2n_x_edge(3),
        fixtures.triangle_x_edge(),
        fixtures.product((1, 0), (0, 1), (1, 1)),
        fixtures.product((1, 0), (0, 1), (2, 3)),
        fixtures.k4(),
    ]
    assert {g.valence for g in graphs} == {3, 4}
    return graphs


def _step_pairs(g: GkmGraph) -> list:
    """Every (edge into a vertex, edge out of it) that does not backtrack."""
    return [
        (into.reverse(), out)
        for v in range(len(g.vertices))
        for into in g.star(v)
        for out in g.star(v)
        if out != into
    ]


def test_reversal_carries_walk_orbits_to_walk_orbits():
    """The identity behind ``connection_paths``: with S the walk step
    (p, q) -> (q, image of -p along q), read off ``map_along``, and R the
    reversal (p, q) -> (-q, -p), S(R(S(x))) = R(x) and R(x) is neither x
    nor S(x) for every step pair x, on up to 40 connections of each
    graph.  So no connection path is its own reversal."""

    def step(c, x):
        p, q = x
        return (q, c.map_along(q)[p.reverse()])

    def reverse(x):
        p, q = x
        return (q.reverse(), p.reverse())

    for g in _walk_graphs():
        for c in itertools.islice(enumerate_connections(g), 40):
            for x in _step_pairs(g):
                assert step(c, reverse(step(c, x))) == reverse(x), (g, x)
                assert reverse(x) not in (x, step(c, x)), (g, x)


def test_paths_cover_each_pair_once():
    """Each path and its reversal, counted once, together hold every step
    pair exactly once: twice the length summed over the paths is n(n-1)
    per vertex."""
    cases = [twisted_prism()]
    for g in _walk_graphs():
        cases += [(g, c) for c in itertools.islice(enumerate_connections(g), 8)]
    for g, c in cases:
        paths = connection_paths(g, c)
        n = g.valence
        assert sum(2 * len(p) for p in paths) == n * (n - 1) * len(g.vertices), g
        held = []
        for p in paths:
            for prev, cur in zip(p.edges[-1:] + p.edges[:-1], p.edges):
                held += [(prev, cur), (cur.reverse(), prev.reverse())]
        assert sorted(held) == sorted(_step_pairs(g)), g


def test_paths_need_a_regular_graph():
    """A triangle beside a triangle prism has a connection, but its
    stars have two sizes."""
    g = _disjoint_union([fixtures.triangle(), fixtures.triangle_x_edge()])
    c = find_connection(g)
    assert c is not None
    for given in (None, c):
        with pytest.raises(DomainError, match="^graph is not regular$"):
            connection_paths(g, given)


def test_square_prism_paths_frozen():
    g = fixtures.polygon2n_x_edge(2)
    paths = connection_paths(g)
    assert [p.render() for p in paths] == [
        "0+ 1+ 2+ 3+",
        "0+ 9+ 4- 8-",
        "1+ 10+ 5- 9-",
        "2+ 11+ 6- 10-",
        "3+ 8+ 7- 11-",
        "4+ 5+ 6+ 7+",
    ]


def test_each_star_element_is_a_normal_edge_exactly_once():
    for g in (
        fixtures.polygon2n_x_edge(2),
        fixtures.triangle_x_edge(),
        fixtures.product((1, 0), (0, 1), (1, 1)),
    ):
        c = find_connection(g)
        seen: dict = {}
        for p in connection_paths(g, c):
            for v, normal, _ in p.normal_slots():
                seen[(v, normal)] = seen.get((v, normal), 0) + 1
        star_elements = {
            (v, oe) for v in range(len(g.vertices)) for oe in g.star(v)
        }
        assert set(seen) == star_elements
        assert set(seen.values()) == {1}


def test_path_class_ignores_the_chosen_representative():
    from gkmcohom.thom import ConnectionPath

    g = fixtures.polygon2n_x_edge(2)
    c = find_connection(g)
    for p in connection_paths(g, c):
        base = thom_class_of_path(g, c, p)
        for s in range(len(p.edges)):
            rotated = ConnectionPath(g, p.edges[s:] + p.edges[:s])
            cls = thom_class_of_path(g, c, rotated)
            assert cls == base or cls == -base
        reverse = ConnectionPath(g, tuple(e.reverse() for e in reversed(p.edges)))
        cls = thom_class_of_path(g, c, reverse)
        assert cls == base or cls == -base


# ---------------------------------------------------------------------------
# a twisted connection merging two paths into one


def twisted_prism():
    g = fixtures.polygon2n_x_edge(2)
    matching = {oe("0+"): oe("0-"), oe("3-"): oe("9+"), oe("8+"): oe("1+")}
    return g, connection_from_matchings(g, {0: matching})


def test_twisted_connection_merges_paths():
    g, c = twisted_prism()
    paths = connection_paths(g, c)
    assert len(paths) == 5
    long = max(paths, key=len)
    assert long.render() == "0+ 1+ 2+ 3+ 0+ 9+ 4- 8-"
    assert len(long) == 8
    crossings = [slot for slot in long.edges if slot.edge == 0]
    assert len(crossings) == 2


def test_twisted_path_class_frozen():
    g, c = twisted_prism()
    long = max(connection_paths(g, c), key=len)
    cls = thom_class_of_path(g, c, long)
    assert cls.render_values() == [
        "x + 2*y", "x + 2*y", "x + y", "x + y", "y", "y", "0", "0",
    ]
    assert membership_z(g, cls)
    flipped = thom_class_of_path(g, c, long, initial_sign=-1)
    assert flipped == -cls


def test_twisted_connection_still_verifies():
    g, c = twisted_prism()
    report = verify_sw3valent(g, c)
    assert report["all_match"]
    assert report["path_count"] == 5
    assert report["self_reversed_paths"] == 0


# ---------------------------------------------------------------------------
# the three class builders


def test_path_classes_are_integral_everywhere():
    g = fixtures.triangle_x_edge()
    c = find_connection(g)
    for p in connection_paths(g, c):
        assert membership_z(g, thom_class_of_path(g, c, p))


def test_edge_class_supported_on_endpoints():
    g = fixtures.polygon2n_x_edge(2)
    c = find_connection(g)
    cls = thom_class_of_edge(g, c, 8)
    e = g.default_oriented(8)
    support = [v for v in range(len(g.vertices)) if not cls.values[v].is_zero()]
    assert sorted(support) == sorted([g.initial(e), g.terminal(e)])
    assert membership_z(g, cls)


def test_vertex_class_is_star_product():
    g = fixtures.triangle_x_edge()
    cls = thom_class_of_vertex(g, 0)
    support = [v for v in range(len(g.vertices)) if not cls.values[v].is_zero()]
    assert support == [0]
    from gkmcohom.polyring import GradedPoly, linear_from_weight

    expect = GradedPoly.constant(2, 1)
    for l in g.star(0):
        expect = expect * linear_from_weight(g.label(l.edge))
    assert cls.values[0] == expect
    assert membership_z(g, cls)


# ---------------------------------------------------------------------------
# the degree-by-degree comparison


def test_fixture_suite_verifies():
    for g in (
        fixtures.polygon2n_x_edge(2),
        fixtures.polygon2n_x_edge(3),
        fixtures.triangle_x_edge(),
        fixtures.product((1, 0), (0, 1), (1, 1)),
        fixtures.product((1, 0), (0, 1), (2, 3)),
    ):
        report = verify_sw3valent(g)
        assert report["all_match"], report


def test_random_orientable_graphs_verify():
    for g in random_3valent_orientable(13, 8):
        report = verify_sw3valent(g)
        assert report["all_match"]


def test_all_constructors_integral_on_50_random_graphs():
    for g in random_3valent_orientable(7, 50):
        c = find_connection(g)
        for p in connection_paths(g, c):
            cls = thom_class_of_path(g, c, p)
            assert membership_z(g, cls)
            # the carried signs flip with the first one, so the class does
            assert thom_class_of_path(g, c, p, initial_sign=-1) == -cls
        for e in range(len(g.edges)):
            assert membership_z(g, thom_class_of_edge(g, c, e))
        for v in range(len(g.vertices)):
            assert membership_z(g, thom_class_of_vertex(g, v))


def test_local_sums_equal_the_sums_of_the_public_classes():
    """The path, edge and vertex sums of ``verify_sw3valent``, added from
    local values, equal the sums of the whole classes, also for
    multi-edges."""
    graphs = [fixtures.triangle_x_edge(), fixtures.polygon2n_x_edge(3)]
    cases = [(g, find_connection(g)) for g in graphs + random_3valent_orientable(17, 6)]
    for g, c in cases + [twisted_prism()]:
        report = verify_sw3valent(g, c)
        path_sum = GraphClass.zero(g, 2)
        for p in connection_paths(g, c):
            path_sum = path_sum + thom_class_of_path(g, c, p)
        edge_sum = GraphClass.zero(g, 4)
        for e in range(len(g.edges)):
            edge_sum = edge_sum + thom_class_of_edge(g, c, e)
        vertex_sum = GraphClass.zero(g, 6)
        for v in range(len(g.vertices)):
            vertex_sum = vertex_sum + thom_class_of_vertex(g, v)
        assert report["sums"]["2"] == path_sum.render_values(), g
        assert report["sums"]["4"] == edge_sum.render_values(), g
        assert report["sums"]["6"] == vertex_sum.render_values(), g


def test_local_check_is_membership_z():
    """On a class that vanishes off one or two vertices, checking the stars
    of the support decides exactly what ``membership_z`` decides."""
    rng = random.Random(41)
    outcomes = set()
    for g in random_3valent_orientable(43, 6) + [fixtures.polygon2n_x_edge(2)]:
        c = find_connection(g)
        for _ in range(30):
            if rng.random() < 0.5:
                values = _edge_values(g, c, rng.randrange(len(g.edges)), {})
            else:
                values = _vertex_values(g, rng.randrange(len(g.vertices)), {})
            degree = next(iter(values.values())).degree
            if rng.random() < 0.6:
                v = rng.choice(list(values))
                noise = GradedPoly(2, degree, [rng.randint(-2, 2) for _ in range(degree + 1)])
                values[v] = values[v] + noise
            zero = GradedPoly.zero(2, degree)
            cls = GraphClass(g, 2 * degree, [values.get(v, zero) for v in range(len(g.vertices))])
            want = membership_z(g, cls)
            try:
                _check_local(g, degree, values, "local")
                got = True
            except InvariantError:
                got = False
            assert got == want, (g, values)
            outcomes.add(want)
    assert outcomes == {True, False}


def test_path_sum_reduces_to_degree2_component():
    g = fixtures.polygon2n_x_edge(2)
    c = find_connection(g)
    paths = connection_paths(g, c)
    total = thom_class_of_path(g, c, paths[0])
    for p in paths[1:]:
        total = total + thom_class_of_path(g, c, p)
    assert reduce_class_mod_p(g, total, 2) == total_sw(g, c).component(2)


def test_verification_checks_each_connection_once(monkeypatch):
    from gkmcohom import thom

    g = fixtures.product((2, 0), (2, -3), (3, -3))
    assert len(list(enumerate_connections(g))) == 1
    calls = []
    real = thom.total_sw

    def counting(graph, connection=None):
        calls.append(connection)
        return real(graph, connection)

    monkeypatch.setattr(thom, "total_sw", counting)
    for given in (None, find_connection(g)):
        calls.clear()
        report = verify_sw3valent(g, given)
        assert report["all_match"] and report["connections_checked"] == 1
        assert len(calls) == 1


def _connection_counts() -> list:
    """(graph, connection count or None past eight): 2^24 connections on
    the octagon prism, one on a label-scaled product, four on each of two
    random prisms."""
    cases = [(fixtures.polygon2n_x_edge(4), None), (fixtures.product((2, 0), (2, -3), (3, -3)), 1)]
    few = random_prisms_with_few_connections(131, 2)
    cases += [(g, len(list(enumerate_connections(g)))) for g in few]
    assert {count for _, count in cases} >= {None, 1, 4}
    return cases


def test_thom_assembles_only_the_connections_it_checks(monkeypatch):
    """Past eight connections only the first is assembled; at most eight
    are each assembled once and all checked.  The report equals that of
    an oracle that assembles the first nine without counting, from whole
    classes."""
    from gkmcohom import thom

    assembled = []
    real = thom.Connection
    monkeypatch.setattr(
        thom, "Connection", lambda g, chosen: assembled.append(1) or real(g, chosen)
    )
    for g, count in _connection_counts():
        assembled.clear()
        report = verify_sw3valent(g)
        assert len(assembled) == (count or 1), (g, count)
        assert report["connections_checked"] == (count or 1)
        assert report == verify_sw3valent_oracle(g), g
        assert report["all_match"]


def test_thom_searches_each_edge_once(monkeypatch):
    """One matching search per edge, with or without a given connection,
    whatever the number of connections: each edge takes either all its
    matchings or its first one, once.  Both names are counted in the
    connection module too, so a search through ``find_connection`` or
    ``enumerate_connections`` is seen as well."""
    from gkmcohom import connection, thom

    searched = []
    for name in ("edge_matchings", "first_matching"):
        real = getattr(connection, name)
        for module in (connection, thom):
            monkeypatch.setattr(
                module, name, lambda g, eid, real=real: searched.append(eid) or real(g, eid)
            )
    for g, _ in _connection_counts():
        for given in (None, find_connection(g)):
            searched.clear()
            verify_sw3valent(g, given)
            assert sorted(searched) == list(range(len(g.edges))), g


def two_gon_prism(wa, wb, wv) -> GkmGraph:
    """A 2-gon (two vertices joined by edges wa and wb) times an edge wv:
    3-valent, and each layer is a pair of parallel edges."""
    edges = [("a0", "b0", wa), ("b0", "a0", wb), ("a1", "b1", wa), ("b1", "a1", wb)]
    edges += [("a0", "a1", wv), ("b0", "b1", wv)]
    return GkmGraph(2, ["a0", "b0", "a1", "b1"], edges)


def mixed_pictures() -> GkmGraph:
    """A disjoint union of 3-valent graphs whose edge pictures agree in
    all parts of the local key but one: the cube of (0,1), (1,2), (1,1),
    a square prism with the Hirzebruch-type labels (1,0), (0,1), (1,2),
    (0,1) round the square, in two vertex orders (so its edges also run
    the other way), and a 2-gon prism with parallel edges."""
    square = ["p0", "p1", "p2", "p3"]
    round_square = zip(square, square[1:] + square[:1], ((1, 0), (0, 1), (1, 2), (0, 1)))
    square_edges = [
        (f"{u}L{layer}", f"{v}L{layer}", w) for u, v, w in round_square for layer in (0, 1)
    ] + [(f"{v}L0", f"{v}L1", (1, 1)) for v in square]
    names = [f"{v}L{layer}" for layer in (0, 1) for v in square]
    return _disjoint_union([
        fixtures.product((0, 1), (1, 2), (1, 1)),
        GkmGraph(2, names, square_edges),
        GkmGraph(2, names[::-1], square_edges),
        two_gon_prism((0, 1), (1, 2), (1, 1)),
    ])


def _disjoint_union(parts) -> GkmGraph:
    vertices, edges = [], []
    for i, part in enumerate(parts):
        name = [f"{v}#{i}" for v in part.vertices]
        vertices += name
        edges += [(name[u], name[v], w) for u, v, w in part.edges]
    return GkmGraph(2, vertices, edges)


def test_matchings_are_enumerated_only_until_past_eight_connections(monkeypatch):
    """Edges are searched in full while the running product of their
    matching counts is at most eight, and for their first matching after
    that; the report equals that of the oracle on random prisms with few
    connections, shuffled prisms of several sizes, 2-gon prisms with
    parallel edges (one with four connections, one with more) and
    ``mixed_pictures``."""
    from gkmcohom import thom

    graphs = random_prisms_with_few_connections(137, 3)
    graphs += [shuffled_graph(fixtures.polygon2n_x_edge(n), n) for n in (2, 3, 5, 8, 16)]
    graphs += [two_gon_prism((1, 0), (1, 2), (1, 1)), two_gon_prism((1, 0), (0, 1), (1, 1))]
    graphs.append(mixed_pictures())
    enumerated = []
    monkeypatch.setattr(
        thom, "edge_matchings", lambda g, eid: enumerated.append(eid) or edge_matchings(g, eid)
    )
    checked, cut_short = set(), 0
    for g in graphs:
        assert validate_gkm(g).ok
        want, running = [], 1
        for eid in range(len(g.edges)):
            if running <= 8:
                want.append(eid)
            running *= len(edge_matchings(g, eid))
        cut_short += len(want) < len(g.edges)
        enumerated.clear()
        report = verify_sw3valent(g)
        assert enumerated == want, g
        assert report == verify_sw3valent_oracle(g), g
        assert report["all_match"]
        checked.add(report["connections_checked"])
    assert checked >= {1, 4} and cut_short >= 5


def test_an_edge_without_matching_past_eight_connections_still_refuses():
    """An edge with no compatible bijection after the running product has
    passed eight leaves no connection to check, as it did when every edge
    was enumerated: without a connection the graph is refused, and a
    given connection fails its sign check on that edge."""
    g = fixtures.polygon2n_x_edge(4)
    # the vertical edge at vertex 6 gets label (1,3): the layer edges at it lose their matchings
    names = list(g.vertices)
    g = GkmGraph(2, names, [(names[u], names[v], (1, 3) if (u, v) == (6, 14) else w) for u, v, w in g.edges])
    counts = [len(edge_matchings(g, eid)) for eid in range(len(g.edges))]
    blocked = counts.index(0)
    assert prod(counts[:blocked]) > 8
    with pytest.raises(DomainError, match="admits no compatible connection"):
        verify_sw3valent(g)
    star_bijections = {}
    for eid in range(len(g.edges)):
        e = g.default_oriented(eid)
        star_bijections[eid] = first_matching(g, eid) or dict(
            zip(sorted(g.star(g.initial(e)), key=lambda f: f != e),
                sorted(g.star(g.terminal(e)), key=lambda f: f != e.reverse()))
        )
    with pytest.raises(ValueError, match=f"not compatible along edge {blocked}"):
        verify_sw3valent(g, Connection(g, star_bijections))


def test_one_failing_comparison_of_another_connection_fails_only_its_degree(monkeypatch):
    """Each match flag is the conjunction over the checked connections:
    when the second connection's degree-4 comparison fails, exactly
    ``degree4_match`` and ``all_match`` read False, and the sums are still
    those of the first connection."""
    from gkmcohom import thom

    g = random_prisms_with_few_connections(131, 1)[0]
    base = verify_sw3valent(g)
    assert base["all_match"] and base["connections_checked"] >= 2
    x_squared = GradedPoly.from_terms(2, 2, {(2, 0): 1}, 2)
    shift = GraphClass(g, 4, [x_squared] * len(g.vertices), 2)
    calls = []

    class SecondBroken:
        def __init__(self, sw):
            self.sw = sw

        def component(self, degree2):
            got = self.sw.component(degree2)
            return got + shift if degree2 == 4 else got

    def breaking(graph, connection=None):
        calls.append(connection)
        sw = total_sw(graph, connection)
        return SecondBroken(sw) if len(calls) == 2 else sw

    monkeypatch.setattr(thom, "total_sw", breaking)
    report = verify_sw3valent(g)
    assert len(calls) == base["connections_checked"]
    assert {key for key in base if report[key] != base[key]} == {"degree4_match", "all_match"}
    assert report["degree4_match"] is False and report["all_match"] is False
    assert report["sums"] == base["sums"] == verify_sw3valent_oracle(g)["sums"]


def test_thom_renders_the_sums_once(monkeypatch):
    """Only the reported connection's three sums are rendered, however
    many connections are checked."""
    rendered = []
    real = GraphClass.render_values
    monkeypatch.setattr(
        GraphClass, "render_values", lambda cls: rendered.append(cls.degree2) or real(cls)
    )
    for g in random_prisms_with_few_connections(131, 2) + [fixtures.polygon2n_x_edge(4)]:
        rendered.clear()
        verify_sw3valent(g)
        assert rendered == [2, 4, 6], g


def test_local_classes_are_built_once_per_distinct_key(monkeypatch):
    """On a shuffled 64-gon prism the 128 vertex classes share one sorted
    star and the 192 edge classes four keys (edge label, other labels at
    the initial vertex, signed image lifts, parallel labels): each key is
    multiplied out and checked once.  The public classes are built and
    checked on every call."""
    from gkmcohom import thom

    g = shuffled_graph(fixtures.polygon2n_x_edge(32), 7)
    c = find_connection(g)
    vertex_keys = {tuple(sorted(g.label(f.edge) for f in g.star(v))) for v in range(len(g.vertices))}
    edge_keys = set()
    for eid in range(len(g.edges)):
        e = g.default_oriented(eid)
        image = c.map_along(e)
        others = [f for f in g.star(g.initial(e)) if f != e]
        lifts = []
        for f in others:
            target = g.label(image[f].edge)
            sign = transport_sign(g.label(f.edge), target, g.label(eid))
            lifts.append(tuple(sign * x for x in target))
        parallel = [g.label(f.edge) for f in others if g.terminal(f) == g.terminal(e)]
        edge_keys.add((
            g.label(eid),
            tuple(sorted(g.label(f.edge) for f in others)),
            tuple(sorted(lifts)),
            tuple(sorted(parallel)),
        ))
    assert (len(vertex_keys), len(edge_keys)) == (1, 4)
    built, checked = [], []
    real_product, real_check = thom.elementary_symmetric, thom._check_local
    monkeypatch.setattr(
        thom, "elementary_symmetric", lambda k, ws: built.append(1) or real_product(k, ws)
    )
    monkeypatch.setattr(
        thom, "_check_local",
        lambda g, d, values, kind: checked.append(kind) or real_check(g, d, values, kind),
    )
    report = verify_sw3valent(g)
    assert report["all_match"] and report["connections_checked"] == 1
    assert len(built) == len(vertex_keys) + 2 * len(edge_keys)
    assert (checked.count("vertex"), checked.count("edge")) == (len(vertex_keys), len(edge_keys))
    checked.clear()
    for _ in range(2):
        thom_class_of_edge(g, c, 0)
        thom_class_of_vertex(g, 0)
    assert checked == ["edge", "vertex"] * 2


def _congruence(f, h, w) -> tuple:
    """One edge check, read the same whichever way round it is made."""
    return (tuple(sorted((f.coeffs, h.coeffs))), sign_normalize(w))


def test_every_distinct_local_check_still_runs(monkeypatch):
    """Each congruence that the edge and vertex classes of a checked
    connection impose (edge label, endpoint values) is still tested by
    ``verify_sw3valent``, on shuffled prisms, random orientable graphs,
    2-gon prisms with parallel edges and ``mixed_pictures``."""
    from gkmcohom import thom

    made = set()
    real = thom.congruent_mod_weight
    monkeypatch.setattr(
        thom, "congruent_mod_weight", lambda f, h, w: made.add(_congruence(f, h, w)) or real(f, h, w)
    )
    graphs = [shuffled_graph(fixtures.polygon2n_x_edge(n), n) for n in (3, 8)]
    graphs += random_3valent_orientable(19, 6)
    graphs += [two_gon_prism((1, 0), (1, 2), (1, 1)), two_gon_prism((1, 1), (1, -1), (1, 0))]
    graphs.append(mixed_pictures())
    for g in graphs:
        c = find_connection(g)
        classes = [thom_class_of_edge(g, c, e) for e in range(len(g.edges))]
        classes += [thom_class_of_vertex(g, v) for v in range(len(g.vertices))]
        made.clear()
        verify_sw3valent(g, c)
        for cls in classes:
            support = {v for v, f in enumerate(cls.values) if not f.is_zero()}
            for u, v, w in g.edges:
                if u in support or v in support:
                    assert _congruence(cls.values[u], cls.values[v], w) in made, (g, cls)


# ---------------------------------------------------------------------------
# preconditions


def test_non_3valent_graphs_are_rejected():
    g = fixtures.paper8()
    c = find_connection(g)
    with pytest.raises(ValueError, match="3-valent"):
        verify_sw3valent(g)
    with pytest.raises(ValueError, match="3-valent"):
        thom_class_of_edge(g, c, 0)
    with pytest.raises(ValueError, match="3-valent"):
        thom_class_of_vertex(g, 0)


def test_path_class_on_nonorientable_graph_raises():
    g = fixtures.k4()
    with pytest.raises(ValueError, match="not orientable"):
        verify_sw3valent(g)
    c = find_connection(g)
    for p in connection_paths(g, c):
        with pytest.raises(ValueError, match="closing congruence failed"):
            thom_class_of_path(g, c, p)


def test_path_class_on_an_incompatible_connection_raises():
    """A raw ``Connection`` on the 12-vertex prism whose matching at one
    edge has its two non-edge images swapped.  At the twelve edges
    labelled (1, 0) or (1, 2) the swap breaks the congruence, and the one
    path whose normal labels step across that edge finds no sign; at the
    six labelled (0, 1) both images fit, so the swap is another compatible
    connection.  ``initial_sign`` must be 1 or -1."""
    g = fixtures.polygon2n_x_edge(3, (1, 0), (0, 1), (1, 2))
    full = {eid: first_matching(g, eid) for eid in range(len(g.edges))}
    for eid in range(len(g.edges)):
        e = g.default_oriented(eid)
        f1, f2 = (f for f in full[eid] if f != e)
        swapped = {**full[eid], f1: full[eid][f2], f2: full[eid][f1]}
        c = Connection(g, {**full, eid: swapped})
        raised = 0
        for p in connection_paths(g, c):
            try:
                thom_class_of_path(g, c, p)
            except ValueError as exc:
                assert str(exc) == "sign transport failed; connection not compatible"
                raised += 1
        assert raised == (g.label(eid) != (0, 1)), eid
    c = find_connection(g)
    path = connection_paths(g, c)[0]
    for bad in (0, 2, -2):
        with pytest.raises(ValueError, match="initial_sign must be 1 or -1"):
            thom_class_of_path(g, c, path, initial_sign=bad)

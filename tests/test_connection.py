"""Compatible connections, holonomy signs, and orientability."""

from __future__ import annotations

import itertools
import random

import pytest

from gkmcohom import (
    GkmGraph,
    connection_from_matchings,
    edge_matchings,
    enumerate_connections,
    find_connection,
    holonomy_signs,
    is_orientable,
    validate_gkm,
)
from gkmcohom import fixtures
from gkmcohom.connection import (
    first_matching,
    forced_lift,
    residue,
    transport_sign,
    transport_signs,
)

from helpers import (
    is_multiple_of,
    label_of_content,
    random_gkm_graphs,
    random_unimodular,
    scaled_labels_graph,
    twist_graph,
)
from test_golden import SUBCOMMAND_FIXTURES


def count_connections(g: GkmGraph, cap: int = 4096) -> int:
    return sum(1 for _ in itertools.islice(enumerate_connections(g), cap))


def test_unique_connection_example():
    g = fixtures.product((1, 0), (0, 1), (2, 3))
    assert count_connections(g) == 1


def test_congruent_labels_multiply_connections():
    # (1, 3) ≡ (1, 0) mod (0, 1) creates a binary choice at several edges
    g = fixtures.product((1, 0), (0, 1), (1, 3))
    assert count_connections(g) == 16


def test_edge_matchings_always_send_edge_to_reverse():
    g = fixtures.paper8()
    for eid in range(len(g.edges)):
        e = g.default_oriented(eid)
        for matching in edge_matchings(g, eid):
            assert matching[e] == e.reverse()
            assert sorted(matching.keys()) == sorted(g.star(g.initial(e)))
            assert sorted(matching.values()) == sorted(g.star(g.terminal(e)))


def test_connection_congruence_holds():
    g = fixtures.paper8()
    c = find_connection(g)
    assert c is not None
    for eid in range(len(g.edges)):
        e = g.default_oriented(eid)
        le = g.label(eid)
        for f in g.star(g.initial(e)):
            h = c.apply(e, f)
            lf, lh = g.label(f.edge), g.label(h.edge)
            diff = tuple(a - b for a, b in zip(lf, lh))
            summ = tuple(a + b for a, b in zip(lf, lh))
            assert is_multiple_of(diff, le) or is_multiple_of(summ, le)


def test_transport_sign_outcomes():
    assert transport_sign((1, 0), (1, 0), (0, 1)) == 1
    assert transport_sign((1, 0), (-1, 0), (0, 1)) == -1
    assert transport_sign((1, 0), (0, 1), (2, 3)) is None
    assert transport_sign((1, 0), (1, 0), (1, 0)) == 0  # both signs fit
    assert forced_lift((1, 0), (-1, 0), (0, 1)) == (1, 0)
    assert forced_lift((1, 0), (0, 1), (2, 3)) is None
    with pytest.raises(ValueError, match="ambiguous"):
        forced_lift((1, 0), (1, 0), (1, 0))


def test_ambiguous_pair_is_compatible_but_has_no_sign():
    # parallel labels at one star: both signs fit across either edge
    g = GkmGraph(2, ["a", "b"], [("a", "b", (1, 0)), ("a", "b", (1, 0))])
    assert all(len(edge_matchings(g, eid)) == 1 for eid in range(2))
    c = connection_from_matchings(g, {})
    with pytest.raises(ValueError, match="ambiguous transport sign"):
        holonomy_signs(g, c)
    e = g.default_oriented(0)
    with pytest.raises(ValueError, match="ambiguous transport sign along edge 0"):
        transport_signs(g, e, c.map_along(e))


def test_find_connection_is_first_enumerated():
    graphs = [
        fixtures.from_spec(spec)
        for spec in (
            "paper8", "sphere(2,0)", "product(1,0;0,1;1,3)", "polygon(6)",
            "polygon2n_x_edge(2)", "triangle", "triangle_x_edge", "k4",
        )
    ]
    graphs += random_gkm_graphs(61, 8)
    for g in graphs:
        c = find_connection(g)
        first = next(enumerate_connections(g))
        per_edge = {eid: edge_matchings(g, eid)[0] for eid in range(len(g.edges))}
        assert c.to_dict() == first.to_dict(), g
        assert c.to_dict() == connection_from_matchings(g, per_edge).to_dict(), g
        assert c.to_dict() == connection_from_matchings(g, {}).to_dict(), g


def test_connection_from_matchings_validation():
    g = fixtures.paper8()
    c = find_connection(g)
    e = g.default_oriented(0)
    good = c.map_along(e)

    not_bijection = dict(good)
    first_key = next(k for k in not_bijection if k != e)
    not_bijection[first_key] = e.reverse()
    with pytest.raises(ValueError):
        connection_from_matchings(g, {0: not_bijection})

    wrong_self = dict(good)
    other_target = next(v for k, v in good.items() if k != e)
    wrong_self[e] = other_target
    with pytest.raises(ValueError):
        connection_from_matchings(g, {0: wrong_self})

    rebuilt = connection_from_matchings(g, {0: good})
    assert rebuilt.map_along(e) == good


def test_holonomy_signs_are_symmetric_units():
    for g in (fixtures.paper8(), fixtures.triangle(), fixtures.k4()):
        c = find_connection(g)
        eta = holonomy_signs(g, c)
        for eid in range(len(g.edges)):
            oe = g.default_oriented(eid)
            assert eta[oe] in (-1, 1)
            assert eta[oe.reverse()] == eta[oe]


def test_triangle_fixtures_are_orientable():
    g = fixtures.triangle()
    c = find_connection(g)
    assert is_orientable(g, c)
    eta = holonomy_signs(g, c)
    cycle_product = 1
    for eid in range(3):
        cycle_product *= eta[g.default_oriented(eid)]
    assert cycle_product == 1
    assert is_orientable(fixtures.triangle_x_edge(), None)


def test_k4_is_never_orientable():
    g = fixtures.k4()
    assert validate_gkm(g).ok
    connections = list(enumerate_connections(g))
    assert len(connections) == 64
    assert all(not is_orientable(g, c) for c in connections)


def test_paper8_is_orientable():
    g = fixtures.paper8()
    assert is_orientable(g, find_connection(g))


def test_orientability_is_connection_independent():
    for g in random_gkm_graphs(17, 12):
        values = {
            is_orientable(g, c)
            for c in itertools.islice(enumerate_connections(g), 16)
        }
        assert len(values) == 1, g


def test_connection_maps_are_involutive():
    graphs = [fixtures.paper8(), fixtures.k4(), fixtures.polygon2n_x_edge(2)]
    graphs += random_gkm_graphs(53, 6)
    for g in graphs:
        c = find_connection(g)
        for eid in range(len(g.edges)):
            e = g.default_oriented(eid)
            for f in g.star(g.initial(e)):
                assert c.apply(e.reverse(), c.apply(e, f)) == f


def _all_short_walk_products_positive(g, eta, max_len=6) -> bool:
    for v0 in range(len(g.vertices)):
        stack = [(v0, 1, 0)]
        while stack:
            v, prod, length = stack.pop()
            if length and v == v0 and prod == -1:
                return False
            if length >= max_len:
                continue
            for oe in g.star(v):
                stack.append((g.terminal(oe), prod * eta[oe], length + 1))
    return True


def test_orientability_matches_exhaustive_walk_products():
    # eta-products over *all* closed walks of length <= 6 independently
    # decide orientability on graphs this small
    graphs = [
        fixtures.paper8(),
        fixtures.k4(),
        fixtures.triangle(),
        fixtures.triangle_x_edge(),
        fixtures.polygon2n_x_edge(2),
    ]
    graphs += random_gkm_graphs(59, 5)
    for g in graphs:
        c = find_connection(g)
        eta = holonomy_signs(g, c)
        assert _all_short_walk_products_positive(g, eta) == is_orientable(g, c), g


def _disjoint_union(a: GkmGraph, b: GkmGraph) -> GkmGraph:
    va = [f"a{v}" for v in a.vertices]
    vb = [f"b{v}" for v in b.vertices]
    edges = [(va[u], va[v], w) for u, v, w in a.edges] + [(vb[u], vb[v], w) for u, v, w in b.edges]
    return GkmGraph(2, va + vb, edges)


def _times_edge(a: GkmGraph, label) -> GkmGraph:
    """The product of a with one edge of the given label."""
    v0 = [f"{v}-0" for v in a.vertices]
    v1 = [f"{v}-1" for v in a.vertices]
    edges = [(vs[u], vs[v], w) for vs in (v0, v1) for u, v, w in a.edges]
    return GkmGraph(2, v0 + v1, edges + [(x, y, label) for x, y in zip(v0, v1)])


def _sign_exists(g, eta) -> bool:
    """Some vertex sign sigma in {+-1}^V has eta(e) = sigma(u) * sigma(v)
    on both orientations of every edge, by trying every sigma."""
    edges = [g.default_oriented(eid) for eid in range(len(g.edges))]
    return any(
        all(
            eta[oe] == eta[oe.reverse()] == sigma[g.initial(oe)] * sigma[g.terminal(oe)]
            for oe in edges
        )
        for sigma in itertools.product((1, -1), repeat=len(g.vertices))
    )


def test_orientability_matches_brute_force_vertex_signs():
    # up to 12 vertices, disconnected unions included, several connections each
    k4 = fixtures.k4()
    graphs = [
        fixtures.paper8(),
        k4,
        fixtures.triangle(),
        fixtures.triangle_x_edge(),
        fixtures.polygon2n_x_edge(2),
        fixtures.polygon2n_x_edge(3),
        fixtures.from_spec("product(2,0;2,-3;3,-3)"),
        twist_graph(k4, random_unimodular(random.Random(7))),
        _times_edge(k4, (1, -1)),
        _disjoint_union(k4, fixtures.triangle_x_edge()),
        _disjoint_union(fixtures.triangle_x_edge(), fixtures.triangle_x_edge()),
    ]
    graphs += random_gkm_graphs(59, 6)
    outcomes = []
    for g in graphs:
        assert len(g.vertices) <= 12
        for c in itertools.islice(enumerate_connections(g), 4):
            eta = holonomy_signs(g, c)
            assert is_orientable(g, c) == _sign_exists(g, eta), g
            outcomes.append((is_orientable(g, c), -1 in eta.values()))
    # non-orientable cases, and orientable ones where some eta is -1
    assert outcomes.count((False, True)) >= 8
    assert outcomes.count((True, True)) >= 8


def test_residue_test_equals_the_definitional_congruence():
    """r(lf) == r(+-lh) iff lf -+ lh lies in Z*le, for labels of content
    1..6 with either sign of the leading coordinate, k = 2..5."""
    rng = random.Random(31)
    outcomes = set()
    leading_signs = set()
    for k in range(2, 6):
        for m in range(1, 7):
            for _ in range(40):
                le = label_of_content(rng, k, m)
                leading_signs.add(next(x for x in le if x) > 0)
                lf = tuple(rng.randint(-6, 6) for _ in range(k))
                lh = tuple(rng.randint(-6, 6) for _ in range(k))
                if rng.random() < 0.5:
                    s, t = rng.choice((1, -1)), rng.randint(-3, 3)
                    lh = tuple(s * (a + t * b) for a, b in zip(lf, le))
                pos = is_multiple_of(tuple(a - b for a, b in zip(lf, lh)), le)
                neg = is_multiple_of(tuple(a + b for a, b in zip(lf, lh)), le)
                assert (residue(lf, le) == residue(lh, le)) == pos, (lf, lh, le)
                assert (residue(lf, le) == residue(tuple(-c for c in lh), le)) == neg
                want = {(True, True): 0, (True, False): 1, (False, True): -1}.get((pos, neg))
                assert transport_sign(lf, lh, le) == want, (lf, lh, le)
                outcomes.add(want)
    assert outcomes == {0, 1, -1, None}
    assert leading_signs == {True, False}


def _brute_force_matchings(g: GkmGraph, eid: int) -> list[dict]:
    """Every star bijection, in lexicographic target order, kept when each
    pair satisfies the definitional congruence."""
    e = g.default_oriented(eid)
    sources = [f for f in g.star(g.initial(e)) if f != e]
    targets = [h for h in g.star(g.terminal(e)) if h != e.reverse()]
    if len(sources) != len(targets):
        return []
    le = g.label(eid)

    def fits(f, h) -> bool:
        lf, lh = g.label(f.edge), g.label(h.edge)
        return is_multiple_of(tuple(a - b for a, b in zip(lf, lh)), le) or is_multiple_of(
            tuple(a + b for a, b in zip(lf, lh)), le
        )

    return [
        {e: e.reverse(), **dict(zip(sources, perm))}
        for perm in itertools.permutations(targets)
        if all(fits(f, h) for f, h in zip(sources, perm))
    ]


def test_edge_matchings_equal_brute_force_enumeration_in_order():
    rng = random.Random(37)
    graphs = [
        fixtures.from_spec(spec)
        for spec in ("paper8", "k4", "product(1,0;0,1;1,3)", "triangle_x_edge", "polygon2n_x_edge(3)")
    ]
    graphs += random_gkm_graphs(71, 10)
    graphs += [
        scaled_labels_graph(g, rng) for g in random_gkm_graphs(73, 10, require_connection=False)
    ]
    counts = set()
    for g in graphs:
        for eid in range(len(g.edges)):
            got = edge_matchings(g, eid)
            want = _brute_force_matchings(g, eid)
            assert [list(m.items()) for m in got] == [list(m.items()) for m in want], (g, eid)
            assert first_matching(g, eid) == (got[0] if got else None), (g, eid)
            counts.add(min(len(got), 2))
    assert counts == {0, 1, 2}



def _definitional_sign(lift, lh, le) -> int:
    """The one s in (1, -1) with lift - s * lh in Z*le."""
    (sign,) = (s for s in (1, -1) if is_multiple_of(tuple(a - s * b for a, b in zip(lift, lh)), le))
    return sign


def test_transport_signs_equal_the_definitional_congruence():
    """At most four compatible bijections per edge, in both directions, with
    label lifts and with randomly signed lifts; every fixture, random and
    label-scaled graphs.  A bijection that breaks one congruence raises."""
    rng = random.Random(43)
    graphs = [fixtures.from_spec(spec) for spec in SUBCOMMAND_FIXTURES]
    graphs += random_gkm_graphs(79, 8)
    graphs += [
        scaled_labels_graph(g, rng) for g in random_gkm_graphs(83, 8, require_connection=False)
    ]
    seen = set()
    for g in graphs:
        for eid in range(len(g.edges)):
            e = g.default_oriented(eid)
            for matching in edge_matchings(g, eid)[:4]:
                inverse = {h: f for f, h in matching.items()}
                for oe, image in ((e, matching), (e.reverse(), inverse)):
                    star = [f for f in g.star(g.initial(oe)) if f != oe]
                    for flips in ({}, {f: rng.choice((1, -1)) for f in star}):
                        lifts = {f: tuple(flips.get(f, 1) * c for c in g.label(f.edge)) for f in star}
                        want = {
                            f: _definitional_sign(lifts[f], g.label(image[f].edge), g.label(eid))
                            for f in star
                        }
                        assert transport_signs(g, oe, image, lifts if flips else None) == want
                        seen.update(want.values())
    assert seen == {1, -1}
    # the one compatible bijection of this edge with two targets swapped
    g = fixtures.product((1, 0), (0, 1), (2, 3))
    e = g.default_oriented(0)
    (good,) = edge_matchings(g, 0)
    f1, f2 = (f for f in good if f != e)
    with pytest.raises(ValueError, match="connection is not compatible along edge 0"):
        transport_signs(g, e, {**good, f1: good[f2], f2: good[f1]})

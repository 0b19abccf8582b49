"""Compatible connections, holonomy signs, and orientability."""

from __future__ import annotations

import itertools
import random
from math import prod

import pytest

from gkmcohom import (
    Connection,
    GkmGraph,
    connection_from_matchings,
    edge_matchings,
    enumerate_connections,
    find_connection,
    holonomy_signs,
    is_orientable,
    validate_gkm,
)
from gkmcohom import connection_paths, edges_div_p, fixtures, sw_choice_independence
from gkmcohom import spin_check, thom_class_of_edge, thom_class_of_path, total_sw, verify_sw3valent
from gkmcohom import connection
from gkmcohom.graph import DomainError, OrientedEdge, parse
from gkmcohom.polyring import content, sign_normalize
from gkmcohom.connection import (
    first_matching,
    forced_sign,
    residue,
    transport_sign,
    transport_signs,
)

from helpers import (
    cube_graph,
    flag_manifold,
    is_multiple_of,
    label_of_content,
    random_3valent_orientable,
    random_gkm_graphs,
    random_unimodular,
    scaled_labels_graph,
    shuffled_graph,
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
    # forced_sign reads the labels of three edges; the graph need not be GKM
    labels = [(1, 0), (0, 1), (2, 3), (1, 2), (1, 1), (1, -1)]
    g = GkmGraph(2, ["a", "b"], [("a", "b", w) for w in labels])
    assert forced_sign(g, 0, 0, 1) == 1
    assert forced_sign(g, 0, 3, 4) == -1  # (1, 0) + (1, 2) is in Z(1, 1)
    assert forced_sign(g, 0, 1, 2) is None
    with pytest.raises(DomainError, match="ambiguous"):
        forced_sign(g, 0, 0, 0)
    outcomes = set()
    for src, dst, edge in itertools.product(range(len(labels)), repeat=3):
        want = transport_sign(labels[src], labels[dst], labels[edge])
        outcomes.add(want)
        if want == 0:
            with pytest.raises(DomainError, match="ambiguous sign transport"):
                forced_sign(g, src, dst, edge)
        else:
            assert forced_sign(g, src, dst, edge) == want, (src, dst, edge)
    assert outcomes == {0, 1, -1, None}


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

    # keys that are no edge ids of the graph are named, not ignored
    g = fixtures.triangle_x_edge()
    with pytest.raises(ValueError, match="no edge ids 99, -1, 'x' in the graph"):
        connection_from_matchings(g, {99: {}, -1: {}, "x": {}})
    with pytest.raises(ValueError, match=f"no edge ids {len(g.edges)} in the graph"):
        connection_from_matchings(g, {0: {}, len(g.edges): {}})


def test_holonomy_signs_are_symmetric_units():
    """eta is stored once per edge; the reverse orientation, transported
    on its own, gives the same sign (up to four connections per graph)."""
    rng = random.Random(47)
    graphs = [fixtures.from_spec(spec) for spec in SUBCOMMAND_FIXTURES]
    graphs += random_gkm_graphs(89, 8)
    graphs += [
        scaled_labels_graph(g, rng) for g in random_gkm_graphs(97, 8, require_connection=False)
    ]
    seen = set()
    for g in graphs:
        for c in itertools.islice(enumerate_connections(g), 4):
            eta = holonomy_signs(g, c)
            for eid in range(len(g.edges)):
                oe = g.default_oriented(eid)
                rev = oe.reverse()
                assert eta[oe] in (-1, 1)
                assert eta[rev] == -prod(transport_signs(g, rev, c.map_along(rev)).values())
                assert eta[rev] == eta[oe]
                seen.add(eta[oe])
    assert seen == {1, -1}


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


def _stored_maps(g: GkmGraph, combo) -> dict:
    """Both orientations of every edge mapped as a connection once stored
    them: the matching along the default orientation, its inversion
    along the reverse."""
    maps = {}
    for eid, matching in enumerate(combo):
        e = g.default_oriented(eid)
        maps[e] = dict(matching)
        maps[e.reverse()] = {h: f for f, h in matching.items()}
    return maps


def _stored_to_dict(g: GkmGraph, maps: dict) -> dict:
    out = []
    for eid in range(len(g.edges)):
        oe = g.default_oriented(eid)
        pairs = sorted((src.render(), dst.render()) for src, dst in maps[oe].items())
        out.append({"along": oe.render(), "pairs": [list(p) for p in pairs]})
    return {"connection": out}


def test_connection_reads_the_reverse_as_the_inverse_matching():
    """A connection keeps one matching per edge; along every oriented edge
    its view and ``apply`` equal the maps stored for both orientations,
    the view is read-only, equal matchings give equal connections and
    ``to_dict`` is that of the stored maps.  The first twelve connections
    of each graph and one from ``connection_from_matchings``, on the
    fixtures, random graphs with plain and scaled labels and random
    3-valent orientable graphs."""
    rng = random.Random(71)
    graphs = [fixtures.from_spec(spec) for spec in SUBCOMMAND_FIXTURES]
    graphs += random_gkm_graphs(73, 6)
    graphs += [
        scaled_labels_graph(g, rng) for g in random_gkm_graphs(79, 6, require_connection=False)
    ]
    graphs += random_3valent_orientable(83, 4)
    reverse_reads = 0
    for g in graphs:
        per_edge = [edge_matchings(g, eid) for eid in range(len(g.edges))]
        combos = list(itertools.islice(itertools.product(*per_edge), 12))
        built = list(itertools.islice(enumerate_connections(g), 12))
        assert len(built) == len(combos), g
        cases = list(zip(built, combos))
        if combos:
            cases.append((connection_from_matchings(g, dict(enumerate(combos[-1]))), combos[-1]))
        for c, combo in cases:
            maps = _stored_maps(g, combo)
            for x, want in maps.items():
                view = c.map_along(x)
                assert view == want, (g, x)
                assert all(c.apply(x, f) == h for f, h in want.items()), (g, x)
                with pytest.raises(TypeError):
                    view[x] = x
                reverse_reads += x != g.default_oriented(x.edge)
            assert c == Connection(g, {eid: dict(m) for eid, m in enumerate(combo)})
            assert c.to_dict() == _stored_to_dict(g, maps)
        for (a, combo_a), (b, combo_b) in itertools.product(cases, repeat=2):
            assert (a == b) == (combo_a == combo_b)
    assert reverse_reads


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


def test_holonomy_signs_take_one_residue_per_label_and_edge(monkeypatch):
    """Residues are kept per graph: at most one ``residue`` per distinct
    (vector, edge label) of a graph, none for a second ``holonomy_signs``
    on it, and a fresh graph with equal labels starts empty, so no memo
    outlives its graph (repeated CLI calls in one process redo the work)."""
    calls = []
    real = connection.residue
    monkeypatch.setattr(connection, "residue", lambda v, le: calls.append((v, le)) or real(v, le))
    graphs = [fixtures.paper8(), fixtures.product((1, 0), (0, 1), (1, 1))]
    for g in graphs + random_gkm_graphs(3, 4):
        g = parse(g.to_dict())  # the generator already searched connections on g
        calls.clear()
        eta = holonomy_signs(g, find_connection(g))
        assert calls and len(calls) == len(set(calls)), g
        first = sorted(calls)
        calls.clear()
        assert holonomy_signs(g, find_connection(g)) == eta
        assert calls == [], g
        fresh = parse(g.to_dict())
        assert holonomy_signs(fresh, find_connection(fresh)) == eta
        assert sorted(calls) == first, g
        assert set(eta.values()) <= {1, -1}


def _checked_sign_reads(monkeypatch) -> list:
    """Check every sign read against the uncached ``transport_sign`` of the
    signed label; returns the list the reads (lift, image label, edge
    label) are appended to.

    ``connection.graph_sign``, the one sign read, is wrapped with its
    label ids mapped back to labels.  The readers that carry a sign are
    wrapped where they see it: ``transport_signs`` as the SW quotients
    call it, with the sign s of each source lift s * label, and
    ``forced_sign`` as the path classes call it, with the sign carried
    along the path (``initial_sign`` at the first read of each path, then
    the carried sign times each sign read, as the path is walked)."""
    from gkmcohom import charclasses, thom

    reads = []
    real_sign, real_signs = connection.graph_sign, connection.transport_signs
    real_forced, real_path = connection.forced_sign, thom._path_values

    def checked(row, src, dst):
        sign = real_sign(row, src, dst)
        lift, image, le = row.labels[src], row.labels[dst], row.le
        assert sign == transport_sign(lift, image, le), (lift, image, le)
        reads.append((lift, image, le))
        return sign

    def signed_signs(g, oe, image, signs=None):
        out = real_signs(g, oe, image, signs)
        for f, t in out.items():
            lift = tuple((1 if signs is None else signs[f]) * c for c in g.label(f.edge))
            read = (lift, g.label(image[f].edge), g.label(oe.edge))
            assert t == transport_sign(*read), read
            reads.append(read)
        return out

    carried = [1]

    def path_values(g, c, path, initial_sign):
        carried[0] = initial_sign
        return real_path(g, c, path, initial_sign)

    def signed_forced(g, src_edge, dst_edge, edge):
        sign = real_forced(g, src_edge, dst_edge, edge)
        s = carried[0]
        read = (tuple(s * c for c in g.label(src_edge)), g.label(dst_edge), g.label(edge))
        assert (None if sign is None else s * sign) == transport_sign(*read), read
        reads.append(read)
        if sign is not None:
            carried[0] = s * sign
        return sign

    monkeypatch.setattr(connection, "graph_sign", checked)
    monkeypatch.setattr(charclasses, "transport_signs", signed_signs)
    monkeypatch.setattr(thom, "_path_values", path_values)
    monkeypatch.setattr(thom, "forced_sign", signed_forced)
    return reads


def _tables_against_oracle(g: GkmGraph, reads: list) -> set:
    """Check the label table kept on g: it holds the graph's distinct
    stored labels in edge order and nothing else, whatever has read it,
    each edge's label id names its label, and every residue pair kept,
    its class ids mapped back to residues, equals the uncached
    definition.  Each vertex keeps the label ids of its star, their set,
    and their star positions when no label repeats; every class map kept
    lists, per class, exactly the star labels t with r(t) or r(-t) in
    it.  Return the sign reads taken since the last call (each already
    checked by ``_checked_sign_reads``)."""
    table = connection._label_table(g)
    labels = [label for _, _, label in g.edges]
    assert list(table.labels) == list(dict.fromkeys(labels))
    assert [table.labels[i] for i in table.of_edge] == labels
    residue_of = {}
    for le_id, row in table.rows.items():
        le = table.labels[le_id]
        assert row.le == le and row.labels is table.labels
        residue_of[le_id] = {i: r for r, i in row.classes.items()}
        assert sorted(residue_of[le_id]) == list(range(len(row.classes)))
        for vid, (pos, neg) in row.items():
            v = table.labels[vid]
            want = (residue(v, le), residue(tuple(-c for c in v), le))
            assert (residue_of[le_id][pos], residue_of[le_id][neg]) == want, (v, le)
    for v in range(len(g.vertices)):
        ids = tuple(table.of_edge[f.edge] for f in g.star(v))
        assert table.star_labels[v] == ids and table.star_keys[v] == set(ids)
        assert table.star_positions[v] == {
            t: [j for j, s in enumerate(ids) if s == t] for t in ids
        }
    for (le_id, key), allowed in table.maps.items():
        le = table.labels[le_id]
        want = {}
        for t in key:
            v = table.labels[t]
            for r in {residue(v, le), residue(tuple(-c for c in v), le)}:
                want.setdefault(r, []).append(t)
        got = {residue_of[le_id][c]: sorted(ts) for c, ts in allowed.items()}
        assert got == {r: sorted(ts) for r, ts in want.items()}, (le, key)
    keys = set(reads)
    reads.clear()
    return keys


def test_sign_table_equals_the_uncached_transport_sign(monkeypatch):
    """Every residue pair that ``edge_matchings`` and ``graph_sign`` read
    from the per-graph label table, every sign that ``holonomy_signs``
    reads through ``graph_sign``, and every signed read of
    ``transport_signs`` (the SW quotients with signed source lifts) and
    ``forced_sign`` (the signs carried along the path classes) equals the
    definition, on random graphs, label-scaled graphs and cubes with a
    content-2 label.  No reader grows the label table."""
    reads = _checked_sign_reads(monkeypatch)
    rng = random.Random(89)
    graphs = random_gkm_graphs(97, 8)
    graphs += [
        scaled_labels_graph(g, rng) for g in random_gkm_graphs(101, 10, require_connection=False)
    ]
    graphs += [cube_graph(((1, 0), (0, 1), (1, 1), (2, 4)))]
    graphs += [cube_graph(((1, 0, 0), (0, 1, 0), (2, 0, 2)))]
    read_by = {"holonomy": set(), "sw": set(), "thom": set()}
    for g in graphs:
        h = parse(g.to_dict())
        c = find_connection(h)
        if c is not None:
            holonomy_signs(h, c)
            connection_from_matchings(h, {})
        read_by["holonomy"] |= _tables_against_oracle(h, reads)
        s = parse(g.to_dict())
        if find_connection(s) is not None:
            total_sw(s)
            spin_check(s)
            for e in edges_div_p(s, 2):
                sw_choice_independence(s, e, trials=16)
        read_by["sw"] |= _tables_against_oracle(s, reads)
    for g in random_3valent_orientable(103, 8):
        c = find_connection(g)
        for p in connection_paths(g, c):
            thom_class_of_path(g, c, p)
            thom_class_of_path(g, c, p, initial_sign=-1)
        verify_sw3valent(g, c)
        read_by["thom"] |= _tables_against_oracle(g, reads)
    # the signed source lifts of the SW quotients and the carried signs of
    # the path classes reach the sign reads with either sign
    for name in ("sw", "thom"):
        assert any(sign_normalize(lift) != lift for lift, _, _ in read_by[name]), name
    assert any(content(le) > 1 for _, _, le in read_by["holonomy"])
    assert any(content(le) % 2 == 0 for _, _, le in read_by["sw"])


def test_cached_failures_raise_on_every_read():
    """A sign of 0 (parallel adjacent labels) raises DomainError and None
    (incompatible bijection) ValueError, on the second read as on the
    first."""
    g = GkmGraph(2, ["a", "b"], [("a", "b", (1, 0)), ("a", "b", (1, 0))])
    c = connection_from_matchings(g, {})
    for _ in range(2):
        with pytest.raises(DomainError, match="ambiguous transport sign along edge 0"):
            holonomy_signs(g, c)
        with pytest.raises(DomainError, match="ambiguous sign transport"):
            forced_sign(g, 0, 1, 0)
    g = fixtures.product((1, 0), (0, 1), (2, 3))
    e = g.default_oriented(0)
    (good,) = edge_matchings(g, 0)
    f1, f2 = (f for f in good if f != e)
    bad = {**good, f1: good[f2], f2: good[f1]}
    for _ in range(2):
        with pytest.raises(ValueError, match="connection is not compatible along edge 0") as exc:
            transport_signs(g, e, bad)
        assert type(exc.value) is ValueError
        with pytest.raises(ValueError, match="violates the congruence") as exc:
            connection_from_matchings(g, {0: bad})
        assert type(exc.value) is ValueError


def _brute_force_matchings(g: GkmGraph, eid: int) -> list[dict]:
    """Every star bijection, in lexicographic target order, kept when each
    pair satisfies the definitional congruence."""
    e = g.default_oriented(eid)
    sources = [f for f in g.star(g.initial(e)) if f != e]
    targets = [h for h in g.star(g.terminal(e)) if h != e.reverse()]
    if len(sources) != len(targets):
        return []
    return [
        {e: e.reverse(), **dict(zip(sources, perm))}
        for perm in itertools.permutations(targets)
        if all(_fits(g, eid, f, h) for f, h in zip(sources, perm))
    ]


def _fits(g: GkmGraph, eid: int, f, h) -> bool:
    """Whether label(f) is congruent to +-label(h) modulo the label of eid."""
    le, lf, lh = g.label(eid), g.label(f.edge), g.label(h.edge)
    return any(is_multiple_of(tuple(a - s * b for a, b in zip(lf, lh)), le) for s in (1, -1))


def _dead_end_graph() -> GkmGraph:
    """Edge 0 (label (0, 1)) whose sources at a take labels congruent to
    (1, 0), (2, 0), (1, 0) and whose targets at b take (1, 0), (2, 0),
    (2, 0): the search assigns the first two sources before the third
    finds no target left, and undoes both choices before it gives up."""
    edges = [("a", "b", (0, 1))]
    edges += [("a", end, lab) for end, lab in (("c", (1, 0)), ("d", (2, 1)), ("e", (1, 1)))]
    edges += [("b", end, lab) for end, lab in (("c", (1, 2)), ("d", (2, 3)), ("e", (2, -1)))]
    return GkmGraph(2, ["a", "b", "c", "d", "e"], edges)


def _edge_case(g: GkmGraph, eid: int) -> str:
    """What eid is to ``first_matching``: an edge whose target star
    repeats a label, a dead end (every source has an allowed target, yet
    no matching exists), or neither."""
    e = g.default_oriented(eid)
    target_labels = [g.label(h.edge) for h in g.star(g.terminal(e))]
    if len(set(target_labels)) < len(target_labels):
        return "repeated label"
    targets = [h for h in g.star(g.terminal(e)) if h != e.reverse()]
    sources = [f for f in g.star(g.initial(e)) if f != e]
    if all(any(_fits(g, eid, f, h) for h in targets) for f in sources):
        if not _brute_force_matchings(g, eid):
            return "dead end"
    return "neither"


def test_edge_matchings_equal_brute_force_enumeration_in_order():
    """``edge_matchings`` is the brute-force enumeration, in order, and
    ``first_matching`` its first entry with the same key order, also at
    a dead end and where a target star repeats a label."""
    rng = random.Random(37)
    graphs = [
        fixtures.from_spec(spec)
        for spec in ("paper8", "k4", "product(1,0;0,1;1,3)", "triangle_x_edge", "polygon2n_x_edge(3)")
    ]
    # a dead end after two choices, and an edge with no other star edge
    graphs += [_dead_end_graph(), fixtures.sphere((1, 0))]
    # two edges with one label: each target star repeats it, the edge's
    # own label among them; and edge 0 with two sources and two targets
    # that all repeat one residue class
    graphs += [GkmGraph(2, ["a", "b"], [("a", "b", (1, 0)), ("a", "b", (1, 0))])]
    graphs += [
        GkmGraph(
            2,
            ["a", "b", "c"],
            [("a", "b", (0, 1)), ("a", "c", (1, 0)), ("a", "c", (1, 0))]
            + [("b", "c", (1, 2)), ("b", "c", (1, 2))],
        )
    ]
    graphs += random_gkm_graphs(71, 10)
    graphs += [
        scaled_labels_graph(g, rng) for g in random_gkm_graphs(73, 10, require_connection=False)
    ]
    # Fl4 (valence 6, six labels per star) in two vertex and edge orders
    graphs += [shuffled_graph(flag_manifold(3), seed) for seed in (5, 6)]
    counts, kinds = set(), set()
    for g in graphs:
        for eid in range(len(g.edges)):
            got = edge_matchings(g, eid)
            want = _brute_force_matchings(g, eid)
            assert [list(m.items()) for m in got] == [list(m.items()) for m in want], (g, eid)
            first = first_matching(g, eid)
            assert (list(first.items()) if first else None) == (
                list(got[0].items()) if got else None
            ), (g, eid)
            counts.add(min(len(got), 2))
            kinds.add(_edge_case(g, eid))
    assert counts == {0, 1, 2}
    assert kinds == {"neither", "repeated label", "dead end"}
    assert edge_matchings(_dead_end_graph(), 0) == []
    e = OrientedEdge(0, False)
    assert edge_matchings(fixtures.sphere((1, 0)), 0) == [{e: e.reverse()}]



def _definitional_sign(lift, lh, le) -> int:
    """The one s in (1, -1) with lift - s * lh in Z*le."""
    (sign,) = (s for s in (1, -1) if is_multiple_of(tuple(a - s * b for a, b in zip(lift, lh)), le))
    return sign


def test_transport_signs_equal_the_definitional_congruence():
    """At most four compatible bijections per edge, in both directions, with
    label lifts (no signs) and with random signs of the source lifts;
    every fixture, random and label-scaled graphs, and Fl4 in two vertex
    and edge orders.  A bijection that breaks one congruence raises."""
    rng = random.Random(43)
    graphs = [fixtures.from_spec(spec) for spec in SUBCOMMAND_FIXTURES]
    graphs += random_gkm_graphs(79, 8)
    graphs += [
        scaled_labels_graph(g, rng) for g in random_gkm_graphs(83, 8, require_connection=False)
    ]
    graphs += [shuffled_graph(flag_manifold(3), seed) for seed in (5, 6)]
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
                        assert transport_signs(g, oe, image, flips or None) == want
                        seen.update(want.values())
    assert seen == {1, -1}
    # the one compatible bijection of this edge with two targets swapped
    g = fixtures.product((1, 0), (0, 1), (2, 3))
    e = g.default_oriented(0)
    (good,) = edge_matchings(g, 0)
    f1, f2 = (f for f in good if f != e)
    with pytest.raises(ValueError, match="connection is not compatible along edge 0"):
        transport_signs(g, e, {**good, f1: good[f2], f2: good[f1]})


ON_GRAPH_AND_CONNECTION = {
    "holonomy_signs": lambda g, c, path: holonomy_signs(g, c),
    "is_orientable": lambda g, c, path: is_orientable(g, c),
    "total_sw": lambda g, c, path: total_sw(g, c),
    "spin_check": lambda g, c, path: spin_check(g, c),
    "connection_paths": lambda g, c, path: connection_paths(g, c),
    "verify_sw3valent": lambda g, c, path: verify_sw3valent(g, c),
    "thom_class_of_path": lambda g, c, path: thom_class_of_path(g, c, path),
    "thom_class_of_edge": lambda g, c, path: thom_class_of_edge(g, c, 0),
}


@pytest.mark.parametrize("name", sorted(ON_GRAPH_AND_CONNECTION))
def test_a_connection_on_another_graph_is_refused(name):
    """A connection built on another graph raises a plain ValueError (k4
    and the square prism, both 3-valent over a rank-2 torus); one built
    on an equal graph is accepted."""
    call = ON_GRAPH_AND_CONNECTION[name]
    prism = fixtures.polygon2n_x_edge(2)
    c = find_connection(prism)
    path = connection_paths(prism, c)[0]
    with pytest.raises(ValueError, match="connection belongs to a different graph") as exc:
        call(fixtures.k4(), c, path)
    assert type(exc.value) is ValueError
    call(parse(prism.to_dict()), c, path)


ON_A_CONNECTION = {
    "holonomy_signs": holonomy_signs,
    "is_orientable": is_orientable,
    "connection_paths": connection_paths,
}


@pytest.mark.parametrize("name", sorted(ON_A_CONNECTION))
@pytest.mark.parametrize("drop", ["all", "one", "none but one extra"])
def test_a_connection_needs_one_matching_per_edge(name, drop):
    """A ``Connection`` missing a matching (or holding one for an edge id
    the graph lacks) is refused when built, with a plain ValueError, so no
    caller ends in a bare ``KeyError``; the full map is accepted."""
    g = fixtures.paper8()
    full = {eid: first_matching(g, eid) for eid in range(len(g.edges))}
    matchings = {
        "all": {},
        "one": {eid: m for eid, m in full.items() if eid != 1},
        "none but one extra": {**full, len(g.edges): full[0]},
    }[drop]
    with pytest.raises(ValueError, match="exactly one matching per edge id") as exc:
        ON_A_CONNECTION[name](g, Connection(g, matchings))
    assert type(exc.value) is ValueError
    ON_A_CONNECTION[name](g, Connection(g, dict(full)))

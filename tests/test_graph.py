"""Graph model, JSON parsing, validation, and conventions."""

from __future__ import annotations

import json
import random

import pytest

from gkmcohom import (
    Conventions,
    GkmGraph,
    GraphFormatError,
    check_coprimality,
    edges_div_p,
    is_effective,
    parse,
    validate_gkm,
)
from gkmcohom import fixtures
from gkmcohom.graph import CheckReport, DomainError, OrientedEdge

from helpers import (
    coprimality_oracle,
    flag_manifold,
    random_3valent_orientable,
    random_gkm_graphs,
    random_prisms_with_few_connections,
    rational_rank,
    scaled_labels_graph,
    validate_gkm_oracle,
)


def test_parse_round_trip():
    g = fixtures.paper8()
    h = parse(json.dumps(g.to_dict()))
    assert h == g
    assert h.star(0) == g.star(0)


def test_parse_rejects_malformed_input():
    good = {
        "torus_rank": 2,
        "vertices": ["a", "b"],
        "edges": [{"u": "a", "v": "b", "label": [1, 0]}],
    }
    bad_cases = [
        ("not json", "{nope"),
        ("top level", json.dumps([1, 2])),
        ("missing key", json.dumps({"vertices": ["a"], "edges": []})),
        ("dup vertex", json.dumps({**good, "vertices": ["a", "a"]})),
        (
            "loop",
            json.dumps(
                {**good, "edges": [{"u": "a", "v": "a", "label": [1, 0]}]}
            ),
        ),
        (
            "zero label",
            json.dumps({**good, "edges": [{"u": "a", "v": "b", "label": [0, 0]}]}),
        ),
        (
            "label length",
            json.dumps({**good, "edges": [{"u": "a", "v": "b", "label": [1]}]}),
        ),
        (
            "unknown vertex",
            json.dumps({**good, "edges": [{"u": "a", "v": "c", "label": [1, 0]}]}),
        ),
        (
            "non-integer",
            json.dumps(
                {**good, "edges": [{"u": "a", "v": "b", "label": [1.5, 0]}]}
            ),
        ),
        # JSON booleans are Python ints, and an int vertex reference would
        # be read as an index; neither is a name or a label entry
        (
            "boolean vertex",
            json.dumps({**good, "edges": [{"u": "a", "v": True, "label": [1, 0]}]}),
        ),
        (
            "index vertex",
            json.dumps({**good, "edges": [{"u": 0, "v": "b", "label": [1, 0]}]}),
        ),
        (
            "boolean label",
            json.dumps({**good, "edges": [{"u": "a", "v": "b", "label": [True, 0]}]}),
        ),
        ("boolean torus_rank", json.dumps({**good, "torus_rank": True, "edges": []})),
    ]
    for name, text in bad_cases:
        with pytest.raises(GraphFormatError):
            parse(text)
    with pytest.raises(GraphFormatError, match="non-integer label"):
        GkmGraph(1, ["a", "b"], [(0, 1, (True,))])


def test_a_label_equal_to_an_int_label_is_still_type_checked():
    """Labels are checked and normalized once per distinct tuple, but
    (True, 0) and (1.0, 0) are keys equal to (1, 0): each edge still
    fails with its own non-integer message."""
    for other in ([True, 0], [1.0, 0]):
        doc = {
            "torus_rank": 2,
            "vertices": ["a", "b", "c"],
            "edges": [
                {"u": "a", "v": "b", "label": [1, 0]},
                {"u": "b", "v": "c", "label": other},
            ],
        }
        with pytest.raises(GraphFormatError) as exc:
            parse(json.dumps(doc))
        assert str(exc.value) == f"edges[1]: non-integer label {other!r}"


def test_stars_hold_every_oriented_edge_in_canonical_order():
    """Each star, appended to in edge order, is the sorted list of the
    oriented edges leaving its vertex, on random graphs and multigraphs."""
    graphs = random_gkm_graphs(29, 10, require_connection=False)
    graphs += random_prisms_with_few_connections(31, 4) + random_3valent_orientable(37, 4)
    graphs += [GkmGraph(2, ["a", "b"], [("b", "a", (1, 0)), ("a", "b", (0, 1)), ("b", "a", (1, 1))])]
    for g in graphs:
        for v in range(len(g.vertices)):
            leaving = [
                OrientedEdge(eid, back)
                for eid, (a, b, _) in enumerate(g.edges)
                for back in (False, True)
                if (b if back else a) == v
            ]
            assert g.star(v) == tuple(sorted(leaving)), (g, v)


def test_labels_stored_sign_normalized():
    g = GkmGraph(2, ["a", "b"], [("a", "b", (-1, 2))])
    assert g.label(0) == (1, -2)


def test_star_and_default_orientation():
    g = fixtures.paper8()
    star = g.star(0)
    assert [oe.edge for oe in star] == [0, 1, 6, 7]
    oe = g.default_oriented(3)
    assert g.initial(oe) <= g.terminal(oe)
    assert g.initial(oe.reverse()) == g.terminal(oe)


def test_validate_gkm_flags_parallel_labels():
    g = GkmGraph(
        2,
        ["a", "b", "c"],
        [("a", "b", (1, 0)), ("a", "c", (2, 0)), ("b", "c", (0, 1))],
    )
    report = validate_gkm(g)
    assert not report.ok
    assert any("'a'" in issue and "parallel" in issue for issue in report.issues)
    assert validate_gkm(fixtures.paper8()).ok


def test_validate_gkm_flags_nonconstant_valence():
    g = GkmGraph(
        2,
        ["a", "b", "c"],
        [("a", "b", (1, 0)), ("a", "c", (0, 1))],
    )
    report = validate_gkm(g)
    assert not report.ok
    assert any("valence" in issue for issue in report.issues)


def test_coprimality():
    assert check_coprimality(fixtures.paper8()).ok
    g = fixtures.polygon(4, (2, 0), (0, 2))
    report = check_coprimality(g)
    assert not report.ok
    assert report.issues


def test_a_check_passes_exactly_when_it_has_no_issue():
    failed = CheckReport("x", ["issue"])
    assert failed.ok is False
    assert failed.to_dict() == {"check": "x", "ok": False, "issues": ["issue"]}
    passed = CheckReport("x", [], {"extra": 1})
    assert passed.ok is True
    assert passed.to_dict() == {"check": "x", "ok": True, "issues": [], "extra": 1}
    with pytest.raises(TypeError):
        CheckReport("x", ok=True)
    with pytest.raises(TypeError):
        CheckReport("x", [], {}, True)


def test_edges_div_p():
    g = fixtures.paper8()
    assert edges_div_p(g, 2) == [1, 5]
    assert edges_div_p(g, 3) == []
    with pytest.raises(ValueError):
        edges_div_p(g, 1)


def test_edges_div_p_is_kept_per_p_and_returns_a_new_list():
    g = fixtures.paper8()
    first = edges_div_p(g, 2)
    first.append(7)
    first.remove(1)
    assert edges_div_p(g, 2) == [1, 5]
    assert edges_div_p(g, 2) is not edges_div_p(g, 2)
    assert edges_div_p(g, 3) == []


def test_effectiveness():
    assert is_effective(fixtures.paper8())
    assert not is_effective(fixtures.sphere((1, 0)))  # labels span a line only


def test_effectiveness_matches_the_rational_rank_of_all_labels():
    # the cube with axis labels e1, e2, e1 + e2 in rank 3 repeats each label
    # four times and spans a plane only
    flat = fixtures.product((1, 0, 0), (0, 1, 0), (1, 1, 0))
    assert not is_effective(flat)
    for g in random_gkm_graphs(5, 20, require_connection=False) + [flat]:
        rank = rational_rank([list(lab) for _, _, lab in g.edges])
        assert is_effective(g) == (rank == g.torus_rank)


def test_conventions_overrides():
    g = fixtures.paper8()
    conv = Conventions(frozenset({0}), {1: (0, -2)})
    assert conv.oriented(g, 0) == g.default_oriented(0).reverse()
    assert conv.oriented(g, 2) == g.default_oriented(2)
    assert conv.lift(g, 1) == (0, -2)
    assert conv.lift(g, 0) == g.label(0)
    bad = Conventions(frozenset(), {1: (1, 1)})
    with pytest.raises(ValueError):
        bad.lift(g, 1)


def test_valence_property():
    assert fixtures.paper8().valence == 4
    assert fixtures.k4().valence == 3
    ragged = GkmGraph(2, ["a", "b", "c"], [("a", "b", (1, 0)), ("a", "c", (0, 1))])
    with pytest.raises(ValueError):
        _ = ragged.valence


def test_a_ragged_graph_raises_on_every_valence_read():
    g = fixtures.k4()
    assert g.valence == 3
    ragged = GkmGraph(2, ["a", "b", "c"], [("a", "b", (1, 0)), ("a", "c", (0, 1))])
    for _ in range(3):
        with pytest.raises(DomainError, match="graph is not regular"):
            _ = ragged.valence


def test_axiom_reports_equal_the_pairwise_definitions():
    """Parallel labels decided once per label pair, contents once per edge,
    and stars skipped when their label set (no label repeated) or sorted
    contents are those of a star found clean give the issues of the
    per-vertex pairwise oracle, in its order: on random, label-scaled and
    mutated graphs (parallel and shared-content pairs), a flag manifold
    (every star one label set), a cube with a parallel pair at two of its
    vertices, a repeated label in a star whose label set is that of a clean
    star, and cubes sharing one content multiset with and without a common
    factor."""
    rng = random.Random(19)
    graphs = random_gkm_graphs(23, 10, require_connection=False)
    graphs += [
        scaled_labels_graph(g, rng) for g in random_gkm_graphs(29, 10, require_connection=False)
    ]
    mutated = []
    for g in graphs[:12]:
        edges = [(g.vertices[u], g.vertices[v], lab) for u, v, lab in g.edges]
        i, j = rng.sample(range(len(edges)), 2)
        edges[i] = (edges[i][0], edges[i][1], tuple(2 * c for c in edges[j][2]))
        mutated.append(GkmGraph(g.torus_rank, list(g.vertices), edges))
    cube = fixtures.product((1, 0), (0, 1), (1, 1))
    parallel_pair = [
        (cube.vertices[u], cube.vertices[v], (2, 2) if pos == 0 else lab)
        for pos, (u, v, lab) in enumerate(cube.edges)
    ]
    repeated = [("a", "b", (1, 0)), ("a", "c", (0, 1)), ("b", "d", (1, 0)), ("b", "c", (0, 1))]
    shaped = [
        flag_manifold(3),
        GkmGraph(2, list(cube.vertices), parallel_pair),
        GkmGraph(2, ["a", "b", "c", "d"], repeated),
        fixtures.product((2, 0), (2, -3), (3, -3)),
        fixtures.product((2, 0), (0, 2), (1, 1)),
    ]
    flagged = []
    for g in graphs + mutated + shaped:
        parallel, shared = validate_gkm_oracle(g), coprimality_oracle(g)
        assert validate_gkm(g).issues == parallel, g
        assert check_coprimality(g).issues == shared, g
        flagged.append((len(parallel), len(shared)))
    assert {(True, True), (False, False)} <= {(bool(p), bool(c)) for p, c in flagged}
    assert flagged[-5:] == [(0, 0), (2, 0), (3, 0), (0, 0), (0, 8)]


def test_fixture_registry():
    assert fixtures.from_spec("fixtures:paper8") == fixtures.paper8()
    assert fixtures.from_spec("fixtures:sphere(2,0)") == fixtures.sphere((2, 0))
    assert fixtures.from_spec("fixtures:product(1,0;0,1;1,2)") == fixtures.product(
        (1, 0), (0, 1), (1, 2)
    )
    assert fixtures.from_spec("fixtures:polygon2n_x_edge(3)").valence == 3
    assert fixtures.from_spec("fixtures:polygon(6)") == fixtures.polygon(6)
    assert fixtures.from_spec("paper8") == fixtures.paper8()  # prefix optional
    with pytest.raises(ValueError):
        fixtures.from_spec("fixtures:nosuch")
    with pytest.raises(ValueError):
        fixtures.from_spec("fixtures:sphere(1,0")  # unbalanced parens
    with pytest.raises(ValueError, match=r"'product' expects product\(w1;w2;w3\)"):
        fixtures.from_spec("fixtures:product(1,0;0,1)")
    with pytest.raises(ValueError, match=r"'sphere' expects sphere\(w\)"):
        fixtures.from_spec("fixtures:sphere(1,x)")
    with pytest.raises(ValueError, match=r"'polygon' expects polygon\(n\)"):
        fixtures.from_spec("fixtures:polygon(2,2)")

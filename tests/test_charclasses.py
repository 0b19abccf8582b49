"""Mod-2 characteristic classes, spin criteria, and the image obstruction."""

from __future__ import annotations

import pytest

from gkmcohom import (
    GkmGraph,
    GraphClass,
    edges_div_p,
    find_connection,
    integral_preimage,
    realizability_obstruction,
    spin_check,
    sw_choice_independence,
    total_sw,
)
from gkmcohom import fixtures
from gkmcohom.polyring import GradedPoly, reduce_mod_p

from helpers import random_gkm_graphs, star_product_component


def modp_class(g, degree2, vertex_terms, b_terms=None, p=2):
    d = degree2 // 2
    k = g.torus_rank

    def mk(deg, terms):
        if not terms:
            return GradedPoly.zero(k, deg, p)
        return GradedPoly.from_terms(k, deg, terms, p)

    values = [mk(d, t) for t in vertex_terms]
    b_part = {e: mk(d - 1, t) for e, t in (b_terms or {}).items()}
    return GraphClass(g, degree2, values, p, b_part)


# ---------------------------------------------------------------------------
# total class of the 8-edge square graph, all degrees frozen


def test_square_graph_total_class():
    g = fixtures.paper8()
    sw = total_sw(g)
    assert sw.degrees() == [0, 2, 4, 6, 8]

    one = {(0, 0): 1}
    x_y = {(1, 0): 1, (0, 1): 1}
    xx = {(2, 0): 1}
    cubic = {(3, 0): 1, (2, 1): 1}
    sq = {(2, 0): 1}

    assert sw.component(0) == modp_class(g, 0, [one] * 4, {1: None, 5: None})
    assert sw.component(2) == modp_class(
        g, 2, [x_y] * 4, {1: one, 5: one}
    )
    assert sw.component(4) == modp_class(g, 4, [xx] * 4, {1: None, 5: None})
    assert sw.component(6) == modp_class(
        g, 6, [cubic] * 4, {1: sq, 5: sq}
    )
    assert sw.component(8).is_zero()


def test_total_class_degree_zero_is_always_one():
    for g in random_gkm_graphs(41, 6):
        c0 = total_sw(g).component(0)
        assert all(f.coeffs == (1,) for f in c0.values)
        assert all(f.is_zero() for f in c0.b_part.values())


def test_missing_component_reads_as_zero():
    g = fixtures.paper8()
    assert total_sw(g).component(10).is_zero()


# ---------------------------------------------------------------------------
# independence of the per-edge quotient from local choices


def test_quotient_choice_independence_on_square_graph():
    g = fixtures.paper8()
    for e in edges_div_p(g, 2):
        assert sw_choice_independence(g, e, trials=64, seed=3)


def test_quotient_choice_independence_on_random_graphs():
    seen_any = False
    for g in random_gkm_graphs(29, 20):
        for e in edges_div_p(g, 2):
            seen_any = True
            assert sw_choice_independence(g, e, trials=32, seed=5)
    assert seen_any, "family produced no graphs with an even edge"


def test_choice_independence_requires_even_edge():
    g = fixtures.paper8()
    with pytest.raises(ValueError):
        sw_choice_independence(g, 0)


def test_degree2_b_part_agrees_with_spin_quantity():
    # the same per-edge quotient reaches the report along two different
    # code paths: as the degree-2 b_part and as the spin edge value
    graphs = [fixtures.paper8()] + random_gkm_graphs(37, 12)
    checked = 0
    for g in graphs:
        specials = edges_div_p(g, 2)
        if not specials:
            continue
        b2 = total_sw(g).component(2).b_part
        values = spin_check(g).edge_values
        for e in specials:
            checked += 1
            assert b2[e].coeffs == ((values[e] % 2),), (g, e)
    assert checked >= 3


def test_vertex_parts_satisfy_mod2_congruences():
    from gkmcohom import membership_modp

    graphs = [fixtures.paper8(), fixtures.k4()] + random_gkm_graphs(43, 8)
    for g in graphs:
        sw = total_sw(g)
        for d2 in sw.degrees():
            assert membership_modp(g, sw.component(d2)), (g, d2)


def test_shared_vertex_series_equal_per_vertex_star_products():
    """One component list per distinct mod-2 star gives the same vertex
    parts as the elementary symmetric polynomials of the labels over Z_2,
    taken separately at every vertex."""
    # the moment trapezoid (0,0), (2,0), (1,1), (0,1): stars {x, y} and {x, x - y}
    trapezoid = GkmGraph(
        2,
        ["p0", "p1", "p2", "p3"],
        [("p0", "p1", (1, 0)), ("p1", "p2", (1, -1)), ("p2", "p3", (1, 0)), ("p3", "p0", (0, 1))],
    )
    graphs = [
        trapezoid,
        fixtures.triangle(),
        fixtures.triangle_x_edge(),
        fixtures.paper8(),
        fixtures.k4(),
        fixtures.from_spec("product(2,0;2,-3;3,-3)"),
    ]
    graphs += random_gkm_graphs(41, 8)
    mixed = 0
    for g in graphs:
        c = find_connection(g)
        k = g.torus_rank
        per_vertex = [[g.label(oe.edge) for oe in g.star(v)] for v in range(len(g.vertices))]
        stars = {tuple(sorted(tuple(x % 2 for x in w) for w in labels)) for labels in per_vertex}
        mixed += len(stars) > 1
        sw = total_sw(g, c)
        for d2 in sw.degrees():
            want = tuple(star_product_component(k, labels, d2 // 2, 2) for labels in per_vertex)
            assert sw.component(d2).values == want, (g, d2)
    assert mixed == 3


def test_primitive_labels_reduce_to_plain_star_product():
    # without even edges the class is just the star product of (1 + label)
    # reduced mod 2, and the quotient summand is empty
    graphs = [fixtures.triangle_x_edge(), fixtures.product((1, 0), (0, 1), (1, 1))]
    graphs += [g for g in random_gkm_graphs(61, 10) if not edges_div_p(g, 2)]
    assert len(graphs) > 2
    for g in graphs:
        sw = total_sw(g)
        for v in range(len(g.vertices)):
            labels = [g.label(oe.edge) for oe in g.star(v)]
            for d2 in sw.degrees():
                comp = sw.component(d2)
                assert not comp.b_part or all(
                    f.is_zero() for f in comp.b_part.values()
                )
                want = star_product_component(g.torus_rank, labels, d2 // 2)
                assert comp.values[v] == reduce_mod_p(want, 2)


# ---------------------------------------------------------------------------
# spin criteria


def test_square_graph_spin_verdict():
    v = spin_check(fixtures.paper8())
    assert not v.equivariant_spin
    assert not v.spin
    assert not v.condition_a
    assert v.condition_a_prime
    assert not v.condition_b
    assert v.vertex_sums == {
        "lr": [3, -1],
        "ur": [3, 5],
        "ul": [3, 5],
        "ll": [3, -1],
    }
    assert v.edge_values == {1: -3, 5: 3}


def test_cube_with_even_star_sum_is_spin():
    g = fixtures.product((1, 0), (0, 1), (1, 1))
    v = spin_check(g)
    assert v.equivariant_spin
    assert v.spin
    assert v.condition_a
    assert v.condition_b
    assert v.edge_values == {}
    assert all(s == [2, 2] for s in v.vertex_sums.values())


def test_even_label_in_a_cube_gives_zero_quotients():
    # the cube transports every label to an equal copy of itself, so the
    # quotient over the even edge vanishes; the star sum is still odd
    g = fixtures.product((1, 0), (1, 1), (2, 4))
    v = spin_check(g)
    evens = edges_div_p(g, 2)
    assert len(evens) == 4
    assert all(v.edge_values[e] == 0 for e in evens)
    assert v.condition_b
    assert not v.condition_a  # star sum (4, 5) is odd
    assert v.condition_a_prime  # but identical at every vertex
    assert v.spin and not v.equivariant_spin


def test_vanishing_sums_imply_agreeing_sums():
    for g in random_gkm_graphs(31, 15):
        v = spin_check(g)
        if v.condition_a:
            assert v.condition_a_prime
        if v.equivariant_spin:
            assert v.spin


def test_verdict_dict_shape():
    d = spin_check(fixtures.paper8()).to_dict()
    assert d["equivariant"] is False
    assert d["nonequivariant"] is False
    assert d["conditions"]["star_sums_agree_mod_2"] is True
    assert d["even_edge_values"] == {"1": -3, "5": 3}


# ---------------------------------------------------------------------------
# image obstruction


def test_square_graph_is_obstructed_in_degree_2():
    g = fixtures.paper8()
    verdict = realizability_obstruction(g)
    assert verdict.verdict == "OBSTRUCTED"
    assert not verdict.passes
    assert verdict.failing_degree == 2
    assert verdict.preimages[0] is not None
    assert verdict.preimages[2] is None
    assert verdict.preimages[4] is not None
    assert verdict.preimages[6] is not None
    # independent confirmation on the failing component
    assert integral_preimage(g, total_sw(g).component(2)) is None


def test_cube_graphs_pass_the_obstruction():
    for factors in [((1, 0), (0, 1), (1, 1)), ((1, 0), (0, 1), (2, 3))]:
        g = fixtures.product(*factors)
        verdict = realizability_obstruction(g)
        assert verdict.passes, factors
        assert verdict.failing_degree is None
        assert all(pre is not None for pre in verdict.preimages.values())


def test_obstruction_report_shape():
    d = realizability_obstruction(fixtures.paper8()).to_dict()
    assert d["verdict"] == "OBSTRUCTED"
    assert d["failing_degree"] == 2
    assert d["preimages"]["2"] is None
    assert isinstance(d["preimages"]["4"], list)
    assert "necessary condition" in d["note"]

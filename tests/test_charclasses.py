"""Mod-2 characteristic classes, spin criteria, and the image obstruction."""

from __future__ import annotations

import random

import pytest

from gkmcohom import (
    GkmGraph,
    GraphClass,
    ObstructionVerdict,
    SpinVerdict,
    compute_h_z,
    edges_div_p,
    find_connection,
    integral_preimage,
    realizability_obstruction,
    spin_check,
    sw_choice_independence,
    total_sw,
)
from gkmcohom import cohomology, fixtures
from gkmcohom.polyring import GradedPoly, reduce_mod_p

from helpers import cube_graph, flag_manifold, random_gkm_graphs, star_product_component


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


@pytest.mark.parametrize("trials", [0, -3])
def test_choice_independence_needs_at_least_one_trial(trials):
    # an empty sample would claim independence with no evidence
    with pytest.raises(ValueError, match="trials must be at least 1"):
        sw_choice_independence(fixtures.paper8(), 1, trials=trials)


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
    from gkmcohom import membership_z

    graphs = [fixtures.paper8(), fixtures.k4()] + random_gkm_graphs(43, 8)
    for g in graphs:
        sw = total_sw(g)
        for d2 in sw.degrees():
            assert membership_z(g, sw.component(d2)), (g, d2)


def test_membership_takes_no_congruence_between_one_shared_value(monkeypatch):
    """All 120 stars of Fl5 have one sorted mod-2 star, so ``total_sw``
    gives every vertex the same value object per degree and
    ``membership_z`` checks no edge; distinct values are still checked,
    and one broken congruence still fails the class."""
    from gkmcohom import membership_z

    calls = []
    real = cohomology.congruent_mod_weight
    monkeypatch.setattr(
        cohomology, "congruent_mod_weight", lambda *a: calls.append(a) or real(*a)
    )
    total_sw(flag_manifold(4))
    assert calls == []
    g = fixtures.paper8()
    n = len(g.vertices)
    assert membership_z(g, modp_class(g, 2, [{(1, 0): 1}] * n))
    assert len(calls) == len(g.edges)
    calls.clear()
    x, y = (GradedPoly.from_terms(2, 1, {m: 1}, 2) for m in ((1, 0), (0, 1)))
    broken = GraphClass(g, 2, [y] + [x] * (n - 1), 2)  # one shared x, as in total_sw
    assert not membership_z(g, broken)
    assert 0 < len(calls) <= len(g.star(0))


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


def test_even_star_sums_have_one_parity_class():
    """``condition_a`` implies ``condition_a_prime`` for any star sums, so
    an equivariantly spin verdict is always spin: random sums of rank 1
    to 3 with negative entries, every sum even in about half the draws."""
    rng = random.Random(67)
    seen = set()
    for _ in range(400):
        k, n = rng.randint(1, 3), rng.randint(1, 6)
        scale = rng.choice((1, 2))
        sums = {v: [scale * rng.randint(-5, 5) for _ in range(k)] for v in range(n)}
        v = SpinVerdict(sums, {})
        assert not v.condition_a or v.condition_a_prime, sums
        seen.add((v.condition_a, v.condition_a_prime))
    assert seen == {(True, True), (False, True), (False, False)}


@pytest.mark.parametrize(
    "vertex_sums, edge_values, conditions",
    [
        ({"a": [2, 0], "b": [1, 0]}, {}, (False, False, True)),
        ({"a": [1, 0], "b": [0, 1]}, {3: 2}, (False, False, True)),
        ({"a": [1, 3], "b": [3, 1]}, {3: 2}, (False, True, True)),
        ({"a": [2, 0], "b": [0, -2]}, {3: 2, 4: -1}, (True, True, False)),
        ({"a": [2, 0], "b": [0, -2]}, {3: 2}, (True, True, True)),
    ],
    ids=["one-odd-sum", "two-parities", "one-parity", "one-odd-edge-value", "spin"],
)
def test_spin_conditions_are_read_off_the_sums_and_edge_values(
    vertex_sums, edge_values, conditions
):
    v = SpinVerdict(vertex_sums, edge_values)
    assert (v.condition_a, v.condition_a_prime, v.condition_b) == conditions
    assert v.equivariant_spin == (conditions[0] and conditions[2])
    assert v.spin == (conditions[1] and conditions[2])
    d = v.to_dict()["conditions"]
    assert tuple(d.values()) == conditions


def test_verdicts_store_no_flag():
    """The flags are properties of the evidence: the old keyword fields
    are refused."""
    with pytest.raises(TypeError):
        SpinVerdict(condition_a=True, condition_a_prime=True, condition_b=True)
    with pytest.raises(TypeError):
        SpinVerdict({}, {}, condition_b=False)
    with pytest.raises(TypeError):
        ObstructionVerdict(failing_degree=None, preimages={})
    with pytest.raises(TypeError):
        ObstructionVerdict({}, None)


def test_failing_degree_is_the_least_degree_without_a_preimage():
    one = GraphClass.zero(fixtures.paper8(), 0)
    verdict = ObstructionVerdict({0: one, 2: None, 4: None})
    assert (verdict.failing_degree, verdict.verdict, verdict.passes) == (2, "OBSTRUCTED", False)
    assert ObstructionVerdict({4: None, 0: one, 2: None}).failing_degree == 2
    passing = ObstructionVerdict({0: one})
    assert (passing.failing_degree, passing.verdict, passing.passes) == (None, "PASSES", True)


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


@pytest.mark.parametrize(
    "graph, unsolved",
    [(lambda: cube_graph(((1, 0), (0, 1), (1, 1), (2, 4))), []), (fixtures.paper8, [2])],
    ids=["Q4", "paper8"],
)
def test_each_preimage_solve_takes_rank_many_images(graph, unsolved, monkeypatch):
    """The obstruction solves each degree on the reductions of an integral
    basis, one image per basis class; paper8's degree-2 solve, and only
    that one, finds no solution."""
    g = graph()
    real = cohomology.modp_solve
    calls = []

    def spy(images, target, p):
        calls.append((len(images), real(images, target, p)))
        return calls[-1][1]

    monkeypatch.setattr(cohomology, "modp_solve", spy)
    realizability_obstruction(g)
    degrees = total_sw(g).degrees()
    assert [n for n, _ in calls] == [compute_h_z(g, d2).rank for d2 in degrees]
    assert [d2 for d2, (_, x) in zip(degrees, calls) if x is None] == unsolved


def test_a_choice_dependent_quotient_is_not_hidden_by_the_memo(monkeypatch):
    """With a division patched to drop the quotient whenever the edge lift
    is negative, the quotient depends on the sign choice, and
    ``sw_choice_independence`` says so, also after ``total_sw`` has
    stored the quotients of the positive lifts on the same graph."""
    from gkmcohom import charclasses

    real = charclasses.divide_by_linear

    def sign_dependent(f, w):
        q = real(f, w)
        return q if q is None or next(x for x in w if x) > 0 else q.scale(2)

    g = fixtures.paper8()
    assert all(sw_choice_independence(g, e, trials=64) for e in edges_div_p(g, 2))
    monkeypatch.setattr(charclasses, "divide_by_linear", sign_dependent)
    g = fixtures.paper8()
    total_sw(g)
    assert not all(sw_choice_independence(g, e, trials=64) for e in edges_div_p(g, 2))


def test_edge_quotients_are_built_once_per_distinct_lifts(monkeypatch):
    """``total_sw`` and every ``sw_choice_independence`` call on one graph
    share the quotients: each distinct (edge lift, source lifts, target
    lifts) key is divided out once, and a repeated call divides nothing."""
    from gkmcohom import charclasses
    from gkmcohom.connection import edge_matchings, transport_signs

    real = charclasses.divide_by_linear
    divided = []
    monkeypatch.setattr(charclasses, "divide_by_linear", lambda f, w: divided.append(w) or real(f, w))
    g = cube_graph(((1, 0), (0, 1), (1, 1), (1, -1), (2, 4)))
    special = edges_div_p(g, 2)
    assert special
    keys = set()
    for e in special:
        oe = g.default_oriented(e)
        star = g.star(g.initial(oe))
        for matching in edge_matchings(g, e):
            for mask in range(2 ** len(star)):
                signs = {l: -1 if (mask >> i) & 1 else 1 for i, l in enumerate(star)}
                lifts = {l: tuple(signs[l] * c for c in g.label(l.edge)) for l in star}
                targets = [lifts[oe]] + [
                    tuple(s * c for c in g.label(matching[l].edge))
                    for l, s in transport_signs(g, oe, matching, signs).items()
                ]
                keys.add((e, lifts[oe], tuple(sorted(lifts.values())), tuple(sorted(targets))))
    total_sw(g)
    for e in special:
        assert sw_choice_independence(g, e, trials=10 ** 6)
    per_key = g.valence + 1
    assert len(divided) == per_key * len({key[1:] for key in keys}) < per_key * len(keys)
    divided.clear()
    total_sw(g)
    for e in special:
        assert sw_choice_independence(g, e, trials=10 ** 6)
    assert divided == []

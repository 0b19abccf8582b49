"""Acceptance gate: one test per shipped guarantee.

Each test here states a complete user-facing contract; the per-module
suites cover the internals.  Everything is exact — no tolerances.
"""

from __future__ import annotations

import functools
import itertools
import random

from gkmcohom import (
    GkmGraph,
    GraphClass,
    check_coprimality,
    check_identity,
    compute_h_modp,
    compute_h_z,
    edges_div_p,
    enumerate_connections,
    find_connection,
    integral_preimage,
    is_orientable,
    membership_z,
    realizability_obstruction,
    reduce_class_mod_p,
    spin_check,
    sw_choice_independence,
    thom_class_of_edge,
    thom_class_of_path,
    thom_class_of_vertex,
    total_sw,
    validate_gkm,
    verify_sw3valent,
)
from gkmcohom import fixtures
from gkmcohom import connection_paths
from gkmcohom.graph import Conventions
from gkmcohom.intlinalg import IntMatrix, kernel_into_cokernel
from gkmcohom.polyring import GradedPoly, content, monomials, num_monomials
from gkmcohom.relations import variable_environment

from helpers import (
    edge_system_rows,
    exponents,
    hilbert_rank_of_free,
    in_column_image,
    modp_kernel_basis,
    modp_rank,
    modp_rref,
    random_3valent_orientable,
    random_gkm_graphs,
    rational_rank,
    scaled_labels_graph,
)


def test_c1_square_graph_regression():
    """validate passes; orientable; not spin; b_part 1 on both 2y-edges;
    the degree-2 component has no integral origin; verdict OBSTRUCTED@2."""
    g = fixtures.paper8()
    report = validate_gkm(g)
    assert report.ok, report.issues
    assert check_coprimality(g).ok
    from gkmcohom import is_effective

    assert is_effective(g)

    c = find_connection(g)
    assert c is not None
    assert is_orientable(g, c)

    verdict = spin_check(g)
    assert (verdict.equivariant_spin, verdict.spin) == (False, False)

    sw2 = total_sw(g).component(2)
    assert edges_div_p(g, 2) == [1, 5]
    assert sw2.render_b_part() == {1: "1", 5: "1"}

    assert integral_preimage(g, sw2) is None

    obs = realizability_obstruction(g)
    assert obs.verdict == "OBSTRUCTED"
    assert obs.failing_degree == 2


def test_c2_square_graph_cohomology():
    """Ranks 1,2,5,8,12 match the degree-0,4,4,8 free-module count; the
    four generators are classes; a2*a3 == -a4 + 2xy*a2 exactly."""
    g = fixtures.paper8()
    expected = [hilbert_rank_of_free(2, [0, 4, 4, 8], d2) for d2 in (0, 2, 4, 6, 8)]
    assert expected == [1, 2, 5, 8, 12]
    assert [compute_h_z(g, d2).rank for d2 in (0, 2, 4, 6, 8)] == expected

    gens = fixtures.paper8_generators()
    for name, cls in gens.items():
        assert membership_z(g, cls), name

    env = variable_environment(2)
    env.update(gens)
    assert check_identity("a2*a3 == -a4 + 2*x*y*a2", env).holds


def test_c3_rank_dimension_discrepancy():
    """product (1,0),(0,1),(1,p): integral rank 5, mod-p dimension 6."""
    for p in (2, 3, 5):
        g = fixtures.product((1, 0), (0, 1), (1, p))
        assert compute_h_z(g, 2).rank == 5, p
        assert compute_h_modp(g, 2, p).rank == 6, p


def test_c4_one_edge_graph_lemma():
    """Single-edge ranks count pairs f ≡ g mod α; when p | α the image
    of (lift, 0) is pure quotient data; that summand squares to zero."""
    for a in (1, 2, 3, 5):
        g = fixtures.sphere((a, 0))
        for d in range(5):
            want = num_monomials(2, d) + (num_monomials(2, d - 1) if d else 0)
            assert compute_h_z(g, 2 * d).rank == want, (a, d)

    for a, p in ((2, 2), (3, 3), (5, 5)):
        g = fixtures.sphere((a, 0))
        lift = GradedPoly.from_terms(2, 1, {(1, 0): a})
        cls = GraphClass(g, 2, [lift, GradedPoly.zero(2, 1)])
        assert membership_z(g, cls)
        img = reduce_class_mod_p(g, cls, p)
        assert all(f.is_zero() for f in img.values)
        assert img.render_b_part() == {0: "1"}
        assert (img * img).is_zero()


def test_c5_choice_independence():
    """50 seeded random graphs: quotients independent of local choices,
    orientability independent of the connection, mod-2 reduction
    independent of orientation and lift conventions."""
    graphs = random_gkm_graphs(11, 50)
    assert len(graphs) == 50
    saw_special = 0
    for g in graphs:
        for e in edges_div_p(g, 2):
            saw_special += 1
            # 4-valent stars: <= 6 bijections x 16 sign masks = 96 < 128,
            # so the whole choice space is exhausted
            assert sw_choice_independence(g, e, trials=128, seed=1)

        answers = {
            is_orientable(g, c)
            for c in itertools.islice(enumerate_connections(g), 16)
        }
        assert len(answers) == 1

        lattice = compute_h_z(g, 2)
        specials = edges_div_p(g, 2)
        if not lattice.basis or not specials:
            continue
        e = specials[0]
        neg = tuple(-x for x in g.label(e))
        variants = [
            Conventions(frozenset({e}), {}),
            Conventions(frozenset(), {e: neg}),
            Conventions(frozenset({e}), {e: neg}),
        ]
        for cls in lattice.basis:
            base = reduce_class_mod_p(g, cls, 2)
            for conv in variants:
                assert reduce_class_mod_p(g, cls, 2, conv) == base
    assert saw_special >= 10, "random family lost its special edges"


def test_c6_3valent_theorem_suite():
    """Fixtures plus 25 random orientable 3-valent graphs: Thom classes
    are integral, their sums reduce to the degree-2/4/6 components, and
    the obstruction passes."""
    graphs = [
        fixtures.product((1, 0), (0, 1), (1, 1)),
        fixtures.product((1, 0), (0, 1), (1, 2)),
        fixtures.polygon2n_x_edge(2),
        fixtures.polygon2n_x_edge(3),
        fixtures.polygon2n_x_edge(4),
    ]
    randoms = random_3valent_orientable(7, 25)
    assert len(randoms) == 25
    graphs += randoms

    for g in graphs:
        c = find_connection(g)
        for p in connection_paths(g, c):
            assert membership_z(g, thom_class_of_path(g, c, p))
        for e in range(len(g.edges)):
            assert membership_z(g, thom_class_of_edge(g, c, e))
        for v in range(len(g.vertices)):
            assert membership_z(g, thom_class_of_vertex(g, v))

        report = verify_sw3valent(g, c)
        assert report["degree2_match"], g
        assert report["degree4_match"], g
        assert report["degree6_match"], g

        assert realizability_obstruction(g).passes, g


def _oracle_dim(g: GkmGraph, d: int, rank) -> int:
    # dim of the projection of ker[M | -D] onto the vertex block:
    # ker dim minus the dim of {(0, h) : Dh = 0}
    stacked, divisor = edge_system_rows(g, d)
    ker = len(stacked[0]) - rank(stacked)
    return ker - (len(divisor[0]) - rank(divisor))


def test_c7_oracle_equivalence():
    """Ranks and dimensions agree with independent Gaussian elimination
    over Q and F_p; the integer kernel solver agrees with brute force."""
    named = [
        fixtures.paper8(),
        fixtures.sphere((2, 0)),
        fixtures.product((1, 0), (0, 1), (1, 2)),
        fixtures.polygon2n_x_edge(2),
        fixtures.triangle(),
        fixtures.triangle_x_edge(),
        fixtures.k4(),
    ]
    for g in named + random_gkm_graphs(37, 20):
        for d2 in (0, 2, 4):
            d = d2 // 2
            assert compute_h_z(g, d2).rank == _oracle_dim(g, d, rational_rank)
            for p in (2, 3):
                rank_p = functools.partial(modp_rank, p=p)
                assert compute_h_modp(g, d2, p).rank == _oracle_dim(g, d, rank_p)

    rng = random.Random(5)
    for _ in range(15):
        rows_m = rng.randrange(1, 4)
        cols_m = rng.randrange(1, 4)
        cols_d = rng.randrange(1, 4)
        m = IntMatrix(
            [[rng.randrange(-3, 4) for _ in range(cols_m)] for _ in range(rows_m)],
            cols=cols_m,
        )
        dmat = IntMatrix(
            [[rng.randrange(-3, 4) for _ in range(cols_d)] for _ in range(rows_m)],
            cols=cols_d,
        )
        lat = kernel_into_cokernel(m, dmat)
        got = {tuple(v) for v in lat.vectors}
        # brute force: x with |x_i| <= 5 such that Mx lies in the image of D
        box = range(-5, 6)
        solutions = set()
        for x in itertools.product(box, repeat=cols_m):
            mx = [sum(r[j] * x[j] for j in range(cols_m)) for r in m.data]
            if in_column_image([list(r) for r in dmat.data], mx):
                solutions.add(x)
        for x in got:
            if all(abs(c) <= 5 for c in x):
                assert x in solutions
        for x in solutions:
            assert lat.coordinates_of(list(x)) is not None, x


def _definition_in_package_order(g: GkmGraph, d: int):
    """Rows of [M | -D] and of D from the definition, vertex columns put
    into the package's monomial order."""
    stacked, divisor = edge_system_rows(g, d)
    oracle = exponents(g.torus_rank, d)
    n = len(oracle)
    perm = [
        v * n + oracle.index(mono)
        for v in range(len(g.vertices))
        for mono in monomials(g.torus_rank, d)
    ]
    width = len(perm)
    stacked = [[row[c] for c in perm] + row[width:] for row in stacked]
    return stacked, divisor, width


def test_c7_lattices_equal_definition_with_scaled_labels():
    """Not just ranks: the HNF lattice over Z and the RREF basis over Z_p
    of every graded piece equal those of the definitional edge system,
    on graphs whose labels are scaled by 2, 3, 5 and 6."""
    rng = random.Random(23)
    cases = set()
    for base in random_gkm_graphs(47, 12, require_connection=False):
        g = scaled_labels_graph(base, rng)
        contents = {content(label) for _, _, label in g.edges}
        for p in (2, 3, 5):
            cases.update((p, m % p == 0) for m in contents if m > 1)
        for d2 in range(0, 8, 2):
            stacked, divisor, width = _definition_in_package_order(g, d2 // 2)
            mmat = IntMatrix([row[:width] for row in stacked], cols=width)
            dmat = IntMatrix(divisor, cols=len(divisor[0]))
            assert compute_h_z(g, d2).lattice.vectors == kernel_into_cokernel(mmat, dmat).vectors
            for p in (2, 3, 5):
                kernel = modp_kernel_basis(stacked, len(stacked[0]), p)
                want = modp_rref([vec[:width] for vec in kernel], p)
                got = [
                    [c for f in cls.values for c in f.coeffs]
                    for cls in compute_h_modp(g, d2, p).basis
                ]
                assert got == want, (g, d2, p)
    assert cases == {(p, divides) for p in (2, 3, 5) for divides in (True, False)}


def test_c8_coprimality_equivalence():
    """check_coprimality fails iff some p in {2,3,5,7} puts two adjacent
    edges into edges_div_p (labels bounded by 10)."""
    rng = random.Random(19)
    saw_fail = saw_pass = 0
    for base in random_gkm_graphs(43, 30, require_connection=False):
        g = scaled_labels_graph(base, rng)
        assert validate_gkm(g).ok
        assert all(abs(c) <= 10 for _, _, lab in g.edges for c in lab)

        coprime_ok = check_coprimality(g).ok
        shared_prime = False
        for p in (2, 3, 5, 7):
            special = set(edges_div_p(g, p))
            if len(special) < 2:
                continue
            for v in range(len(g.vertices)):
                star_specials = [l.edge for l in g.star(v) if l.edge in special]
                if len(star_specials) >= 2:
                    shared_prime = True
        assert coprime_ok == (not shared_prime), g
        if coprime_ok:
            saw_pass += 1
        else:
            saw_fail += 1
    assert saw_fail >= 3, "scaling never produced a counterexample"
    assert saw_pass >= 3, "scaling always produced a counterexample"

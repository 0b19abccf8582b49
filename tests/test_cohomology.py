"""Graded cohomology lattices over Z and Z/p, and the reduction map."""

from __future__ import annotations

import gc
import random
import sys
import time

import pytest

from gkmcohom import (
    GradedPoly,
    GraphClass,
    compute_h_modp,
    compute_h_z,
    edges_div_p,
    integral_preimage,
    membership_z,
    realizability_obstruction,
    reduce_class_mod_p,
    total_sw,
)
from gkmcohom import fixtures
from gkmcohom import cohomology, intlinalg
from gkmcohom.cohomology import _edge_rows, _reduction_images
from gkmcohom.graph import DEFAULT_CONVENTIONS, Conventions, GkmGraph, InvariantError
from gkmcohom.intlinalg import (
    IntMatrix,
    LatticeBasis,
    kernel_into_cokernel,
    rows_hold,
    sparse_kernel,
)
from gkmcohom.polyring import compose_linear, content, num_monomials, sign_normalize

from helpers import (
    cube_graph,
    dropping_a_term,
    flag_manifold,
    fraction_det,
    hilbert_rank_of_free,
    integral_preimage_elimination,
    modp_kernel_basis,
    modp_rref,
    projective_schubert_span,
    projective_space,
    random_gkm_graphs,
    random_unimodular,
    rational_rank,
    record_vertex_classes,
    scaled_labels_graph,
    twist_graph,
)
from test_golden import FIXTURES, SUBCOMMAND_FIXTURES

Q4K3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 2))
# the label change of the benchmark's Fl4-skew: each label w becomes SKEW w
SKEW = [[1, 1, 0], [0, 1, 1], [1, 1, 1]]


def poly(d: int, terms: dict | None, k: int = 2, p: int = 0) -> GradedPoly:
    if not terms:
        return GradedPoly.zero(k, d, p)
    return GradedPoly.from_terms(k, d, terms, p)


def modp_class(g, p, degree2, vertex_terms, b_terms=None):
    d = degree2 // 2
    values = [poly(d, t, g.torus_rank, p) for t in vertex_terms]
    b_part = {
        e: poly(d - 1, t, g.torus_rank, p) for e, t in (b_terms or {}).items()
    }
    return GraphClass(g, degree2, values, p, b_part)


def test_edge_direction_does_not_change_the_graded_pieces():
    """Every golden fixture and ten random graphs, rebuilt with each edge's
    endpoints swapped: the same basis vectors over Z, Z2 and Z3 up to
    degree 4, and the same membership verdict on the basis classes and on
    each of them with x_1^d added at one vertex."""
    graphs = [fixtures.from_spec(spec) for spec in SUBCOMMAND_FIXTURES]
    graphs += random_gkm_graphs(101, 10)
    verdicts = set()
    for g in graphs:
        swapped = GkmGraph(
            g.torus_rank, g.vertices, [(g.vertices[v], g.vertices[u], w) for u, v, w in g.edges]
        )
        for degree2 in (0, 2, 4):
            for p in (0, 2, 3):
                pieces = [
                    compute_h_z(h, degree2) if p == 0 else compute_h_modp(h, degree2, p)
                    for h in (g, swapped)
                ]
                stored, reversed_ = ([c.to_vector() for c in h.basis] for h in pieces)
                assert stored == reversed_, (g, degree2, p)
                k, d = g.torus_rank, degree2 // 2
                bump = GradedPoly.from_terms(k, d, {(d,) + (0,) * (k - 1): 1}, p)
                for cls in pieces[0].basis:
                    for values in (cls.values, (cls.values[0] + bump,) + cls.values[1:]):
                        verdict, verdict_swapped = (
                            membership_z(h, GraphClass(h, degree2, values, p)) for h in (g, swapped)
                        )
                        assert verdict == verdict_swapped
                        verdicts.add(verdict)
    assert verdicts == {True, False}


def slack_oracle(g: GkmGraph, d: int) -> LatticeBasis:
    """The integral piece of polynomial degree d by dense HNF:
    ``kernel_into_cokernel`` of the edge rows, one slack column per row of
    modulus m > 0."""
    width = len(g.vertices) * num_monomials(g.torus_rank, d)
    rows, moduli = _edge_rows(g, d, 0)
    dense = [[row.get(c, 0) for c in range(width)] for row in rows]
    slack = [i for i, m in enumerate(moduli) if m]
    d_mat = IntMatrix([[m if i == j else 0 for j in slack] for i, m in enumerate(moduli)], cols=len(slack))
    return kernel_into_cokernel(IntMatrix(dense, cols=width), d_mat)


def test_sparse_elimination_equals_the_dense_oracle():
    """The sparse kernels of the edge rows equal the dense ones: the HNF
    lattice of ``kernel_into_cokernel`` (slack columns from the moduli) over
    Z, and the RREF of the oracle F_p kernel over F_2, F_3 and F_5, on every
    golden fixture and on random graphs, plain and with scaled labels."""
    rng = random.Random(31)
    randoms = random_gkm_graphs(103, 8)
    graphs = [fixtures.from_spec(spec) for spec in SUBCOMMAND_FIXTURES]
    graphs += randoms + [scaled_labels_graph(g, rng) for g in randoms]
    slack_seen = 0
    for g in graphs:
        for d in (0, 1, 2):
            width = len(g.vertices) * num_monomials(g.torus_rank, d)
            rows, moduli = _edge_rows(g, d, 0)
            slack_seen += sum(1 for m in moduli if m)
            assert sparse_kernel(rows, moduli, width) == slack_oracle(g, d), (g, d)
            for p in (2, 3, 5):
                rows_p, _ = _edge_rows(g, d, p)
                dense_p = [[row.get(c, 0) for c in range(width)] for row in rows_p]
                want_p = modp_rref(modp_kernel_basis(dense_p, width, p), p)
                got_p = sparse_kernel(rows_p, [0] * len(rows_p), width, p).vectors
                assert got_p == tuple(map(tuple, want_p)), (g, d, p)
    assert slack_seen > 0



def test_special_edge_pieces_never_reach_the_dense_kernel(monkeypatch):
    """On Q4 and Q4k3 (a content-2 label each) up to degree 10 and on
    paper8 up to degree 6, every row left after the unit pivots of the x
    columns becomes a unit row once divided by its content, so the second
    pass solves all of it on its slack columns: the dense ``kernel`` is
    never called, and each piece equals the dense oracle."""
    cases = [
        (cube_graph(((1, 0), (0, 1), (1, 1), (2, 4))), 10),
        (cube_graph(((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 2))), 10),
        (fixtures.paper8(), 6),
    ]
    wants = [(g, d2, slack_oracle(g, d2 // 2)) for g, top in cases for d2 in range(0, top + 1, 2)]

    def forbidden(m):
        raise AssertionError("dense kernel called")

    monkeypatch.setattr(intlinalg, "kernel", forbidden)
    for g, d2, want in wants:
        assert compute_h_z(g, d2).lattice == want, (g, d2)


def pushed_piece(piece, u) -> LatticeBasis:
    """The piece of the graph with every label w replaced by u w, from
    the definition: f is a class of g iff f(u^T x) is one of the twisted
    graph, so each vertex block goes through ``compose_linear`` with u^T,
    and ``from_vectors`` makes the pushed vectors canonical."""
    k, d, p = piece.graph.torus_rank, piece.degree2 // 2, piece.p
    n = num_monomials(k, d)
    ut = tuple(zip(*u))
    pushed = [
        [c for i in range(0, len(vec), n) for c in compose_linear(GradedPoly(k, d, vec[i : i + n], p), ut).coeffs]
        for vec in piece.lattice.vectors
    ]
    return LatticeBasis.from_vectors(len(piece.graph.vertices) * n, pushed, p)


def test_pieces_follow_a_unimodular_change_of_coordinates():
    """Coordinate-change oracle: each piece of a graph twisted by a random
    unimodular U equals the piece of the graph pushed through x -> U^T x
    (``pushed_piece``), whichever basis either solve ran in.  Every golden
    fixture, Fl4, Q4k3 and random graphs, plain and with scaled
    (non-primitive) labels, over Z, Z2 and Z3 up to degree 4; some of the
    twisted graphs are re-based and some are not."""
    rng = random.Random(89)
    randoms = random_gkm_graphs(113, 4)
    graphs = [fixtures.from_spec(spec) for spec in SUBCOMMAND_FIXTURES]
    graphs += [flag_manifold(3), cube_graph(Q4K3)]
    graphs += randoms + [scaled_labels_graph(g, rng) for g in randoms]
    rebased = []
    for g in graphs:
        u = random_unimodular(rng, k=g.torus_rank)
        twisted = twist_graph(g, u)
        rebased.append(cohomology._label_basis(twisted) is not None)
        for degree2 in (0, 2, 4):
            for p in (0, 2, 3):
                if p == 0:
                    piece, got = compute_h_z(g, degree2), compute_h_z(twisted, degree2)
                else:
                    piece, got = compute_h_modp(g, degree2, p), compute_h_modp(twisted, degree2, p)
                assert got.lattice == pushed_piece(piece, u), (g, u, degree2, p)
    assert any(rebased) and not all(rebased)


def test_only_labels_cheaper_in_a_basis_of_their_own_are_rebased():
    """The golden fixtures, the benchmark's cubes and paper8, Fl4, Fl5,
    CP^4 and the 64-gon prism are solved in their own coordinates.  The
    product with labels (2,0), (2,-3), (3,-3) is re-based on (1,-1),
    (1,0), and Fl4-skew on (0,1,1), (1,0,1), (1,1,1), where its labels
    are those of Fl4 with the coordinates permuted."""
    keep = [fixtures.from_spec(spec) for spec in FIXTURES]
    keep += [
        cube_graph(((1, 0), (0, 1), (1, 1), (2, 4))),
        cube_graph(((1, 0), (0, 1), (1, 1), (2, 4), (1, -1))),
        cube_graph(Q4K3),
        flag_manifold(3),
        flag_manifold(4),
        projective_space(4),
        fixtures.polygon2n_x_edge(32),
    ]
    assert [g for g in keep if cohomology._label_basis(g) is not None] == []
    basis, relabel = cohomology._label_basis(fixtures.from_spec("product(2,0;2,-3;3,-3)"))
    assert basis == ((1, -1), (1, 0))
    assert relabel == {(2, 0): (0, 2), (2, -3): (3, -1), (3, -3): (3, 0)}
    fl4 = flag_manifold(3)
    skewed = twist_graph(fl4, SKEW)
    basis, relabel = cohomology._label_basis(skewed)
    assert basis == ((0, 1, 1), (1, 0, 1), (1, 1, 1))
    assert [relabel[w] for _, _, w in skewed.edges] == [(w[2], w[0], w[1]) for _, _, w in fl4.edges]


def test_skewed_fl4_pieces_never_reach_the_dense_kernel(monkeypatch):
    """Solved on its re-based labels, Fl4-skew builds the rows of Fl4 up
    to a permutation of the coordinates, which the unit pivots solve: up
    to degree 6 the dense ``kernel`` is never called, and each piece is
    that of Fl4 pushed through the change of coordinates."""
    fl4 = flag_manifold(3)
    skewed = twist_graph(fl4, SKEW)
    wants = [(d2, pushed_piece(compute_h_z(fl4, d2), SKEW)) for d2 in range(0, 7, 2)]

    def forbidden(m):
        raise AssertionError("dense kernel called")

    monkeypatch.setattr(intlinalg, "kernel", forbidden)
    for d2, want in wants:
        assert compute_h_z(skewed, d2).lattice == want, d2


def greedy_label_basis(g):
    """The basis choice written out: B taken greedily from the sorted,
    sign-normalized primitive labels by rational rank, kept only if its
    determinant is +-1, it is no signed permutation, and the labels
    written in it, alpha' with alpha = alpha' B by Cramer's rule, are
    strictly cheaper."""
    k = g.torus_rank
    labels = {label for _, _, label in g.edges}
    chosen = []
    for w in sorted({sign_normalize([x // content(lab) for x in lab]) for lab in labels}):
        if len(chosen) < k and rational_rank(chosen + [list(w)]) > len(chosen):
            chosen.append(list(w))
    if len(chosen) < k or abs(fraction_det(chosen)) != 1:
        return None
    if all(sum(map(bool, b)) == 1 for b in chosen):
        return None
    det = fraction_det(chosen)
    relabel = {
        lab: sign_normalize([det * fraction_det(chosen[:j] + [list(lab)] + chosen[j + 1 :]) for j in range(k)])
        for lab in labels
    }
    if sum(abs(x) for lab in relabel.values() for x in lab) >= sum(abs(x) for lab in labels for x in lab):
        return None
    return tuple(map(tuple, chosen)), relabel


def test_the_label_basis_is_the_greedy_unimodular_choice():
    """``_label_basis`` against ``greedy_label_basis`` on 320 random
    unimodular twists: of the golden fixtures, and of random graphs with
    plain and with scaled (non-primitive) labels.  Every re-based label
    alpha' gives back +-alpha as sum_j alpha'_j b_j, and each kind of
    graph has twists that are re-based and twists that are not."""
    rng = random.Random(131)
    randoms = random_gkm_graphs(137, 10)
    kinds = {
        "golden": [fixtures.from_spec(spec) for spec in FIXTURES],
        "plain": randoms,
        "scaled": [scaled_labels_graph(g, rng) for g in randoms],
    }
    for kind, graphs in kinds.items():
        rebased = []
        for g in graphs:
            for _ in range(10):
                twisted = twist_graph(g, random_unimodular(rng, k=g.torus_rank))
                got = cohomology._label_basis(twisted)
                assert got == greedy_label_basis(twisted), twisted.edges
                rebased.append(got is not None)
                if got:
                    basis, relabel = got
                    for lab, new in relabel.items():
                        back = [sum(a * b[i] for a, b in zip(new, basis)) for i in range(g.torus_rank)]
                        assert sign_normalize(back) == lab, (lab, new, basis)
        assert any(rebased) and not all(rebased), kind


@pytest.mark.parametrize(
    "spec, p",
    [("Fl4-skew", 0), ("product(2,0;2,-3;3,-3)", 0)],
)
def test_a_corrupted_map_back_raises_invariant_error(monkeypatch, spec, p):
    """The edge rows of the graph's own labels check the mapped-back
    integral piece, so a substitution with one term dropped is caught,
    on both re-based graphs."""
    g = twist_graph(flag_manifold(3), SKEW) if spec == "Fl4-skew" else fixtures.from_spec(spec)
    assert cohomology._label_basis(g) is not None
    monkeypatch.setattr(cohomology, "linear_substitution", dropping_a_term(cohomology.linear_substitution))
    with pytest.raises(InvariantError, match="non-class in degree 4"):
        compute_h_modp(g, 4, p) if p else compute_h_z(g, 4)


@pytest.mark.parametrize(
    "spec, p",
    [("Fl4-skew", 2), ("Fl4-skew", 3), ("product(2,0;2,-3;3,-3)", 2)],
)
def test_mod_p_pieces_are_solved_on_the_labels_as_given(monkeypatch, spec, p):
    """Only the integral solve is re-based: with a map-back substitution
    that drops a term, the mod-p pieces of both re-based graphs in
    degrees 2 to 6 are those computed before, while the integral piece
    in degree 4 still fails its check."""
    g = twist_graph(flag_manifold(3), SKEW) if spec == "Fl4-skew" else fixtures.from_spec(spec)
    assert cohomology._label_basis(g) is not None
    want = [compute_h_modp(g, d2, p).lattice for d2 in (2, 4, 6)]
    monkeypatch.setattr(cohomology, "linear_substitution", dropping_a_term(cohomology.linear_substitution))
    assert [compute_h_modp(g, d2, p).lattice for d2 in (2, 4, 6)] == want
    with pytest.raises(InvariantError, match="non-class in degree 4"):
        compute_h_z(g, 4)


def test_piece_check_agrees_with_membership_on_perturbed_vectors():
    """``rows_hold``, the one check of a whole graded piece, against
    ``membership_z`` class by class: every basis vector of every piece
    passes, and a piece with one coordinate of one basis vector changed
    is rejected exactly when ``membership_z`` rejects the changed class.
    Random graphs plain and with scaled (non-primitive) labels, a cube
    with a content-2 label and the square with labels 2x and 3y, whose
    change by 6 at xy stays a class; over Z, Z2 and Z3."""
    rng = random.Random(57)
    randoms = random_gkm_graphs(107, 5)
    graphs = randoms + [scaled_labels_graph(g, rng) for g in randoms]
    graphs += [cube_graph(((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 2))), cube_graph(((2, 0), (0, 3)))]
    verdicts = {p: set() for p in (0, 2, 3)}
    for g in graphs:
        for degree2 in (2, 4):
            d = degree2 // 2
            for p in (0, 2, 3):
                piece = compute_h_z(g, degree2) if p == 0 else compute_h_modp(g, degree2, p)
                rows, moduli = _edge_rows(g, d, p)
                vectors = piece.lattice.vectors
                assert rows_hold(rows, moduli, vectors, p), (g, degree2, p)
                # x1 * x2 at the first vertex, and three random coordinates
                columns = [1] if d == 2 else []
                for i, vec in enumerate(vectors):
                    assert rows_hold(rows, moduli, [vec], p)
                    for c in columns + rng.sample(range(len(vec)), 3):
                        for delta in (1, -1, 2, 3, 6):
                            changed = list(vec)
                            changed[c] += delta
                            want = membership_z(g, cohomology._vertex_class(g, degree2, changed, p))
                            others = vectors[:i] + (tuple(changed),) + vectors[i + 1 :]
                            assert rows_hold(rows, moduli, others, p) == want, (g, degree2, p, i, c)
                            verdicts[p].add(want)
    assert verdicts == {0: {True, False}, 2: {True, False}, 3: {True, False}}


@pytest.mark.parametrize(
    "g, degree2, p",
    [
        (flag_manifold(3), 4, 0),
        (cube_graph(((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 2))), 4, 2),
    ],
    ids=["Fl4-Z-degree4", "Q4-content2-Z2-degree4"],
)
def test_graded_piece_does_not_depend_on_the_vertex_order(g, degree2, p):
    """Two seeded shuffles of the vertices and edges, with edges flipped at
    random: each piece's lattice vectors, mapped back to one vertex order
    by vertex name, span the same lattice, so ``LatticeBasis.from_vectors``
    gives equal ``vectors``, equal to those of the unshuffled graph."""
    n = num_monomials(g.torus_rank, degree2 // 2)
    width = len(g.vertices) * n
    spans = []
    for seed in (None, 5, 6):
        h = g
        if seed is not None:
            rng = random.Random(seed)
            names = list(g.vertices)
            rng.shuffle(names)
            edges = [
                (g.vertices[v], g.vertices[u], w) if rng.random() < 0.5 else (g.vertices[u], g.vertices[v], w)
                for u, v, w in g.edges
            ]
            rng.shuffle(edges)
            h = GkmGraph(g.torus_rank, names, edges)
        piece = compute_h_z(h, degree2) if p == 0 else compute_h_modp(h, degree2, p)
        block = {name: i for i, name in enumerate(h.vertices)}
        mapped = [
            [x for name in g.vertices for x in vec[block[name] * n : (block[name] + 1) * n]]
            for vec in piece.lattice.vectors
        ]
        spans.append(LatticeBasis.from_vectors(width, mapped, p).vectors)
    assert spans[0] == spans[1] == spans[2]
    assert len(spans[0]) > 0

def test_flag_manifold_fl5_degree_4_in_test_time():
    """Fl5 in degree 4: 1200 vertex columns, 3600 edge rows.  Rank 35 over
    Z and over F_2, the Poincare series 1 + 4t^2 + 9t^4 + ... tensored with
    Z[x_1..x_4] (10 + 4 * 4 + 9)."""
    g = flag_manifold(4)
    start = time.perf_counter()
    assert compute_h_z(g, 4).rank == 35
    assert compute_h_modp(g, 4, 2).rank == 35
    assert time.perf_counter() - start < 30  # the dense HNF took about 50 s


def test_projective_space_lattice_is_the_schubert_span():
    """On CP^4 in degrees 2 to 8 the integral lattice is exactly the
    S-span of the equivariant Schubert classes (not just of equal rank),
    and its RREF mod 2 and mod 3 is the mod-p basis."""
    g = projective_space(4)
    for d, rank in zip((1, 2, 3, 4), (6, 21, 56, 126)):
        span = projective_schubert_span(4, d)
        piece = compute_h_z(g, 2 * d)
        assert piece.rank == rank
        assert piece.lattice == LatticeBasis.from_vectors(len(span[0]), span)
        for p in (2, 3):
            basis = [cls.to_vector() for cls in compute_h_modp(g, 2 * d, p).basis]
            assert basis == modp_rref(span, p)


# ---------------------------------------------------------------------------
# integral lattice of the 8-edge square graph


def test_square_graph_integral_ranks():
    g = fixtures.paper8()
    ranks = [compute_h_z(g, d2).rank for d2 in (0, 2, 4, 6, 8)]
    assert ranks == [1, 2, 5, 8, 12]


def test_ranks_match_free_module_count():
    # rank agrees with a free module on generators of degrees 0, 4, 4, 8
    for d2 in range(0, 14, 2):
        expected = hilbert_rank_of_free(2, [0, 4, 4, 8], d2)
        assert compute_h_z(fixtures.paper8(), d2).rank == expected


def test_generators_are_integral_classes():
    g = fixtures.paper8()
    gens = fixtures.paper8_generators()
    for name in ("a1", "a2", "a3", "a4"):
        cls = gens[name]
        assert membership_z(g, cls), name
        lattice = compute_h_z(g, cls.degree2)
        coords = lattice.coordinates_of(cls)
        assert coords is not None
        rebuilt = GraphClass.zero(g, cls.degree2)
        for c, b in zip(coords, lattice.basis):
            rebuilt = rebuilt + b.scale(c)
        assert rebuilt == cls


def test_nonmember_rejected():
    g = fixtures.paper8()
    # x at one vertex alone: fails the congruence across the (0, 2) edge
    values = [poly(1, {(1, 0): 1}), poly(1, None), poly(1, None), poly(1, None)]
    cls = GraphClass(g, 2, values)
    assert not membership_z(g, cls)
    assert compute_h_z(g, 2).coordinates_of(cls) is None


def test_module_multiplication_stays_integral():
    g = fixtures.paper8()
    x_plus_y = poly(1, {(1, 0): 1, (0, 1): 1})
    for b in compute_h_z(g, 4).basis:
        shifted = b.module_mul(x_plus_y)
        assert shifted.degree2 == 6
        assert membership_z(g, shifted)


# ---------------------------------------------------------------------------
# the reduction map into vertex data + quotient data


def test_reduction_of_unit_class():
    g = fixtures.paper8()
    a1 = fixtures.paper8_generators()["a1"]
    got = reduce_class_mod_p(g, a1, 2)
    want = modp_class(g, 2, 0, [{(0, 0): 1}] * 4, {1: None, 5: None})
    assert got == want


def test_reduction_of_degree4_generators_mod_2():
    g = fixtures.paper8()
    gens = fixtures.paper8_generators()
    quad = {(2, 0): 1, (1, 1): 1}
    got2 = reduce_class_mod_p(g, gens["a2"], 2)
    assert got2 == modp_class(
        g, 2, 4, [quad, quad, None, None], {1: {(1, 0): 1}, 5: None}
    )
    got3 = reduce_class_mod_p(g, gens["a3"], 2)
    assert got3 == modp_class(
        g, 2, 4, [None] * 4, {1: {(1, 0): 1}, 5: {(1, 0): 1}}
    )


def test_reduction_of_degree8_generator_mod_2():
    g = fixtures.paper8()
    a4 = fixtures.paper8_generators()["a4"]
    got = reduce_class_mod_p(g, a4, 2)
    assert got == modp_class(
        g, 2, 8, [None] * 4, {1: {(3, 0): 1, (2, 1): 1}, 5: None}
    )


def test_reduction_mod_3_has_no_quotient_part():
    g = fixtures.paper8()
    gens = fixtures.paper8_generators()
    quad3 = {(2, 0): 1, (0, 2): 2}
    assert reduce_class_mod_p(g, gens["a2"], 3) == modp_class(
        g, 3, 4, [quad3, quad3, None, None]
    )
    assert reduce_class_mod_p(g, gens["a3"], 3) == modp_class(
        g, 3, 4, [None, {(1, 1): 2}, {(1, 1): 2}, None]
    )
    assert reduce_class_mod_p(g, gens["a4"], 3) == modp_class(
        g, 3, 8, [{(3, 1): 2, (1, 3): 1}, None, None, None]
    )


def test_reduction_lands_in_modp_lattice():
    # vertex part lands in the mod-p lattice; the quotient part lives in
    # the complementary summand, so a nonzero one puts the class outside
    g = fixtures.paper8()
    for name, cls in fixtures.paper8_generators().items():
        for p in (2, 3):
            img = reduce_class_mod_p(g, cls, p)
            assert membership_z(g, img), (name, p)
            lattice = compute_h_modp(g, cls.degree2, p)
            vertex_only = GraphClass(g, cls.degree2, img.values, p)
            assert lattice.coordinates_of(vertex_only) is not None, (name, p)
            if any(not f.is_zero() for f in img.b_part.values()):
                assert lattice.coordinates_of(img) is None, (name, p)


def test_reduction_is_additive_and_multiplicative():
    g = fixtures.paper8()
    gens = fixtures.paper8_generators()
    for p in (2, 3):
        psi = {k: reduce_class_mod_p(g, v, p) for k, v in gens.items()}
        total = reduce_class_mod_p(g, gens["a2"] + gens["a3"], p)
        assert total == psi["a2"] + psi["a3"]
        for na, nb in (("a2", "a3"), ("a2", "a2"), ("a1", "a4"), ("a3", "a3")):
            lhs = reduce_class_mod_p(g, gens[na] * gens[nb], p)
            assert lhs == psi[na] * psi[nb], (na, nb, p)


def test_reduction_ring_map_on_random_graphs():
    for g in random_gkm_graphs(47, 6):
        basis = compute_h_z(g, 2).basis
        if len(basis) < 2:
            continue
        a, b = basis[0], basis[1]
        pa = reduce_class_mod_p(g, a, 2)
        pb = reduce_class_mod_p(g, b, 2)
        assert reduce_class_mod_p(g, a + b, 2) == pa + pb
        assert reduce_class_mod_p(g, a * b, 2) == pa * pb


def test_reduction_images_stay_independent():
    # the images of an integral basis are linearly independent over F_p,
    # so the integral rank never exceeds the dimension of the target
    # vertex-data-plus-quotient-data space
    from helpers import modp_rank

    graphs = [fixtures.paper8(), fixtures.sphere((2, 0))]
    graphs += random_gkm_graphs(53, 8)
    for g in graphs:
        for d2 in (0, 2, 4):
            basis = compute_h_z(g, d2).basis
            for p in (2, 3):
                vecs = [reduce_class_mod_p(g, b, p).to_vector() for b in basis]
                span = modp_rank(vecs, p) if vecs else 0
                assert span == len(basis), (g, d2, p)


def test_vertex_data_alone_may_lose_rank():
    # with an even-content edge the reduction into pure vertex data has a
    # kernel: the quotient summand is what restores injectivity
    g = fixtures.sphere((2, 0))
    assert compute_h_z(g, 2).rank == 3
    assert compute_h_modp(g, 2, 2).rank == 2
    g2 = fixtures.paper8()
    assert compute_h_z(g2, 4).rank == 5
    assert compute_h_modp(g2, 4, 2).rank == 4


def test_no_special_edges_keeps_monotone_dimensions():
    for g in random_gkm_graphs(53, 8):
        for p in (2, 3):
            if edges_div_p(g, p):
                continue
            for d2 in (0, 2, 4):
                assert compute_h_z(g, d2).rank <= compute_h_modp(g, d2, p).rank


# ---------------------------------------------------------------------------
# one-edge graphs: rank count and the quotient generator


@pytest.mark.parametrize("w", [(1, 0), (2, 0), (3, 0)])
def test_one_edge_graph_ranks(w):
    g = fixtures.sphere(w)
    assert compute_h_z(g, 2).rank == 3  # N_1 + N_0
    assert compute_h_z(g, 4).rank == 5  # N_2 + N_1


@pytest.mark.parametrize("w,p", [((2, 0), 2), ((3, 0), 3)])
def test_one_edge_quotient_class(w, p):
    g = fixtures.sphere(w)
    lift = poly(1, {(1, 0): w[0], (0, 1): w[1]})
    cls = GraphClass(g, 2, [lift, poly(1, None)])
    assert membership_z(g, cls)
    img = reduce_class_mod_p(g, cls, p)
    # vertex part dies, the quotient across the edge survives as 1
    assert img == modp_class(g, p, 2, [None, None], {0: {(0, 0): 1}})
    assert not img.is_zero()


@pytest.mark.parametrize("w,p", [((2, 0), 2), ((3, 0), 3)])
def test_quotient_generator_squares_to_zero(w, p):
    g = fixtures.sphere(w)
    b = modp_class(g, p, 2, [None, None], {0: {(0, 0): 1}})
    assert (b * b).is_zero()


def test_mixed_square_keeps_cross_terms():
    g = fixtures.sphere((2, 0))
    f = modp_class(g, 2, 2, [{(0, 1): 1}] * 2, {0: {(0, 0): 1}})
    sq = f * f
    # (f, g)^2 = (f^2, 2fg) = (f^2, 0) mod 2
    assert sq == modp_class(g, 2, 4, [{(0, 2): 1}] * 2, {0: None})


# ---------------------------------------------------------------------------
# mod-p dimension versus integral rank


@pytest.mark.parametrize("p", [2, 3, 5])
def test_divisible_factor_grows_modp_dimension(p):
    g = fixtures.product((1, 0), (0, 1), (1, p))
    assert compute_h_z(g, 2).rank == 5
    assert compute_h_modp(g, 2, p).rank == 6


def test_no_special_edges_means_equal_dimensions():
    cases = [
        (fixtures.product((1, 0), (0, 1), (1, 1)), 3),
        (fixtures.product((1, 0), (0, 1), (1, 1)), 5),
        (fixtures.paper8(), 3),
    ]
    for g, p in cases:
        for d2 in (2, 4):
            assert compute_h_modp(g, d2, p).rank == compute_h_z(g, d2).rank


# ---------------------------------------------------------------------------
# integral preimages: the two solvers agree


def test_preimage_solvers_agree_on_square_graph():
    g = fixtures.paper8()
    sw = total_sw(g)
    for d2 in (2, 4, 6):
        target = sw.component(d2)
        a = integral_preimage(g, target)
        b = integral_preimage_elimination(g, target)
        assert (a is None) == (b is None), d2
        if d2 == 2:
            assert a is None
        else:
            assert a is not None
            assert reduce_class_mod_p(g, a, 2) == target
            assert reduce_class_mod_p(g, b, 2) == target


def test_preimage_solvers_agree_on_random_images():
    for i, g in enumerate(random_gkm_graphs(23, 8)):
        lattice = compute_h_z(g, 4)
        if not lattice.basis:
            continue
        src = lattice.basis[i % len(lattice.basis)]
        target = reduce_class_mod_p(g, src, 2)
        a = integral_preimage(g, target)
        b = integral_preimage_elimination(g, target)
        assert a is not None and b is not None
        assert reduce_class_mod_p(g, a, 2) == target
        assert reduce_class_mod_p(g, b, 2) == target


def test_preimage_solvers_agree_under_flipped_conventions():
    """Reversed orientation, negated lift and both, on every special edge.

    Over Z/3 the sign of a quotient matters, so each reduced class is also
    tried with its quotient at the flipped edge negated.
    """
    named = [
        fixtures.paper8(),
        fixtures.sphere((2, 0)),
        fixtures.product((1, 0), (0, 1), (2, 2)),
        fixtures.product((1, 0), (0, 1), (3, 3)),
    ]
    cases = []
    for i, g in enumerate(named + random_gkm_graphs(41, 3)):
        degrees = (2, 4) if i < 2 else (2,)
        for p in (2, 3):
            for e in edges_div_p(g, p):
                neg = {e: tuple(-c for c in g.label(e))}
                for conv in (
                    Conventions(frozenset([e])),
                    Conventions(frozenset(), neg),
                    Conventions(frozenset([e]), neg),
                ):
                    for d2 in degrees:
                        targets = [total_sw(g).component(d2)] if p == 2 else []
                        for cls in compute_h_z(g, d2).basis:
                            t = reduce_class_mod_p(g, cls, p, conv)
                            targets.append(t)
                            if p > 2 and not t.b_part[e].is_zero():
                                flipped = dict(t.b_part)
                                flipped[e] = flipped[e].scale(-1)
                                targets.append(GraphClass(g, d2, t.values, p, flipped))
                        cases += [(g, conv, t) for t in targets]
    found = 0
    for g, conv, target in cases:
        a = integral_preimage(g, target, conv)
        b = integral_preimage_elimination(g, target, conv)
        assert (a is None) == (b is None), (g, conv.to_dict(), target)
        for pre in (a, b):
            if pre is not None:
                assert reduce_class_mod_p(g, pre, target.p, conv) == target
        found += a is not None
    assert found and found < len(cases)


@pytest.mark.parametrize(
    "labels, p, top",
    [
        (((1, 0), (0, 1), (1, 1), (2, 4)), 2, 6),  # Q4
        (((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 2)), 2, 6),  # Q4k3
        (((1, 0), (0, 1), (3, 6)), 3, 6),  # a content-3 label over Z3
    ],
)
def test_reduction_images_from_lattice_vectors_equal_the_class_map(labels, p, top):
    """The preimage solve reads the reduction of each integral basis class
    off its lattice vector; it must equal the nonzero entries of
    ``reduce_class_mod_p`` followed by ``to_vector``, under the default
    conventions and overrides."""
    g = cube_graph(labels)
    special = edges_div_p(g, p)
    assert special
    flipped = {e: tuple(-c for c in g.label(e)) for e in special[1::2]}
    conventions = [
        DEFAULT_CONVENTIONS,
        Conventions(frozenset(special[::2])),
        Conventions(frozenset(), flipped),
        Conventions(frozenset(special), flipped),
    ]
    nonzero_quotients = 0
    for d2 in range(0, top + 1, 2):
        lattice = compute_h_z(g, d2)
        for conv in conventions:
            want = [reduce_class_mod_p(g, cls, p, conv).to_vector() for cls in lattice.basis]
            want = [{c: x for c, x in enumerate(vec) if x} for vec in want]
            assert _reduction_images(g, lattice, p, conv) == want, (labels, d2, conv)
            vertex_part = len(g.vertices) * num_monomials(g.torus_rank, d2 // 2)
            nonzero_quotients += sum(max(img, default=0) >= vertex_part for img in want)
    assert nonzero_quotients


def test_corrupted_preimage_raises_invariant_error(monkeypatch):
    """The preimage is re-reduced with ``reduce_class_mod_p``: a wrong
    solve is caught however the images were built."""
    g = cube_graph(((1, 0), (0, 1), (1, 1), (2, 4)))
    target = reduce_class_mod_p(g, compute_h_z(g, 4).basis[-1], 2)
    assert integral_preimage(g, target) is not None
    real = cohomology.modp_solve

    def corrupt(rows, b, p):
        x = real(rows, b, p)
        return [(x[0] + 1) % p] + list(x[1:])

    monkeypatch.setattr(cohomology, "modp_solve", corrupt)
    with pytest.raises(InvariantError, match="does not reduce to the target"):
        integral_preimage(g, target)


def test_dropped_results_leave_the_graph_to_reference_counting():
    # nothing kept on the graph refers back to it, so dropping the results
    # frees what they held without the cyclic collector
    g = fixtures.paper8()
    gc.collect()
    gc.disable()
    try:
        start = sys.getrefcount(g)
        lat = compute_h_z(g, 4)
        results = [lat, compute_h_modp(g, 4, 2), realizability_obstruction(g)]
        target = reduce_class_mod_p(g, lat.basis[0], 2)
        results.append(integral_preimage(g, target))
        assert sys.getrefcount(g) > start
        del lat, target, results
        assert sys.getrefcount(g) == start
    finally:
        gc.enable()


def test_a_piece_builds_its_classes_only_when_read(monkeypatch):
    # a piece is its lattice: rank and ring read the lattice, and
    # only ``basis`` (built anew on each read) or a found preimage make classes
    built = record_vertex_classes(monkeypatch)
    g = fixtures.paper8()
    pieces = [compute_h_z(g, 4), compute_h_modp(g, 4, 2), compute_h_z(g, 8)]
    assert [(lat.rank, lat.ring) for lat in pieces] == [(5, "Z"), (4, "Z_2"), (12, "Z")]
    assert built == []
    basis = pieces[1].basis
    assert len(basis) == 4 and built == list(basis)
    assert all(cls.p == 2 and cls.degree2 == 4 for cls in basis)
    assert pieces[1].basis == basis and len(built) == 8
    built.clear()
    report = pieces[0].to_report()
    assert len(built) == 5 and report["basis"] == [cls.render_values() for cls in built]
    built.clear()
    verdict = realizability_obstruction(g)
    found = [pre for _, pre in sorted(verdict.preimages.items()) if pre is not None]
    assert found and built == found


def test_basis_strings_are_pinned():
    g = fixtures.paper8()
    assert compute_h_z(g, 4).to_report()["basis"] == [
        ["x^2", "x^2", "-3*x*y - 2*y^2", "3*x*y - 2*y^2"],
        ["x*y", "x*y", "x*y", "x*y"],
        ["y^2", "y^2", "y^2", "y^2"],
        ["0", "2*x*y", "2*x*y", "0"],
        ["0", "0", "x^2 + 3*x*y + 2*y^2", "x^2 - 3*x*y + 2*y^2"],
    ]
    assert compute_h_modp(g, 4, 2).to_report()["basis"] == [
        ["x^2", "x^2", "x*y", "x*y"],
        ["x*y", "x*y", "x*y", "x*y"],
        ["y^2", "y^2", "y^2", "y^2"],
        ["0", "0", "x^2 + x*y", "x^2 + x*y"],
    ]


def test_preimage_none_for_fresh_quotient_generator():
    g = fixtures.sphere((2, 0))
    fresh = modp_class(g, 2, 2, [{(0, 1): 1}, None])  # violates the congruence...
    assert not membership_z(g, fresh)


# ---------------------------------------------------------------------------
# report plumbing


def test_lattice_report_shape():
    g = fixtures.paper8()
    rep_z = compute_h_z(g, 4).to_report()
    assert rep_z["ring"] == "Z"
    assert rep_z["degree"] == 4
    assert rep_z["rank"] == 5
    assert len(rep_z["basis"]) == 5
    rep_p = compute_h_modp(g, 4, 2).to_report()
    assert rep_p["ring"] == "Z_2"
    assert rep_p["b_part_labels"] == [1, 5]


def test_class_vector_round_trip():
    g = fixtures.paper8()
    a2 = fixtures.paper8_generators()["a2"]
    img = reduce_class_mod_p(g, a2, 2)
    vec = img.to_vector()
    assert all(0 <= c < 2 for c in vec)
    assert img.render_values()[0] == "x^2 + x*y"
    assert img.render_b_part() == {1: "x", 5: "0"}


def test_vertex_values_keep_zeros_of_the_right_degree():
    g = fixtures.paper8()
    k, n = g.torus_rank, len(g.vertices)
    right = GradedPoly.zero(k, 2)
    cls = GraphClass(g, 4, [right] + [GradedPoly.zero(k, 0)] * (n - 1))
    assert cls.values[0] is right
    assert all(f.degree == 2 and f.is_zero() for f in cls.values)
    modp = GraphClass(g, 4, [GradedPoly.zero(k, 5, 2)] * n, 2)
    assert [f.degree for f in modp.values] == [2] * n
    with pytest.raises(ValueError, match="has degree 1, expected 2"):
        GraphClass(g, 4, [GradedPoly.constant(k, 1) * GradedPoly(k, 1, [1, 0])] * n)

"""Shared oracles and graph generators for the test suite.

Oracles deliberately avoid the package's own machinery: the edge system
is rebuilt from its definition, ranks come from dense Gaussian elimination
over ``fractions.Fraction``, mod-p dimensions, kernels and divisibility
from a plain F_p elimination, and integral image membership from sympy's
Hermite normal form plus forward substitution.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd

from gkmcohom import DEFAULT_CONVENTIONS, GkmGraph, GradedPoly, GraphClass, find_connection, validate_gkm
from gkmcohom import membership_z, reduce_class_mod_p
from gkmcohom.intlinalg import IntMatrix, solve_with_image
from gkmcohom.polyring import content, sign_normalize, weights_parallel


# ---------------------------------------------------------------------------
# weights


def star_product_component(k: int, weights, d: int, p: int = 0) -> GradedPoly:
    """Degree-d part of the product of (1 + w) over the weights, from the
    definition: the sum over the d-subsets of the product of their linear
    forms, over Z (p = 0) or Z_p."""
    total = GradedPoly.zero(k, d, p)
    for subset in itertools.combinations(weights, d):
        term = GradedPoly.constant(k, 1, p)
        for w in subset:
            term = term * GradedPoly(k, 1, list(w), p)
        total = total + term
    return total


def is_multiple_of(v, w) -> bool:
    """True if v lies in Z*w: the definitional congruence test."""
    if not any(v):
        return True
    if not any(w):
        return False
    i = next(k for k, x in enumerate(w) if x != 0)
    if v[i] % w[i] != 0:
        return False
    t = v[i] // w[i]
    return all(x == t * y for x, y in zip(v, w))


# ---------------------------------------------------------------------------
# the edge system from its definition


def exponents(k: int, d: int) -> list[tuple[int, ...]]:
    """Exponent vectors of total degree d in k variables, in some fixed order."""
    if d < 0:
        return []
    return [e for e in itertools.product(range(d + 1), repeat=k) if sum(e) == d]


def edge_system_rows(g: GkmGraph, d: int) -> tuple[list[list[int]], list[list[int]]]:
    """Rows of [M | -D] and of D for f_a - f_b = label(e) * q_e in degree d.

    Unknowns: the degree-d coefficients of every vertex value, then the
    degree-(d-1) coefficients of one quotient per edge.  Row (e, mono)
    reads off the coefficient of the monomial ``mono`` on both sides.
    """
    k = g.torus_rank
    hi, lo = exponents(k, d), exponents(k, d - 1)
    nv, ne = len(g.vertices), len(g.edges)
    stacked, divisor = [], []
    for e, (a, b, label) in enumerate(g.edges):
        for i, mono in enumerate(hi):
            vertex_part = [0] * (nv * len(hi))
            vertex_part[a * len(hi) + i] += 1
            vertex_part[b * len(hi) + i] -= 1
            quotient_part = [0] * (ne * len(lo))
            for j, low in enumerate(lo):
                for t in range(k):
                    if tuple(c + (s == t) for s, c in enumerate(low)) == mono:
                        quotient_part[e * len(lo) + j] += label[t]
            stacked.append(vertex_part + [-c for c in quotient_part])
            divisor.append(quotient_part)
    return stacked, divisor


def integral_preimage_elimination(g: GkmGraph, target, conventions=DEFAULT_CONVENTIONS):
    """An integral class reducing to the mod-p ``target``, or None.

    The edge system [M | -D] of ``edge_system_rows`` holds exactly; below
    it, selection rows pick every vertex coefficient and the signed
    quotient of every special edge, and must meet the target modulo p
    (p-scaled slack columns).  One integer elimination decides it, apart
    from the basis solve of ``gkmcohom.integral_preimage``; the answer must
    pass ``membership_z`` and reduce to the target.
    """
    p, d, k = target.p, target.degree2 // 2, g.torus_rank
    hi, lo = exponents(k, d), exponents(k, d - 1)
    nv = len(g.vertices)
    width = nv * len(hi) + len(g.edges) * len(lo)
    stacked, _ = edge_system_rows(g, d)
    select, wanted = [], []
    for v, f in enumerate(target.values):
        for i, mono in enumerate(hi):
            select.append([int(c == v * len(hi) + i) for c in range(width)])
            wanted.append(f.coefficient(mono))
    for e in sorted(target.b_part):
        # the system's quotient is (f_a - f_b) / label for the stored ends a, b;
        # the target's follows the conventions' orientation and lift
        oe = conventions.oriented(g, e)
        sign = 1 if g.initial(oe) == g.edges[e][0] else -1
        if conventions.lift(g, e) != g.label(e):
            sign = -sign
        for j, mono in enumerate(lo):
            select.append([sign * (c == nv * len(hi) + e * len(lo) + j) for c in range(width)])
            wanted.append(target.b_part[e].coefficient(mono))
    ns = len(select)
    slack = [[0] * ns for _ in stacked] + [[p * (i == j) for j in range(ns)] for i in range(ns)]
    system = IntMatrix(stacked + select, cols=width)
    solution = solve_with_image(system, IntMatrix(slack, cols=ns), [0] * len(stacked) + wanted)
    if solution is None:
        return None
    values = [
        GradedPoly.from_terms(k, d, {mono: solution[v * len(hi) + i] for i, mono in enumerate(hi)})
        for v in range(nv)
    ]
    out = GraphClass(g, target.degree2, values)
    assert membership_z(g, out), "elimination produced a non-class"
    assert reduce_class_mod_p(g, out, p, conventions) == target, "eliminated preimage does not reduce to the target"
    return out


def hilbert_rank_of_free(k: int, generator_degrees2, degree2: int) -> int:
    """Rank in one degree of a free module over Z[x_1..x_k] with the given
    generator degrees."""
    halves = [(degree2 - gd) // 2 for gd in generator_degrees2 if (degree2 - gd) % 2 == 0]
    return sum(len(exponents(k, h)) for h in halves)


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Product of two integer matrices given as row lists."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


# ---------------------------------------------------------------------------
# rank oracles

def rational_rank(rows: list[list[int]]) -> int:
    """Row count after Gaussian elimination with Fraction arithmetic."""
    m = [[Fraction(c) for c in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [c * inv for c in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def modp_rref(rows: list[list[int]], p: int) -> list[list[int]]:
    """Nonzero rows of the reduced row echelon form over F_p."""
    m = [[c % p for c in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [c * inv % p for c in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                factor = m[r][col]
                m[r] = [(a - factor * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
    return m[:rank]


def modp_rank(rows: list[list[int]], p: int) -> int:
    return len(modp_rref(rows, p))


def modp_kernel_basis(rows: list[list[int]], cols: int, p: int) -> list[list[int]]:
    """A basis of {x : rows * x = 0} over F_p, one vector per free column."""
    reduced = modp_rref(rows, p)
    pivots = [next(j for j, c in enumerate(row) if c) for row in reduced]
    basis = []
    for free in (j for j in range(cols) if j not in pivots):
        x = [0] * cols
        x[free] = 1
        for row, j in zip(reduced, pivots):
            x[j] = -row[free] % p
        basis.append(x)
    return basis


def divisible_mod_p(terms: dict, w, d: int, p: int) -> bool:
    """Whether the degree-d polynomial {exponents: coefficient} is the
    linear form of w times some degree-(d-1) polynomial over F_p.

    Solves w * q = target coefficient by coefficient: the target must not
    raise the F_p rank of the multiplication matrix.
    """
    k = len(w)
    hi, lo = exponents(k, d), exponents(k, d - 1)
    rows = []
    for mono in hi:
        row = [
            sum(w[t] for t in range(k) if tuple(c + (s == t) for s, c in enumerate(low)) == mono)
            for low in lo
        ]
        rows.append(row + [terms.get(mono, 0)])
    return modp_rank([r[:-1] for r in rows], p) == modp_rank(rows, p)


def fraction_det(rows: list[list[int]]) -> int:
    """Determinant by Gaussian elimination with Fraction arithmetic."""
    m = [[Fraction(c) for c in row] for row in rows]
    n = len(m)
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            result = -result
        result *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return int(result)


# ---------------------------------------------------------------------------
# integral image membership via sympy

def in_column_image(matrix_rows: list[list[int]], target: list[int]) -> bool:
    """Whether ``target`` is an integer combination of the matrix columns.

    Uses sympy's Hermite normal form of the column lattice, then forward
    substitution; fully independent of the package under test.
    """
    from sympy import Matrix
    from sympy.matrices.normalforms import hermite_normal_form

    rows = [row[:] for row in matrix_rows]
    if not rows or not rows[0]:
        return all(c == 0 for c in target)
    m = Matrix(rows)
    if all(c == 0 for c in target):
        return True
    nonzero_cols = [j for j in range(m.cols) if any(m[i, j] != 0 for i in range(m.rows))]
    if not nonzero_cols:
        return False
    h = hermite_normal_form(m[:, nonzero_cols])
    # sympy returns the column-style HNF: solve h * x = target bottom-up
    # on the pivot rows, requiring exact integer quotients.
    t = list(target)
    cols = list(range(h.cols))
    for j in reversed(cols):
        pivot_row = max(
            (i for i in range(h.rows) if h[i, j] != 0),
            default=None,
        )
        if pivot_row is None:
            continue
        if t[pivot_row] % h[pivot_row, j] != 0:
            return False
        q = t[pivot_row] // h[pivot_row, j]
        for i in range(h.rows):
            t[i] -= q * h[i, j]
    return all(c == 0 for c in t)


# ---------------------------------------------------------------------------
# random weights and unimodular twists

def random_weight(rng: random.Random, bound: int = 3) -> tuple[int, int]:
    while True:
        w = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        if w != (0, 0):
            return sign_normalize(w)


def label_of_content(rng: random.Random, k: int, m: int) -> tuple[int, ...]:
    """A weight of length k and content exactly m, entries of m * [-3, 3]."""
    while True:
        w0 = [rng.randint(-3, 3) for _ in range(k)]
        if content(w0) == 1:
            return tuple(m * x for x in w0)


def random_unimodular(rng: random.Random, steps: int = 4) -> list[list[int]]:
    m = [[1, 0], [0, 1]]
    for _ in range(steps):
        c = rng.choice((-2, -1, 1, 2))
        if rng.random() < 0.5:
            m[0] = [m[0][0] + c * m[1][0], m[0][1] + c * m[1][1]]
        else:
            m[1] = [m[1][0] + c * m[0][0], m[1][1] + c * m[0][1]]
        if rng.random() < 0.3:
            m[0], m[1] = m[1], m[0]
    return m


def twist_graph(g: GkmGraph, u: list[list[int]]) -> GkmGraph:
    """Apply a basis change of the weight space to every label."""

    def act(w):
        return (
            u[0][0] * w[0] + u[0][1] * w[1],
            u[1][0] * w[0] + u[1][1] * w[1],
        )

    edges = [(g.vertices[a], g.vertices[b], act(lab)) for a, b, lab in g.edges]
    return GkmGraph(g.torus_rank, list(g.vertices), edges)


# ---------------------------------------------------------------------------
# random GKM graphs (all k = 2)

def _cycle_doubled(rng: random.Random, n: int, bound: int) -> GkmGraph | None:
    """Even cycle with doubled edges, sides alternating between two label
    pairs (the 4-valent shape of the 8-edge fixture).

    The alternation makes the straight matchings compatible, so a
    connection always exists; unstructured random labels almost never
    admit one.
    """
    if n % 2:
        raise ValueError("need an even cycle")
    for _ in range(200):
        ws = []
        while len(ws) < 4:
            w = random_weight(rng, bound)
            if all(not weights_parallel(w, u) for u in ws):
                ws.append(w)
        if rng.random() < 0.4:
            i = rng.randrange(4)
            doubled = (2 * ws[i][0], 2 * ws[i][1])
            if max(abs(c) for c in doubled) <= bound:
                ws[i] = doubled
        names = [f"v{i}" for i in range(n)]
        edges = []
        for i in range(n):
            a, b = names[i], names[(i + 1) % n]
            pair = ws[:2] if i % 2 == 0 else ws[2:]
            edges.append((a, b, pair[0]))
            edges.append((a, b, pair[1]))
        g = GkmGraph(2, names, edges)
        if validate_gkm(g).ok:
            return g
    return None


def _product_graph(rng: random.Random, bound: int) -> GkmGraph:
    from gkmcohom import fixtures

    while True:
        ws = [random_weight(rng, bound) for _ in range(3)]
        try:
            return fixtures.product(*ws)
        except ValueError:
            continue


def _polygon_x_edge(rng: random.Random, bound: int) -> GkmGraph:
    from gkmcohom import fixtures

    while True:
        n = rng.choice((2, 3))
        wa = random_weight(rng, bound)
        wb = random_weight(rng, bound)
        wv = random_weight(rng, bound)
        try:
            return fixtures.polygon2n_x_edge(n, wa, wb, wv)
        except ValueError:
            continue


def random_gkm_graphs(
    seed: int,
    count: int,
    valences=(3, 4),
    bound: int = 3,
    require_connection: bool = True,
):
    """Seeded stream of valid GKM graphs with a connection.

    Mixes structured families (cubes, polygon prisms, doubled cycles),
    their unimodular twists, and rejection-sampled random labelings.
    """
    rng = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < count and attempts < count * 200:
        attempts += 1
        kind = rng.randrange(4)
        if kind == 0 and 3 in valences:
            g = _product_graph(rng, bound)
        elif kind == 1 and 3 in valences:
            g = _polygon_x_edge(rng, bound)
        elif kind == 2 and 4 in valences:
            g = _cycle_doubled(rng, rng.choice((4, 6)), bound)
        else:
            base = _product_graph(rng, bound) if 3 in valences else None
            if base is None:
                g = _cycle_doubled(rng, 4, bound)
            else:
                g = twist_graph(base, random_unimodular(rng))
        if g is None or not validate_gkm(g).ok:
            continue
        if any(abs(c) > bound for _, _, lab in g.edges for c in lab):
            continue  # twists may blow entries past the advertised bound
        if require_connection and find_connection(g) is None:
            continue
        out.append(g)
    if len(out) < count:
        raise RuntimeError(f"only generated {len(out)} of {count} graphs")
    return out


def scaled_labels_graph(g: GkmGraph, rng: random.Random) -> GkmGraph:
    """g with each label multiplied by 1, 2, 3, 5 or 6 (entries kept <= 10)."""
    factors = [1, 1, 1, 2, 2, 3, 5, 6]
    edges = []
    for u, v, label in g.edges:
        f = rng.choice(factors)
        scaled = tuple(f * c for c in label)
        if any(abs(c) > 10 for c in scaled):
            scaled = label
        edges.append((g.vertices[u], g.vertices[v], scaled))
    return GkmGraph(g.torus_rank, list(g.vertices), edges)


def random_3valent_orientable(seed: int, count: int, bound: int = 3):
    from gkmcohom import is_orientable

    rng = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < count and attempts < count * 200:
        attempts += 1
        if rng.random() < 0.5:
            g = _product_graph(rng, bound)
        else:
            g = _polygon_x_edge(rng, bound)
        if rng.random() < 0.4:
            g = twist_graph(g, random_unimodular(rng))
        if not validate_gkm(g).ok:
            continue
        c = find_connection(g)
        if c is None or not is_orientable(g, c):
            continue
        out.append(g)
    if len(out) < count:
        raise RuntimeError(f"only generated {len(out)} of {count} graphs")
    return out


def coprime_contents(g: GkmGraph) -> bool:
    """Direct restatement of the coprimality condition for cross-checks."""
    for v in range(len(g.vertices)):
        star = g.star(v)
        for i in range(len(star)):
            for j in range(i + 1, len(star)):
                if gcd(content(g.label(star[i].edge)), content(g.label(star[j].edge))) != 1:
                    return False
    return True

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
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

from gkmcohom import DEFAULT_CONVENTIONS, GkmGraph, GradedPoly, GraphClass, find_connection, validate_gkm
from gkmcohom import membership_z, reduce_class_mod_p
from gkmcohom.intlinalg import IntMatrix, solve_with_image
from gkmcohom.polyring import content, monomials, sign_normalize, var_names, weights_parallel


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


def mul_oracle(a: GradedPoly, b: GradedPoly) -> GradedPoly:
    """The product from its definition, monomial by monomial: each pair of
    terms adds ca * cb at the index of the summed exponent vector."""
    if a.k != b.k or a.p != b.p:
        raise ValueError("ring mismatch")
    if a.degree < 0 or b.degree < 0:
        return GradedPoly.zero(a.k, a.degree + b.degree, a.p)
    d = a.degree + b.degree
    idx = {m: i for i, m in enumerate(monomials(a.k, d))}
    out = [0] * len(idx)
    for ma, ca in zip(monomials(a.k, a.degree), a.coeffs):
        for mb, cb in zip(monomials(b.k, b.degree), b.coeffs):
            if ca and cb:
                out[idx[tuple(x + y for x, y in zip(ma, mb))]] += ca * cb
    return GradedPoly(a.k, d, out, a.p)


def render_oracle(f: GradedPoly) -> str:
    """``GradedPoly.render`` from its definition, monomial by monomial:
    the factors ``name`` or ``name^e``, the magnitude in front unless it
    is 1 on a non-constant monomial, signs between the terms."""
    names = var_names(f.k)
    parts: list[str] = []
    for exps, c in zip(monomials(f.k, f.degree), f.coeffs):
        if c == 0:
            continue
        factors = []
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(c)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


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


def dense_vectors(lat) -> tuple[tuple[int, ...], ...]:
    """The vectors of a ``LatticeBasis``, stored as sorted (column, value)
    pairs of their nonzero entries, as dense tuples of its width."""
    out = []
    for vec in lat.vectors:
        row = [0] * lat.ambient_dim
        for c, x in vec:
            row[c] = x
        out.append(tuple(row))
    return tuple(out)


def hnf_rows_full_width(h: list[list[int]], ncols: int) -> list[list[int]]:
    """The row Hermite normal form that ``intlinalg._hnf_rows`` computes,
    by the same euclidean column elimination, but with every row update
    over the full width of the rows: the reference that its updates from
    the pivot column on are tested against."""

    def addmul(target, source, factor):
        for c in range(len(target)):
            target[c] += factor * source[c]

    nrows = len(h)
    cur = 0
    for j in range(ncols):
        if cur >= nrows:
            break
        while True:
            piv = None
            for i in range(cur, nrows):
                x = h[i][j]
                if x != 0 and (piv is None or abs(x) < abs(h[piv][j])):
                    piv = i
                    if x == 1 or x == -1:
                        break
            if piv is None:
                break
            if piv != cur:
                h[cur], h[piv] = h[piv], h[cur]
            d = h[cur][j]
            finished = True
            for i in range(cur + 1, nrows):
                if h[i][j] != 0:
                    q = h[i][j] // d
                    if q:
                        addmul(h[i], h[cur], -q)
                    if h[i][j] != 0:
                        finished = False
            if finished:
                break
        if h[cur][j] != 0:
            if h[cur][j] < 0:
                h[cur] = [-x for x in h[cur]]
            d = h[cur][j]
            for i in range(cur):
                q = h[i][j] // d
                if q:
                    addmul(h[i], h[cur], -q)
            cur += 1
    return h


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


def random_unimodular(rng: random.Random, steps: int = 4, k: int = 2) -> list[list[int]]:
    """A k x k integer matrix of determinant +-1, k >= 2: ``steps``
    random row additions m[i] += c * m[j], c in {-2, -1, 1, 2}, each
    followed at random by a swap of the two rows.  Rank 2 draws no second
    row index, so its seeded stream is the one it has always had."""
    if k < 2:
        raise ValueError("need two rows to add")
    m = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(steps):
        c = rng.choice((-2, -1, 1, 2))
        i = int(rng.random() * k)
        j = (i + 1 + (int(rng.random() * (k - 1)) if k > 2 else 0)) % k
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        if rng.random() < 0.3:
            m[i], m[j] = m[j], m[i]
    return m


def twist_graph(g: GkmGraph, u: list[list[int]]) -> GkmGraph:
    """Apply a basis change of the weight space to every label: each
    label w becomes u w."""
    edges = [
        (g.vertices[a], g.vertices[b], tuple(sum(x * y for x, y in zip(row, lab)) for row in u))
        for a, b, lab in g.edges
    ]
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


def cube_graph(labels) -> GkmGraph:
    """Q_n: the product of n one-edge graphs, axis i labelled labels[i];
    vertex names are bit strings, bit i the coordinate on axis i."""
    n = len(labels)
    names = [format(i, f"0{n}b")[::-1] for i in range(2**n)]
    edges = [
        (names[i], names[i | (1 << axis)], w)
        for axis, w in enumerate(labels)
        for i in range(2**n)
        if not i & (1 << axis)
    ]
    return GkmGraph(len(labels[0]), names, edges)


def projective_space(n: int) -> GkmGraph:
    """CP^n: the complete graph on p_0..p_n, the edge p_i p_j labelled
    x_i - x_j, torus rank n + 1."""
    edges = []
    for i, j in itertools.combinations(range(n + 1), 2):
        label = [0] * (n + 1)
        label[i], label[j] = 1, -1
        edges.append((f"p{i}", f"p{j}", tuple(label)))
    return GkmGraph(n + 1, [f"p{i}" for i in range(n + 1)], edges)


def flag_manifold(n: int) -> GkmGraph:
    """Fl_n: the Cayley graph of S_{n+1} by transpositions, torus rank n.

    The edge w -- w(i j) carries e_{w(i)} - e_{w(j)}, written in simple
    roots: e_a - e_b = alpha_a + ... + alpha_{b-1} for a < b.
    """
    perms = list(itertools.permutations(range(n + 1)))
    name = {w: "".join(map(str, w)) for w in perms}
    edges = []
    for w in perms:
        for i, j in itertools.combinations(range(n + 1), 2):
            x = list(w)
            x[i], x[j] = x[j], x[i]
            x = tuple(x)
            if w < x:
                a, b = sorted((w[i], w[j]))
                edges.append((name[w], name[x], tuple(1 if a <= t < b else 0 for t in range(n))))
    return GkmGraph(n, [name[w] for w in perms], edges)


def shuffled_graph(g: GkmGraph, seed: int) -> GkmGraph:
    """g with its vertices and edges in a seeded random order and each
    edge's endpoints swapped with probability 1/2."""
    rng = random.Random(seed)
    names = list(g.vertices)
    rng.shuffle(names)
    edges = [
        (g.vertices[v], g.vertices[u], w) if rng.random() < 0.5 else (g.vertices[u], g.vertices[v], w)
        for u, v, w in g.edges
    ]
    rng.shuffle(edges)
    return GkmGraph(g.torus_rank, names, edges)


def projective_schubert_span(n: int, d: int) -> list[list[int]]:
    """Vertex vectors spanning degree 2d of CP^n over Z, in the package's
    monomial order: every degree-(d - i) monomial times the equivariant
    Schubert class tau_i, which is prod_{l < i} (x_l - x_j) at p_j for
    j >= i and zero at p_j for j < i."""
    k = n + 1
    zero = [0] * len(monomials(k, d))
    vectors = []
    for i in range(min(d, n) + 1):
        tau = {}
        for j in range(i, k):
            value = GradedPoly.constant(k, 1)
            for l in range(i):
                root = [0] * k
                root[l], root[j] = 1, -1
                value = value * GradedPoly(k, 1, root)
            tau[j] = value
        for mono in monomials(k, d - i):
            m = GradedPoly.from_terms(k, d - i, {mono: 1})
            vectors.append([c for j in range(k) for c in ((tau[j] * m).coeffs if j in tau else zero)])
    return vectors


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


def random_prisms_with_few_connections(seed: int, count: int, bound: int = 3):
    """Seeded orientable triangle and square prisms with random vertical
    labels and 2 to 8 compatible connections.

    The families of ``random_3valent_orientable`` repeat every label on
    at least four edges with the same neighbourhood, so their connection
    counts are 1 or at least 16; random verticals break that symmetry.
    """
    from gkmcohom import enumerate_connections, fixtures, is_orientable

    rng = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < count and attempts < count * 2000:
        attempts += 1
        base = fixtures.triangle_x_edge() if rng.random() < 0.5 else fixtures.polygon2n_x_edge(2)
        layers = len(base.edges) - len(base.vertices) // 2
        edges = [
            (base.vertices[u], base.vertices[v], lab if pos < layers else random_weight(rng, bound))
            for pos, (u, v, lab) in enumerate(base.edges)
        ]
        g = GkmGraph(2, list(base.vertices), edges)
        if not validate_gkm(g).ok:
            continue
        c = find_connection(g)
        if c is None or not is_orientable(g, c):
            continue
        if 2 <= sum(1 for _ in itertools.islice(enumerate_connections(g), 9)) <= 8:
            out.append(g)
    if len(out) < count:
        raise RuntimeError(f"only generated {len(out)} of {count} graphs")
    return out


def verify_sw3valent_oracle(g: GkmGraph) -> dict:
    """The report of ``verify_sw3valent(g)`` from whole classes, with no
    count taken first: the first nine connections are assembled as
    ``enumerate_connections`` yields them, the report describes the first,
    and its match flags cover all of them when there are at most eight."""
    from gkmcohom import (
        connection_paths,
        enumerate_connections,
        thom_class_of_edge,
        thom_class_of_path,
        thom_class_of_vertex,
        total_sw,
    )

    def total(classes):
        out = classes[0]
        for cls in classes[1:]:
            out = out + cls
        return out

    vertex_sum = total([thom_class_of_vertex(g, v) for v in range(len(g.vertices))])
    connections = list(itertools.islice(enumerate_connections(g), 9))
    reports = []
    for c in connections if len(connections) <= 8 else connections[:1]:
        sw = total_sw(g, c)
        paths = connection_paths(g, c)
        sums = {
            2: total([thom_class_of_path(g, c, p) for p in paths]),
            4: total([thom_class_of_edge(g, c, e) for e in range(len(g.edges))]),
            6: vertex_sum,
        }
        reports.append({
            "paths": [p.render() for p in paths],
            "path_count": len(paths),
            "self_reversed_paths": sum(1 for p in paths if _is_own_reversal(p.edges)),
            "connections_checked": len(connections) if len(connections) <= 8 else 1,
            **{
                f"degree{d}_match": reduce_class_mod_p(g, cls, 2) == sw.component(d)
                for d, cls in sums.items()
            },
            "sums": {str(d): cls.render_values() for d, cls in sums.items()},
        })
    report = reports[0]
    for key in ("degree2_match", "degree4_match", "degree6_match"):
        report[key] = all(r[key] for r in reports)
    report["all_match"] = all(report[f"degree{d}_match"] for d in (2, 4, 6))
    return report


def _is_own_reversal(edges: tuple) -> bool:
    """Whether the reversed closed path is a rotation of the path."""
    back = tuple(e.reverse() for e in reversed(edges))
    return any(back == edges[s:] + edges[:s] for s in range(len(edges)))


def validate_gkm_oracle(g: GkmGraph) -> list[str]:
    """The issues of ``validate_gkm``, every pair of every star tested."""
    vals = g.valences()
    issues = [f"valence not constant: {sorted(set(vals))}"] if len(set(vals)) != 1 else []
    for v in range(len(g.vertices)):
        star = g.star(v)
        for i, j in itertools.combinations(range(len(star)), 2):
            if weights_parallel(g.label(star[i].edge), g.label(star[j].edge)):
                issues.append(
                    f"vertex {g.vertices[v]!r}: labels of edges "
                    f"{star[i].edge} and {star[j].edge} are parallel"
                )
    return issues


def coprimality_oracle(g: GkmGraph) -> list[str]:
    """The issues of ``check_coprimality``, every pair of every star tested."""
    issues = []
    for v in range(len(g.vertices)):
        star = g.star(v)
        for i, j in itertools.combinations(range(len(star)), 2):
            ci, cj = content(g.label(star[i].edge)), content(g.label(star[j].edge))
            if gcd(ci, cj) != 1:
                issues.append(
                    f"vertex {g.vertices[v]!r}: contents of edges "
                    f"{star[i].edge} ({ci}) and {star[j].edge} ({cj}) share a factor"
                )
    return issues


# ---------------------------------------------------------------------------
# traffic


def dropping_a_term(substitution):
    """``polyring.linear_substitution`` with the first term of its first
    column of more than one term dropped: a corrupted map-back."""

    def dropped(rows, d):
        cols = substitution(rows, d)
        c = next((c for c, col in enumerate(cols) if len(col) > 1), None)
        return cols if c is None else cols[:c] + (cols[c][1:],) + cols[c + 1 :]

    return dropped


def record_vertex_classes(monkeypatch) -> list:
    """Wrap ``cohomology._vertex_class``, the builder of basis and preimage
    classes; returns the list every class it builds is appended to."""
    from gkmcohom import cohomology

    built = []
    real = cohomology._vertex_class

    def wrapped(g, degree2, vec, p):
        cls = real(g, degree2, vec, p)
        built.append(cls)
        return cls

    monkeypatch.setattr(cohomology, "_vertex_class", wrapped)
    return built


def record_kernel_primes(monkeypatch) -> list:
    """Wrap ``cohomology.sparse_kernel``; returns the list the prime of
    every solve is appended to (0 for a solve over Z)."""
    from gkmcohom import cohomology

    primes = []
    real = cohomology.sparse_kernel

    def wrapped(rows, moduli, ncols, p=0):
        primes.append(p)
        return real(rows, moduli, ncols, p)

    monkeypatch.setattr(cohomology, "sparse_kernel", wrapped)
    return primes


@contextmanager
def recursion_headroom(frames: int):
    """Lower the recursion limit to the current stack depth plus
    ``frames`` for the block, and restore it after."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)

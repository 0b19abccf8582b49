"""Integer and mod-p linear algebra against independent oracles."""

from __future__ import annotations

import itertools
import random

import pytest

from gkmcohom import intlinalg
from gkmcohom.intlinalg import (
    PRIME_BOUND,
    _eliminate,
    _hnf_rows,
    IntMatrix,
    LatticeBasis,
    hnf,
    is_prime,
    kernel,
    kernel_into_cokernel,
    modp_solve,
    solve_with_image,
    sparse_kernel,
)

from helpers import (
    fraction_det,
    hnf_rows_full_width,
    in_column_image,
    matmul,
    modp_kernel_basis,
    modp_rank,
    modp_rref,
    rational_rank,
)


def random_matrix(rng: random.Random, rows: int, cols: int, bound: int = 4) -> IntMatrix:
    return IntMatrix(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


def test_hnf_row_updates_from_the_pivot_column_equal_full_width_updates():
    """``_hnf_rows`` starts each row update at the pivot column, left of
    which every row it updates is already zero: on random matrices, dense
    and sparse, tall and wide, of full and of low rank, with ride-along
    columns after the pivoting ones and through the transform columns of
    ``hnf``, the result equals that of the full-width reference."""
    rng = random.Random(83)
    for _ in range(300):
        nrows, ncols, extra = rng.randint(1, 9), rng.randint(1, 9), rng.randint(0, 3)
        bound, density = rng.choice((1, 4, 30)), rng.choice((0.3, 0.7, 1.0))
        data = [
            [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(ncols + extra)]
            for _ in range(nrows)
        ]
        if rng.random() < 0.3:  # a row that repeats another, scaled
            data.append([3 * x for x in rng.choice(data)])
        assert _hnf_rows([list(r) for r in data], ncols) == hnf_rows_full_width(
            [list(r) for r in data], ncols
        )
        m = IntMatrix([row[:ncols] for row in data], cols=ncols)
        h, u = hnf(m)
        want = hnf_rows_full_width(
            [row + [int(i == r) for i in range(m.rows)] for r, row in enumerate(m.data)], ncols
        )
        assert h.data == [row[:ncols] for row in want]
        assert u.data == [row[ncols:] for row in want]


def test_hnf_reproduces_matrix_and_staircase():
    rng = random.Random(5)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        h, u = hnf(m)
        assert abs(fraction_det(u.data)) == 1
        assert matmul(u.data, m.data) == h.data
        # pivot columns strictly increase and pivots are positive
        last = -1
        for row in h.data:
            nz = [j for j, c in enumerate(row) if c]
            if not nz:
                continue
            assert nz[0] > last
            assert row[nz[0]] > 0
            last = nz[0]
        nonzero_rows = [tuple(row) for row in h.data if any(row)]
        assert len(nonzero_rows) == rational_rank(m.data)
        # the transform-free echelon of from_vectors is the same HNF
        assert LatticeBasis.from_vectors(m.cols, m.data).vectors == tuple(nonzero_rows)


def test_kernel_annihilates_and_is_complete():
    rng = random.Random(9)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), bound=2)
        lat = kernel(m)
        for vec in lat.vectors:
            assert all(
                sum(r * x for r, x in zip(row, vec)) == 0 for row in m.data
            )
        assert len(lat.vectors) == m.cols - rational_rank(m.data)
        # every small integer kernel vector must lie in the lattice
        for x in itertools.product(range(-2, 3), repeat=m.cols):
            if all(sum(r * c for r, c in zip(row, x)) == 0 for row in m.data):
                assert lat.coordinates_of(list(x)) is not None


def test_kernel_into_cokernel_brute_force():
    rng = random.Random(10)
    for _ in range(20):
        n = rng.randint(1, 3)
        rows = rng.randint(1, 3)
        m = random_matrix(rng, rows, n, bound=3)
        d = random_matrix(rng, rows, rng.randint(1, 3), bound=3)
        lat = kernel_into_cokernel(m, d)
        for x in itertools.product(range(-5, 6), repeat=n):
            mx = [sum(r * c for r, c in zip(row, x)) for row in m.data]
            expected = in_column_image([row[:] for row in d.data], mx)
            got = lat.coordinates_of(list(x)) is not None
            assert expected == got, (m.data, d.data, x)


def test_kernel_into_cokernel_equals_the_hnf_of_the_projection():
    """Cutting the joint HNF gives what a fresh HNF of the projected kernel
    gives, for general (not diagonal) d, whose own kernel gives joint rows
    with a zero first block."""
    rng = random.Random(12)
    for _ in range(200):
        rows = rng.randint(1, 4)
        m = random_matrix(rng, rows, rng.randint(1, 5), bound=4)
        d = random_matrix(rng, rows, rng.randint(1, 5), bound=4)
        joint = kernel(m.hstack(d.neg()))
        want = LatticeBasis.from_vectors(m.cols, [v[: m.cols] for v in joint.vectors])
        assert kernel_into_cokernel(m, d) == want, (m.data, d.data)


def dense_oracle(rows: list[dict], moduli: list[int], ncols: int) -> LatticeBasis:
    """``kernel_into_cokernel`` of the sparse rows, one slack column per
    row of modulus > 1 (a modulus of 1 constrains nothing)."""
    m = IntMatrix([[row.get(c, 0) for c in range(ncols)] for row in rows], cols=ncols)
    slack = [i for i, mod in enumerate(moduli) if mod]
    d = IntMatrix([[moduli[i] if i == j else 0 for j in slack] for i in range(len(rows))], cols=len(slack))
    return kernel_into_cokernel(m, d)


def test_sparse_kernel_lifts_the_dense_kernel_of_the_leftover_rows():
    """Rows 0, 2 and 3 have no +-1 entry, not even after the one unit
    pivot (x3 from row 1) is substituted, so they go to the dense kernel,
    slack column included, and the result comes back through row 1."""
    rows = [{0: 2, 1: 3}, {1: 2, 2: 3, 3: 1}, {2: 2, 4: 3}, {0: 3, 3: 2, 4: 2}]
    moduli = [0, 0, 5, 0]
    with_slack = [{**r, **({5: -5} if i == 2 else {})} for i, r in enumerate(rows)]
    pivots, leftover, divided = _eliminate(with_slack, 5)
    assert [c for c, _, _ in pivots] == [3]
    assert leftover == [{0: 2, 1: 3}, {2: 2, 4: 3, 5: -5}, {0: 3, 1: -4, 2: -6, 4: 2}]
    assert not divided
    lat, clean = sparse_kernel(rows, moduli, 5)
    assert not clean
    assert lat.rank == 2
    assert lat == dense_oracle(rows, moduli, 5)
    members = 0
    for a, b, c in itertools.product(range(-6, 7), repeat=3):
        # every integer solution of rows 0 and 1; rows 2 and 3 decide
        vec = [-3 * a, 2 * a, b, -(4 * a + 3 * b), c]
        ok = (2 * b + 3 * c) % 5 == 0 and 3 * vec[0] + 2 * vec[3] + 2 * c == 0
        assert (lat.coordinates_of(vec) is not None) == ok, vec
        members += ok
    assert members == 3
    # an entry outside the first ncols columns, over Z and over F_2, and a
    # modulus other than 0 or 1 over F_3
    for bad, bad_moduli, p in (([{5: 1}], [0], 0), ([{5: 1}], [0], 2), ([{0: 1}], [2], 3)):
        with pytest.raises(ValueError):
            sparse_kernel(bad, bad_moduli, 5, p)


def kernel_calls(monkeypatch) -> list:
    """Record the shape of every matrix given to the dense ``kernel``."""
    calls = []
    dense = intlinalg.kernel

    def recorded(m):
        calls.append((m.rows, m.cols))
        return dense(m)

    monkeypatch.setattr(intlinalg, "kernel", recorded)
    return calls


def test_sparse_kernel_pivots_on_the_content_divided_leftover(monkeypatch):
    """Rows left without a +-1 entry are divided by their content and
    pivot again, on any column below the bound, slack columns included,
    and never reach the dense ``kernel``: leftover rows on slack columns
    only (x0 + x1 and x1 + x2 even, each twice), a modulus-0 row of
    content 2, and a modulus-4 row whose x part is divisible by 4, which
    constrains nothing."""
    calls = kernel_calls(monkeypatch)
    rows = [{0: 1, 1: 1}, {0: 1, 1: 1}, {1: 1, 2: 1}, {2: 1, 1: 1}]
    with_slack = [{**row, 3 + i: -2} for i, row in enumerate(rows)]
    # with the slack columns above the bound the divided rows stay left
    _, leftover, divided = _eliminate([dict(row) for row in with_slack], 3)
    assert leftover == [{3: 1, 4: -1}, {5: 1, 6: -1}] and divided
    pivots, leftover, divided = _eliminate(with_slack, 7)
    assert [c for c, _, _ in pivots] == [1, 2, 4, 6] and leftover == [] and divided
    cases = [(rows, [2, 2, 2, 2], 3), ([{0: 2, 1: 4}], [0], 2), ([{0: 4, 1: 8}], [4], 2)]
    for rows, moduli, ncols in cases:
        want = dense_oracle(rows, moduli, ncols)
        calls.clear()
        assert sparse_kernel(rows, moduli, ncols) == (want, False), (rows, moduli)
        assert calls == [], (rows, moduli)
    assert want == LatticeBasis(2, ((1, 0), (0, 1)))


def test_sparse_kernel_keeps_the_dense_path_for_leftover_without_a_unit(monkeypatch):
    """Rows of content 2 with no slack column and no +-1 entry, even once
    divided by their content (as on Fl4 in a skewed basis), still go to
    the dense ``kernel`` on the columns they meet."""
    calls = kernel_calls(monkeypatch)
    rows, moduli = [{0: 4, 1: 6}, {1: 6, 2: 10}], [0, 0]
    want = dense_oracle(rows, moduli, 3)
    calls.clear()
    assert sparse_kernel(rows, moduli, 3) == (want, False)
    assert calls == [(2, 3)]


def test_sparse_kernel_equals_the_dense_oracle_on_random_systems(monkeypatch):
    """Random sparse rows with entries in +-1..+-3 and moduli 0, 1, 2, 3,
    4, 6 (slack columns), so units appear, vanish and reappear under the
    substitutions, and rows left over often become unit rows once divided
    by their content; over F_p against the oracle RREF of the kernel,
    with the rows of modulus 1 dropped and a row that vanishes mod p and
    a duplicate row added.  The F_p result is its own canonical form, and
    the rows are left as they are.  Both paths past the unit pivots are
    taken often: a pivot on a slack column, whose entries stay multiples
    of the modulus until the row is divided by its content, and leftover
    rows that reach the dense ``kernel``."""
    rng = random.Random(14)
    divided_pivot_seen = dense_seen = 0
    calls = kernel_calls(monkeypatch)
    pivot_columns = []
    eliminate = intlinalg._eliminate

    def recorded(rows, ncols):
        result = eliminate(rows, ncols)
        pivot_columns.extend(c for c, _, _ in result[0])
        return result

    monkeypatch.setattr(intlinalg, "_eliminate", recorded)
    for p in (2, 3, 101):
        assert sparse_kernel([{}, {}], [0, 1], 0, p) == (LatticeBasis(0, (), p), False)
    for _ in range(300):
        ncols = rng.randint(1, 6)
        rows = []
        for _ in range(rng.randint(1, 6)):
            cols = rng.sample(range(ncols), rng.randint(1, min(3, ncols)))
            rows.append({c: rng.choice((-3, -2, -1, 1, 2, 3)) for c in cols})
        moduli = [rng.choice((0, 0, 0, 1, 2, 3, 4, 6)) for _ in rows]
        pivot_columns.clear()
        calls.clear()
        lat, _ = sparse_kernel(rows, moduli, ncols)
        dense_seen += bool(calls)  # before the oracle, which calls kernel too
        divided_pivot_seen += any(c >= ncols for c in pivot_columns)
        assert lat == dense_oracle(rows, moduli, ncols), (rows, moduli)
        for p in (2, 3, 5, 7, 101):
            fp_rows = rows + [{c: p * v for c, v in rows[0].items()}, dict(rng.choice(rows))]
            fp_moduli = [int(m == 1) for m in moduli] + [0, 0]
            given = [dict(r) for r in fp_rows]
            kept = [[r.get(c, 0) for c in range(ncols)] for r, m in zip(fp_rows, fp_moduli) if not m]
            want = modp_rref(modp_kernel_basis(kept, ncols, p), p)
            lat, _ = sparse_kernel(given, fp_moduli, ncols, p)
            assert given == fp_rows, "the input rows are left as they are"
            assert lat.vectors == tuple(map(tuple, want)), (fp_rows, fp_moduli, p)
            assert lat == LatticeBasis.from_vectors(ncols, list(lat.vectors), p)
    assert dense_seen > 50, dense_seen
    assert divided_pivot_seen > 100, divided_pivot_seen


def test_a_clean_integral_kernel_reduces_to_every_fp_kernel():
    """Random sparse rows with entries in +-1..+-3 and moduli 0, 1 and 2:
    a solve is clean only with no modulus above 1, and then the integral
    kernel reduced mod p is the F_p kernel of the same rows for p = 2, 3,
    5, 7.  Unclean solves, by content division or rows left for the dense
    ``kernel``, are common, and their reductions are often too small."""
    rng = random.Random(29)
    clean_seen = too_small = 0
    for _ in range(400):
        ncols = rng.randint(1, 6)
        rows = []
        for _ in range(rng.randint(1, 6)):
            cols = rng.sample(range(ncols), rng.randint(1, min(3, ncols)))
            rows.append({c: rng.choice((-3, -2, -1, 1, 2, 3)) for c in cols})
        moduli = [rng.choice((0, 0, 0, 0, 1, 2)) for _ in rows]
        lat, clean = sparse_kernel(rows, moduli, ncols)
        assert not (clean and any(m > 1 for m in moduli)), (rows, moduli)
        clean_seen += clean
        for p in (2, 3, 5, 7):
            if any(m > 1 for m in moduli):
                continue
            want, _ = sparse_kernel(rows, moduli, ncols, p)
            reduced = LatticeBasis.from_vectors(ncols, list(lat.vectors), p)
            if clean:
                assert reduced == want, (rows, moduli, p)
            too_small += reduced.rank < want.rank
    assert clean_seen > 60 and too_small > 100, (clean_seen, too_small)


def test_sparse_kernel_over_fp_is_one_echelon(monkeypatch):
    """Over F_p the kernel is read off one ``_fp_echelon``: the Z
    elimination, its lift and the canonical ``from_vectors`` pass are
    never called, and the answer is the oracle's."""

    def forbidden(*args, **kwargs):
        raise AssertionError("not an F_p stage")

    calls = []
    echelon = intlinalg._fp_echelon

    def counted(*args, **kwargs):
        calls.append(args)
        return echelon(*args, **kwargs)

    rows = [{0: 1, 2: 4, 3: 2}, {1: 3, 3: 1}, {0: 2, 1: 1, 2: 3, 3: 5}]
    dense = [[row.get(c, 0) for c in range(5)] for row in rows]
    monkeypatch.setattr(intlinalg, "_eliminate", forbidden)
    monkeypatch.setattr(intlinalg, "_lift", forbidden)
    monkeypatch.setattr(intlinalg.LatticeBasis, "from_vectors", forbidden)
    monkeypatch.setattr(intlinalg, "_fp_echelon", counted)
    for p in (2, 3, 5, 7):
        calls.clear()
        got, clean = sparse_kernel(rows, [0, 0, 0], 5, p)
        assert len(calls) == 1 and not clean, p
        assert got.vectors == tuple(map(tuple, modp_rref(modp_kernel_basis(dense, 5, p), p))), p


def test_solve_with_image_round_trip():
    rng = random.Random(11)
    for _ in range(25):
        rows = rng.randint(1, 4)
        m = random_matrix(rng, rows, rng.randint(1, 4), bound=3)
        d = random_matrix(rng, rows, rng.randint(1, 3), bound=3)
        x = [rng.randint(-3, 3) for _ in range(m.cols)]
        y = [rng.randint(-3, 3) for _ in range(d.cols)]
        target = [
            sum(r * c for r, c in zip(row_m, x)) + sum(r * c for r, c in zip(row_d, y))
            for row_m, row_d in zip(m.data, d.data)
        ]
        sol = solve_with_image(m, d, target)
        assert sol is not None
        residual = [
            t - sum(r * c for r, c in zip(row, sol)) for t, row in zip(target, m.data)
        ]
        d_rows = [list(row) for row in d.data]
        assert in_column_image(d_rows, residual)


def test_solve_with_image_detects_unsolvable():
    m = IntMatrix([[2, 0], [0, 2]], cols=2)
    d = IntMatrix([[4], [0]], cols=1)
    assert solve_with_image(m, d, [1, 0]) is None
    sol = solve_with_image(m, d, [2, 2])
    assert sol is not None
    residual = [2 - 2 * sol[0], 2 - 2 * sol[1]]
    assert residual[1] == 0 and residual[0] % 4 == 0


def test_modp_helpers_against_gauss_oracle():
    """``modp_rref`` (rows and pivots) and ``LatticeBasis.from_vectors``
    over F_p equal the dense oracle row for row, on rows with negative
    and unreduced entries, zero and duplicate rows, and more columns than
    rows; the sparse kernel has the oracle's RREF and the nullity."""
    rng = random.Random(12)
    assert intlinalg.modp_rref([], 3) == ([], [])
    seen = {"zero": 0, "duplicate": 0, "wide": 0}
    for p in (2, 3, 5, 7):
        for _ in range(40):
            width = rng.randint(1, 7)
            rows = [
                [rng.randint(-2 * p, 2 * p) for _ in range(width)]
                for _ in range(rng.randint(1, 5))
            ]
            if rng.random() < 0.3:
                rows.insert(rng.randint(0, len(rows)), [0] * width)
            if rng.random() < 0.3:
                rows.insert(rng.randint(0, len(rows)), list(rng.choice(rows)))
            seen["zero"] += not all(any(r) for r in rows)
            seen["duplicate"] += len(set(map(tuple, rows))) < len(rows)
            seen["wide"] += width > len(rows)
            given = [r[:] for r in rows]
            want = modp_rref(rows, p)
            got, pivots = intlinalg.modp_rref(given, p)
            assert given == rows, "the input rows are left as they are"
            assert got == want, (rows, p)
            assert pivots == [next(j for j, x in enumerate(r) if x) for r in want]
            assert LatticeBasis.from_vectors(width, rows, p).vectors == tuple(map(tuple, want))
            sparse = [{j: x for j, x in enumerate(r) if x} for r in rows]
            km = sparse_kernel(sparse, [0] * len(sparse), width, p)[0].vectors
            assert len(km) == width - len(pivots)
            assert km == tuple(map(tuple, modp_rref(modp_kernel_basis(rows, width, p), p)))
    assert min(seen.values()) > 20, seen


def test_modp_solve_consistency():
    """A combination of the images is found again up to the span, and the
    coordinates in an RREF basis are the solve on the basis vectors."""
    rng = random.Random(13)
    for p in (2, 5):
        for _ in range(20):
            n, m_ = rng.randint(1, 4), rng.randint(1, 4)
            rows = [[rng.randint(0, p - 1) for _ in range(n)] for _ in range(m_)]
            images = [{j: x for j, x in enumerate(row) if x} for row in rows]
            x = [rng.randint(0, p - 1) for _ in range(m_)]
            target = [sum(c * row[j] for c, row in zip(x, rows)) % p for j in range(n)]
            sol = modp_solve(images, target, p)
            assert sol is not None and len(sol) == m_
            got = [sum(c * row[j] for c, row in zip(sol, rows)) % p for j in range(n)]
            assert got == target
            # coordinates in the RREF basis of the row span, for one vector
            # inside the span (entries not reduced mod p) and one random
            # vector, against modp_solve on the basis vectors
            basis = LatticeBasis.from_vectors(n, rows, p)
            vectors = [{j: c for j, c in enumerate(vec) if c} for vec in basis.vectors]
            inside = [sum(c * row[j] for c, row in zip(x, rows)) for j in range(n)]
            for v in (inside, [rng.randint(0, p - 1) for _ in range(n)]):
                assert basis.coordinates_of(v) == modp_solve(vectors, v, p), (rows, v)
            assert basis.coordinates_of(inside) is not None


def dense_solve_oracle(rows: list[list[int]], target: list[int], p: int) -> list[int] | None:
    """The solve of [A | t] by the oracle RREF, A with one column per
    image: None on a pivot in the t column, else the pivot columns read
    off the t column and every free column 0."""
    r = len(rows)
    rref = modp_rref([[row[i] for row in rows] + [t] for i, t in enumerate(target)], p)
    pivots = [next(j for j, c in enumerate(row) if c) for row in rref]
    if r in pivots:
        return None
    x = [0] * r
    for row, j in zip(rref, pivots):
        x[j] = row[r]
    return x


def test_modp_echelon_on_random_systems():
    """The sparse F_p echelon through ``from_vectors``, ``modp_rref`` and
    ``modp_solve`` against the dense oracle, on wide and tall systems
    with zero and duplicate images and unreduced entries: the same RREF,
    the oracle's solve of [A | t] (so every image in the span of the ones
    before it gets 0), None off the span, and untouched inputs."""
    rng = random.Random(22)
    seen = {"zero": 0, "duplicate": 0, "wide": 0, "tall": 0, "none": 0, "dependent": 0}
    for p in (2, 3, 5, 7):
        for _ in range(60):
            n, r = rng.randint(1, 8), rng.randint(1, 8)
            density = rng.random()
            rows = [
                [rng.randint(-2 * p, 2 * p) if rng.random() < density else 0 for _ in range(n)]
                for _ in range(r)
            ]
            if rng.random() < 0.3:
                rows.insert(rng.randint(0, len(rows)), [0] * n)
            if rng.random() < 0.3:
                rows.insert(rng.randint(0, len(rows)), list(rng.choice(rows)))
            if rng.random() < 0.5:
                x = [rng.randint(-p, p) for _ in rows]
                target = [sum(c * row[j] for c, row in zip(x, rows)) for j in range(n)]
            else:
                target = [rng.randint(-p, 2 * p) for _ in range(n)]
            images = [{j: c for j, c in enumerate(row) if c} for row in rows]
            kept = ([row[:] for row in rows], [dict(img) for img in images], target[:])
            want = modp_rref(rows, p)
            assert LatticeBasis.from_vectors(n, rows, p).vectors == tuple(map(tuple, want))
            assert intlinalg.modp_rref(rows, p) == (
                want, [next(j for j, c in enumerate(row) if c) for row in want]
            )
            sol = modp_solve(images, target, p)
            assert (rows, images, target) == kept, "the inputs are left as they are"
            assert sol == dense_solve_oracle(rows, target, p), (rows, target, p)
            if sol is None:
                assert modp_rank(rows + [target], p) > modp_rank(rows, p)
                seen["none"] += 1
            else:
                got = [sum(c * row[j] for c, row in zip(sol, rows)) % p for j in range(n)]
                assert got == [t % p for t in target]
                for i in range(len(rows)):
                    if modp_rank(rows[: i + 1], p) == modp_rank(rows[:i], p):
                        assert sol[i] == 0
                        seen["dependent"] += 1
            seen["zero"] += not all(any(row) for row in rows)
            seen["duplicate"] += len(set(map(tuple, rows))) < len(rows)
            seen["wide"] += len(rows) > n
            seen["tall"] += len(rows) < n
    assert min(seen.values()) > 20, seen
    with pytest.raises(ValueError):
        modp_solve([{3: 1}], [0, 0, 0], 2)
    with pytest.raises(ValueError):
        modp_solve([{0: 1}], [1], 4)


def test_is_prime_small_values():
    def oracle(n: int) -> bool:
        if n < 2:
            return False
        return all(n % d for d in range(2, int(n**0.5) + 1))

    for n in range(-3, 10**5):
        assert is_prime(n) == oracle(n), n


def test_is_prime_equals_sympy_below_its_bound():
    """Seeded random n across every magnitude up to the bound, primes
    among them, products of two primes, and strong pseudoprimes to the
    first 4 and the first 12 prime bases; from the bound on it raises."""
    from sympy import isprime, nextprime

    rng = random.Random(211)
    # strong pseudoprimes to the first 4 and the first 12 prime bases
    cases = [3215031751, 318665857834031151167461, PRIME_BOUND - 1, PRIME_BOUND - 2]
    for _ in range(400):
        n = rng.randrange(2, 10 ** rng.randint(2, 24) + 1)
        cases += [n, nextprime(n)]
    for _ in range(40):
        a, b = (nextprime(rng.randrange(2, 10**12)) for _ in range(2))
        cases.append(a * b)
    seen = set()
    for n in cases:
        if n < PRIME_BOUND:
            assert is_prime(n) == isprime(n), n
            seen.add(isprime(n))
    assert seen == {True, False}
    for n in (PRIME_BOUND, PRIME_BOUND + 2, 10**4000 + 1):
        with pytest.raises(ValueError, match="only below"):
            is_prime(n)

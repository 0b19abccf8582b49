"""Input graphs for the benchmark, in the graph JSON format of the README.

The generators are pure constructions. The seed only reorders vertices
and edges and flips edge endpoints: label coordinates stay fixed, because
a unimodular change of coordinates changes the cost of the integer
elimination by several times (Fl4 degree 6 went from 3.8 s to 18.4 s
under one such change) while leaving every rank and verdict the same.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations

# Unimodular change of label coordinates for the skewed-basis op; fixed,
# never drawn from the seed (see the module docstring).
SKEW = ((1, 1, 0), (0, 1, 1), (1, 1, 1))


def _doc(torus_rank: int, vertices, edges) -> dict:
    return {
        "torus_rank": torus_rank,
        "vertices": list(vertices),
        "edges": [{"u": u, "v": v, "label": list(lab)} for u, v, lab in edges],
    }


def flag(n: int) -> dict:
    """Fl_n: Cayley graph of S_{n+1} by transpositions, k = n.

    The edge w -- w(i j) carries the root e_{w(i)} - e_{w(j)}, written in
    simple-root coordinates: e_a - e_b = alpha_a + ... + alpha_{b-1}.
    """
    perms = list(permutations(range(n + 1)))
    name = {w: "".join(map(str, w)) for w in perms}
    edges = []
    for w in perms:
        for i, j in combinations(range(n + 1), 2):
            x = list(w)
            x[i], x[j] = x[j], x[i]
            x = tuple(x)
            if w < x:
                a, b = sorted((w[i], w[j]))
                edges.append((name[w], name[x], [1 if a <= t < b else 0 for t in range(n)]))
    return _doc(n, [name[w] for w in perms], edges)


def projective(n: int) -> dict:
    """CP^n: the complete graph K_{n+1} with labels e_i - e_j, k = n + 1."""
    edges = []
    for i, j in combinations(range(n + 1), 2):
        lab = [0] * (n + 1)
        lab[i], lab[j] = 1, -1
        edges.append((f"p{i}", f"p{j}", lab))
    return _doc(n + 1, [f"p{i}" for i in range(n + 1)], edges)


def cube(labels) -> dict:
    """Q_n: product of n one-edge graphs, axis i labeled labels[i]."""
    n = len(labels)
    names = [format(i, f"0{n}b")[::-1] for i in range(2**n)]
    edges = [
        (names[i], names[i | (1 << axis)], w)
        for axis, w in enumerate(labels)
        for i in range(2**n)
        if not i & (1 << axis)
    ]
    return _doc(len(labels[0]), names, edges)


def prism(n: int) -> dict:
    """The 2n-gon times an edge: 3-valent, k = 2, labels (1,0), (0,1), (1,1)."""
    m = 2 * n
    edges = []
    for layer in (0, 1):
        for i in range(m):
            edges.append((f"p{i}L{layer}", f"p{(i + 1) % m}L{layer}", (1, 0) if i % 2 == 0 else (0, 1)))
    edges += [(f"p{i}L0", f"p{i}L1", (1, 1)) for i in range(m)]
    return _doc(2, [f"p{i}L{layer}" for layer in (0, 1) for i in range(m)], edges)


def skewed(doc: dict) -> dict:
    """The same graph with every label multiplied by a unimodular matrix."""
    out = dict(doc)
    out["edges"] = [
        {**e, "label": [sum(r * x for r, x in zip(row, e["label"])) for row in SKEW]}
        for e in doc["edges"]
    ]
    return out


def shuffled(doc: dict, rng: random.Random) -> dict:
    """Permute vertex order and edge order and flip edge endpoints."""
    vertices = list(doc["vertices"])
    rng.shuffle(vertices)
    edges = []
    for e in doc["edges"]:
        u, v = (e["v"], e["u"]) if rng.random() < 0.5 else (e["u"], e["v"])
        edges.append({"u": u, "v": v, "label": list(e["label"])})
    rng.shuffle(edges)
    return {"torus_rank": doc["torus_rank"], "vertices": vertices, "edges": edges}

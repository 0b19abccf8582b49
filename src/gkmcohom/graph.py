"""Edge-labeled multigraph model.

A graph here is a finite multigraph without loops whose edges carry
integer weight labels defined up to sign (labels are stored
sign-normalized).  Vertices are named; file order of vertices and edges
is the canonical order, and the default orientation of an edge points
from the endpoint with the smaller vertex index to the larger one.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass, field
from math import gcd
from typing import NamedTuple

from .intlinalg import LatticeBasis
from .polyring import Weight, content, sign_normalize, weights_parallel


class GraphFormatError(ValueError):
    """Raised when a graph description is malformed."""


class DomainError(ValueError):
    """Raised when a well-formed graph lies outside a computation's domain."""


class InvariantError(RuntimeError):
    """Raised when an internal consistency check fails: a bug, not bad input."""


def long_int_message(what: str, verb: str = "reads") -> str:
    """Names ``what`` and the most digits the interpreter converts."""
    limit = sys.get_int_max_str_digits()
    return f"{what}: an integer has more than {limit} digits, the longest this program {verb}"


def read_int(text: str, what: str, error: type = ValueError) -> int:
    """``int(text)``; an integer with more digits than the interpreter
    converts raises ``error`` naming ``what`` and the limit."""
    limit = sys.get_int_max_str_digits()
    if limit and sum(c.isdigit() for c in text) > limit:
        raise error(long_int_message(what))
    return int(text)


def read_json(text: str, what: str, error: type = ValueError):
    """``json.loads(text)``; an integer with more digits than the
    interpreter converts, or nesting deeper than its recursion limit,
    raises ``error`` naming ``what``, and malformed JSON
    ``json.JSONDecodeError``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:
        raise error(long_int_message(what)) from None
    except RecursionError:
        raise error(f"{what}: arrays or objects nested too deep to read") from None


class OrientedEdge(NamedTuple):
    edge: int
    back: bool

    def reverse(self) -> "OrientedEdge":
        return OrientedEdge(self.edge, not self.back)

    def render(self) -> str:
        return f"{self.edge}{'-' if self.back else '+'}"


class GkmGraph:
    """Immutable labeled multigraph with cached per-vertex stars."""

    __slots__ = ("torus_rank", "vertices", "edges", "_index", "_stars", "_cache")

    def __init__(self, torus_rank: int, vertices, edges):
        if torus_rank < 1:
            raise GraphFormatError("torus_rank must be at least 1")
        names = tuple(str(v) for v in vertices)
        if len(set(names)) != len(names):
            raise GraphFormatError("duplicate vertex names")
        if not names:
            raise GraphFormatError("graph needs at least one vertex")
        index = {name: i for i, name in enumerate(names)}
        stored = []
        stars: list[list[OrientedEdge]] = [[] for _ in names]
        normalized: dict[tuple, Weight] = {}  # checked labels, as given -> stored
        for pos, (u, v, label) in enumerate(edges):
            ui = index.get(u, u) if isinstance(u, str) else u
            vi = index.get(v, v) if isinstance(v, str) else v
            if not isinstance(ui, int) or not 0 <= ui < len(names):
                raise GraphFormatError(f"edges[{pos}]: unknown vertex {u!r}")
            if not isinstance(vi, int) or not 0 <= vi < len(names):
                raise GraphFormatError(f"edges[{pos}]: unknown vertex {v!r}")
            if ui == vi:
                raise GraphFormatError(f"edges[{pos}]: loop at vertex {names[ui]!r}")
            lab = tuple(label)
            if len(lab) != torus_rank:
                raise GraphFormatError(
                    f"edges[{pos}]: label length {len(lab)} != torus_rank {torus_rank}"
                )
            # per edge: (1.0, 0) and (True, 0) are keys equal to (1, 0)
            if not all(type(x) is int for x in lab):  # bool is an int subclass
                raise GraphFormatError(f"edges[{pos}]: non-integer label {label!r}")
            stored_lab = normalized.get(lab)
            if stored_lab is None:
                if not any(lab):
                    raise GraphFormatError(f"edges[{pos}]: zero label")
                stored_lab = normalized[lab] = sign_normalize(lab)
            stored.append((ui, vi, stored_lab))
            # edge ids ascend and no edge is a loop, so each star stays sorted
            stars[ui].append(OrientedEdge(pos, False))
            stars[vi].append(OrientedEdge(pos, True))
        self.torus_rank = torus_rank
        self.vertices = names
        self.edges = tuple(stored)
        self._index = index
        self._stars = tuple(tuple(s) for s in stars)
        self._cache: dict = {}

    # --- basic accessors -------------------------------------------------

    def vertex_index(self, name: str) -> int:
        return self._index[name]

    def label(self, edge_id: int) -> Weight:
        return self.edges[edge_id][2]

    def initial(self, oe: OrientedEdge) -> int:
        u, v, _ = self.edges[oe.edge]
        return v if oe.back else u

    def terminal(self, oe: OrientedEdge) -> int:
        u, v, _ = self.edges[oe.edge]
        return u if oe.back else v

    def star(self, vertex: int) -> tuple[OrientedEdge, ...]:
        """Oriented edges emanating from the vertex, in canonical order."""
        return self._stars[vertex]

    def default_oriented(self, edge_id: int) -> OrientedEdge:
        u, v, _ = self.edges[edge_id]
        return OrientedEdge(edge_id, back=u > v)

    def valences(self) -> list[int]:
        return [len(s) for s in self._stars]

    @property
    def valence(self) -> int:
        """The common star size; raises DomainError when the graph is not
        regular."""
        vals = set(self.valences())
        if len(vals) != 1:
            raise DomainError("graph is not regular")
        return vals.pop()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GkmGraph)
            and self.torus_rank == other.torus_rank
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.torus_rank, self.vertices, self.edges))

    def __repr__(self) -> str:
        return (
            f"<GkmGraph k={self.torus_rank} |V|={len(self.vertices)} "
            f"|E|={len(self.edges)}>"
        )

    # --- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "torus_rank": self.torus_rank,
            "vertices": list(self.vertices),
            "edges": [
                {"u": self.vertices[u], "v": self.vertices[v], "label": list(lab)}
                for u, v, lab in self.edges
            ],
        }


def parse(source: str | dict) -> GkmGraph:
    """Build a graph from its JSON description.

    Expected shape::

        {"torus_rank": 2,
         "vertices": ["a", "b"],
         "edges": [{"u": "a", "v": "b", "label": [1, 0]}]}

    Edge file order defines the canonical edge ids.
    """
    if isinstance(source, str):
        try:
            doc = read_json(source, "graph JSON", GraphFormatError)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"invalid JSON: {exc}") from exc
    else:
        doc = source
    if not isinstance(doc, dict):
        raise GraphFormatError("top level must be an object")
    for key in ("torus_rank", "vertices", "edges"):
        if key not in doc:
            raise GraphFormatError(f"missing key {key!r}")
    if type(doc["torus_rank"]) is not int:
        raise GraphFormatError("torus_rank must be an integer")
    if not isinstance(doc["vertices"], list) or not all(
        isinstance(v, str) for v in doc["vertices"]
    ):
        raise GraphFormatError("vertices must be a list of names")
    if not isinstance(doc["edges"], list):
        raise GraphFormatError("edges must be a list")
    edges = []
    for pos, e in enumerate(doc["edges"]):
        if not isinstance(e, dict) or not {"u", "v", "label"} <= set(e):
            raise GraphFormatError(f"edges[{pos}]: need keys u, v, label")
        if not isinstance(e["label"], list):
            raise GraphFormatError(f"edges[{pos}]: label must be a list")
        for end in (e["u"], e["v"]):
            if not isinstance(end, str):
                raise GraphFormatError(f"edges[{pos}]: unknown vertex {end!r}")
        edges.append((e["u"], e["v"], e["label"]))
    return GkmGraph(doc["torus_rank"], doc["vertices"], edges)


# ---------------------------------------------------------------------------
# axioms and basic checks


@dataclass
class CheckReport:
    """One named check: it passes exactly when it found no issue."""

    name: str
    issues: list[str] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.issues

    def to_dict(self) -> dict:
        return {
            "check": self.name,
            "ok": self.ok,
            "issues": list(self.issues),
            **self.data,
        }


def _star_pair_issues(g: GkmGraph, star_key, pair_issue) -> list[str]:
    """``pair_issue(v, f, h)`` (an issue or None) for every pair of every
    star, in canonical order, except in a star whose ``star_key`` (None:
    no key) is that of a star found clean: the key must decide cleanness."""
    issues: list[str] = []
    clean = set()
    for v in range(len(g.vertices)):
        star = g.star(v)
        key = star_key(star)
        if key is not None and key in clean:
            continue
        before = len(issues)
        for i in range(len(star)):
            for j in range(i + 1, len(star)):
                issue = pair_issue(v, star[i], star[j])
                if issue is not None:
                    issues.append(issue)
        if key is not None and len(issues) == before:
            clean.add(key)
    return issues


def validate_gkm(g: GkmGraph) -> CheckReport:
    """Constant valence and pairwise linear independence at every vertex.

    Parallelism depends on the two labels only, so it is decided once per
    distinct label pair, and a star with no repeated label (a repeated
    label is itself a parallel pair) is keyed by its label set.
    """
    vals = g.valences()
    issues = [f"valence not constant: {sorted(set(vals))}"] if len(set(vals)) != 1 else []
    parallel = functools.cache(weights_parallel)

    def label_set(star):
        labels = frozenset(g.edges[oe.edge][2] for oe in star)
        return labels if len(labels) == len(star) else None

    def pair_issue(v, f, h):
        if parallel(g.label(f.edge), g.label(h.edge)):
            return f"vertex {g.vertices[v]!r}: labels of edges {f.edge} and {h.edge} are parallel"
        return None

    issues += _star_pair_issues(g, label_set, pair_issue)
    return CheckReport("gkm_axioms", issues, {"valences": vals})


def check_coprimality(g: GkmGraph) -> CheckReport:
    """Contents of labels at a common vertex must be pairwise coprime.

    The content of each label is taken once per edge, and a star is keyed
    by its sorted contents."""
    contents = [content(label) for _, _, label in g.edges]

    def pair_issue(v, f, h):
        ci, cj = contents[f.edge], contents[h.edge]
        if gcd(ci, cj) != 1:
            return (
                f"vertex {g.vertices[v]!r}: contents of edges {f.edge} ({ci}) and "
                f"{h.edge} ({cj}) share a factor"
            )
        return None

    def sorted_contents(star):
        return tuple(sorted(contents[oe.edge] for oe in star))

    issues = _star_pair_issues(g, sorted_contents, pair_issue)
    return CheckReport("coprimality", issues)


def edges_div_p(g: GkmGraph, p: int) -> list[int]:
    """Edge ids whose label content is divisible by p.

    Found once per p and kept on the graph; every call returns a new list.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    key = ("edges_div_p", p)
    found = g._cache.get(key)
    if found is None:
        found = g._cache[key] = tuple(
            eid for eid, (_, _, label) in enumerate(g.edges) if content(label) % p == 0
        )
    return list(found)


def is_effective(g: GkmGraph) -> bool:
    """Whether the labels span the full rational weight space.

    Labels are stored sign-normalized, so the distinct labels span the
    same space as all of them.
    """
    labels = sorted({lab for _, _, lab in g.edges})
    return LatticeBasis.from_vectors(g.torus_rank, labels).rank == g.torus_rank


# ---------------------------------------------------------------------------
# orientation and lift conventions


@dataclass(frozen=True)
class Conventions:
    """Per-edge overrides of the default orientation and sign lift.

    ``reversed_edges`` flips the default orientation of the listed edge
    ids; ``lifts`` picks the signed representative of a label used as
    divisor (must be the stored label up to sign).
    """

    reversed_edges: frozenset = frozenset()
    lifts: dict = field(default_factory=dict)

    def oriented(self, g: GkmGraph, edge_id: int) -> OrientedEdge:
        oe = g.default_oriented(edge_id)
        return oe.reverse() if edge_id in self.reversed_edges else oe

    def lift(self, g: GkmGraph, edge_id: int) -> Weight:
        if edge_id in self.lifts:
            w = tuple(self.lifts[edge_id])
            if sign_normalize(w) != g.label(edge_id):
                raise ValueError(
                    f"lift override {w} is not a signed copy of label "
                    f"{g.label(edge_id)}"
                )
            return w
        return g.label(edge_id)

    def validate_against(self, g: GkmGraph) -> None:
        """Raise early if an override names a missing edge or a bad lift."""
        for eid in sorted(self.reversed_edges | set(self.lifts)):
            if not 0 <= eid < len(g.edges):
                raise ValueError(
                    f"override names edge {eid}, but the graph has "
                    f"{len(g.edges)} edges"
                )
        for eid in self.lifts:
            self.lift(g, eid)

    def to_dict(self) -> dict:
        return {
            "orientation": {str(eid): "reversed" for eid in sorted(self.reversed_edges)},
            "lifts": {str(eid): list(w) for eid, w in sorted(self.lifts.items())},
        }


DEFAULT_CONVENTIONS = Conventions()

"""Characteristic classes mod 2, spin criteria, and the realizability verdict.

The total class is built one degree at a time.  At a vertex its degree-d
component is the d-th elementary symmetric polynomial of the star labels
mod 2 (the degree-d part of the product of 1 + label over the star).  On
every edge whose label is even, the degree-d quotient is the difference
of the degree-d components of the two endpoint star products, built from
integral lifts, divided by a lift of the edge label and reduced mod 2.
All choices entering the quotient (local bijection, sign lifts) are
provably irrelevant mod 2; covered by ``sw_choice_independence``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .cohomology import GraphClass, integral_preimage, membership_modp
from .connection import Connection, edge_matchings, find_connection, first_matching, transport_signs
from .graph import Conventions, DEFAULT_CONVENTIONS, GkmGraph, InvariantError, edges_div_p
from .polyring import GradedPoly, divide_by_linear, linear_from_weight, reduce_mod_p


def _star_components(k: int, weights, p: int = 0) -> list[GradedPoly]:
    """Components 0..n of the product of (1 + w) over the n weights, over
    Z (p = 0) or Z_p: entry d is the d-th elementary symmetric polynomial
    of their linear forms, built by e_d <- e_d + e_{d-1} * w per weight."""
    comps = [GradedPoly.constant(k, 1, p)]
    for w in weights:
        lin = linear_from_weight(w, p)
        comps = [comps[0]] + [a + b * lin for a, b in zip(comps[1:], comps)] + [comps[-1] * lin]
    return comps


def _edge_quotients(g: GkmGraph, edge_id: int, matching: dict, signs: dict) -> list[GradedPoly]:
    """The SW quotients at one even-label edge, reduced mod 2, per degree.

    ``matching`` maps the full star of the initial vertex onto the star
    of the terminal vertex (edge to reversed edge included); ``signs``
    gives a sign per source oriented edge.  Target lifts are forced by
    the congruence (``transport_signs``), and the reversed edge takes the
    lift of the edge.  Entry d is the difference of the degree-d star
    components divided by the edge lift, of degree d - 1; the division is
    exact by compatibility.
    """
    oe = g.default_oriented(edge_id)
    src_lifts = {l: tuple(signs[l] * c for c in g.label(l.edge)) for l in g.star(g.initial(oe))}
    dst_lifts = [src_lifts[oe]] + [
        tuple(s * c for c in g.label(matching[l].edge))
        for l, s in transport_signs(g, oe, matching, src_lifts).items()
    ]
    k = g.torus_rank
    out = []
    for a, b in zip(_star_components(k, src_lifts.values()), _star_components(k, dst_lifts)):
        quotient = divide_by_linear(a - b, src_lifts[oe])
        if quotient is None:
            raise InvariantError("SW numerator not divisible by the edge lift")
        out.append(reduce_mod_p(quotient, 2))
    return out


def _default_matching(g: GkmGraph, edge_id: int, connection: Connection | None) -> dict:
    if connection is not None:
        return connection.map_along(g.default_oriented(edge_id))
    matching = first_matching(g, edge_id)
    if matching is None:
        raise ValueError(f"no compatible local bijection at edge {edge_id}")
    return matching


class TotalSwClass:
    """Even-degree components 0..2n of the total class, p = 2."""

    __slots__ = ("graph", "components")

    def __init__(self, graph: GkmGraph, components: dict):
        self.graph = graph
        self.components = dict(components)

    def component(self, degree2: int) -> GraphClass:
        got = self.components.get(degree2)
        if got is None:
            return GraphClass.zero(self.graph, degree2, 2)
        return got

    def degrees(self) -> list[int]:
        return sorted(self.components)


def total_sw(g: GkmGraph, connection: Connection | None = None) -> TotalSwClass:
    """Total characteristic class: vertex star components and edge quotients.

    Over Z_2 the components at a vertex depend only on the multiset of its
    star labels mod 2 (-w = w, and the product commutes), so they are built
    once per distinct sorted mod-2 star; all vertices of a flag manifold or
    a cube share one list.
    """
    n = g.valence
    k = g.torus_rank
    if connection is None:
        connection = find_connection(g)
    components_of_star: dict[tuple, list[GradedPoly]] = {}
    vertex_components = []
    for v in range(len(g.vertices)):
        star = tuple(sorted(tuple(c % 2 for c in g.label(oe.edge)) for oe in g.star(v)))
        if star not in components_of_star:
            components_of_star[star] = _star_components(k, star, p=2)
        vertex_components.append(components_of_star[star])
    quotients = {}
    for e in edges_div_p(g, 2):
        matching = _default_matching(g, e, connection)
        signs = {l: 1 for l in g.star(g.initial(g.default_oriented(e)))}
        quotients[e] = _edge_quotients(g, e, matching, signs)
    components = {}
    for d in range(n + 1):
        values = [s[d] for s in vertex_components]
        b_part = {e: q[d] for e, q in quotients.items()}
        cls = GraphClass(g, 2 * d, values, 2, b_part)
        if not membership_modp(g, cls):
            raise InvariantError("vertex parts violate a mod-2 congruence")
        components[2 * d] = cls
    return TotalSwClass(g, components)


def sw_choice_independence(
    g: GkmGraph, edge_id: int, trials: int = 64, seed: int = 0
) -> bool:
    """Recompute the edge quotients across bijections and sign lifts.

    Exhausts the whole choice space when it has at most ``trials``
    elements, otherwise samples that many random choices.
    """
    if edge_id not in edges_div_p(g, 2):
        raise ValueError(f"edge {edge_id} has an odd label; no quotient defined")
    oe = g.default_oriented(edge_id)
    star = g.star(g.initial(oe))
    matchings = edge_matchings(g, edge_id)
    if not matchings:
        raise ValueError(f"no compatible local bijection at edge {edge_id}")
    total = len(matchings) * (2 ** len(star))
    seen = set()
    if total <= trials:
        choices = []
        for m_idx in range(len(matchings)):
            for mask in range(2 ** len(star)):
                choices.append((m_idx, mask))
    else:
        rng = random.Random(seed)
        choices = [
            (rng.randrange(len(matchings)), rng.randrange(2 ** len(star)))
            for _ in range(trials)
        ]
    for m_idx, mask in choices:
        signs = {l: (-1 if (mask >> i) & 1 else 1) for i, l in enumerate(star)}
        seen.add(tuple(_edge_quotients(g, edge_id, matchings[m_idx], signs)))
        if len(seen) > 1:
            return False
    return True


@dataclass
class SpinVerdict:
    """Spin criteria: star sums mod 2 and even-edge quotient parities."""

    equivariant_spin: bool
    spin: bool
    condition_a: bool
    condition_a_prime: bool
    condition_b: bool
    vertex_sums: dict = field(default_factory=dict)
    edge_values: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "equivariant": self.equivariant_spin,
            "nonequivariant": self.spin,
            "conditions": {
                "star_sums_vanish_mod_2": self.condition_a,
                "star_sums_agree_mod_2": self.condition_a_prime,
                "even_edge_quotients_even": self.condition_b,
            },
            "vertex_sums": self.vertex_sums,
            "even_edge_values": {str(e): v for e, v in sorted(self.edge_values.items())},
        }


def spin_check(g: GkmGraph, connection: Connection | None = None) -> SpinVerdict:
    """Evaluate the spin criteria from star sums and edge quotients.

    The quotient in the edge condition is computed from the sum formula
    directly, independently of total_sw, so the two can cross-check.
    Without a connection the first compatible one is used.
    """
    k = g.torus_rank
    sums = []
    for v in range(len(g.vertices)):
        total = [0] * k
        for oe in g.star(v):
            for i, c in enumerate(g.label(oe.edge)):
                total[i] += c
        sums.append(tuple(total))
    cond_a = all(all(c % 2 == 0 for c in s) for s in sums)
    parities = {tuple(c % 2 for c in s) for s in sums}
    cond_a_prime = len(parities) <= 1

    if connection is None:
        connection = find_connection(g)
    edge_values = {}
    cond_b = True
    for e in edges_div_p(g, 2):
        matching = _default_matching(g, e, connection)
        # the reversed edge adds the same lift to both sums, so only the
        # transported star edges enter the difference
        diff = [0] * k
        for l, s in transport_signs(g, g.default_oriented(e), matching).items():
            for i, (a, b) in enumerate(zip(g.label(l.edge), g.label(matching[l].edge))):
                diff[i] += a - s * b
        quotient = divide_by_linear(linear_from_weight(diff), g.label(e))
        if quotient is None:
            raise InvariantError("spin quotient not divisible; incompatible bijection")
        value = quotient.coeffs[0] if quotient.coeffs else 0
        edge_values[e] = value
        if value % 2:
            cond_b = False

    verdict = SpinVerdict(
        equivariant_spin=cond_a and cond_b,
        spin=cond_a_prime and cond_b,
        condition_a=cond_a,
        condition_a_prime=cond_a_prime,
        condition_b=cond_b,
        vertex_sums={g.vertices[v]: list(s) for v, s in enumerate(sums)},
        edge_values=edge_values,
    )
    if verdict.equivariant_spin and not verdict.spin:
        raise InvariantError("equivariantly spin but not spin")
    return verdict


@dataclass
class ObstructionVerdict:
    """Outcome of the per-degree image test of the total class."""

    verdict: str
    failing_degree: int | None
    preimages: dict

    @property
    def passes(self) -> bool:
        return self.verdict == "PASSES"

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "failing_degree": self.failing_degree,
            "preimages": {
                str(d): (cls.render_values() if cls is not None else None)
                for d, cls in sorted(self.preimages.items())
            },
            "note": "PASSES is a necessary condition only, not a realizability proof",
        }


def realizability_obstruction(
    g: GkmGraph, conventions: Conventions = DEFAULT_CONVENTIONS
) -> ObstructionVerdict:
    """Test every even component of the total class for an integral origin."""
    sw = total_sw(g)
    preimages: dict[int, GraphClass | None] = {}
    failing = None
    for degree2 in sw.degrees():
        target = sw.component(degree2)
        pre = integral_preimage(g, target, conventions)
        preimages[degree2] = pre
        if pre is None and failing is None:
            failing = degree2
    verdict = "PASSES" if failing is None else "OBSTRUCTED"
    return ObstructionVerdict(verdict=verdict, failing_degree=failing, preimages=preimages)

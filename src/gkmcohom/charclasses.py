"""Characteristic classes mod 2, spin criteria, and the realizability verdict.

The total class is built one degree at a time.  At a vertex its degree-d
component is the d-th elementary symmetric polynomial of the star labels
mod 2 (the degree-d part of the product of 1 + label over the star).  On
every edge whose label is even, the degree-d quotient is the difference
of the degree-d components of the two endpoint star products, built from
integral lifts, divided by a lift of the edge label and reduced mod 2.
``polyring.elementary_symmetric`` builds every component of a star
product in place on coefficient lists.
All choices entering the quotient (local bijection, sign lifts) are
provably irrelevant mod 2; covered by ``sw_choice_independence``.  The
quotients of one edge lift and one pair of lift multisets are built once
per graph and kept in its cache (``_edge_quotients``).

The verdicts hold only their evidence (star sums and even-edge values;
the integral preimage per degree) and read every flag off it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product as iproduct

from .cohomology import GraphClass, integral_preimage, membership_z
from .connection import Connection, edge_matchings, first_matching, transport_signs
from .graph import DomainError, GkmGraph, InvariantError, edges_div_p
from .polyring import (
    GradedPoly, divide_by_linear, elementary_symmetric, linear_from_weight, reduce_mod_p
)


def _edge_quotients(
    g: GkmGraph, edge_id: int, matching: dict, signs: dict
) -> tuple[GradedPoly, ...]:
    """The SW quotients at one even-label edge, reduced mod 2, per degree.

    ``matching`` maps the full star of the initial vertex onto the star
    of the terminal vertex (edge to reversed edge included); ``signs``
    gives the sign of the lift of each source oriented edge.  Target signs
    are forced by the congruence (``transport_signs`` takes ``signs``),
    and the reversed edge takes the lift of the edge.  Entry d is the
    difference of the degree-d star components divided by the edge lift,
    of degree d - 1; the division is exact by compatibility.

    Once ``transport_signs`` has checked the matching, the quotients
    depend only on the edge lift and the multisets of source and target
    lifts (the star products commute), so they are built and checked once
    per such key and kept in ``g._cache``: ``total_sw`` and every
    ``sw_choice_independence`` call on one graph share them.
    """
    oe = g.default_oriented(edge_id)
    src_lifts = {l: tuple(signs[l] * c for c in g.label(l.edge)) for l in g.star(g.initial(oe))}
    dst_lifts = [src_lifts[oe]] + [
        tuple(s * c for c in g.label(matching[l].edge))
        for l, s in transport_signs(g, oe, matching, signs).items()
    ]
    lift, src, dst = src_lifts[oe], tuple(sorted(src_lifts.values())), tuple(sorted(dst_lifts))
    memo = g._cache.setdefault("sw_quotients", {})
    got = memo.get((lift, src, dst))
    if got is None:
        k = g.torus_rank
        out = []
        for a, b in zip(elementary_symmetric(k, src), elementary_symmetric(k, dst)):
            quotient = divide_by_linear(a - b, lift)
            if quotient is None:
                raise InvariantError("SW numerator not divisible by the edge lift")
            out.append(reduce_mod_p(quotient, 2))
        got = memo[lift, src, dst] = tuple(out)
    return got


def _default_matching(g: GkmGraph, edge_id: int, connection: Connection | None) -> dict:
    if connection is not None:
        return connection.map_along(g.default_oriented(edge_id))
    matching = first_matching(g, edge_id)
    if matching is None:
        raise DomainError(f"no compatible local bijection at edge {edge_id}")
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
    if connection is not None:
        connection.check_graph(g)
    n = g.valence
    k = g.torus_rank
    components_of_star: dict[tuple, list[GradedPoly]] = {}
    vertex_components = []
    for v in range(len(g.vertices)):
        star = tuple(sorted(tuple(c % 2 for c in g.label(oe.edge)) for oe in g.star(v)))
        if star not in components_of_star:
            components_of_star[star] = elementary_symmetric(k, star, 2)
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
        if not membership_z(g, cls):
            # only even edges took a bijection above; a missing one is a domain error
            for e in range(len(g.edges)):
                if first_matching(g, e) is None:
                    raise DomainError(f"no compatible local bijection at edge {e}")
            raise InvariantError("vertex parts violate a mod-2 congruence")
        components[2 * d] = cls
    return TotalSwClass(g, components)


def sw_choice_independence(
    g: GkmGraph, edge_id: int, trials: int = 64, seed: int = 0
) -> bool:
    """Recompute the edge quotients across bijections and sign lifts.

    Exhausts the whole choice space when it has at most ``trials``
    elements, otherwise samples that many random choices, drawn one at a
    time so that the first differing choice ends the draws.  Every choice's
    matching is checked by ``transport_signs``; a choice whose edge lift
    and source and target lifts equal, as multisets, those of an earlier
    choice (or of ``total_sw`` on the same graph) reuses its quotients,
    and a choice with new lifts is divided out and compared.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if edge_id not in edges_div_p(g, 2):
        raise ValueError(f"edge {edge_id} has an odd label; no quotient defined")
    oe = g.default_oriented(edge_id)
    star = g.star(g.initial(oe))
    matchings = edge_matchings(g, edge_id)
    if not matchings:
        raise DomainError(f"no compatible local bijection at edge {edge_id}")
    masks = 2 ** len(star)
    seen = set()
    if len(matchings) * masks <= trials:
        choices = iproduct(range(len(matchings)), range(masks))
    else:
        rng = random.Random(seed)
        choices = ((rng.randrange(len(matchings)), rng.randrange(masks)) for _ in range(trials))
    for m_idx, mask in choices:
        signs = {l: (-1 if (mask >> i) & 1 else 1) for i, l in enumerate(star)}
        seen.add(tuple(_edge_quotients(g, edge_id, matchings[m_idx], signs)))
        if len(seen) > 1:
            return False
    return True


@dataclass
class SpinVerdict:
    """Spin criteria, read off the star sums (by vertex name) and the
    even-edge quotient values (by edge id)."""

    vertex_sums: dict
    edge_values: dict

    @property
    def condition_a(self) -> bool:
        return all(c % 2 == 0 for s in self.vertex_sums.values() for c in s)

    @property
    def condition_a_prime(self) -> bool:
        return len({tuple(c % 2 for c in s) for s in self.vertex_sums.values()}) <= 1

    @property
    def condition_b(self) -> bool:
        return all(value % 2 == 0 for value in self.edge_values.values())

    @property
    def equivariant_spin(self) -> bool:
        return self.condition_a and self.condition_b

    @property
    def spin(self) -> bool:
        return self.condition_a_prime and self.condition_b

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
    Without a connection each even-label edge takes its first compatible
    bijection, the one the first compatible connection takes there.
    """
    if connection is not None:
        connection.check_graph(g)
    k = g.torus_rank
    vertex_sums = {}
    for v, name in enumerate(g.vertices):
        total = [0] * k
        for oe in g.star(v):
            for i, c in enumerate(g.label(oe.edge)):
                total[i] += c
        vertex_sums[name] = total

    edge_values = {}
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
        edge_values[e] = quotient.coeffs[0] if quotient.coeffs else 0

    return SpinVerdict(vertex_sums, edge_values)


@dataclass
class ObstructionVerdict:
    """Outcome of the per-degree image test of the total class: the
    integral preimage of each component, None where there is none."""

    preimages: dict

    @property
    def failing_degree(self) -> int | None:
        return min((d for d, pre in self.preimages.items() if pre is None), default=None)

    @property
    def verdict(self) -> str:
        return "PASSES" if self.failing_degree is None else "OBSTRUCTED"

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


def realizability_obstruction(g: GkmGraph) -> ObstructionVerdict:
    """Test every even component of the total class for an integral origin.

    Orientation and lift overrides cannot change the answer: they negate
    quotients, and -q = q mod 2."""
    sw = total_sw(g)
    return ObstructionVerdict({d: integral_preimage(g, sw.component(d)) for d in sw.degrees()})

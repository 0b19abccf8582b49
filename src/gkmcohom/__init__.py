"""Exact combinatorics of labeled graphs with connections.

Validation, graded equivariant cohomology over Z and Z/p, mod-2
characteristic classes, spin conditions, path classes on 3-valent
graphs, and an integral-preimage obstruction — all in exact integer
arithmetic.  A class of either ring is a ``GraphClass``; ``p = 0``
means Z, and over Z/p a class also carries quotient values on the
edges whose label vanishes mod p, with ``a * b`` the mod-p product.  See the ``gkmcohom`` command-line tool for the same
functionality on JSON graph files.
"""

from .charclasses import (
    ObstructionVerdict,
    SpinVerdict,
    TotalSwClass,
    realizability_obstruction,
    spin_check,
    sw_choice_independence,
    total_sw,
)
from .cohomology import (
    CohomLattice,
    GraphClass,
    compute_h_modp,
    compute_h_z,
    compute_h_z_and_modp,
    integral_preimage,
    membership_z,
    reduce_class_mod_p,
)
from .connection import (
    Connection,
    connection_from_matchings,
    edge_matchings,
    enumerate_connections,
    find_connection,
    holonomy_signs,
    is_orientable,
)
from .graph import (
    DEFAULT_CONVENTIONS,
    Conventions,
    GkmGraph,
    GraphFormatError,
    OrientedEdge,
    check_coprimality,
    edges_div_p,
    is_effective,
    parse,
    validate_gkm,
)
from .polyring import GradedPoly, divide_by_linear, linear_from_weight
from .relations import check_identity, check_relations, classes_from_json, evaluate
from .thom import (
    ConnectionPath,
    connection_paths,
    thom_class_of_edge,
    thom_class_of_path,
    thom_class_of_vertex,
    verify_sw3valent,
)

__version__ = "0.1.0"

__all__ = [
    "CohomLattice",
    "Connection",
    "ConnectionPath",
    "Conventions",
    "DEFAULT_CONVENTIONS",
    "GkmGraph",
    "GradedPoly",
    "GraphClass",
    "GraphFormatError",
    "ObstructionVerdict",
    "OrientedEdge",
    "SpinVerdict",
    "TotalSwClass",
    "check_coprimality",
    "check_identity",
    "check_relations",
    "classes_from_json",
    "compute_h_modp",
    "compute_h_z",
    "compute_h_z_and_modp",
    "connection_from_matchings",
    "connection_paths",
    "divide_by_linear",
    "edge_matchings",
    "edges_div_p",
    "enumerate_connections",
    "evaluate",
    "find_connection",
    "holonomy_signs",
    "integral_preimage",
    "is_effective",
    "is_orientable",
    "linear_from_weight",
    "membership_z",
    "parse",
    "realizability_obstruction",
    "reduce_class_mod_p",
    "spin_check",
    "sw_choice_independence",
    "thom_class_of_edge",
    "thom_class_of_path",
    "thom_class_of_vertex",
    "total_sw",
    "validate_gkm",
    "verify_sw3valent",
]

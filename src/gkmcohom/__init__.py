"""Exact combinatorics of labeled graphs with connections.

Validation, graded equivariant cohomology over Z and Z/p, mod-2
characteristic classes, spin conditions, path classes on 3-valent
graphs, and an integral-preimage obstruction — all in exact integer
arithmetic.  A class of either ring is a ``GraphClass``; ``p = 0``
means Z, and over Z/p a class also carries quotient values on the
edges whose label vanishes mod p, with ``a * b`` the mod-p product.  See the ``gkmcohom`` command-line tool for the same
functionality on JSON graph files.

Names resolve on first use: ``import gkmcohom`` loads no submodule, and
``gkmcohom.total_sw`` (or ``from gkmcohom import total_sw``) imports
``charclasses`` and what it needs, nothing else.  A name is read off its
home module on every access and never copied here, so it is always the
object that module holds.  Submodules load the same way
(``gkmcohom.thom``, ``gkmcohom.fixtures``).
"""

import importlib

__version__ = "0.1.0"

# every public name, by its home module
_EXPORTS = {
    "charclasses": (
        "ObstructionVerdict",
        "SpinVerdict",
        "TotalSwClass",
        "realizability_obstruction",
        "spin_check",
        "sw_choice_independence",
        "total_sw",
    ),
    "cohomology": (
        "CohomLattice",
        "GraphClass",
        "compute_h_modp",
        "compute_h_z",
        "compute_h_z_and_modp",
        "integral_preimage",
        "membership_z",
        "reduce_class_mod_p",
    ),
    "connection": (
        "Connection",
        "connection_from_matchings",
        "edge_matchings",
        "enumerate_connections",
        "find_connection",
        "holonomy_signs",
        "is_orientable",
    ),
    "graph": (
        "DEFAULT_CONVENTIONS",
        "Conventions",
        "GkmGraph",
        "GraphFormatError",
        "OrientedEdge",
        "check_coprimality",
        "edges_div_p",
        "is_effective",
        "parse",
        "validate_gkm",
    ),
    "polyring": ("GradedPoly", "divide_by_linear", "linear_from_weight"),
    "relations": ("check_identity", "check_relations", "classes_from_json", "evaluate"),
    "thom": (
        "ConnectionPath",
        "connection_paths",
        "thom_class_of_edge",
        "thom_class_of_path",
        "thom_class_of_vertex",
        "verify_sw3valent",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = _EXPORTS.keys() | {"cli", "fixtures", "intlinalg"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is not None:
        return getattr(importlib.import_module(f"{__name__}.{module}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOME.keys() | _SUBMODULES)

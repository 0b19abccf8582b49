"""Command-line front end.

One subcommand per question: ``validate``, ``cohomology``, ``sw``,
``spin``, ``obstruction``, ``thom``, ``relations``.  Graphs come from a
JSON file or a built-in ``fixtures:`` reference.  Exit codes are stable:
0 = success / check passes, 1 = obstruction or check failure (including
a graph the question does not apply to), 2 = usage, I/O, or parse error,
3 = internal error (an invariant check failed; a bug, reported without a
traceback).
Reports are deterministic byte-for-byte for a fixed invocation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from . import fixtures
from .charclasses import realizability_obstruction, spin_check, sw_choice_independence, total_sw
from .cohomology import compute_h_modp, compute_h_z, reduce_class_mod_p
from .connection import find_connection, is_orientable
from .graph import (
    CheckReport,
    Conventions,
    DomainError,
    GkmGraph,
    GraphFormatError,
    InvariantError,
    check_coprimality,
    edges_div_p,
    is_effective,
    parse,
    validate_gkm,
)
from .intlinalg import is_prime, modp_rref
from .relations import (
    RelationError,
    check_relations,
    classes_from_json,
    variable_environment,
)
from .thom import verify_sw3valent

__all__ = ["RunConfig", "main"]

_DEFAULT_DEGREE_BOUND = 12


@dataclass
class RunConfig:
    """Everything one invocation needs, normalized from argv."""

    command: str
    source: str
    ring: int = 0  # 0 = integers, otherwise the prime
    degree: int | None = None
    max_degree: int = _DEFAULT_DEGREE_BOUND
    conventions: Conventions = field(default_factory=Conventions)
    as_json: bool = False
    seed: int = 0
    require_spin: bool = False
    independence_trials: int = 0
    relations: list[str] = field(default_factory=list)
    classes_path: str | None = None


# ---------------------------------------------------------------------------
# input plumbing

def load_graph(source: str) -> GkmGraph:
    if source.startswith("fixtures:"):
        return fixtures.from_spec(source)
    with open(source, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def _load(cfg: "RunConfig") -> GkmGraph:
    g = load_graph(cfg.source)
    cfg.conventions.validate_against(g)
    return g


def _parse_overrides(orientation: list[str], lifts: list[str]) -> Conventions:
    reversed_edges = set()
    for item in orientation:
        edge, _, direction = item.partition(":")
        if direction in ("-", "reversed"):
            reversed_edges.add(int(edge))
        elif direction not in ("+", "default"):
            raise ValueError(
                f"orientation override {item!r}: direction must be +, -, "
                f"default, or reversed"
            )
    lift_map = {}
    for item in lifts:
        edge, _, coords = item.partition(":")
        lift_map[int(edge)] = tuple(int(c) for c in coords.split(","))
    return Conventions(frozenset(reversed_edges), lift_map)


def _degrees(cfg: RunConfig) -> list[int]:
    if cfg.degree is not None:
        return [cfg.degree]
    return list(range(0, cfg.max_degree + 1, 2))


def _envelope(cfg: RunConfig, g: GkmGraph) -> dict:
    return {
        "command": cfg.command,
        "graph": {
            "torus_rank": g.torus_rank,
            "vertices": len(g.vertices),
            "edges": len(g.edges),
        },
        "conventions": cfg.conventions.to_dict(g),
    }


# ---------------------------------------------------------------------------
# subcommands; each returns (exit_code, report)

def cmd_validate(cfg: RunConfig) -> tuple[int, dict]:
    g = _load(cfg)
    checks = [validate_gkm(g), check_coprimality(g)]
    effective = is_effective(g)
    checks.append(
        CheckReport("effective", effective, [] if effective else ["labels do not span"])
    )
    conn = find_connection(g)
    checks.append(
        CheckReport(
            "connection_exists",
            conn is not None,
            [] if conn is not None else ["no compatible connection"],
        )
    )
    if conn is not None:
        orientable = is_orientable(g, conn)
        checks.append(
            CheckReport(
                "orientable",
                orientable,
                [] if orientable else ["some closed path has sign product -1"],
            )
        )
    if cfg.require_spin:
        verdict = spin_check(g, conn)
        checks.append(
            CheckReport(
                "spin",
                verdict.spin,
                [] if verdict.spin else ["spin conditions fail"],
                verdict.to_dict(),
            )
        )
    report = _envelope(cfg, g)
    report["checks"] = [c.to_dict() for c in checks]
    ok = all(c.ok for c in checks)
    report["ok"] = ok
    return (0 if ok else 1), report


def cmd_cohomology(cfg: RunConfig) -> tuple[int, dict]:
    g = _load(cfg)
    report = _envelope(cfg, g)
    report["ring"] = "Z" if cfg.ring == 0 else f"Z_{cfg.ring}"
    rows = []
    for degree2 in _degrees(cfg):
        if cfg.ring == 0:
            rows.append(compute_h_z(g, degree2).to_report())
            continue
        p = cfg.ring
        entry = compute_h_modp(g, degree2, p).to_report()
        lat_z = compute_h_z(g, degree2)
        entry["integral_rank"] = lat_z.rank
        # dimension of the kernel of H(Z) (x) Z_p -> H(Z_p): vertexwise
        # reduction of the integral basis, then a rank count over F_p
        reduced = [
            [c % p for f in b.values for c in f.coeffs] for b in lat_z.basis
        ]
        image_rank = len(modp_rref(reduced, p)[1]) if reduced else 0
        entry["reduction_kernel_dim"] = lat_z.rank - image_rank
        if entry["reduction_kernel_dim"] > 0:
            entry["note"] = (
                "mod-p reduction of the integral classes is not injective; "
                "the missing classes reappear in the b-part summand"
            )
        rows.append(entry)
    report["degrees"] = rows
    return 0, report


def cmd_sw(cfg: RunConfig) -> tuple[int, dict]:
    g = _load(cfg)
    sw = total_sw(g)
    report = _envelope(cfg, g)
    wanted = set(_degrees(cfg))
    report["special_edges"] = edges_div_p(g, 2)
    report["components"] = [
        {
            "degree": degree2,
            "vertex_values": sw.component(degree2).render_values(),
            "b_part": {
                str(e): val
                for e, val in sorted(sw.component(degree2).render_b_part().items())
            },
        }
        for degree2 in sw.degrees()
        if degree2 in wanted
    ]
    if cfg.independence_trials > 0:
        report["choice_independence"] = {
            str(eid): sw_choice_independence(
                g, eid, trials=cfg.independence_trials, seed=cfg.seed
            )
            for eid in edges_div_p(g, 2)
        }
    return 0, report


def cmd_spin(cfg: RunConfig) -> tuple[int, dict]:
    g = _load(cfg)
    verdict = spin_check(g)
    report = _envelope(cfg, g)
    report.update(verdict.to_dict())
    return (0 if verdict.spin else 1), report


def cmd_obstruction(cfg: RunConfig) -> tuple[int, dict]:
    g = _load(cfg)
    verdict = realizability_obstruction(g, cfg.conventions)
    report = _envelope(cfg, g)
    report.update(verdict.to_dict())
    return (0 if verdict.passes else 1), report


def cmd_thom(cfg: RunConfig) -> tuple[int, dict]:
    g = _load(cfg)
    result = verify_sw3valent(g)
    report = _envelope(cfg, g)
    report.update(result)
    return (0 if result["all_match"] else 1), report


def cmd_relations(cfg: RunConfig) -> tuple[int, dict]:
    g = _load(cfg)
    env = dict(variable_environment(g.torus_rank, cfg.ring))
    if g == fixtures.paper8() and cfg.ring == 0:
        env.update(fixtures.paper8_generators())
    elif g == fixtures.paper8():
        gens = fixtures.paper8_generators()
        env.update(
            {name: reduce_class_mod_p(g, cls, cfg.ring) for name, cls in gens.items()}
        )
    if cfg.classes_path is not None:
        with open(cfg.classes_path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
        env.update(classes_from_json(g, spec))
    if not cfg.relations:
        raise ValueError("no relations given")
    results = check_relations(cfg.relations, env)
    report = _envelope(cfg, g)
    report["names"] = sorted(n for n in env)
    report["relations"] = [r.to_dict() for r in results]
    ok = all(r.holds for r in results)
    report["ok"] = ok
    return (0 if ok else 1), report


_COMMANDS = {
    "validate": cmd_validate,
    "cohomology": cmd_cohomology,
    "sw": cmd_sw,
    "spin": cmd_spin,
    "obstruction": cmd_obstruction,
    "thom": cmd_thom,
    "relations": cmd_relations,
}


# ---------------------------------------------------------------------------
# argv handling

def _parse_ring(text: str, p: int) -> int:
    if text == "Z":
        return 0
    if text == "Zp":
        value = p
    elif text.startswith("Z") and text[1:].isdigit():
        value = int(text[1:])
    else:
        raise ValueError(f"ring must be Z, Zp, or Z<prime>, got {text!r}")
    if not is_prime(value):
        raise ValueError(f"{value} is not prime")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkmcohom",
        description="Exact computations on labeled graphs with connections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p_: argparse.ArgumentParser) -> None:
        p_.add_argument(
            "graph",
            nargs="?",
            help="JSON graph file, or fixtures:<name>(...) reference",
        )
        p_.add_argument("--fixture", help="fixture name (alternative to the positional)")
        p_.add_argument("--json", action="store_true", help="machine-readable output")
        p_.add_argument(
            "--orientation-override",
            action="append",
            default=[],
            metavar="EDGE:DIR",
            help="flip the default orientation of an edge (DIR: + | - | default | reversed)",
        )
        p_.add_argument(
            "--lift-override",
            action="append",
            default=[],
            metavar="EDGE:C1,C2",
            help="signed label representative used as divisor for an edge",
        )

    def ring_flags(p_: argparse.ArgumentParser) -> None:
        p_.add_argument("--ring", default="Z", help="Z (default), Zp, or Z<prime>")
        p_.add_argument("--p", type=int, default=2, help="prime for --ring Zp")

    def degree_flags(p_: argparse.ArgumentParser) -> None:
        p_.add_argument("--degree", type=int, help="single cohomological degree")
        p_.add_argument(
            "--max-degree",
            type=int,
            default=_DEFAULT_DEGREE_BOUND,
            help="degree bound when --degree is not given",
        )

    p_val = sub.add_parser("validate", help="axioms, coprimality, effectiveness, orientability")
    common(p_val)
    p_val.add_argument(
        "--require-spin", action="store_true", help="additionally require the spin conditions"
    )

    p_coh = sub.add_parser("cohomology", help="graded ranks and bases")
    common(p_coh)
    ring_flags(p_coh)
    degree_flags(p_coh)

    p_sw = sub.add_parser("sw", help="total characteristic class mod 2")
    common(p_sw)
    degree_flags(p_sw)
    p_sw.add_argument(
        "--independence-trials",
        type=int,
        default=0,
        metavar="N",
        help="sample N alternative local choices per special edge",
    )
    p_sw.add_argument("--seed", type=int, default=0, help="seed for the sampling")

    p_spin = sub.add_parser("spin", help="spin conditions (exit 0 iff spin)")
    common(p_spin)

    p_obs = sub.add_parser(
        "obstruction", help="integral preimage test (exit 0 = passes, 1 = obstructed)"
    )
    common(p_obs)

    p_thom = sub.add_parser("thom", help="3-valent verification via path classes")
    common(p_thom)

    p_rel = sub.add_parser("relations", help="verify exact identities between classes")
    common(p_rel)
    ring_flags(p_rel)
    p_rel.add_argument(
        "--check",
        action="append",
        default=[],
        metavar="IDENTITY",
        help="relation such as 'a2*a3 == -a4 + 2*x*y*a2' (repeatable)",
    )
    p_rel.add_argument(
        "--classes", help="JSON file of named classes {name: {degree, values}}"
    )
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    source = args.graph
    if getattr(args, "fixture", None):
        if source is not None:
            raise ValueError("give either a positional graph or --fixture, not both")
        source = args.fixture if args.fixture.startswith("fixtures:") else f"fixtures:{args.fixture}"
    if source is None:
        raise ValueError("no input graph (positional path or --fixture)")
    ring = _parse_ring(getattr(args, "ring", "Z"), getattr(args, "p", 2))
    degree = getattr(args, "degree", None)
    if degree is not None and (degree < 0 or degree % 2):
        raise ValueError("--degree must be even and non-negative")
    max_degree = getattr(args, "max_degree", _DEFAULT_DEGREE_BOUND)
    if max_degree < 0:
        raise ValueError("--max-degree must be non-negative")
    return RunConfig(
        command=args.command,
        source=source,
        ring=ring,
        degree=degree,
        max_degree=max_degree,
        conventions=_parse_overrides(args.orientation_override, args.lift_override),
        as_json=args.json,
        seed=getattr(args, "seed", 0),
        require_spin=getattr(args, "require_spin", False),
        independence_trials=getattr(args, "independence_trials", 0),
        relations=list(getattr(args, "check", [])),
        classes_path=getattr(args, "classes", None),
    )


# ---------------------------------------------------------------------------
# output

def _emit_text(report: dict, indent: str = "") -> None:
    for key, value in report.items():
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _emit_text(value, indent + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{indent}{key}:")
            for item in value:
                _emit_text(item, indent + "  ")
                print(f"{indent}  -")
        else:
            print(f"{indent}{key}: {value}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        code, report = _COMMANDS[cfg.command](cfg)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GraphFormatError, RelationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    if cfg.as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        _emit_text(report)
    return code


if __name__ == "__main__":
    sys.exit(main())

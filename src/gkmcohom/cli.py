"""Command-line front end.

One subcommand per question: ``validate``, ``cohomology``, ``sw``,
``spin``, ``obstruction``, ``thom``, ``relations``.  Graphs come from a
JSON file or a built-in ``fixtures:`` reference.  ``main`` checks the
parsed arguments, loads the graph once and calls the subcommand with
``(args, graph)``; the subcommand returns ``(code, fields)`` and ``main``
puts the envelope (``command``, ``graph``, ``conventions``) in front of
the fields.  Exit codes are stable:
0 = success / check passes, 1 = obstruction or check failure (including
a graph the question does not apply to), 2 = usage, I/O, or parse error,
3 = internal error (an invariant check failed or an unexpected exception
escaped, a bug; or memory ran out), reported on one line without a
traceback.
Reports are deterministic byte-for-byte for a fixed invocation.

An invocation compiles only the modules its subcommand reaches: ``thom``
and ``relations`` are imported inside ``cmd_thom`` and ``cmd_relations``,
the one subcommand each serves, so no other subcommand loads them.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import fixtures
from .charclasses import realizability_obstruction, spin_check, sw_choice_independence, total_sw
from .cohomology import compute_h_z, compute_h_z_and_modp, reduce_class_mod_p
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
    read_int,
    read_json,
    validate_gkm,
)
from .intlinalg import PRIME_BOUND, is_prime

__all__ = ["main"]

_DEFAULT_DEGREE_BOUND = 12


# ---------------------------------------------------------------------------
# input plumbing

def load_graph(source: str) -> GkmGraph:
    if source.startswith("fixtures:"):
        return fixtures.from_spec(source)
    with open(source, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def _override_int(text: str, flag: str, item: str) -> int:
    """``read_int``; a value that is no integer names the flag and the item."""
    try:
        return read_int(text, flag, OverflowError)
    except OverflowError as exc:
        raise ValueError(str(exc)) from None
    except ValueError:
        raise ValueError(f"{flag} {item!r}: {text!r} is not an integer") from None


def _parse_overrides(orientation: list[str], lifts: list[str]) -> Conventions:
    reversed_edges = set()
    for item in orientation:
        edge, _, direction = item.partition(":")
        if direction in ("-", "reversed"):
            reversed_edges.add(_override_int(edge, "--orientation-override", item))
        elif direction not in ("+", "default"):
            raise ValueError(
                f"orientation override {item!r}: direction must be +, -, "
                f"default, or reversed"
            )
    lift_map = {}
    for item in lifts:
        edge, _, coords = item.partition(":")
        lift_map[_override_int(edge, "--lift-override", item)] = tuple(
            _override_int(c, "--lift-override", item) for c in coords.split(",")
        )
    return Conventions(frozenset(reversed_edges), lift_map)


def _degrees(args: argparse.Namespace) -> list[int]:
    if args.degree is not None:
        return [args.degree]
    return list(range(0, args.max_degree + 1, 2))


# ---------------------------------------------------------------------------
# subcommands; each takes (args, graph) and returns (exit_code, fields)

def cmd_validate(args: argparse.Namespace, g: GkmGraph) -> tuple[int, dict]:
    checks = [validate_gkm(g), check_coprimality(g)]
    checks.append(CheckReport("effective", [] if is_effective(g) else ["labels do not span"]))
    conn = find_connection(g)
    checks.append(
        CheckReport("connection_exists", [] if conn is not None else ["no compatible connection"])
    )
    # a DomainError here (parallel adjacent labels) is a failed check
    if conn is not None:
        try:
            issues = [] if is_orientable(g, conn) else ["some closed path has sign product -1"]
        except DomainError as exc:
            issues = [str(exc)]
        checks.append(CheckReport("orientable", issues))
    if args.require_spin:
        try:
            verdict = spin_check(g, conn)
        except DomainError as exc:
            checks.append(CheckReport("spin", [str(exc)]))
        else:
            issues = [] if verdict.spin else ["spin conditions fail"]
            checks.append(CheckReport("spin", issues, verdict.to_dict()))
    ok = all(c.ok for c in checks)
    return (0 if ok else 1), {"checks": [c.to_dict() for c in checks], "ok": ok}


def cmd_cohomology(args: argparse.Namespace, g: GkmGraph) -> tuple[int, dict]:
    rows = []
    for degree2 in _degrees(args):
        if args.ring == 0:
            rows.append(compute_h_z(g, degree2).to_report())
            continue
        lat_z, lat_p, image_rank = compute_h_z_and_modp(g, degree2, args.ring)
        entry = lat_p.to_report()
        entry["integral_rank"] = lat_z.rank
        # dimension of the kernel of H(Z) (x) Z_p -> H(Z_p)
        entry["reduction_kernel_dim"] = lat_z.rank - image_rank
        if entry["reduction_kernel_dim"] > 0:
            entry["note"] = (
                "mod-p reduction of the integral classes is not injective; "
                "the missing classes reappear in the b-part summand"
            )
        rows.append(entry)
    return 0, {"ring": "Z" if args.ring == 0 else f"Z_{args.ring}", "degrees": rows}


def cmd_sw(args: argparse.Namespace, g: GkmGraph) -> tuple[int, dict]:
    sw = total_sw(g)
    wanted = set(_degrees(args))
    fields = {"special_edges": edges_div_p(g, 2)}
    fields["components"] = [
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
    if args.independence_trials > 0:
        fields["choice_independence"] = {
            str(eid): sw_choice_independence(
                g, eid, trials=args.independence_trials, seed=args.seed
            )
            for eid in edges_div_p(g, 2)
        }
    return 0, fields


def cmd_spin(args: argparse.Namespace, g: GkmGraph) -> tuple[int, dict]:
    verdict = spin_check(g)
    return (0 if verdict.spin else 1), verdict.to_dict()


def cmd_obstruction(args: argparse.Namespace, g: GkmGraph) -> tuple[int, dict]:
    verdict = realizability_obstruction(g)
    return (0 if verdict.passes else 1), verdict.to_dict()


def cmd_thom(args: argparse.Namespace, g: GkmGraph) -> tuple[int, dict]:
    from .thom import verify_sw3valent

    result = verify_sw3valent(g)
    return (0 if result["all_match"] else 1), result


def cmd_relations(args: argparse.Namespace, g: GkmGraph) -> tuple[int, dict]:
    from .relations import check_relations, classes_from_json, variable_environment

    classes = fixtures.paper8_generators() if g == fixtures.paper8() else {}
    if args.classes is not None:
        with open(args.classes, "r", encoding="utf-8") as fh:
            spec = read_json(fh.read(), f"class file {args.classes}")
        classes.update(classes_from_json(g, spec))
    if args.ring:
        classes = {
            name: reduce_class_mod_p(g, cls, args.ring, args.conventions)
            for name, cls in classes.items()
        }
    env = {**variable_environment(g.torus_rank, args.ring), **classes}
    results = check_relations(args.check, env)
    ok = all(r.holds for r in results)
    return (0 if ok else 1), {
        "names": sorted(env),
        "relations": [r.to_dict() for r in results],
        "ok": ok,
    }


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

def _parse_ring(text: str, p: int | None) -> int:
    if p is not None and text != "Zp":
        raise ValueError(f"--p {p} applies only to --ring Zp, not to --ring {text}")
    if text == "Z":
        return 0
    if text == "Zp":
        value = 2 if p is None else p
    elif text.startswith("Z") and text[1:].isdigit():
        value = read_int(text[1:], "--ring")
    else:
        raise ValueError(f"ring must be Z, Zp, or Z<prime>, got {text!r}")
    if value >= PRIME_BOUND:
        flag = "--p" if text == "Zp" else "--ring"
        raise ValueError(
            f"{flag}: a prime must be below {PRIME_BOUND}, the bound of the primality test"
        )
    if not is_prime(value):
        raise ValueError(f"{value} is not prime")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it.

    Parsing leaves the parser unchanged: an ``append`` action copies its
    ``[]`` default before it appends, so one call's lists never reach the
    next."""
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
        p_.add_argument("--p", type=int, help="prime for --ring Zp (default 2); no other ring takes it")

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


def _check_args(args: argparse.Namespace) -> None:
    """Normalize argv in place before any graph is loaded: ``args.graph`` is
    the source, ``args.ring`` the prime (0 = Z), ``args.conventions`` the overrides."""
    if args.fixture:
        if args.graph is not None:
            raise ValueError("give either a positional graph or --fixture, not both")
        args.graph = args.fixture if args.fixture.startswith("fixtures:") else f"fixtures:{args.fixture}"
    if args.graph is None:
        raise ValueError("no input graph (positional path or --fixture)")
    if "ring" in args:
        args.ring = _parse_ring(args.ring, args.p)
    if "degree" in args:
        if args.degree is not None and (args.degree < 0 or args.degree % 2):
            raise ValueError("--degree must be even and non-negative")
        if args.max_degree < 0:
            raise ValueError("--max-degree must be non-negative")
    if "independence_trials" in args and args.independence_trials < 0:
        raise ValueError("--independence-trials must be non-negative")
    args.conventions = _parse_overrides(args.orientation_override, args.lift_override)
    if "check" in args and not args.check:
        raise ValueError("no relations given")


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
    args = build_parser().parse_args(argv)
    try:
        _check_args(args)
        g = load_graph(args.graph)
        args.conventions.validate_against(g)
        code, fields = _COMMANDS[args.command](args, g)
        report = {
            "command": args.command,
            "graph": {
                "torus_rank": g.torus_rank,
                "vertices": len(g.vertices),
                "edges": len(g.edges),
            },
            "conventions": args.conventions.to_dict(),
            **fields,
        }
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GraphFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3
    except Exception as exc:
        # a bug: one line, and an exit code that reads as no verdict
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        _emit_text(report)
    return code


if __name__ == "__main__":
    sys.exit(main())

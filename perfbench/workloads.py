"""The benchmark's workloads: inputs, the fixed op list of one pass, and
the output check of every op.

Each op is one ``gkmcohom`` CLI invocation with ``--json`` on a graph file
this module writes. Checks compare against closed forms where one
exists (ranks from the Poincare series tensored with Z[x_1..x_k], path
counts, verdicts) and against values pinned from the seed code where not
(the mod-2 ranks of the cubes).

Run as a script, it is the set-up that ``setup_s`` times in a fresh
interpreter: ``python3 perfbench/workloads.py WORKLOAD SEED WORKDIR``.
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from math import comb
from pathlib import Path
from time import perf_counter
from typing import Callable

import graphs

ROOT = Path(__file__).resolve().parent.parent

# label sets of the cubes; the last label of each has content 2 (a special edge)
Q4_LABELS = ((1, 0), (0, 1), (1, 1), (2, 4))
Q5_LABELS = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 4))
Q4K3_LABELS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 2))

PAPER8_RELATIONS = ("a2*a3 == -a4 + 2*x*y*a2", "a1*a1 == a1")


@dataclass(frozen=True)
class Op:
    """One CLI invocation, the exit code the README contract gives it, and
    a check on its parsed ``--json`` report (None when stdout is empty)."""

    name: str
    kind: str  # the end-to-end bucket: cohomology, obstruction, sw, thom or checks
    argv: tuple
    exit: int
    check: Callable[[dict | None], bool]


def import_gkmcohom():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import gkmcohom

    if Path(gkmcohom.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"gkmcohom imported from {gkmcohom.__file__}, not from {src}")
    return gkmcohom


# ---------------------------------------------------------------------------
# closed forms


def free_ranks(k: int, betti, max_degree: int) -> list[int]:
    """Ranks of (sum_j betti[j] t^j) tensored with Z[x_1..x_k], even degrees."""
    return [
        sum(b * comb(d - j + k - 1, k - 1) for j, b in enumerate(betti) if j <= d)
        for d in range(max_degree // 2 + 1)
    ]


def cube_betti(n: int) -> list[int]:
    return [comb(n, j) for j in range(n + 1)]


FL3_BETTI = (1, 3, 5, 6, 5, 3, 1)  # Poincare polynomial of Fl4 = SU(4)/T
CP4_BETTI = (1, 1, 1, 1, 1)


# ---------------------------------------------------------------------------
# checks


def _ranks(report) -> list[int] | None:
    return None if report is None else [row["rank"] for row in report["degrees"]]


def ranks_are(expected: list[int]):
    return lambda r: _ranks(r) == expected


def modp_ranks_are(expected: list[int], integral: list[int]):
    def check(r):
        if _ranks(r) != expected:
            return False
        return [row["integral_rank"] for row in r["degrees"]] == integral

    return check


def cp4_z3(max_degree: int):
    """Z3 ranks equal the integral ranks and reduction mod 3 is injective."""
    want = free_ranks(5, CP4_BETTI, max_degree)
    return lambda r: _ranks(r) == want and all(
        row["integral_rank"] == row["rank"] and row["reduction_kernel_dim"] == 0
        for row in r["degrees"]
    )


def verdict_is(verdict: str, failing_degree):
    return lambda r: r is not None and (r["verdict"], r["failing_degree"]) == (verdict, failing_degree)


def sw_choice_free(components: int):
    """Every sampled alternative choice gives the same class."""

    def check(r):
        return (
            r is not None
            and len(r["components"]) == components
            and all(r.get("choice_independence", {}).values())
            and bool(r["special_edges"]) == ("choice_independence" in r)
        )

    return check


def sw_plain(components: int):
    def check(r):
        return (
            r is not None
            and len(r["components"]) == components
            and r["special_edges"] == []
            and set(r["components"][0]["vertex_values"]) == {"1"}
        )

    return check


def ok_is(value: bool):
    return lambda r: r is not None and r["ok"] is value


def spin_is(value: bool):
    return lambda r: r is not None and r["nonequivariant"] is value


def thom_prism(n: int):
    """All three sums match, and the connection paths cover each of the
    6n edges of the 2n-gon prism twice. The path count itself depends on
    which connection the edge order selects, so it is not checked."""
    return lambda r: (
        r is not None
        and r["all_match"] is True
        and sum(len(p.split()) for p in r["paths"]) == 12 * n
    )


def thom_not_claimed(r) -> bool:
    """A non-orientable graph must not be reported as verified."""
    return r is None or r.get("all_match") is not True


# ---------------------------------------------------------------------------
# workloads


def _write(workdir: Path, name: str, doc: dict) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _op(name, kind, argv, exit_code, check) -> Op:
    return Op(name, kind, tuple(argv) + ("--json",), exit_code, check)


def lattice_typea(gk, rng, workdir: Path) -> tuple[list[Op], Op]:
    """A few large dense hnf and modp_rref systems; the skewed basis shows
    integer coefficient growth in the same lattice."""
    fl4 = graphs.flag(3)
    f_fl4 = _write(workdir, "Fl4", graphs.shuffled(fl4, rng))
    f_cp4 = _write(workdir, "CP4", graphs.shuffled(graphs.projective(4), rng))
    f_skew = _write(workdir, "Fl4-skew", graphs.shuffled(graphs.skewed(fl4), rng))
    checks = [
        _op("validate Fl4", "checks", ["validate", f_fl4], 0, ok_is(True)),
        _op("spin Fl4", "checks", ["spin", f_fl4], 0, spin_is(True)),
    ]
    ops = [
        _op("cohomology Fl4 Z<=4", "cohomology",
            ["cohomology", f_fl4, "--ring", "Z", "--max-degree", "4"], 0,
            ranks_are(free_ranks(3, FL3_BETTI, 4))),
        _op("cohomology CP4 Z3<=6", "cohomology",
            ["cohomology", f_cp4, "--ring", "Z3", "--max-degree", "6"], 0, cp4_z3(6)),
        _op("cohomology Fl4-skew Z<=4", "cohomology",
            ["cohomology", f_skew, "--ring", "Z", "--max-degree", "4"], 0,
            ranks_are(free_ranks(3, FL3_BETTI, 4))),
    ]
    return ops + checks * 6, checks[0]


def _linear_form(w) -> str:
    return " + ".join(f"{c}*{x}" for c, x in zip(w, "xy") if c)


def _q4_classes(workdir: Path) -> str:
    """The module generators t_i of Q4: the label of axis i on the vertices
    whose bit i is set."""
    vertices = graphs.cube(Q4_LABELS)["vertices"]
    spec = {
        f"t{i + 1}": {"degree": 2, "values": {v: _linear_form(w) for v in vertices if v[i] == "1"}}
        for i, w in enumerate(Q4_LABELS)
    }
    path = workdir / "Q4-classes.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return str(path)


def _q4_relations() -> list[str]:
    """t_i^2 = w_i t_i for each generator, and one commutation."""
    rels = [f"t{i + 1}*t{i + 1} == ({_linear_form(w)})*t{i + 1}" for i, w in enumerate(Q4_LABELS)]
    return rels + ["t1*t2*t3*t4 == t4*t3*t2*t1"]


def reduction_special(gk, rng, workdir: Path) -> tuple[list[Op], Op]:
    """Cubes with one special edge class: many mid-size lattices built once
    per degree, then reused by reduction, preimage solving and total_sw."""
    files = {
        "Q4": _write(workdir, "Q4", graphs.shuffled(graphs.cube(Q4_LABELS), rng)),
        "Q5": _write(workdir, "Q5", graphs.shuffled(graphs.cube(Q5_LABELS), rng)),
        "Q4k3": _write(workdir, "Q4k3", graphs.shuffled(graphs.cube(Q4K3_LABELS), rng)),
        "paper8": _write(workdir, "paper8", graphs.shuffled(gk.fixtures.paper8().to_dict(), rng)),
    }
    # the built-in generators a1..a4 exist only for the fixture in its own order
    p8_fixed = _write(workdir, "paper8-fixture", gk.fixtures.paper8().to_dict())
    classes = _q4_classes(workdir)
    valence = {"Q4": 4, "Q5": 5, "Q4k3": 4, "paper8": 4}
    # name: (max degree, mod-2 ranks pinned from the seed code, integral ranks);
    # the mod-2 ranks include the b-part summand, which has no closed form here
    z2 = {
        "Q5": (4, [1, 7, 20], free_ranks(2, cube_betti(5), 4)),
        "Q4k3": (6, [1, 6, 18, 38], free_ranks(3, cube_betti(4), 6)),
        # paper8 is free on generators of degrees 0, 4, 4, 8
        "paper8": (6, [1, 2, 4, 6], free_ranks(2, (1, 0, 2, 0, 1), 6)),
    }
    ops = []
    for name in ("Q4", "Q4k3", "paper8"):
        cube = name != "paper8"
        ops.append(_op(f"obstruction {name}", "obstruction", ["obstruction", files[name]],
                       0 if cube else 1,
                       verdict_is("PASSES", None) if cube else verdict_is("OBSTRUCTED", 2)))
    for name in files:
        ops.append(_op(f"sw {name}", "sw",
                       ["sw", files[name], "--independence-trials", "8"], 0,
                       sw_choice_free(valence[name] + 1)))
    for name, (top, ranks, integral) in z2.items():
        ops.append(_op(f"cohomology {name} Z2<={top}", "cohomology",
                       ["cohomology", files[name], "--ring", "Z2", "--max-degree", str(top)], 0,
                       modp_ranks_are(ranks, integral)))
    checks = []
    for name in files:
        spin = name != "paper8"
        checks.append(_op(f"spin {name}", "checks", ["spin", files[name]],
                          0 if spin else 1, spin_is(spin)))
        checks.append(_op(f"validate --require-spin {name}", "checks",
                          ["validate", "--require-spin", files[name]], 0 if spin else 1, ok_is(spin)))
    checks.append(_op("relations paper8", "checks",
                      ["relations", p8_fixed, *(a for rel in PAPER8_RELATIONS for a in ("--check", rel))],
                      0, ok_is(True)))
    checks.append(_op("relations Q4", "checks",
                      ["relations", files["Q4"], "--classes", classes,
                       *(a for rel in _q4_relations() for a in ("--check", rel))],
                      0, ok_is(True)))
    return ops + checks * 4, checks[0]


def paths_structure(gk, rng, workdir: Path) -> tuple[list[Op], Op]:
    """Graph, connection, thom and polynomial work with hnf almost bypassed."""
    fl5 = _write(workdir, "Fl5", graphs.shuffled(graphs.flag(4), rng))
    k4 = _write(workdir, "k4", graphs.shuffled(gk.fixtures.k4().to_dict(), rng))
    prism = _write(workdir, "prism32", graphs.shuffled(graphs.prism(32), rng))
    ops = [
        _op("thom prism32", "thom", ["thom", prism], 0, thom_prism(32)),
        _op("sw Fl5", "sw", ["sw", fl5], 0, sw_plain(7)),
        _op("validate Fl5", "checks", ["validate", fl5], 0, ok_is(True)),
        _op("spin Fl5", "checks", ["spin", fl5], 0, spin_is(True)),
        # README: exit 1 when the property fails; the seed code exits 2 here
        _op("thom k4", "thom", ["thom", k4], 1, thom_not_claimed),
    ]
    warmup = _op("validate prism32", "checks", ["validate", prism], 0, ok_is(True))
    return ops, warmup


WORKLOADS = {
    "lattice-typeA": lattice_typea,
    "reduction-special": reduction_special,
    "paths-structure": paths_structure,
}


def run_op(main, op: Op) -> tuple[float, object, str, str]:
    """Invoke the CLI once; returns (wall seconds, exit code, stdout, stderr).

    An exception escaping ``main`` is returned as its repr in place of
    the exit code, so the op counts as failed.
    """
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(op.argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception as exc:  # a traceback is an op failure, not a benchmark crash
        code = repr(exc)
    return perf_counter() - start, code, out.getvalue(), err.getvalue()


def prepare(workload: str, seed: int, workdir: Path):
    """Generate the inputs, import gkmcohom and run the warm-up op.

    Returns (the package, the op list of one pass).
    """
    gk = import_gkmcohom()
    import gkmcohom.cli  # noqa: F401  (the entry point every op calls)

    workdir.mkdir(parents=True, exist_ok=True)
    ops, warmup = WORKLOADS[workload](gk, random.Random(seed), workdir)
    _, code, out, _ = run_op(gk.cli.main, warmup)
    if code != warmup.exit or not warmup.check(json.loads(out)):
        raise RuntimeError(f"warm-up op {warmup.name!r} failed with exit {code!r}")
    return gk, ops


if __name__ == "__main__":
    prepare(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))

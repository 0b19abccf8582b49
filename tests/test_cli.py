"""Command-line interface: exit codes, report shape, determinism."""

from __future__ import annotations

import gc
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gkmcohom
from gkmcohom import cohomology, fixtures
from gkmcohom.cli import main
from gkmcohom.graph import GkmGraph, GraphFormatError, parse
from gkmcohom.intlinalg import PRIME_BOUND
from gkmcohom.polyring import var_names

import test_golden as golden
from helpers import (
    dropping_a_term,
    projective_space,
    record_kernel_primes,
    record_vertex_classes,
    recursion_headroom,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# exit codes


def test_validate_passes_on_square_graph(capsys):
    code, out, _ = run(capsys, "validate", "fixtures:paper8")
    assert code == 0
    assert "orientable" in out


def test_validate_fails_below_spin_requirement(capsys):
    code, _, _ = run(capsys, "validate", "fixtures:paper8", "--require-spin")
    assert code == 1


def test_validate_fails_on_nonorientable_graph(capsys):
    code, report, _ = run_json(capsys, "validate", "fixtures:k4")
    assert code == 1
    by_name = {c["check"]: c["ok"] for c in report["checks"]}
    assert by_name["orientable"] is False
    assert by_name["gkm_axioms"] is True


def test_spin_exit_tracks_verdict(capsys):
    assert run(capsys, "spin", "fixtures:paper8")[0] == 1
    assert run(capsys, "spin", "fixtures:product(1,0;0,1;1,1)")[0] == 0


def test_obstruction_exit_tracks_verdict(capsys):
    code, report, _ = run_json(capsys, "obstruction", "fixtures:paper8")
    assert code == 1
    assert report["verdict"] == "OBSTRUCTED"
    assert report["failing_degree"] == 2
    code2, report2, _ = run_json(
        capsys, "obstruction", "fixtures:product(1,0;0,1;1,1)"
    )
    assert code2 == 0
    assert report2["verdict"] == "PASSES"


def test_thom_exit_tracks_match(capsys):
    code, report, _ = run_json(capsys, "thom", "fixtures:polygon2n_x_edge(2)")
    assert code == 0
    assert report["all_match"] is True
    assert report["path_count"] == 6


@pytest.mark.parametrize(
    "spec, expected",
    [
        ("polygon2n_x_edge(2)", 0),
        ("triangle_x_edge", 0),
        ("product(1,0;0,1;1,1)", 0),
        # graphs the verification does not apply to: the property fails
        ("k4", 1),  # not orientable
        ("paper8", 1),  # 4-valent
        ("triangle", 1),  # 2-valent
        ("polygon(6)", 1),  # 2-valent
        ("sphere(2,0)", 1),  # 1-valent
        ("product(1,0,0;0,1,0;0,0,1)", 1),  # torus rank 3
        # malformed references are usage errors
        ("product(1,0;0,1)", 2),
        ("sphere(1,x)", 2),
        ("polygon(3)", 2),
        ("k4(1)", 2),
        ("paper8(", 2),
        ("k4(", 2),
        ("nonsense", 2),
    ],
)
def test_thom_exit_codes(capsys, spec, expected):
    code, out, err = run(capsys, "thom", f"fixtures:{spec}", "--json")
    assert code == expected
    assert bool(out) == (expected == 0)
    assert bool(err) == (expected != 0)


# (subcommand argv, expected exit on paper8, k4, sphere(2,0))
_EXIT_TABLE = [
    (("validate",), (0, 1, 1)),  # k4 is not orientable; sphere(2,0) is not effective
    (("validate", "--require-spin"), (1, 1, 1)),
    (("cohomology", "--max-degree", "4"), (0, 0, 0)),
    (("cohomology", "--ring", "Z2", "--max-degree", "4"), (0, 0, 0)),
    (("sw",), (0, 0, 0)),
    (("sw", "--degree", "2"), (0, 0, 0)),
    (("spin",), (1, 0, 0)),
    (("obstruction",), (1, 0, 0)),
    (("thom",), (1, 1, 1)),  # none is a 3-valent orientable graph
    (("relations", "--check", "x*x == x*x"), (0, 0, 0)),
    (("relations", "--ring", "Z2", "--check", "x*x == x*x"), (0, 0, 0)),
    (("relations", "--check", "x == y"), (1, 1, 1)),
    # the paper8 generators exist on paper8 only; mod 2 their quotient parts print
    (("relations", "--ring", "Z2", "--check", "a1*a1 == a1"), (0, 2, 2)),
    (("sw", "--independence-trials", "-3"), (2, 2, 2)),  # a usage error on any graph
]


@pytest.mark.parametrize(
    "argv, spec, expected",
    [
        (argv, spec, code)
        for argv, codes in _EXIT_TABLE
        for spec, code in zip(("paper8", "k4", "sphere(2,0)"), codes)
    ],
)
def test_exit_codes_across_subcommands(capsys, argv, spec, expected):
    code, out, err = run(capsys, argv[0], f"fixtures:{spec}", *argv[1:], "--json")
    assert code == expected
    if out:
        assert json.loads(out)["command"] == argv[0]
    else:
        # only a graph the question does not apply to, a name the graph
        # does not define, or a usage error prints no report
        assert (argv[0], code) in {("thom", 1), ("relations", 2), ("sw", 2)}
        assert err.startswith("error: ")


def test_a_negative_trial_count_is_a_usage_error(capsys):
    """It is rejected before the graph loads, as a negative --max-degree is,
    instead of silently dropping the choice-independence report."""
    code, out, err = run(capsys, "sw", "fixtures:nonsense", "--independence-trials", "-3")
    assert (code, out, err) == (2, "", "error: --independence-trials must be non-negative\n")


# well-formed graphs outside a computation's domain: the path a-b-c is not
# regular; the triangle with labels (2,0), (0,1), (1,1) and the one with
# labels (1,0), (0,1), (1,2) admit no compatible bijection at edge 0 (the
# second has no even label); in the triangle with labels (1,0), (1,0), (2,0)
# adjacent labels are parallel, so no transport sign is determined
_DOMAIN_GRAPHS = {
    "path": [("a", "b", [1, 0]), ("b", "c", [0, 1])],
    "triangle": [("a", "b", [2, 0]), ("b", "c", [0, 1]), ("a", "c", [1, 1])],
    "odd_triangle": [("a", "b", [1, 0]), ("b", "c", [0, 1]), ("a", "c", [1, 2])],
    "parallel": [("a", "b", [1, 0]), ("b", "c", [1, 0]), ("a", "c", [2, 0])],
}
_AMBIGUOUS = "ambiguous transport sign along edge {}: adjacent labels fail linear independence"


def _domain_graph(tmp_path, graph):
    edges = [{"u": u, "v": v, "label": w} for u, v, w in _DOMAIN_GRAPHS[graph]]
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"torus_rank": 2, "vertices": ["a", "b", "c"], "edges": edges}))
    return str(path)


@pytest.mark.parametrize(
    "command, graph, message",
    [(cmd, "path", "graph is not regular") for cmd in ("sw", "obstruction", "thom")]
    + [
        (cmd, "triangle", "no compatible local bijection at edge 0")
        for cmd in ("sw", "spin", "obstruction")
    ]
    + [
        (cmd, "odd_triangle", "no compatible local bijection at edge 0")
        for cmd in ("sw", "obstruction")
    ]
    + [(cmd, "parallel", _AMBIGUOUS.format(2)) for cmd in ("sw", "spin", "obstruction")],
)
def test_graphs_outside_the_domain_exit_1(tmp_path, capsys, command, graph, message):
    code, out, err = run(capsys, command, _domain_graph(tmp_path, graph))
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_odd_edges_without_bijection_are_reported_only_by_validate(tmp_path, capsys):
    """The cube of the three coordinate labels with edge 11 relabelled
    (0,0,3): edges 1, 3, 5 and 7 admit no compatible bijection, so
    ``validate`` fails ``connection_exists``.  No label is even and every
    congruence of the mod-2 vertex parts holds, so ``sw``, ``spin`` and
    ``obstruction`` search no edge and report, exit 0, as the README says."""
    from gkmcohom.connection import edge_matchings

    cube = fixtures.product((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert cube.vertices[cube.edges[11][0]] == "110" and cube.vertices[cube.edges[11][1]] == "111"
    edges = [
        (cube.vertices[u], cube.vertices[v], (0, 0, 3) if eid == 11 else w)
        for eid, (u, v, w) in enumerate(cube.edges)
    ]
    g = GkmGraph(3, list(cube.vertices), edges)
    assert [eid for eid in range(12) if not edge_matchings(g, eid)] == [1, 3, 5, 7]
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(g.to_dict()))
    code, report, err = run_json(capsys, "validate", str(path))
    checks = {c["check"]: c for c in report["checks"]}
    assert (code, err, report["ok"]) == (1, "", False)
    assert checks["connection_exists"]["issues"] == ["no compatible connection"]
    assert [c["check"] for c in report["checks"] if not c["ok"]] == ["connection_exists"]
    code, report, err = run_json(capsys, "sw", str(path))
    assert (code, err, report["special_edges"]) == (0, "", [])
    code, report, err = run_json(capsys, "spin", str(path))
    assert (code, err, report["nonequivariant"]) == (0, "", True)
    code, report, err = run_json(capsys, "obstruction", str(path))
    assert (code, err, report["verdict"]) == (0, "", "PASSES")


def test_validate_reports_parallel_adjacent_labels(tmp_path, capsys):
    path = _domain_graph(tmp_path, "parallel")
    code, report, err = run_json(capsys, "validate", path, "--require-spin")
    assert (code, err) == (1, "")
    issues = {c["check"]: c["issues"] for c in report["checks"]}
    assert issues["orientable"] == [_AMBIGUOUS.format(0)]
    assert issues["spin"] == [_AMBIGUOUS.format(2)]
    assert report["ok"] is False


@pytest.mark.parametrize(
    "spec, message",
    [
        (["a"], "class file: need an object {name: {degree, values}}"),
        (
            {"b1": {"degree": 2, "values": ["x"]}},
            "class 'b1': 'values' must be an object {vertex: expr}",
        ),
        ({"b1": {"degree": [2]}}, "class 'b1': non-integer degree [2]"),
        ({"b1": {"degree": 2.5, "values": {}}}, "class 'b1': non-integer degree 2.5"),
        ({"b1": {"degree": "2", "values": {}}}, "class 'b1': non-integer degree '2'"),
        ({"b1": {"degree": True, "values": {}}}, "class 'b1': non-integer degree True"),
        ({"b1": {"degree": 0, "values": {"lr": True}}}, "vertex 'lr': value is not a polynomial"),
    ],
)
def test_malformed_class_file_is_a_usage_error(tmp_path, capsys, spec, message):
    path = tmp_path / "classes.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(
        capsys, "relations", "fixtures:paper8", "--check", "a1 == a1", "--classes", str(path)
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("sw", "--ring", "Z3"),
        ("sw", "--p", "7"),
        ("relations", "--degree", "2", "--check", "x == x"),
        ("relations", "--max-degree", "4", "--check", "x == x"),
    ],
)
def test_flags_a_subcommand_ignores_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "fixtures:paper8", *argv[1:]])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_invariant_error_is_not_a_usage_error():
    from gkmcohom.graph import InvariantError

    assert issubclass(InvariantError, RuntimeError)
    assert not issubclass(InvariantError, ValueError)


def test_invariant_violation_exits_3_without_traceback_under_optimize():
    """The kernel non-class check is explicit, so it survives ``python -O``:
    a kernel with one coordinate of its first vector changed (the constant
    class of degree 0, which every edge then breaks) ends in exit 3, over
    Z and over Z2."""
    for ring in ("Z", "Z2"):
        script = (
            "import sys\n"
            "import gkmcohom.cohomology as cohomology\n"
            "from gkmcohom.cli import main\n"
            "from gkmcohom.intlinalg import LatticeBasis\n"
            "assert False, 'asserts must be off'\n"
            "real = cohomology.sparse_kernel\n"
            "def corrupted(rows, moduli, ncols, p=0):\n"
            "    lat, clean = real(rows, moduli, ncols, p)\n"
            "    (c, x), *rest = lat.vectors[0]\n"
            "    x = (x + 1) % p if p else x + 1\n"
            "    first = ((c, x),) * (x != 0) + tuple(rest)\n"
            "    return LatticeBasis(lat.ambient_dim, (first,) + lat.vectors[1:], lat.p), clean\n"
            "cohomology.sparse_kernel = corrupted\n"
            f"sys.exit(main(['cohomology', 'fixtures:paper8', '--ring', {ring!r}, '--json']))\n"
        )
        paths = [str(Path(gkmcohom.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 3, (ring, proc.stderr)
        assert proc.stdout == ""
        assert proc.stderr.startswith("internal error: kernel solver produced a non-class"), ring
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "spec, patch, degree2",
    [
        # a clean integral solve: the mod-p piece is the reduced integral
        # HNF, and no mod-p solve may run
        pytest.param(
            "product(1,0;0,1;1,1)",
            "real_kernel = cohomology.sparse_kernel\n"
            "def integral_only(rows, moduli, ncols, p=0):\n"
            "    if p:\n"
            "        sys.exit(5)\n"
            "    return real_kernel(rows, moduli, ncols, p)\n"
            "cohomology.sparse_kernel = integral_only\n"
            "class Corrupted(LatticeBasis):\n"
            "    @classmethod\n"
            "    def from_vectors(cls, ambient_dim, vecs, p=0):\n"
            "        lat = LatticeBasis.from_vectors(ambient_dim, vecs, p)\n"
            "        if not p:\n"
            "            return lat\n"
            "        (c, x), *rest = lat.vectors[0]\n"
            "        x = (x + 1) % p\n"
            "        first = ((c, x),) * (x != 0) + tuple(rest)\n"
            "        return LatticeBasis(lat.ambient_dim, (first,) + lat.vectors[1:], p)\n"
            "cohomology.LatticeBasis = Corrupted\n",
            0,
            id="reduced-integral-piece",
        ),
        # from degree 2 on an unclean one (a label of content 2): the
        # mod-p solve runs
        pytest.param(
            "paper8",
            "real_kernel = cohomology.sparse_kernel\n"
            "def corrupted(rows, moduli, ncols, p=0):\n"
            "    lat, clean = real_kernel(rows, moduli, ncols, p)\n"
            "    if not p:\n"
            "        return lat, clean\n"
            "    (c, x), *rest = lat.vectors[0]\n"
            "    x = (x + 1) % p\n"
            "    first = ((c, x),) * (x != 0) + tuple(rest)\n"
            "    return LatticeBasis(lat.ambient_dim, (first,) + lat.vectors[1:], p), clean\n"
            "cohomology.sparse_kernel = corrupted\n",
            2,
            id="mod-p-solve",
        ),
    ],
)
def test_a_corrupted_mod_p_piece_exits_3_under_optimize(spec, patch, degree2):
    """The mod-p piece is checked against the mod-p edge rows on both
    paths of ``--ring Z2``, under ``python -O`` too: one coordinate of
    its first vector changed after the integral piece has passed its own
    check, whether that vector is the reduction of the integral HNF or
    comes from the mod-p solve, ends in exit 3."""
    script = (
        "import sys\n"
        "import gkmcohom.cohomology as cohomology\n"
        "from gkmcohom.cli import main\n"
        "from gkmcohom.intlinalg import LatticeBasis\n"
        "assert False, 'asserts must be off'\n"
        f"{patch}"
        f"sys.exit(main(['cohomology', 'fixtures:{spec}', '--ring', 'Z2', '--json']))\n"
    )
    paths = [str(Path(gkmcohom.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == f"internal error: kernel solver produced a non-class in degree {degree2}\n"


def test_a_corrupted_map_back_exits_3(capsys, monkeypatch):
    """The product with labels (2,0), (2,-3), (3,-3) is solved over Z in
    a basis of its own labels; a map-back substitution with one term
    dropped gives non-classes, which the check on the graph's own edge
    rows reports as an internal error, exit 3, over Z and over Z2, whose
    command solves the integral pieces too."""
    argv = ["cohomology", "fixtures:product(2,0;2,-3;3,-3)", "--json", "--ring"]
    assert run(capsys, *argv, "Z")[0] == 0
    monkeypatch.setattr(cohomology, "linear_substitution", dropping_a_term(cohomology.linear_substitution))
    for ring in ("Z", "Z2"):
        code, out, err = run(capsys, *argv, ring)
        assert code == 3, (ring, err)
        assert out == ""
        assert err == "internal error: kernel solver produced a non-class in degree 2\n", ring


@pytest.mark.parametrize(
    "error, message",
    [
        (MemoryError(), "error: out of memory\n"),
        (KeyError("boom"), "internal error: KeyError: 'boom'\n"),
    ],
    ids=["memory", "unexpected"],
)
def test_an_unmapped_error_exits_3_on_one_line(capsys, monkeypatch, error, message):
    """Running out of memory, or an exception ``main`` maps to no other
    code, is no verdict: exit 3 (not 1, which reads OBSTRUCTED) and one
    stderr line."""
    from gkmcohom import cli

    def failing(g):
        raise error

    monkeypatch.setattr(cli, "realizability_obstruction", failing)
    assert run(capsys, "obstruction", "fixtures:paper8") == (3, "", message)


def test_running_out_of_memory_prints_no_traceback():
    script = (
        "import sys\n"
        "from gkmcohom import cli\n"
        "def failing(g):\n"
        "    raise MemoryError\n"
        "cli.realizability_obstruction = failing\n"
        "sys.exit(cli.main(['obstruction', 'fixtures:paper8']))\n"
    )
    paths = [str(Path(gkmcohom.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", "error: out of memory\n")
    assert "Traceback" not in proc.stderr


def test_obstruction_on_cp6_fits_in_256_mb(tmp_path):
    """The memory wall of dense lattice vectors, pinned: ``obstruction`` on
    CP^6 solves the integral piece up to degree 12, 1716 vectors of width
    6468 with 0.19 % of their cells nonzero.  Kept as (column, value)
    pairs it passes in a process whose address space is capped at 256 MB;
    as dense rows, about 300 MB at peak, it ran out of memory there
    (exit 3)."""
    resource = pytest.importorskip("resource")
    path = tmp_path / "cp6.json"
    path.write_text(json.dumps(projective_space(6).to_dict()))
    cap = 256 * 2**20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    paths = [str(Path(gkmcohom.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-m", "gkmcohom.cli", "obstruction", str(path)],
        capture_output=True, text=True, env=env, timeout=300, preexec_fn=limit,
    )
    assert proc.returncode == 0, proc.stderr
    assert "verdict: PASSES" in proc.stdout


@pytest.mark.parametrize(
    "module, name, argv, message",
    [
        # the case keeps the id it had when charclasses called the alias
        # membership_modp
        pytest.param("charclasses", "membership_z", ["sw", "fixtures:paper8"],
                     "vertex parts violate a mod-2 congruence",
                     id="charclasses-membership_modp-argv0-vertex parts violate a mod-2 congruence"),
        # _check_local is the path class's membership_z on its support; the
        # case keeps the id it has had since the check was a whole-class one.
        pytest.param("thom", "congruent_mod_weight", ["thom", "fixtures:triangle_x_edge"],
                     "path class violates an edge congruence",
                     id="thom-membership_z-argv1-path class violates an edge congruence"),
        ("thom", "congruent_mod_weight", ["thom", "fixtures:triangle_x_edge"],
         "edge class violates an edge congruence"),
        ("thom", "congruent_mod_weight", ["thom", "fixtures:triangle_x_edge"],
         "vertex class violates an edge congruence"),
    ],
)
def test_class_checks_exit_3_without_traceback_under_optimize(module, name, argv, message):
    """The total-class and Thom-class membership checks are explicit, so a
    violation still ends in exit 3 under ``python -O``.  The local path,
    edge and vertex checks share the congruence test; each fault fails it
    only at the polynomial degree of its kind of class (1, 2 and 3)."""
    fault = "lambda g, cls: False"
    local_degree = {
        "path class violates an edge congruence": 1,
        "edge class violates an edge congruence": 2,
        "vertex class violates an edge congruence": 3,
    }.get(message)
    if local_degree is not None:
        fault = f"lambda f, h, w, real=target.{name}: f.degree != {local_degree} and real(f, h, w)"
    script = (
        "import sys\n"
        f"import gkmcohom.{module} as target\n"
        "from gkmcohom.cli import main\n"
        "assert False, 'asserts must be off'\n"
        f"target.{name} = {fault}\n"
        f"sys.exit(main({argv + ['--json']!r}))\n"
    )
    paths = [str(Path(gkmcohom.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == f"internal error: {message}\n"


@pytest.mark.parametrize(
    "module, patch, argv, message",
    [
        (
            "cohomology",
            "real = target.modp_solve\n"
            "target.modp_solve = lambda rows, b, p: [(c + 1) % p for c in real(rows, b, p)]\n",
            ["obstruction", "fixtures:paper8"],
            "integral preimage does not reduce to the target",
        ),
        (
            "charclasses",
            "target.divide_by_linear = lambda f, w: None\n",
            ["sw", "fixtures:paper8"],
            "SW numerator not divisible by the edge lift",
        ),
    ],
)
def test_preimage_and_sw_quotient_checks_exit_3_under_optimize(module, patch, argv, message):
    """The re-reduction of an integral preimage and the divisibility of an
    SW quotient are explicit checks, so they still end in exit 3 under
    ``python -O``."""
    script = (
        "import sys\n"
        f"import gkmcohom.{module} as target\n"
        "from gkmcohom.cli import main\n"
        "assert False, 'asserts must be off'\n"
        f"{patch}"
        f"sys.exit(main({argv + ['--json']!r}))\n"
    )
    paths = [str(Path(gkmcohom.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == f"internal error: {message}\n"


def test_validate_require_spin_finds_the_connection_once(capsys, monkeypatch):
    from gkmcohom import cli

    calls = []
    real = cli.find_connection

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(cli, "find_connection", counting)
    code, report, _ = run_json(capsys, "validate", "fixtures:paper8", "--require-spin")
    assert code == 1
    assert [c["check"] for c in report["checks"]][-1] == "spin"
    assert len(calls) == 1


def test_unknown_fixture_is_a_usage_error(capsys):
    code, _, err = run(capsys, "validate", "fixtures:nonsense")
    assert code == 2
    assert err


def test_missing_file_is_a_usage_error(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/graph.json")
    assert code == 2
    assert err


def test_graph_with_a_boolean_vertex_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "graph.json"
    edge = {"u": "a", "v": True, "label": [True, 0]}
    path.write_text(json.dumps({"torus_rank": 2, "vertices": ["a", "b"], "edges": [edge]}))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == "" and "unknown vertex True" in err


def test_graph_required(capsys):
    code, _, err = run(capsys, "validate")
    assert code == 2


def test_both_positional_and_fixture_flag_rejected(capsys):
    code, _, err = run(capsys, "validate", "fixtures:paper8", "--fixture", "k4")
    assert code == 2


def test_bad_ring_is_a_usage_error(capsys):
    code, _, _ = run(capsys, "cohomology", "fixtures:paper8", "--ring", "Z4")
    assert code == 2
    code, _, _ = run(capsys, "cohomology", "fixtures:paper8", "--ring", "Q")
    assert code == 2


@pytest.mark.parametrize("command", [("cohomology", "--degree", "2"), ("relations", "--check", "x == x")])
@pytest.mark.parametrize("ring", ["Z", "Z2", "Z3"])
def test_p_with_a_ring_other_than_zp_is_a_usage_error(capsys, command, ring):
    """``--p`` picks the prime of ``--ring Zp`` only; given with any other
    ring it is a usage error naming both flags, not silently ignored.
    ``--ring Zp`` without ``--p`` is over Z_2."""
    result = run(capsys, command[0], "fixtures:k4", "--ring", ring, "--p", "3", *command[1:])
    assert result == (2, "", f"error: --p 3 applies only to --ring Zp, not to --ring {ring}\n")
    default = run(capsys, command[0], "fixtures:k4", "--ring", "Zp", *command[1:])
    assert default == run(capsys, command[0], "fixtures:k4", "--ring", "Z2", *command[1:])
    assert default[0] == 0


def test_a_large_ring_prime_is_decided_at_once(capsys):
    """A ring prime near 10^18 is accepted within seconds, and a modulus
    from the exact bound of the primality test on is a usage error that
    names its flag."""
    script = (
        "import sys\n"
        "from gkmcohom.cli import main\n"
        "sys.exit(main(['cohomology', 'fixtures:paper8', '--ring', 'Z1000000000000000003',"
        " '--degree', '0']))\n"
    )
    paths = [str(Path(gkmcohom.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=10
    )
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    assert "1000000000000000003" in proc.stdout
    too_large = f"a prime must be below {PRIME_BOUND}, the bound of the primality test\n"
    for args, flag in (
        (("--ring", f"Z{PRIME_BOUND}"), "--ring"),
        (("--ring", "Zp", "--p", str(PRIME_BOUND + 2)), "--p"),
    ):
        result = run(capsys, "cohomology", "fixtures:paper8", *args)
        assert result == (2, "", f"error: {flag}: {too_large}")


def test_bad_lift_override_is_a_usage_error(capsys):
    code, _, err = run(
        capsys, "sw", "fixtures:paper8", "--lift-override", "1:1,1"
    )
    assert code == 2
    assert "lift override" in err


def test_out_of_range_override_is_a_usage_error(capsys):
    code, _, err = run(
        capsys, "sw", "fixtures:paper8", "--orientation-override", "99:-"
    )
    assert code == 2
    assert "edge 99" in err


# ---------------------------------------------------------------------------
# cohomology reports


def test_integral_ranks_report(capsys):
    code, report, _ = run_json(
        capsys, "cohomology", "fixtures:paper8", "--max-degree", "8"
    )
    assert code == 0
    ranks = [d["rank"] for d in report["degrees"]]
    assert ranks == [1, 2, 5, 8, 12]


def test_modp_report_tracks_integral_rank(capsys):
    code, report, _ = run_json(
        capsys,
        "cohomology",
        "fixtures:product(1,0;0,1;1,3)",
        "--ring",
        "Z3",
        "--degree",
        "2",
    )
    assert code == 0
    (entry,) = report["degrees"]
    assert entry["rank"] == 6
    assert entry["integral_rank"] == 5
    assert entry["reduction_kernel_dim"] == 0


def test_reduction_kernel_is_flagged(capsys):
    code, report, _ = run_json(
        capsys, "cohomology", "fixtures:sphere(2,0)", "--ring", "Z2", "--degree", "2"
    )
    assert code == 0
    (entry,) = report["degrees"]
    assert entry["reduction_kernel_dim"] == 1
    assert "note" in entry


# ---------------------------------------------------------------------------
# characteristic classes and relations through the CLI


def test_cohomology_degree_above_the_recursion_limit(capsys):
    """A polynomial degree above the recursion limit, 60 frames above the
    current depth, ends in a report and not a RecursionError: the
    coefficient maps are built degree by degree."""
    d = 150
    with recursion_headroom(60):
        assert sys.getrecursionlimit() < d
        code = main(["cohomology", "fixtures:sphere(1,0)", "--degree", str(2 * d), "--json"])
    assert code == 0
    (piece,) = json.loads(capsys.readouterr().out)["degrees"]
    assert piece["rank"] == 2 * d + 1


def test_sw_report_degree_2(capsys):
    code, report, _ = run_json(
        capsys, "sw", "fixtures:paper8", "--degree", "2"
    )
    assert code == 0
    (comp,) = report["components"]
    assert comp["degree"] == 2
    assert comp["vertex_values"] == ["x + y"] * 4
    assert comp["b_part"] == {"1": "1", "5": "1"}
    assert report["special_edges"] == [1, 5]


def test_sw_choice_independence_flag(capsys):
    code, report, _ = run_json(
        capsys, "sw", "fixtures:paper8", "--independence-trials", "16"
    )
    assert code == 0
    assert report["choice_independence"] == {"1": True, "5": True}


def test_relations_positive_and_negative(capsys):
    ok = run(
        capsys,
        "relations",
        "fixtures:paper8",
        "--check",
        "a2*a3 == -a4 + 2*x*y*a2",
        "--check",
        "a1*a1 == a1",
    )
    assert ok[0] == 0
    bad = run(capsys, "relations", "fixtures:paper8", "--check", "a2 == a3")
    assert bad[0] == 1


def test_relations_zero_summands_and_degree_mismatch(capsys):
    for text in ("(x-x)*y + x == x", "x + 0 == x", "0*x + 1 == 1"):
        assert run(capsys, "relations", "fixtures:paper8", "--check", text)[0] == 0, text
    code, out, err = run(capsys, "relations", "fixtures:paper8", "--check", "x + 2 == x")
    assert (code, out, err) == (2, "", "error: cannot add summands of degrees 2 and 0\n")


def test_relations_from_class_file(tmp_path, capsys):
    g_vertices = ["lr", "ur", "ul", "ll"]
    spec = {
        "b1": {"degree": 2, "values": {v: "x" for v in g_vertices}},
        "b2": {"degree": 4, "values": {v: "x**2" for v in g_vertices}},
    }
    path = tmp_path / "classes.json"
    path.write_text(json.dumps(spec))
    code, report, _ = run_json(
        capsys,
        "relations",
        "fixtures:paper8",
        "--classes",
        str(path),
        "--check",
        "b1*b1 == b2",
    )
    assert code == 0
    assert report["ok"] is True
    assert report["relations"][0]["holds"] is True
    assert "b1" in report["names"] and "b2" in report["names"]


def test_relations_reduce_class_file_entries_mod_p(tmp_path, capsys):
    # --classes entries are reduced mod p like the paper8 generators, so
    # they multiply with them over Z3
    spec = {"b1": {"degree": 2, "values": {v: "x" for v in ["lr", "ur", "ul", "ll"]}}}
    path = tmp_path / "classes.json"
    path.write_text(json.dumps(spec))
    code, report, _ = run_json(
        capsys,
        "relations",
        "fixtures:paper8",
        "--ring",
        "Z3",
        "--classes",
        str(path),
        "--check",
        "b1*a1 == b1",
    )
    assert code == 0
    assert report["relations"][0]["holds"] is True


@pytest.mark.parametrize("ring", ["Z", "Z2"])
def test_relations_reject_a_class_file_entry_that_is_not_a_class(tmp_path, capsys, ring):
    # y at one vertex of paper8 and 0 elsewhere: y - 0 is not divisible by
    # the label (1, 0) of edge 0
    path = tmp_path / "classes.json"
    path.write_text(json.dumps({"b1": {"degree": 2, "values": {"lr": "y"}}}))
    code, out, err = run(
        capsys, "relations", "fixtures:paper8", "--ring", ring, "--classes", str(path),
        "--check", "b1*a1 == b1",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: class 'b1'")


@pytest.mark.parametrize("overrides, quotient", [((), "e8: 2"), (("--lift-override", "8:-3,-3"), "e8: 1")])
def test_relations_mod_p_quotients_follow_the_overrides(tmp_path, capsys, overrides, quotient):
    # 3x + 3y on the top face of the cube whose vertical label (3, 3)
    # vanishes mod 3: the quotient across edge 8 is 1 or -1 = 2 by the sign
    # of the lift
    top = ("001", "101", "011", "111")
    path = tmp_path / "classes.json"
    path.write_text(json.dumps({"b1": {"degree": 2, "values": {v: "3*x + 3*y" for v in top}}}))
    code, report, _ = run_json(
        capsys, "relations", "fixtures:product(1,0;0,1;3,3)", "--ring", "Z3",
        "--classes", str(path), "--check", "b1 == b1", *overrides,
    )
    assert code == 0
    assert f"b: {quotient}, e9: 2" in report["relations"][0]["lhs"]


def test_relation_syntax_error_is_a_usage_error(capsys):
    code, _, err = run(
        capsys, "relations", "fixtures:paper8", "--check", "a1 =="
    )
    assert code == 2


def test_deeply_nested_relations_exit_without_a_traceback(capsys):
    def check(text):
        return run(capsys, "relations", "fixtures:paper8", "--check", text)

    assert check("(" * 100 + "x" + ")" * 100 + " == x")[0] == 0
    deep = "(" * 400 + "x" + ")" * 400 + " == x"
    assert check(deep) == (2, "", "error: parentheses nested more than 100 deep\n")
    assert check("-" * 1200 + "x == x")[0] == 0
    assert check("-" * 1201 + "x == x")[0] == 1


def test_an_exponent_above_the_cap_exits_without_computing(capsys):
    def check(text):
        return run(capsys, "relations", "fixtures:sphere(1,0)", "--check", text)

    assert check("x^100 == x^100")[0] == 0
    assert check("x^101 == x") == (2, "", "error: exponent above 100\n")
    assert check("x^99999999 == x")[0] == 2


def _long_literal() -> str:
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("this interpreter converts integers of any length")
    return "9" * (limit + 1)


def _names_the_long_literal(result, what) -> bool:
    limit = sys.get_int_max_str_digits()
    message = f"error: {what}: an integer has more than {limit} digits, the longest this program reads\n"
    return result == (2, "", message)


def test_a_long_relation_literal_is_named(capsys):
    n = _long_literal()
    for text, position in ((f"x^{n} == x", 2), (f"x == {n}", 5)):
        result = run(capsys, "relations", "fixtures:sphere(1,0)", "--check", text)
        assert _names_the_long_literal(result, f"literal at position {position}"), text


def test_a_long_relation_value_is_named(capsys):
    """Literals the interpreter converts whose product it cannot: the
    message names the side of the relation and the limit."""
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("this interpreter converts integers of any length")
    n = "9" * (limit // 2 + 1)
    for text, side in ((f"{n}*{n} == 1", "left"), (f"x == x*{n}*{n}", "right")):
        result = run(capsys, "relations", "fixtures:sphere(1,0)", "--check", text)
        message = (
            f"error: {side} side of {text!r}: an integer has more than {limit} digits, "
            f"the longest this program writes\n"
        )
        assert result == (2, "", message), side


def test_a_long_override_or_ring_is_named(capsys):
    n = _long_literal()
    for flag, value in (
        ("--orientation-override", f"{n}:-"),
        ("--lift-override", f"{n}:1,0"),
        ("--lift-override", f"0:1,{n}"),
        ("--ring", f"Z{n}"),
    ):
        result = run(capsys, "cohomology", "fixtures:paper8", flag, value)
        assert _names_the_long_literal(result, flag), (flag, value[:8])


def test_a_non_integer_override_is_named(capsys):
    for flag, value, text in (
        ("--lift-override", "0:", ""),
        ("--lift-override", "0:1,,0", ""),
        ("--lift-override", "x:1,0", "x"),
        ("--orientation-override", "x:-", "x"),
    ):
        result = run(capsys, "cohomology", "fixtures:paper8", flag, value)
        assert result == (2, "", f"error: {flag} {value!r}: {text!r} is not an integer\n"), value


def test_a_long_label_in_a_graph_file_is_named(tmp_path, capsys):
    n = _long_literal()
    path = tmp_path / "graph.json"
    path.write_text(
        '{"torus_rank": 2, "vertices": ["a", "b"], '
        f'"edges": [{{"u": "a", "v": "b", "label": [1, {n}]}}]}}'
    )
    assert _names_the_long_literal(run(capsys, "validate", str(path)), "graph JSON")
    with pytest.raises(GraphFormatError, match="^graph JSON: an integer has more than"):
        parse(path.read_text())


def test_a_long_integer_in_a_class_file_is_named(tmp_path, capsys):
    n = _long_literal()
    path = tmp_path / "classes.json"
    path.write_text(f'{{"b1": {{"degree": {n}, "values": {{}}}}}}')
    result = run(
        capsys, "relations", "fixtures:sphere(1,0)", "--classes", str(path), "--check", "x == x"
    )
    assert _names_the_long_literal(result, f"class file {path}")


def test_deeply_nested_json_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100000)
    message = "error: graph JSON: arrays or objects nested too deep to read\n"
    assert run(capsys, "validate", str(path)) == (2, "", message)
    argv = ("relations", "fixtures:sphere(1,0)", "--classes", str(path), "--check", "x == x")
    message = f"error: class file {path}: arrays or objects nested too deep to read\n"
    assert run(capsys, *argv) == (2, "", message)


def test_cohomology_mod_p_builds_only_the_classes_it_renders(capsys, monkeypatch):
    # the integral piece beside each mod-p piece is read for its rank and
    # lattice only, so no integral class is built
    built = record_vertex_classes(monkeypatch)
    code, report, _ = run_json(capsys, "cohomology", "fixtures:paper8", "--ring", "Z2")
    assert code == 0
    rendered = [values for row in report["degrees"] for values in row["basis"]]
    assert rendered and [cls.render_values() for cls in built] == rendered
    assert {cls.p for cls in built} == {2}
    assert any(row["integral_rank"] for row in report["degrees"])


def test_one_vertex_at_a_large_torus_rank(tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"torus_rank": 1500, "vertices": ["a"], "edges": []}))
    for argv in (("cohomology", "--degree", "0"), ("sw",)):
        code, report, err = run_json(capsys, argv[0], str(path), *argv[1:])
        assert (code, err) == (0, "")
        assert report["graph"]["torus_rank"] == 1500


# ---------------------------------------------------------------------------
# robustness sweep over mutated fixtures

_SWEEP_FIXTURES = [
    "paper8", "sphere(1,0)", "product(1,0;0,1;1,1)", "product(1,0,0;0,1,0;0,0,1)",
    "polygon(4)", "polygon2n_x_edge(2)", "triangle", "triangle_x_edge", "k4",
]


def _mutate(rng: random.Random, doc: dict) -> dict:
    """One seeded change to a graph document: drop an edge, scale a label
    by 2, 3 or -1, copy another edge's label, draw a random nonzero label,
    or swap the endpoints of an edge."""
    edges = doc["edges"]
    i = rng.randrange(len(edges))
    kinds = ("drop", "scale", "copy", "random", "swap") if len(edges) > 1 else ("scale", "swap")
    kind = rng.choice(kinds)
    if kind == "drop":
        del edges[i]
    elif kind == "scale":
        s = rng.choice((2, 3, -1))
        edges[i]["label"] = [s * x for x in edges[i]["label"]]
    elif kind == "copy":
        edges[i]["label"] = list(rng.choice(edges[:i] + edges[i + 1 :])["label"])
    elif kind == "random":
        label = [0] * doc["torus_rank"]
        while not any(label):
            label = [rng.randint(-3, 3) for _ in label]
        edges[i]["label"] = label
    else:
        edges[i]["u"], edges[i]["v"] = edges[i]["v"], edges[i]["u"]
    return doc


def test_mutated_fixtures_exit_0_or_1_with_at_most_one_error_line(tmp_path, capsys):
    """Well-formed graphs never exit 2 or 3 and never leak an exception."""
    rng = random.Random(1)
    path = tmp_path / "graph.json"
    for _ in range(40):
        doc = _mutate(rng, fixtures.from_spec(rng.choice(_SWEEP_FIXTURES)).to_dict())
        path.write_text(json.dumps(doc))
        x = var_names(doc["torus_rank"])[0]
        for argv in (
            ("validate",),
            ("validate", "--require-spin"),
            ("cohomology", "--max-degree", "4"),
            ("cohomology", "--ring", "Z2", "--max-degree", "4"),
            ("sw",),
            ("spin",),
            ("obstruction",),
            ("thom",),
            ("relations", "--check", f"{x} == {x}"),
        ):
            code, _, err = run(capsys, argv[0], str(path), *argv[1:])
            assert code in (0, 1), (argv, doc, err)
            assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), (argv, doc, err)


# ---------------------------------------------------------------------------
# graph lifetime and graded-piece traffic


def _live_graphs() -> int:
    return sum(isinstance(o, GkmGraph) for o in gc.get_objects())


@pytest.mark.parametrize(
    "argv", [("cohomology", "--ring", "Z2"), ("obstruction",), ("thom",)]
)
def test_a_command_leaves_no_graph_alive(capsys, argv):
    # with the cyclic collector off, only reference counting can free the graph
    gc.collect()
    gc.disable()
    try:
        before = _live_graphs()
        assert run(capsys, argv[0], "fixtures:paper8", *argv[1:])[0] in (0, 1)
        assert _live_graphs() == before
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "graph, argv, solves",
    [
        ("CP4", ("--ring", "Z3", "--max-degree", "8"), 0),
        ("fixtures:k4", ("--ring", "Z2", "--degree", "2"), 1),
    ],
)
def test_a_mod_p_piece_is_solved_only_when_the_integral_solve_is_not_clean(
    tmp_path, capsys, monkeypatch, graph, argv, solves
):
    """``cohomology --ring Zp`` takes the mod-p piece off the integral
    solve when that solve is clean: CP^4 over Z3 up to degree 8 runs no
    mod-p solve, and k4 in degree 2, where the elimination divides a row
    by its content 2, runs one."""
    if graph == "CP4":
        path = tmp_path / "CP4.json"
        path.write_text(json.dumps(projective_space(4).to_dict()))
        graph = str(path)
    calls = record_kernel_primes(monkeypatch)
    assert run(capsys, "cohomology", graph, *argv)[0] == 0
    assert len([p for p in calls if p]) == solves
    assert calls.count(0) == (5 if argv[-1] == "8" else 1)


def test_no_command_solves_a_graded_piece_twice(capsys, monkeypatch):
    # pins the measured traffic: each command asks for each (degree, p) piece
    # at most once, so nothing needs to keep pieces on the graph
    solved, asked = [], []
    real_rows, real_kernel = cohomology._edge_rows, cohomology.sparse_kernel

    def edge_rows(g, d, p, relabel=None):
        asked.append((d, p))
        return real_rows(g, d, p, relabel)

    def kernel(rows, moduli, ncols, p):
        solved.append(asked[-1])
        return real_kernel(rows, moduli, ncols, p)

    monkeypatch.setattr(cohomology, "_edge_rows", edge_rows)
    monkeypatch.setattr(cohomology, "sparse_kernel", kernel)
    runs = [
        ["cohomology", f"fixtures:{spec}", "--ring", ring, "--max-degree", "8"]
        for spec in golden.FIXTURES
        for ring in golden.RINGS
    ]
    runs += [
        [cmd[0], f"fixtures:{spec}", *cmd[1:]]
        for cmd in golden.SUBCOMMANDS
        for spec in golden.SUBCOMMAND_FIXTURES
    ]
    runs += [
        ["relations", "fixtures:paper8", "--ring", ring, "--check", rel]
        for ring in golden.RELATION_RINGS
        for rel in golden.RELATIONS
    ]
    total = 0
    for argv in runs:
        solved.clear()
        run(capsys, *argv)
        assert len(set(solved)) == len(solved), (argv, solved)
        total += len(solved)
    assert total


# ---------------------------------------------------------------------------
# conventions and determinism


def test_overrides_are_recorded_but_inessential(capsys):
    base = run_json(capsys, "obstruction", "fixtures:paper8")[1]
    tweaked = run_json(
        capsys,
        "obstruction",
        "fixtures:paper8",
        "--orientation-override",
        "1:-",
        "--lift-override",
        "1:0,-2",
    )[1]
    assert tweaked["conventions"]["orientation"] == {"1": "reversed"}
    assert tweaked["conventions"]["lifts"] == {"1": [0, -2]}
    assert tweaked["verdict"] == base["verdict"] == "OBSTRUCTED"
    assert tweaked["failing_degree"] == base["failing_degree"] == 2


def test_repeatable_flags_do_not_carry_over_between_calls(capsys):
    """``main`` reuses one parser; each call's --orientation-override,
    --lift-override and --check lists are its own, and a later call
    without them sees the empty defaults."""
    from gkmcohom.cli import build_parser

    assert build_parser() is build_parser()
    first = run_json(
        capsys, "relations", "fixtures:paper8", "--check", "a1*a1 == a1",
        "--orientation-override", "1:-", "--lift-override", "1:0,-2",
    )[1]
    second = run_json(
        capsys, "relations", "fixtures:paper8", "--check", "a2 == a2", "--check", "x == x",
        "--orientation-override", "2:reversed", "--lift-override", "3:-1,-2",
    )[1]
    third = run_json(capsys, "relations", "fixtures:paper8", "--check", "y == y")[1]
    assert [r["relation"] for r in first["relations"]] == ["a1*a1 == a1"]
    assert [r["relation"] for r in second["relations"]] == ["a2 == a2", "x == x"]
    assert [r["relation"] for r in third["relations"]] == ["y == y"]
    assert first["conventions"] == {"orientation": {"1": "reversed"}, "lifts": {"1": [0, -2]}}
    assert second["conventions"] == {"orientation": {"2": "reversed"}, "lifts": {"3": [-1, -2]}}
    assert third["conventions"] == {"orientation": {}, "lifts": {}}


def test_json_output_is_deterministic(capsys):
    first = run(capsys, "cohomology", "fixtures:paper8", "--json")
    second = run(capsys, "cohomology", "fixtures:paper8", "--json")
    assert first == second
    third = run(capsys, "sw", "fixtures:paper8", "--json")
    fourth = run(capsys, "sw", "fixtures:paper8", "--json")
    assert third == fourth


def test_fixture_flag_equivalent_to_positional(capsys):
    a = run(capsys, "validate", "fixtures:paper8", "--json")
    b = run(capsys, "validate", "--fixture", "paper8", "--json")
    assert a == b


def test_file_input_round_trip(tmp_path, capsys):
    from gkmcohom import fixtures

    doc = fixtures.paper8().to_dict()
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    code, report, _ = run_json(capsys, "validate", str(path))
    assert code == 0
    assert report["graph"]["vertices"] == 4
    assert report["graph"]["edges"] == 8


def test_text_mode_mentions_each_check(capsys):
    code, out, _ = run(capsys, "validate", "fixtures:paper8")
    assert code == 0
    for name in ("gkm_axioms", "coprimality", "effective", "connection_exists", "orientable"):
        assert name in out


def test_envelope_names_the_command(capsys):
    for cmd in ("validate", "spin", "sw", "cohomology", "obstruction"):
        _, report, _ = run_json(capsys, cmd, "fixtures:paper8")
        assert report["command"] == cmd


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    declared = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert declared is not None
    assert gkmcohom.__version__ == declared.group(1)

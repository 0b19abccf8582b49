"""Command-line interface: exit codes, report shape, determinism."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gkmcohom
from gkmcohom.cli import main


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
        # only a graph the question does not apply to, or a name the graph
        # does not define, prints no report
        assert (argv[0], code) in {("thom", 1), ("relations", 2)} and err.startswith("error: ")


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
    """The kernel non-class check is explicit, so it survives ``python -O``."""
    script = (
        "import sys\n"
        "import gkmcohom.cohomology as cohomology\n"
        "from gkmcohom.cli import main\n"
        "assert False, 'asserts must be off'\n"
        "cohomology.membership_z = lambda g, cls: False\n"
        "sys.exit(main(['cohomology', 'fixtures:paper8', '--json']))\n"
    )
    paths = [str(Path(gkmcohom.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("internal error: kernel solver produced a non-class")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "module, name, argv, message",
    [
        ("charclasses", "membership_modp", ["sw", "fixtures:paper8"],
         "vertex parts violate a mod-2 congruence"),
        ("thom", "membership_z", ["thom", "fixtures:triangle_x_edge"],
         "path class violates an edge congruence"),
    ],
)
def test_class_checks_exit_3_without_traceback_under_optimize(module, name, argv, message):
    """The total-class and Thom-class membership checks are explicit, so a
    violation still ends in exit 3 under ``python -O``."""
    script = (
        "import sys\n"
        f"import gkmcohom.{module} as target\n"
        "from gkmcohom.cli import main\n"
        "assert False, 'asserts must be off'\n"
        f"target.{name} = lambda g, cls: False\n"
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
    from gkmcohom import charclasses, cli

    calls = []
    real = cli.find_connection

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(cli, "find_connection", counting)
    monkeypatch.setattr(charclasses, "find_connection", counting)
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


def test_relation_syntax_error_is_a_usage_error(capsys):
    code, _, err = run(
        capsys, "relations", "fixtures:paper8", "--check", "a1 =="
    )
    assert code == 2


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

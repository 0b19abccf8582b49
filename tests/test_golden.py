"""Byte-identity gates: ``--json`` output pinned by sha256.

``cohomology``: every registered fixture (with non-primitive labels of
content 2, 3, 5 and 6 among them) is run over Z, Z2, Z3 and Z5 up to
degree 8.  The connection and characteristic-class subcommands (``sw``,
with and without sampled alternative choices, ``spin``, ``validate``,
``validate --require-spin``, ``thom`` and ``obstruction``) run on the
same fixtures plus an octagonal prism and a label-scaled product.
``relations`` checks the paper8 generator relations and a zero
multiplier over Z, Z2 and Z3, one check per run.  All runs are in
process; the digests of stdout and the exit codes must match the files
under ``golden/``; any change to a basis string, a class value, a
verdict or the report layout shows up here.

``--json`` sorts its keys, so the text-mode runs pin the key order of
the reports: every subcommand on paper8 and ``polygon2n_x_edge(2)``
without ``--json``, plus the argument errors (stderr and exit code),
alone and in pairs, so the order in which they are reported -- all
before the graph is loaded -- is pinned too.

Regenerate (only for an intended output change) with
``PYTHONPATH=src python tests/test_golden.py --write``.  The digests of
the larger graphs (``LARGE_DIGESTS``: ``validate`` and ``spin`` on Fl5
in a seeded order, ``thom`` on the 64-gon prism) are kept in this file
and are not rewritten.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from gkmcohom.cli import main

from helpers import flag_manifold, shuffled_graph

GOLDEN = Path(__file__).parent / "golden" / "cohomology_digests.json"
GOLDEN_SUBCOMMANDS = Path(__file__).parent / "golden" / "subcommand_digests.json"
GOLDEN_RELATIONS = Path(__file__).parent / "golden" / "relations_digests.json"
GOLDEN_TEXT = Path(__file__).parent / "golden" / "text_digests.json"

FIXTURES = (
    "paper8",
    "k4",
    "sphere(2,0)",
    "sphere(6,0)",
    "product(1,0;0,1;1,2)",
    "product(1,0;0,1;2,2)",
    "product(1,0;0,1;3,3)",
    "product(1,0;0,1;5,5)",
    "polygon(6)",
    "polygon2n_x_edge(2)",
    "triangle",
    "triangle_x_edge",
)
RINGS = ("Z", "Z2", "Z3", "Z5")
SUBCOMMAND_FIXTURES = FIXTURES + ("polygon2n_x_edge(4)", "product(2,0;2,-3;3,-3)")
SUBCOMMANDS = (
    ("sw",),
    ("sw", "--independence-trials", "8"),
    ("spin",),
    ("validate",),
    ("validate", "--require-spin"),
    ("thom",),
    ("obstruction",),
)
RELATIONS = ("a2*a3 == -a4 + 2*x*y*a2", "a1*a1 == a1", "a2*(x-x) == a2-a2")
RELATION_RINGS = ("Z", "Z2", "Z3")
TEXT_FIXTURES = ("paper8", "polygon2n_x_edge(2)")
TEXT_RUNS = (
    ("validate",),
    ("validate", "--require-spin"),
    ("cohomology", "--max-degree", "6"),
    ("cohomology", "--ring", "Z2", "--degree", "4"),
    ("cohomology", "--ring", "Zp", "--p", "3", "--degree", "2"),
    ("sw",),
    ("sw", "--degree", "2", "--independence-trials", "4"),
    ("spin",),
    ("obstruction",),
    ("obstruction", "--orientation-override", "1:-"),
    ("thom",),
    ("relations", "--check", "x*x == x*x", "--check", "x == y"),
    ("relations", "--ring", "Z2", "--check", "a1*a1 == a1"),
    # argument errors
    ("cohomology", "--degree", "3"),
    ("cohomology", "--max-degree", "-2"),
    ("cohomology", "--ring", "Z4"),
    ("validate", "--fixture", "k4"),
    ("sw", "--lift-override", "1:1,1"),
    ("sw", "--lift-override", "x:1"),
    ("spin", "--orientation-override", "1:up"),
    ("relations",),
    ("cohomology", "--ring", "Z4", "--degree", "3"),
    ("cohomology", "--degree", "3", "--max-degree", "-2"),
    ("cohomology", "--max-degree", "-2", "--lift-override", "x:1"),
)
# argument errors that need no graph, or that come before loading it
TEXT_SOURCELESS_RUNS = (
    ("validate",),
    ("cohomology", "--ring", "Z4"),
    ("validate", "--fixture", "paper8"),
    ("sw", "--fixture", "fixtures:polygon2n_x_edge(2)"),
    ("cohomology", "fixtures:nonsense", "--ring", "Z4"),
    ("spin", "fixtures:nonsense", "--lift-override", "x:1"),
    ("relations", "fixtures:nonsense"),
)


def _run(argv: list[str], with_stderr: bool = False) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    got = {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}
    if with_stderr:
        got["stderr"] = err.getvalue()
    return got


def compute_digests() -> dict:
    return {
        f"{spec} {ring}": _run(
            ["cohomology", f"fixtures:{spec}", "--ring", ring, "--max-degree", "8", "--json"]
        )
        for spec in FIXTURES
        for ring in RINGS
    }


def compute_subcommand_digests() -> dict:
    return {
        f"{' '.join(cmd)} {spec}": _run([cmd[0], f"fixtures:{spec}", *cmd[1:], "--json"])
        for cmd in SUBCOMMANDS
        for spec in SUBCOMMAND_FIXTURES
    }


def compute_relations_digests() -> dict:
    return {
        f"{ring} {rel}": _run(["relations", "fixtures:paper8", "--ring", ring, "--check", rel, "--json"])
        for ring in RELATION_RINGS
        for rel in RELATIONS
    }


def compute_text_digests() -> dict:
    runs = [[cmd[0], f"fixtures:{spec}", *cmd[1:]] for cmd in TEXT_RUNS for spec in TEXT_FIXTURES]
    runs += [list(cmd) for cmd in TEXT_SOURCELESS_RUNS]
    return {" ".join(argv): _run(argv, with_stderr=True) for argv in runs}


def _assert_matches(path: Path, got: dict) -> None:
    expected = json.loads(path.read_text())
    assert sorted(got) == sorted(expected)
    changed = [key for key in expected if got[key] != expected[key]]
    assert not changed, f"output changed for {changed}"


def test_cohomology_json_matches_golden_digests():
    _assert_matches(GOLDEN, compute_digests())


def test_connection_and_class_subcommands_match_golden_digests():
    _assert_matches(GOLDEN_SUBCOMMANDS, compute_subcommand_digests())


def test_relations_match_golden_digests():
    _assert_matches(GOLDEN_RELATIONS, compute_relations_digests())


def test_text_output_matches_golden_digests():
    _assert_matches(GOLDEN_TEXT, compute_text_digests())


# --json digests of the connection-layer subcommands at sizes the fixtures
# do not reach: Fl5 in a seeded vertex and edge order and the 64-gon prism
LARGE_DIGESTS = {
    "validate Fl5": "19f7a5c9ca2df487d04d139cc76f328eecb389f6fc9e73dfc3387c3c96326d7b",
    "spin Fl5": "2fbfd87e6496349733da5ec6a6de1ffc56e2a141f3b0cd4ce2ef9402192b0d42",
    "thom polygon2n_x_edge(32)": "0d3747745c527b1f70dd094a632ae559af7df2c15dcc3576e2b1a9e8908057c5",
}


def test_large_connection_outputs_match_pinned_digests(tmp_path):
    fl5 = tmp_path / "fl5.json"
    fl5.write_text(json.dumps(shuffled_graph(flag_manifold(4), 5).to_dict()))
    runs = {
        "validate Fl5": ["validate", str(fl5), "--json"],
        "spin Fl5": ["spin", str(fl5), "--json"],
        "thom polygon2n_x_edge(32)": ["thom", "fixtures:polygon2n_x_edge(32)", "--json"],
    }
    got = {name: _run(argv) for name, argv in runs.items()}
    assert got == {name: {"exit": 0, "sha256": digest} for name, digest in LARGE_DIGESTS.items()}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    for path, digests in (
        (GOLDEN, compute_digests()),
        (GOLDEN_SUBCOMMANDS, compute_subcommand_digests()),
        (GOLDEN_RELATIONS, compute_relations_digests()),
        (GOLDEN_TEXT, compute_text_digests()),
    ):
        path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")

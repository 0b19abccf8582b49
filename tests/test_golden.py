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

Regenerate (only for an intended output change) with
``PYTHONPATH=src python tests/test_golden.py --write``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from gkmcohom.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cohomology_digests.json"
GOLDEN_SUBCOMMANDS = Path(__file__).parent / "golden" / "subcommand_digests.json"
GOLDEN_RELATIONS = Path(__file__).parent / "golden" / "relations_digests.json"

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


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


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


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    for path, digests in (
        (GOLDEN, compute_digests()),
        (GOLDEN_SUBCOMMANDS, compute_subcommand_digests()),
        (GOLDEN_RELATIONS, compute_relations_digests()),
    ):
        path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")

"""Byte-identity gate: ``cohomology --json`` output pinned by sha256.

Every registered fixture (with non-primitive labels of content 2, 3, 5
and 6 among them) is run over Z, Z2, Z3 and Z5 up to degree 8, in
process.  The digests of stdout and the exit codes must match
``golden/cohomology_digests.json``; any change to a basis string, a rank
or the report layout shows up here.

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


def _run(spec: str, ring: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    argv = ["cohomology", f"fixtures:{spec}", "--ring", ring, "--max-degree", "8", "--json"]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def compute_digests() -> dict:
    return {f"{spec} {ring}": _run(spec, ring) for spec in FIXTURES for ring in RINGS}


def test_cohomology_json_matches_golden_digests():
    expected = json.loads(GOLDEN.read_text())
    got = compute_digests()
    assert sorted(got) == sorted(expected)
    changed = [key for key in expected if got[key] != expected[key]]
    assert not changed, f"output changed for {changed}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    GOLDEN.write_text(json.dumps(compute_digests(), indent=2, sort_keys=True) + "\n")

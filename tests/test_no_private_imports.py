"""No module of the package imports another module's private name, so
each ``_name`` can change without a caller elsewhere noticing: a helper
that a second module needs is public."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gkmcohom"


def test_no_module_imports_a_private_name_of_another():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("gkmcohom"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []

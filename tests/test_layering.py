"""The package's layers, read off its syntax trees: ``polyring`` is the
bottom layer and imports no other module of the package, and the dense
``IntMatrix`` is named by ``intlinalg`` alone, so no compute path of
another module builds a dense matrix."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gkmcohom"


def tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), filename=str(path))


def test_polyring_imports_no_module_of_the_package():
    found = [
        f"polyring.py:{node.lineno}"
        for node in ast.walk(tree(PACKAGE / "polyring.py"))
        if (isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("gkmcohom")))
        or (isinstance(node, ast.Import) and any(alias.name.startswith("gkmcohom") for alias in node.names))
    ]
    assert found == []


def test_only_intlinalg_names_the_dense_matrix():
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "intlinalg.py" in sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        if path.name != "intlinalg.py"
        for node in ast.walk(tree(path))
        if (isinstance(node, ast.Name) and node.id == "IntMatrix")
        or (isinstance(node, ast.Attribute) and node.attr == "IntMatrix")
        or (isinstance(node, ast.alias) and node.name == "IntMatrix")
    ]
    assert found == []

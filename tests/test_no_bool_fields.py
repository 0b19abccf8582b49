"""Result objects read their verdicts off the evidence they hold, so no
dataclass of the package stores a pass/fail flag beside that evidence."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gkmcohom"

# A flag whose evidence the object does not keep: a relation holds when
# its two sides are equal, and the result keeps only their renderings,
# which do not decide equality (0 and the zero class render differently).
KEPT = {("relations.py", "RelationResult", "holds")}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _bool_fields(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    names = {n.id for n in ast.walk(stmt.annotation) if isinstance(n, ast.Name)}
                    if "bool" in names:
                        yield (path.name, node.name, stmt.target.id)


def test_no_dataclass_declares_a_bool_field():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = {field for path in sources for field in _bool_fields(path)}
    assert found == KEPT


def test_the_guard_sees_a_bool_field(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from dataclasses import dataclass\n"
        "import dataclasses\n"
        "@dataclass\nclass A:\n    ok: bool\n    issues: list\n"
        "@dataclasses.dataclass(frozen=True)\nclass B:\n    passes: bool | None = None\n"
        "class C:\n    flag: bool\n"
    )
    assert set(_bool_fields(path)) == {("sample.py", "A", "ok"), ("sample.py", "B", "passes")}

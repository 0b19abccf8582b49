"""No function of the package calls itself by name, so no input can
drive its depth to Python's recursion limit (README: "No input reaches
Python's recursion limit")."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gkmcohom"

# module, function -> why its depth is bounded
ALLOWED = {
    ("cli", "_emit_text"): "its depth is the fixed nesting of the report dicts",
}


def _self_calls(tree: ast.Module) -> set[str]:
    """Names of the functions of a module whose body calls the function
    itself: by plain name, or through ``self``/``cls`` for a method."""
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            by_name = isinstance(func, ast.Name) and func.id == node.name
            by_method = (
                isinstance(func, ast.Attribute)
                and func.attr == node.name
                and isinstance(func.value, ast.Name)
                and func.value.id in ("self", "cls")
            )
            if by_name or by_method:
                found.add(node.name)
    return found


def test_guard_sees_a_self_call():
    tree = ast.parse("def f(n):\n    return f(n - 1)\n\nclass A:\n    def g(self):\n        self.g()\n")
    assert _self_calls(tree) == {"f", "g"}


def test_package_functions_do_not_call_themselves():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = {
        (path.stem, name)
        for path in sources
        for name in _self_calls(ast.parse(path.read_text(), filename=str(path)))
    }
    assert found - set(ALLOWED) == set()
    assert set(ALLOWED) <= found  # no stale allowance

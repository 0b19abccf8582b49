"""Every module-level private name of the package is used: a ``_name``
that nothing outside its own definition reads is dead code, such as a
helper orphaned when its one caller was folded into another."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gkmcohom"


def _private_definitions(tree: ast.Module):
    """(name, node) for each private function, class or assigned name at
    module level; dunders are the interpreter's, not the package's."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _reads(node: ast.AST):
    """The names a subtree reads: loaded names and attribute names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_module_level_private_name_is_read_outside_its_definition():
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert trees
    reads = [(node, set(_reads(node))) for tree in trees.values() for node in tree.body]
    dead = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name, definition in _private_definitions(tree)
        if not any(name in names for node, names in reads if node is not definition)
    ]
    assert dead == []

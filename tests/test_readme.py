"""The README "Library" example runs and shows the values its comments
state, and "Naming a graph" names every built-in fixture."""

from __future__ import annotations

import ast
import re
from pathlib import Path

from gkmcohom import fixtures

README = Path(__file__).resolve().parent.parent / "README.md"

# expression line of the example -> the value its comment states
STATED = {
    "lat.rank": 5,
    "compute_h_modp(g, 4, 2).rank": 4,
    "str(sw.component(2).values[0])": "<x + y (Z_2, deg 1)>",
    "spin_check(g).spin": False,
    "realizability_obstruction(g).verdict": "OBSTRUCTED",
    "psi.render_b_part()": {1: "x", 5: "0"},
    "(psi * psi).degree2": 8,
}


def library_example_values() -> dict:
    """Run the first python block after "## Library" statement by statement
    and return the value of every bare expression, keyed by its source."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    values = {}
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            values[ast.get_source_segment(block, stmt)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
    return values


def test_library_example_values_match_its_comments():
    values = library_example_values()
    for source, stated in STATED.items():
        assert values[source] == stated, source


def test_naming_a_graph_lists_every_fixture():
    section = README.read_text(encoding="utf-8").split("\n### Naming a graph\n", 1)[1]
    paragraph = section.split("Fixture arguments are", 1)[1].split("\n\n", 1)[0]
    missing = [name for name in fixtures._REGISTRY if not re.search(rf"`{name}[`(]", paragraph)]
    assert missing == []

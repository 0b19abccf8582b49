"""Exact verification of polynomial identities between graph classes.

A relation is a line like ``a2*a3 == -a4 + 2*x*y*a2`` where the names
refer to graph-cohomology classes or to the polynomial variables of the
torus (``x``, ``y``, ``z`` for k <= 3, else ``x1`` .. ``xk``).  Both
sides are evaluated by exact componentwise arithmetic and compared; no
normal forms, no tolerance.

The same expression grammar doubles as the input format for
user-supplied classes: each vertex value of a class may be written as a
polynomial string in the torus variables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .cohomology import GraphClass, membership_z
from .graph import GkmGraph, long_int_message, read_int
from .polyring import GradedPoly, var_names

__all__ = [
    "RelationError",
    "RelationResult",
    "variable_environment",
    "evaluate",
    "check_identity",
    "check_relations",
    "class_from_values",
    "classes_from_json",
]


class RelationError(ValueError):
    """Raised for syntax errors, unknown names, and type mismatches."""


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>\*\*|==|[-+*^()=]))"
)


def _tokenize(text: str) -> list[tuple[str, object]]:
    """(kind, value) pairs; a number's value is its int."""
    tokens: list[tuple[str, object]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise RelationError(f"bad character at position {pos}: {text[pos]!r}")
        if m.lastgroup == "num":
            where = f"literal at position {m.start('num')}"
            tokens.append(("num", read_int(m.group("num"), where, RelationError)))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name")))
        else:
            op = m.group("op")
            tokens.append(("op", "^" if op == "**" else op))
        pos = m.end()
    tokens.append(("end", ""))
    return tokens


_MAX_NESTING = 100  # five parser frames per level, well inside the default limit
# a^n takes n - 1 products: with the cap it costs no more than writing out
# its n factors, where a few digits of exponent could ask for millions
_MAX_EXPONENT = 100


class _Parser:
    """Recursive descent over +, -, *, ^ and parentheses.

    Precedence, loosest first: comparison, additive, multiplicative,
    unary minus, power.  Multiplication must be explicit -- ``2xy`` is a
    name, not a product.  Unary minus signs are read in a loop and
    parentheses nest at most ``_MAX_NESTING`` deep: no recursion overflow.
    """

    def __init__(self, text: str, env: dict):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.env = env

    def peek(self) -> tuple[str, object]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, object]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, val = self.take()
        if kind != "op" or val != op:
            raise RelationError(f"expected {op!r} in {self.text!r}")

    def parse_expression(self):
        value = self.parse_term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.parse_term()
                value = _add(value, rhs) if val == "+" else _add(value, _neg(rhs))
            else:
                return value

    def parse_term(self):
        value = self.parse_unary()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.take()
                value = _mul(value, self.parse_unary())
            else:
                return value

    def parse_unary(self):
        negations = 0
        while self.peek() == ("op", "-"):
            self.take()
            negations += 1
        value = self.parse_power()
        for _ in range(negations):
            value = _neg(value)
        return value

    def parse_power(self):
        base = self.parse_atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            nkind, nval = self.take()
            if nkind != "num":
                raise RelationError("exponent must be a literal nonnegative integer")
            if nval > _MAX_EXPONENT:
                raise RelationError(f"exponent above {_MAX_EXPONENT}")
            return _pow(base, nval)
        return base

    def parse_atom(self):
        kind, val = self.take()
        if kind == "num":
            return val
        if kind == "name":
            if val not in self.env:
                known = ", ".join(sorted(self.env))
                raise RelationError(f"unknown name {val!r} (have: {known})")
            return self.env[val]
        if kind == "op" and val == "(":
            self.depth += 1
            if self.depth > _MAX_NESTING:
                raise RelationError(f"parentheses nested more than {_MAX_NESTING} deep")
            value = self.parse_expression()
            self.expect_op(")")
            self.depth -= 1
            return value
        raise RelationError(f"unexpected token {val!r} in {self.text!r}")


# ---------------------------------------------------------------------------
# value arithmetic with promotion

def _type_name(v) -> str:
    if isinstance(v, int):
        return "integer"
    if isinstance(v, GradedPoly):
        return "polynomial"
    if isinstance(v, GraphClass):
        return "class over Z" if v.p == 0 else f"class mod {v.p}"
    return type(v).__name__


def _same_ring_classes(a, b) -> bool:
    return isinstance(a, GraphClass) and isinstance(b, GraphClass) and a.p == b.p


def _degree2(v) -> int:
    return v.degree2 if isinstance(v, GraphClass) else 2 * v.degree


def _add(a, b):
    """a + b.  A zero integer or polynomial summand is absorbed, whatever
    the other summand is; nonzero summands of two degrees do not add."""
    if isinstance(a, int) and isinstance(b, int):
        return a + b
    for zero, other in ((a, b), (b, a)):
        if isinstance(zero, int) and zero == 0 or isinstance(zero, GradedPoly) and zero.is_zero():
            return other
    if isinstance(a, GradedPoly) or isinstance(b, GradedPoly):
        if isinstance(a, int):
            a = GradedPoly.constant(b.k, a, b.p)
        if isinstance(b, int):
            b = GradedPoly.constant(a.k, b, a.p)
    if isinstance(a, GradedPoly) and isinstance(b, GradedPoly) or _same_ring_classes(a, b):
        if _degree2(a) != _degree2(b) and not (a.is_zero() or b.is_zero()):
            raise RelationError(f"cannot add summands of degrees {_degree2(a)} and {_degree2(b)}")
        return a + b
    raise RelationError(f"cannot add {_type_name(a)} and {_type_name(b)}")


def _neg(a):
    if isinstance(a, (int, GradedPoly)):
        return -a
    return a.scale(-1)


def _mul(a, b):
    if isinstance(a, int) and isinstance(b, int):
        return a * b
    if isinstance(a, int):
        a, b = b, a
    if isinstance(b, int):
        return a.scale(b)
    # now both are non-int; put a polynomial second when mixed
    if isinstance(a, GradedPoly) and not isinstance(b, GradedPoly):
        a, b = b, a
    if isinstance(b, GradedPoly):
        if isinstance(a, GradedPoly):
            return a * b
        if isinstance(a, GraphClass):
            return a.module_mul(b)
    if _same_ring_classes(a, b):
        return a * b
    raise RelationError(f"cannot multiply {_type_name(a)} and {_type_name(b)}")


def _pow(a, n: int):
    if n < 0:
        raise RelationError("negative exponents are not defined here")
    if isinstance(a, int):
        return a**n
    if n == 0:
        if isinstance(a, GradedPoly):
            return GradedPoly.constant(a.k, 1, a.p)
        raise RelationError("class^0 is not defined; write the identity explicitly")
    out = a
    for _ in range(n - 1):
        out = _mul(out, a)
    return out


def _equal(a, b) -> bool:
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    for left, right in ((a, b), (b, a)):
        if isinstance(left, int) and not isinstance(right, int):
            if isinstance(right, GradedPoly):
                return right == GradedPoly.constant(right.k, left, right.p)
            if left == 0:
                return right.is_zero()
            raise RelationError(
                f"cannot compare {_type_name(right)} with a nonzero integer"
            )
    if isinstance(a, GradedPoly) and isinstance(b, GradedPoly):
        return a == b
    if _same_ring_classes(a, b):
        return a == b
    raise RelationError(f"cannot compare {_type_name(a)} and {_type_name(b)}")


def render_value(v) -> str:
    if isinstance(v, int):
        return str(v)
    if isinstance(v, GradedPoly):
        return v.render()
    parts = ", ".join(v.render_values())
    if v.b_part:
        parts += "; b: " + ", ".join(f"e{e}: {s}" for e, s in v.render_b_part().items())
    return f"({parts})"


# ---------------------------------------------------------------------------
# public entry points

def variable_environment(k: int, p: int = 0) -> dict:
    """Degree-one generators of the polynomial ring, keyed by name."""
    env: dict = {}
    for i, name in enumerate(var_names(k)):
        coeffs = [0] * k
        coeffs[i] = 1
        env[name] = GradedPoly(k, 1, coeffs, p)
    return env


def evaluate(text: str, env: dict):
    """Evaluate a single expression (no comparison operator allowed)."""
    parser = _Parser(text, env)
    value = parser.parse_expression()
    kind, val = parser.peek()
    if kind != "end":
        raise RelationError(f"trailing input {val!r} in {text!r}")
    return value


@dataclass
class RelationResult:
    relation: str
    holds: bool
    lhs: str
    rhs: str

    def to_dict(self) -> dict:
        return {
            "relation": self.relation,
            "holds": self.holds,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


def check_identity(text: str, env: dict) -> RelationResult:
    """Split on the (single) ``==`` and compare both sides exactly."""
    parser = _Parser(text, env)
    lhs = parser.parse_expression()
    kind, val = parser.take()
    if kind != "op" or val not in ("==", "="):
        raise RelationError(f"expected '==' separating the two sides of {text!r}")
    rhs = parser.parse_expression()
    kind, val = parser.peek()
    if kind != "end":
        raise RelationError(f"trailing input {val!r} in {text!r}")
    return RelationResult(
        relation=text.strip(),
        holds=_equal(lhs, rhs),
        lhs=_render_side(lhs, "left", text),
        rhs=_render_side(rhs, "right", text),
    )


def _render_side(v, side: str, text: str) -> str:
    """``render_value``; an integer past the interpreter's str-conversion
    limit raises RelationError naming the side of the relation."""
    try:
        return render_value(v)
    except ValueError:
        what = f"{side} side of {text.strip()!r}"
        raise RelationError(long_int_message(what, "writes")) from None


def check_relations(texts, env: dict) -> list[RelationResult]:
    return [check_identity(t, env) for t in texts]


# ---------------------------------------------------------------------------
# user-supplied classes

def class_from_values(
    g: GkmGraph, degree2: int, values: dict, env: dict | None = None
) -> GraphClass:
    """Build an integral class from per-vertex polynomial strings.

    ``values`` maps vertex names to expression strings; missing vertices
    get zero.  Every value must be homogeneous of polynomial degree
    ``degree2 / 2``.
    """
    if degree2 % 2 != 0 or degree2 < 0:
        raise RelationError("class degree must be a nonnegative even integer")
    d = degree2 // 2
    k = g.torus_rank
    env = {**variable_environment(k), **(env or {})}
    out = [GradedPoly.zero(k, d) for _ in g.vertices]
    for name, text in values.items():
        if name not in g.vertices:
            raise RelationError(f"unknown vertex {name!r}")
        value = evaluate(text, env) if isinstance(text, str) else text
        if type(value) is int:  # a JSON true or false is not a value
            value = GradedPoly.constant(k, value)
        if not isinstance(value, GradedPoly):
            raise RelationError(f"vertex {name!r}: value is not a polynomial")
        if value.is_zero():
            continue
        if value.degree != d:
            raise RelationError(
                f"vertex {name!r}: expected degree {d}, got {value.degree}"
            )
        out[g.vertex_index(name)] = value
    return GraphClass(g, degree2, out)


def classes_from_json(g: GkmGraph, spec: dict) -> dict:
    """Named classes from a JSON-shaped mapping.

    Each entry is ``{"degree": <even int>, "values": {vertex: expr}}``.
    Later entries may refer to earlier ones by name inside their value
    expressions.  An entry whose values break the divisibility across
    some edge is not a class and is rejected.
    """
    if not isinstance(spec, dict):
        raise RelationError("class file: need an object {name: {degree, values}}")
    env: dict = {}
    for name in sorted(spec):
        body = spec[name]
        if not isinstance(body, dict) or "degree" not in body:
            raise RelationError(f"class {name!r}: need a dict with 'degree'")
        degree = body["degree"]
        if type(degree) is not int:  # not 2.5, "2" or true
            raise RelationError(f"class {name!r}: non-integer degree {degree!r}")
        values = body.get("values", {})
        if not isinstance(values, dict):
            raise RelationError(f"class {name!r}: 'values' must be an object {{vertex: expr}}")
        cls = class_from_values(g, degree, values, env)
        if not membership_z(g, cls):
            raise RelationError(
                f"class {name!r}: some endpoint difference is not divisible by its edge label"
            )
        env[name] = cls
    return env

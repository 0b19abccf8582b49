"""Outside-in tracer for the traced benchmark run.

It wraps the listed public functions of every ``gkmcohom`` module from
outside the package. A function is rebound in every module namespace that
holds the same object, so calls through ``from .intlinalg import hnf``
aliases are caught too. Spans (name, start, end, parent, op id) stay in
memory until the caller writes them out. Generator functions are timed
over their iteration only, and stay lazy. ``uninstall`` restores every
binding. The untraced runs never import this module.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from functools import wraps
from math import gcd
from time import perf_counter

TRACED = {
    "cli": ("main", "load_graph"),
    "graph": ("parse", "validate_gkm", "check_coprimality", "is_effective", "edges_div_p"),
    "connection": (
        "find_connection", "edge_matchings", "enumerate_connections", "is_orientable",
        "holonomy_signs",
    ),
    "polyring": ("divide_by_linear", "congruent_mod_weight", "compose_linear"),
    "intlinalg": (
        "hnf", "kernel", "kernel_into_cokernel", "modp_rref", "modp_solve", "solve_with_image",
    ),
    "cohomology": (
        "compute_h_z", "compute_h_modp", "membership_z", "membership_modp",
        "reduce_class_mod_p", "integral_preimage",
    ),
    "charclasses": ("total_sw", "spin_check", "realizability_obstruction", "sw_choice_independence"),
    "thom": (
        "verify_sw3valent", "connection_paths", "thom_class_of_path", "thom_class_of_edge",
        "thom_class_of_vertex",
    ),
    "relations": ("check_relations", "classes_from_json"),
}

# per-layer metrics beyond calls and self_s: name -> (unit, better)
EXTRA_METRICS = {
    "intlinalg.hnf.cells": ("count", "lower"),
    "intlinalg.hnf.max_rows": ("count", "lower"),
    "intlinalg.hnf.max_cols": ("count", "lower"),
    "intlinalg.hnf.out_max_bits": ("bit", "lower"),
    "intlinalg.modp_rref.cells": ("count", "lower"),
    "polyring.divide_by_linear.reuse_ratio": ("ratio", "lower"),
    "cohomology.compute_h_z.repeat_calls": ("count", "lower"),
    "cohomology.compute_h_modp.repeat_calls": ("count", "lower"),
    "cohomology.check_share": ("ratio", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def metric_specs() -> dict:
    """Every per-layer metric the traced run reports: name -> (unit, better)."""
    specs = {}
    for module, names in TRACED.items():
        for fn in names:
            specs[f"{module}.{fn}.calls"] = ("count", "lower")
            specs[f"{module}.{fn}.self_s"] = ("s", "lower")
    specs.update(EXTRA_METRICS)
    return specs


# span fields
NAME, START, END, PARENT, OP, BUSY = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None  # id of the op in progress; set by the caller
        self._stack: list[int] = []
        self._paused = 0.0  # seconds spent computing stats, kept out of every span
        self._saved: list[tuple[dict, str, object]] = []
        self._divisors: set = set()
        self._h_keys: set = set()
        self._h_graphs: list = []  # keeps graphs alive so their ids stay unique
        self.counters: dict[str, float] = {}

    # --- clock and counters ----------------------------------------------

    def _now(self) -> float:
        return perf_counter() - self._paused

    def start_op(self, op_id) -> None:
        self.op = op_id
        self._h_keys.clear()
        self._h_graphs.clear()

    def reset(self) -> None:
        """Forget spans and counters; call at the start of each traced pass."""
        self.spans.clear()
        self.counters.clear()
        self._divisors.clear()

    def _bump(self, key: str, value: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _note(self, name: str, args, result) -> None:
        """Stats taken from arguments and results, outside every span's time."""
        t0 = perf_counter()
        if name == "intlinalg.hnf":
            m = args[0]
            self._bump("intlinalg.hnf.cells", m.rows * m.cols)
            self._max("intlinalg.hnf.max_rows", m.rows)
            self._max("intlinalg.hnf.max_cols", m.cols)
            bits = max(
                (abs(x).bit_length() for mat in result for row in mat.data for x in row), default=0
            )
            self._max("intlinalg.hnf.out_max_bits", bits)
        elif name == "intlinalg.modp_rref":
            rows = args[0]
            self._bump("intlinalg.modp_rref.cells", len(rows) * (len(rows[0]) if rows else 0))
        elif name == "polyring.divide_by_linear":
            w = tuple(args[1])
            c = 0
            for x in w:
                c = gcd(c, x)
            self._divisors.add(tuple(x // c for x in w) if c else w)
        elif name in ("cohomology.compute_h_z", "cohomology.compute_h_modp"):
            g, degree2 = args[0], args[1]
            key = (id(g), degree2, args[2] if len(args) > 2 else 0)
            if key in self._h_keys:
                self._bump(f"{name}.repeat_calls")
            self._h_keys.add(key)
            self._h_graphs.append(g)
        self._paused += perf_counter() - t0

    def _max(self, key: str, value: int) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    # --- wrapping --------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self._now(), None, parent, self.op, 0.0])
        return idx

    def _wrap(self, name: str, fn):
        tracer = self

        if inspect.isgeneratorfunction(fn):

            @wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return tracer._iterate(name, fn(*args, **kwargs))

            return gen_wrapper

        @wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            span = tracer.spans[idx]
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                span[END] = tracer._now()
                span[BUSY] = span[END] - span[START]
            tracer._note(name, args, result)
            return result

        return wrapper

    def _iterate(self, name: str, it):
        """Yield from a generator, timing only the time spent inside it.

        The span opens at the first ``next``, so laziness is unchanged.
        """
        idx = self._open(name)
        span = self.spans[idx]
        try:
            while True:
                t0 = self._now()
                self._stack.append(idx)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._stack.pop()
                    span[BUSY] += self._now() - t0
                yield item
        finally:
            it.close()
            span[END] = self._now()

    def install(self) -> None:
        """Rebind each listed function in every gkmcohom namespace holding it."""
        packages = [
            m for name, m in sorted(sys.modules.items())
            if name == "gkmcohom" or name.startswith("gkmcohom.")
        ]
        for module, names in TRACED.items():
            home = importlib.import_module(f"gkmcohom.{module}")
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{module}.{fn_name}", original)
                for pkg in packages:
                    namespace = vars(pkg)
                    for attr, value in list(namespace.items()):
                        if value is original:
                            self._saved.append((namespace, attr, original))
                            namespace[attr] = wrapper

    def uninstall(self) -> None:
        while self._saved:
            namespace, attr, original = self._saved.pop()
            namespace[attr] = original

    # --- results ---------------------------------------------------------

    def metrics(self, pass_s: float) -> dict[str, float]:
        """Per-layer metrics of the spans since the last ``reset``."""
        child_busy = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] is not None:
                child_busy[span[PARENT]] += span[BUSY]
        out = {name: 0 for name in metric_specs()}
        member_s = 0.0
        for span, children in zip(self.spans, child_busy):
            name = span[NAME]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += span[BUSY] - children
            if name in ("cohomology.membership_z", "cohomology.membership_modp"):
                member_s += span[BUSY]
        out.update(self.counters)
        n_div = out["polyring.divide_by_linear.calls"]
        out["polyring.divide_by_linear.reuse_ratio"] = (
            1 - len(self._divisors) / n_div if n_div else 0
        )
        out["cohomology.check_share"] = member_s / pass_s
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op, busy."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

"""``perfbench/tracer.py`` looks every name of its ``TRACED`` table up in
its ``gkmcohom`` module and rebinds it wherever it is bound.  Installing
and uninstalling it fails here on a name that a refactor removed, and
checks that every binding comes back."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import gkmcohom.cli  # noqa: F401  (loads every module the tracer wraps)


def test_tracer_wraps_every_listed_function_and_restores_every_binding():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    modules = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "gkmcohom"}
    before = {n: dict(vars(m)) for n, m in modules.items()}
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for module, names in tracer_module.TRACED.items():
            for name in names:
                home = f"gkmcohom.{module}"
                assert getattr(modules[home], name) is not before[home][name], (module, name)
    finally:
        tracer.uninstall()
    for n, m in modules.items():
        assert vars(m) == before[n], n  # the same objects under the same names

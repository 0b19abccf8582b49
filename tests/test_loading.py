"""What a fresh interpreter loads: ``import gkmcohom`` loads no submodule,
each public name resolves on first use to the object its home module
holds, and a CLI invocation loads only the modules its subcommand
reaches, so ``thom`` and ``relations`` load with their own subcommands
alone."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gkmcohom

# the modules every subcommand loads with ``gkmcohom.cli``
CLI = {
    "gkmcohom", "gkmcohom.charclasses", "gkmcohom.cli", "gkmcohom.cohomology",
    "gkmcohom.connection", "gkmcohom.fixtures", "gkmcohom.graph", "gkmcohom.intlinalg",
    "gkmcohom.polyring",
}


def _run(script: str) -> list[str]:
    """Run ``script`` in a fresh interpreter; its last stdout line, split."""
    paths = [str(Path(gkmcohom.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def _loaded_after(statements: str) -> set[str]:
    """The gkmcohom modules a fresh interpreter holds after ``statements``."""
    return set(_run(
        "import contextlib, io, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    {statements}\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'gkmcohom'))\n"
    ))


def test_a_bare_import_loads_no_submodule():
    assert _loaded_after("import gkmcohom") == {"gkmcohom"}


@pytest.mark.parametrize(
    "argv, own",
    [
        (["validate", "fixtures:k4", "--json"], set()),
        (["cohomology", "fixtures:k4", "--ring", "Z3", "--max-degree", "2", "--json"], set()),
        (["sw", "fixtures:paper8", "--independence-trials", "1", "--json"], set()),
        (["spin", "fixtures:paper8", "--json"], set()),
        (["obstruction", "fixtures:paper8", "--json"], set()),
        (["thom", "fixtures:k4", "--json"], {"gkmcohom.thom"}),
        (["relations", "fixtures:paper8", "--check", "a1*a1 == a1", "--json"], {"gkmcohom.relations"}),
    ],
    ids=["validate", "cohomology", "sw", "spin", "obstruction", "thom", "relations"],
)
def test_a_subcommand_loads_the_cli_modules_and_its_own(argv, own):
    loaded = _loaded_after(f"import gkmcohom.cli; gkmcohom.cli.main({argv!r})")
    assert loaded == CLI | own


def test_star_import_yields_all_and_every_name_is_its_home_object():
    """``from gkmcohom import *`` binds exactly ``__all__``; each name is the
    object its home module holds, also after that module rebinds it (the
    package keeps no copy); an unknown name is an AttributeError."""
    out = _run(
        "import importlib, gkmcohom\n"
        "ns = {}\n"
        "exec('from gkmcohom import *', ns)\n"
        "del ns['__builtins__']\n"
        "assert sorted(ns) == gkmcohom.__all__, sorted(ns.keys() ^ set(gkmcohom.__all__))\n"
        "for name, module in gkmcohom._HOME.items():\n"
        "    home = importlib.import_module(f'gkmcohom.{module}')\n"
        "    assert ns[name] is getattr(home, name) is getattr(gkmcohom, name), name\n"
        "    assert name in dir(gkmcohom), name\n"
        "sentinel = object()\n"
        "real, gkmcohom.graph.parse = gkmcohom.graph.parse, sentinel\n"
        "assert gkmcohom.parse is sentinel\n"
        "gkmcohom.graph.parse = real\n"
        "assert gkmcohom.parse is real\n"
        "try:\n"
        "    gkmcohom.nope\n"
        "except AttributeError as exc:\n"
        "    assert type(exc) is AttributeError, type(exc)\n"
        "else:\n"
        "    raise AssertionError('gkmcohom.nope resolved')\n"
        "print(len(ns))\n"
    )
    assert out == [str(len(gkmcohom.__all__))]


def test_submodules_resolve_after_a_bare_import():
    out = _run(
        "import gkmcohom\n"
        "print(gkmcohom.thom.__name__, gkmcohom.fixtures.k4().torus_rank)\n"
    )
    assert out == ["gkmcohom.thom", "2"]

"""The package surface, and which modules a start runs, in fresh interpreters.

wheelfan/__init__.py loads kirchhoff, enumeration, bijection and formulas on
first use.  pytest has imported every layer before any test runs, so a fault
in that loading shows only in a fresh interpreter, and each test here starts
one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wheelfan"

# the modules a start runs; every other one loads on first use
START = {"__init__", "cli", "verify", "graphs", "report", "sequences"}

# records the stem of each wheelfan module compiled from source into `compiled`
RECORD_COMPILES = f"""
import os
from importlib.machinery import SourceFileLoader

compiled = []
_compile = SourceFileLoader.source_to_code

def _recorded(self, data, path, *args, **kwargs):
    if os.path.dirname(path) == {str(PACKAGE)!r}:
        compiled.append(os.path.basename(path).removesuffix(".py"))
    return _compile(self, data, path, *args, **kwargs)

SourceFileLoader.source_to_code = _recorded
"""


def _fresh(code: str, tmp_path: Path) -> list:
    """The JSON value each line of code's stdout holds, code run by an
    interpreter without site; with bytecode writing off and an empty pycache
    prefix, every module it runs is compiled from source."""
    prefix = tmp_path / "pycache"
    prefix.mkdir()
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": str(prefix)}
    out = subprocess.run([sys.executable, "-S", "-B", "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    return [json.loads(line) for line in out.stdout.splitlines()]


def test_starting_the_cli_compiles_only_the_modules_it_runs(tmp_path):
    # the benchmark's set-up statements, then one command on the minor route
    code = RECORD_COMPILES + """
import contextlib, io, json
import wheelfan.cli
wheelfan.cli.build_parser()
print(json.dumps(compiled))
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = wheelfan.cli.main(["count", "trees", "--graph", "wheel:5"])
print(json.dumps([code, out.getvalue()]))
print(json.dumps(compiled))
"""
    start, answer, after = _fresh(code, tmp_path)
    assert sorted(start) == sorted(START)
    assert answer == [0, "121\n"]
    assert sorted(after) == sorted(START | {"kirchhoff"})


def test_every_exported_name_is_its_home_modules_object(tmp_path):
    code = """
import importlib, json, sys
import wheelfan
print(json.dumps(sorted(name for name in sys.modules if name.startswith("wheelfan."))))
names = {}
exec("from wheelfan import *", names)
exported = [name for name in wheelfan.__all__ if name != "__version__"]
print(json.dumps([name for name in wheelfan.__all__ if name not in names]))
homes = {name: names[name].__module__ for name in exported}
print(json.dumps(homes))
print(json.dumps([name for name in exported if names[name] is not getattr(importlib.import_module(homes[name]), name)]))
print(json.dumps(names["__version__"]))
"""
    before, unbound, homes, strangers, version = _fresh(code, tmp_path)
    # importing the package runs graphs and sequences, which its eager names come from
    assert before == ["wheelfan.graphs", "wheelfan.sequences"]
    assert unbound == []
    layers = ("graphs", "sequences", "kirchhoff", "bijection", "enumeration")
    assert set(homes.values()) == {f"wheelfan.{layer}" for layer in layers}
    assert strangers == []
    assert version == "0.1.0"


def test_an_unknown_name_is_an_attribute_error_and_submodules_still_import(tmp_path):
    code = """
import json
import wheelfan
try:
    wheelfan.count_arc_forests
except AttributeError as exc:
    print(json.dumps(str(exc)))
from wheelfan import cli, formulas
print(json.dumps([cli.__name__, formulas.trees_fan(3)]))
import wheelfan.kirchhoff
print(json.dumps(wheelfan.kirchhoff.count_spanning_trees(wheelfan.make_fan(3))))
"""
    message, imported, trees = _fresh(code, tmp_path)
    assert message == "module 'wheelfan' has no attribute 'count_arc_forests'"
    assert imported == ["wheelfan.cli", 8]
    assert trees == 8

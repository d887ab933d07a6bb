"""The runtime depends on nothing outside the standard library."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wheelfan"


def _imported_top_levels(path: Path) -> set[str]:
    # relative imports ("from . import x") are wheelfan itself
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("wheelfan" if node.level else node.module.partition(".")[0])
    return names


def test_every_runtime_import_is_wheelfan_or_the_standard_library():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    imported = {path.name: _imported_top_levels(path) for path in sources}
    assert "argparse" in imported["cli.py"] and "wheelfan" in imported["cli.py"]
    outside = {
        name: sorted(mods - {"wheelfan"} - sys.stdlib_module_names)
        for name, mods in imported.items()
        if mods - {"wheelfan"} - sys.stdlib_module_names
    }
    assert outside == {}


def _names_from_report(path: Path) -> set[str]:
    # what a module imports from wheelfan.report; the module itself counts as "report"
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("report"):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update("report" for alias in node.names if alias.name.rpartition(".")[2] == "report")
    return names


def test_the_math_layers_build_no_report_rows():
    # report rows are built in verify; the math layers return plain values
    for name in ("sequences.py", "formulas.py", "graphs.py", "kirchhoff.py"):
        assert _names_from_report(SRC / name) == set(), name
    assert _names_from_report(SRC / "enumeration.py") == {"format_int"}
    assert "Check" in _names_from_report(SRC / "verify.py")


def test_starting_the_cli_loads_neither_dataclasses_nor_inspect():
    # the benchmark's set-up statements in a fresh interpreter; -S leaves out
    # site and its .pth files, which belong to the installation, not to wheelfan
    code = "import sys, wheelfan.cli; wheelfan.cli.build_parser(); print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"

"""The runtime depends on nothing outside the standard library."""

import ast
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

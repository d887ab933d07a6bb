"""The benchmark's tracer must still find every function it times.

perfbench/spans.py wraps the layer functions by name, in every module
namespace that bound them, and perfbench/run.py fails a traced run in which
a function it lists in COVERED records no calls.  A refactor that moves a
listed function out of its module breaks the benchmark, not the program;
this test finds that in the ordinary test run.  Both files are only
imported, never changed.
"""

import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

from wheelfan import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_verify_sweep_function_records_calls():
    run, spans = _load("run"), _load("spans")
    tracer = spans.Tracer()
    tracer.install()
    try:
        with redirect_stdout(io.StringIO()):
            code = cli.main(["verify", "--suite", "all", "--max-n", "6", "--enum-cap", "7"])
    finally:
        tracer.uninstall()
    assert code == 0
    calls = {name: stats["calls"] for name, stats in tracer.aggregate().items()}
    assert [name for name in run.COVERED["verify-sweep"] if not calls.get(name)] == []

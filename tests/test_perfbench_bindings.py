"""The benchmark's tracer must still find every function it times.

perfbench/spans.py wraps the layer functions by name, in every module
namespace that bound them, and perfbench/run.py fails a traced run in which
a function it lists in COVERED records no calls.  A refactor that moves a
listed function out of its module breaks the benchmark, not the program;
these tests find that in the ordinary test run, for every workload.  Both files are only
imported, never changed.
"""

import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from wheelfan import cli
from wheelfan.graphs import format_edge_list

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


# in-process argvs, a few per workload, that between them reach every
# function the workload's run lists in COVERED; FILE is a small connected graph
QUERY_ARGVS = {
    "minor-sparse": [
        ["count", "trees", "--graph", "wheel:6", "--method", "all"],
        ["count", "trees", "--graph", "fan:5", "--method", "all"],
        ["count", "forests", "--graph", "wheel:6", "--separate", "1,3", "--method", "all"],
        ["count", "forests", "--graph", "fan:5", "--separate", "1,3", "--method", "all"],
        ["resist", "--graph", "wheel:6", "--pair", "1,3", "--method", "all"],
        ["resist", "--graph", "fan:5", "--pair", "0,2", "--method", "all"],
        ["count", "trees", "--graph", "FILE"],
    ],
    "enum-oracle": [
        ["count", "trees", "--graph", "FILE", "--method", "all"],
        ["enumerate", "trees", "--graph", "FILE"],
        ["count", "forests", "--graph", "FILE", "--separate", "0,4", "--method", "all"],
        ["enumerate", "forests", "--graph", "FILE", "--separate", "0,4"],
    ],
    "minor-dense": [
        ["count", "trees", "--graph", "FILE"],
        ["count", "forests", "--graph", "FILE", "--separate", "0,4"],
        ["resist", "--graph", "FILE", "--pair", "0,4"],
    ],
}


@pytest.mark.parametrize("workload", list(QUERY_ARGVS))
def test_every_traced_query_workload_function_records_calls(tmp_path, workload):
    # the closed forms too: a table entry that bound its formula at import
    # would bypass the tracer's wrapper and leave that formula at zero calls
    run, spans = _load("run"), _load("spans")
    path = tmp_path / "g.txt"
    path.write_text(format_edge_list(6, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4), (2, 5), (4, 5)]))
    argvs = [[f"file:{path}" if arg == "FILE" else arg for arg in argv] for argv in QUERY_ARGVS[workload]]
    tracer = spans.Tracer()
    tracer.install()
    try:
        with redirect_stdout(io.StringIO()):
            codes = [cli.main(argv) for argv in argvs]
    finally:
        tracer.uninstall()
    assert codes == [0] * len(argvs)
    calls = {name: stats["calls"] for name, stats in tracer.aggregate().items()}
    assert [name for name in run.COVERED[workload] if not calls.get(name)] == []

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
from wheelfan.graphs import format_edge_list, make_fan, make_graph, make_wheel
from wheelfan.kirchhoff import count_two_forests

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _trace_sweep():
    """A small verify sweep under the benchmark's tracer; its stats per traced name."""
    spans = _load("spans")
    tracer = spans.Tracer()
    tracer.install()
    try:
        with redirect_stdout(io.StringIO()):
            code = cli.main(["verify", "--suite", "all", "--max-n", "6", "--enum-cap", "7"])
    finally:
        tracer.uninstall()
    assert code == 0
    return tracer.aggregate()


def test_every_traced_verify_sweep_function_records_calls():
    run = _load("run")
    calls = {name: stats["calls"] for name, stats in _trace_sweep().items()}
    assert [name for name in run.COVERED["verify-sweep"] if not calls.get(name)] == []


def test_traced_verify_sweep_keys_classes_and_builds_images_once():
    # classes are keyed only where the report folds them, and forward builds
    # its image tree directly rather than through the outside-input entry point
    stats = _trace_sweep()
    keyed_under = stats["enumeration.rotation_class_representative"]["under"]
    assert keyed_under and set(keyed_under) <= {"bijection.fiber_report", "bijection.normalize"}
    assert stats["bijection.forward"]["calls"]
    assert "bijection.forward" not in stats["bijection.FanTree.from_edges"]["under"]


def test_traced_verify_sweep_partitions_no_arc_forest():
    # enum_arc_forests reads each forest's arc off its rim runs; components
    # still runs elsewhere in the sweep, so the tracer still finds it
    partitions = _trace_sweep()["graphs.components"]
    assert partitions["calls"]
    assert "enumeration.enum_arc_forests" not in partitions["under"]


def test_both_graph_constructors_keep_the_cache_the_worker_clears_and_reads():
    # worker.run_pass calls cache_clear() on both before every op and
    # cache_info() after it, outside its try block: a constructor without
    # its cache would crash every benchmark run
    for constructor in (make_wheel, make_fan):
        constructor.cache_clear()
        constructor(4)
        constructor(4)
        info = constructor.cache_info()
        assert (info.hits, info.misses) == (1, 1)


# in-process argvs, a few per workload, that between them reach every
# function the workload's run lists in COVERED; FILE is FILE_GRAPH's edge list
FILE_GRAPH = make_graph(6, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4), (2, 5), (4, 5)])
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


def _trace_queries(tmp_path, workload):
    """Run the workload's argvs under the benchmark's tracer; its stats per traced name."""
    spans = _load("spans")
    path = tmp_path / "g.txt"
    path.write_text(format_edge_list(FILE_GRAPH.vertex_count, FILE_GRAPH.edges))
    argvs = [[f"file:{path}" if arg == "FILE" else arg for arg in argv] for argv in QUERY_ARGVS[workload]]
    tracer = spans.Tracer()
    tracer.install()
    try:
        with redirect_stdout(io.StringIO()):
            codes = [cli.main(argv) for argv in argvs]
    finally:
        tracer.uninstall()
    assert codes == [0] * len(argvs)
    return tracer.aggregate()


@pytest.mark.parametrize("workload", list(QUERY_ARGVS))
def test_every_traced_query_workload_function_records_calls(tmp_path, workload):
    # the closed forms too: a table entry that bound its formula at import
    # would bypass the tracer's wrapper and leave that formula at zero calls
    run = _load("run")
    stats = _trace_queries(tmp_path, workload)
    calls = {name: entry["calls"] for name, entry in stats.items()}
    assert [name for name in run.COVERED[workload] if not calls.get(name)] == []


def test_enum_oracle_partitions_only_under_the_forest_enumerator(tmp_path):
    # run.py computes enum_two_forests.yield as the forests emitted over the
    # components calls made directly under enum_two_forests, one per forest
    stats = _trace_queries(tmp_path, "enum-oracle")
    forests = 2 * count_two_forests(FILE_GRAPH, 0, 4)  # count --method all and enumerate each emit them once
    assert stats["graphs.components"]["under"] == {"enumeration.enum_two_forests": forests}

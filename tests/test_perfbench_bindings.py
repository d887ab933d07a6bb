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
import json
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from wheelfan import cli
from wheelfan.graphs import format_edge_list, make_fan, make_graph, make_wheel

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _trace_sweep(max_n=6, enum_cap=7):
    """A verify sweep under the benchmark's tracer, small by default; its stats per traced name."""
    spans = _load("spans")
    tracer = spans.Tracer()
    tracer.install()
    try:
        with redirect_stdout(io.StringIO()):
            code = cli.main(["verify", "--suite", "all", "--max-n", str(max_n), "--enum-cap", str(enum_cap)])
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


def test_traced_fiber_report_checks_and_inverts_each_image_once():
    # the audit checks and inverts each distinct image, f(2n - 2) of them for
    # n = 3..6; a check per labeled forest would still pass the zero-call
    # guard, so the count is pinned here
    stats = _trace_sweep()
    images = 3 + 8 + 21 + 55
    for name in ("graphs.is_spanning_tree", "bijection.inverse"):
        assert stats[name]["under"].get("bijection.fiber_report") == images
    assert "bijection.fiber_report" not in stats["bijection.forward"]["under"]


def test_traced_verify_sweep_takes_each_minor_once():
    # the canonical sweep, as verify-sweep runs it: the trees of wheels 3..12
    # and fans 1..12; the forests of the 35 rim pairs of n = 3..12 and of
    # their 10 center pairs, the adjacent and distance-2 rows reading the rim
    # pairs' minors; the resistances of the same pairs, one pass each; and
    # the fan tree count of each fiber report, n = 3..8.  An enumeration that
    # took its count again would add a minor per enumerated query
    stats = _trace_sweep(12, 9)
    assert stats["kirchhoff.det_exact"]["calls"] == (10 + 12) + (35 + 10) + (35 + 10) + 6


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
    """Run the workload's argvs under the benchmark's tracer, and return the tracer."""
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
    return tracer


@pytest.mark.parametrize("workload", list(QUERY_ARGVS))
def test_every_traced_query_workload_function_records_calls(tmp_path, workload):
    # the closed forms too: a table entry that bound its formula at import
    # would bypass the tracer's wrapper and leave that formula at zero calls
    run = _load("run")
    stats = _trace_queries(tmp_path, workload).aggregate()
    calls = {name: entry["calls"] for name, entry in stats.items()}
    assert [name for name in run.COVERED[workload] if not calls.get(name)] == []


@pytest.mark.parametrize(
    "workload, order_sum",
    [
        # with --method all a count takes its minor once, for the minor route
        # and the enum route's size check alike: wheel:6 trees 6, fan:5 trees
        # 5, the forests 5 and 4; then the resistances 6 and 5, one pass
        # each, and FILE trees 5
        ("minor-sparse", 6 + 5 + 5 + 4 + 6 + 5 + 5),
        # FILE trees 5, forests 4 and resistance 5
        ("minor-dense", 5 + 4 + 5),
    ],
)
def test_traced_query_workloads_sum_the_orders_of_their_minors(tmp_path, workload, order_sum):
    # the tracer reads len() of every minor det_exact is given, so each minor
    # type's len() must stay its order
    assert _trace_queries(tmp_path, workload).order_sum == order_sum


def test_enum_oracle_partitions_once_per_enumeration(tmp_path):
    # each enumerator takes the graph's own partition once, to rule its walk
    # in or out; a partition per emitted forest would multiply the count
    stats = _trace_queries(tmp_path, "enum-oracle").aggregate()
    assert stats["graphs.components"]["under"] == {
        "enumeration.enum_spanning_trees": 2,  # count --method all and enumerate each call it once
        "enumeration.enum_two_forests": 2,
    }


def test_enum_oracle_formats_each_graph_once_per_enumerate(tmp_path):
    # cmd_enumerate writes every block from one edge list of the graph; a
    # call per block would bring back the formatting cost and its guard
    # would still pass, so the count is pinned here
    stats = _trace_queries(tmp_path, "enum-oracle").aggregate()
    enumerates = sum(argv[0] == "enumerate" for argv in QUERY_ARGVS["enum-oracle"])
    assert stats["graphs.format_edge_list"]["calls"] == enumerates


# the worker's order in a fresh interpreter: the package and cli first, the
# tracer installed before any op has run a math layer, then the argvs on
# stdin; prints the layers run before the install and the calls per name
_WORKER_ORDER = """
import contextlib, io, json, sys, types
sys.path.insert(0, sys.argv[1])
from spans import LAYERS, Tracer
from wheelfan import cli, graphs
ran = [layer for layer in LAYERS if type(sys.modules.get("wheelfan." + layer)) is types.ModuleType]
tracer = Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in json.load(sys.stdin)]
tracer.uninstall()
calls = {name: stats["calls"] for name, stats in tracer.aggregate().items()}
print(json.dumps([ran, codes, calls]))
"""


def _argvs_and_calls(tmp_path, workload):
    # the workload's argvs, and the calls per traced name they make in this process
    if workload == "verify-sweep":
        argvs, stats = [["verify", "--suite", "all", "--max-n", "6", "--enum-cap", "7"]], _trace_sweep()
    else:
        stats = _trace_queries(tmp_path, workload).aggregate()
        path = tmp_path / "g.txt"
        argvs = [[f"file:{path}" if arg == "FILE" else arg for arg in argv] for argv in QUERY_ARGVS[workload]]
    return argvs, {name: entry["calls"] for name, entry in stats.items()}


@pytest.mark.parametrize("workload", ["verify-sweep", *QUERY_ARGVS])
def test_the_tracer_installed_before_the_layers_load_counts_every_call(tmp_path, workload):
    # pytest has imported every layer before these tests run, so only a fresh
    # interpreter shows that the tracer wraps the layers cli and verify load on
    # first use, and that each call is counted once, as in the tests above
    run = _load("run")
    argvs, expected = _argvs_and_calls(tmp_path, workload)
    proc = subprocess.run(
        [sys.executable, "-c", _WORKER_ORDER, str(PERFBENCH)],
        input=json.dumps(argvs), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    ran, codes, calls = json.loads(proc.stdout)
    assert ran == ["cli", "verify", "sequences", "graphs"]
    assert codes == [0] * len(argvs)
    assert [name for name in run.COVERED[workload] if not calls.get(name)] == []
    # the same calls, but for the shared parser: pytest's process built it before the tracer ran
    assert calls == {**expected, "cli.build_parser": 1}

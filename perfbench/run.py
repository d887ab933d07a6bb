"""wheelfan benchmark: seeded workloads through the CLI, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is taken from ``src/`` next to this
directory.  The steps, all in one single-threaded process at a time:

1. set-up time: a fresh interpreter times its import of ``wheelfan.cli`` and
   the parser build, several times before and after the timed passes,
   median reported (``--trace 0`` only);
2. inputs: the workload's op list and edge-list files are generated from the
   seed and written under ``.perfbench_work/``;
3. timed passes: worker.py runs the op list in a fresh interpreter, each op
   one in-process ``wheelfan.cli.main(argv)`` call, for at least ``--seconds``;
   with ``--trace 1`` traced passes alternate with untraced ones;
4. checks, outside the timing: every op's output is judged against the
   seeded reference (see workloads.py); later passes must reproduce the
   first pass byte for byte.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (see perfbench/design.json for what each should move).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# interpreter starts timed before and again after the timed passes; the
# median of both halves is setup_s, so one slow moment of the host cannot set it
SETUP_STARTS = 8
SETUP_SNIPPET = """
from time import perf_counter
t0 = perf_counter()
import wheelfan.cli
wheelfan.cli.build_parser()
t1 = perf_counter()
import probe
print(t1 - t0, probe.speed_factor("mixed"))
"""
DEADLINE_S = 170  # every run must end within 180 s

BIJECTION = ["WheelForest.from_edges", "normalize", "forward", "inverse", "fiber_report"]
ENUMERATORS = ["enum_spanning_trees", "enum_two_forests", "enum_arc_forests", "rotation_class_representative"]
KIRCHHOFF = ["det_exact", "laplacian", "count_spanning_trees", "count_two_forests", "effective_resistance"]
SUITES = ["identities", "trees", "forests", "resistance", "bijection", "tau"]

# traced functions that must record calls on each workload; zero means a binding was missed
COVERED = {
    "verify-sweep": [f"bijection.{f}" for f in BIJECTION]
    + [f"enumeration.{f}" for f in ENUMERATORS]
    + [f"kirchhoff.{f}" for f in KIRCHHOFF]
    + [f"verify.suite_{s}" for s in SUITES]
    + ["graphs.components", "graphs.is_spanning_tree", "graphs.rotate_rim_labels", "graphs.make_wheel"]
    + ["sequences.fib", "sequences.lucas", "cli.main"],
    "enum-oracle": ["cli.main", "graphs.parse_edge_list", "graphs.format_edge_list", "graphs.components"]
    + ["enumeration.enum_spanning_trees", "enumeration.enum_two_forests"]
    + ["kirchhoff.det_exact", "kirchhoff.laplacian", "kirchhoff.count_spanning_trees", "kirchhoff.count_two_forests"],
    "minor-sparse": [f"kirchhoff.{f}" for f in KIRCHHOFF]
    + ["cli.main", "graphs.parse_edge_list", "graphs.make_wheel", "graphs.make_fan"]
    + ["formulas.trees_wheel", "formulas.trees_fan", "sequences.fib", "sequences.lucas"],
    "minor-dense": [f"kirchhoff.{f}" for f in KIRCHHOFF] + ["cli.main", "graphs.parse_edge_list"],
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mib": "MiB"}


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    names = []
    for fn in BIJECTION:
        names += [(f"bijection.{fn}.calls", "count"), (f"bijection.{fn}.self_s", "s")]
    for fn in ["components", "is_spanning_tree", "rotate_rim_labels", "parse_edge_list", "format_edge_list"]:
        names += [(f"graphs.{fn}.calls", "count"), (f"graphs.{fn}.self_s", "s")]
    for fn in ENUMERATORS:
        names += [(f"enumeration.{fn}.{m}", u) for m, u in (("calls", "count"), ("self_s", "s"), ("emitted", "count"))]
    names.append(("enumeration.enum_two_forests.yield", "ratio"))
    for fn in KIRCHHOFF:
        names += [(f"kirchhoff.{fn}.calls", "count"), (f"kirchhoff.{fn}.self_s", "s")]
    names.append(("kirchhoff.det_exact.order_sum", "count"))
    names.append(("cli.main.self_s", "s"))
    names += [(f"verify.suite_{s}.self_s", "s") for s in SUITES]
    names += [("formulas.calls", "count"), ("formulas.self_s", "s")]
    for fn in ["fib", "lucas"]:
        names += [(f"sequences.{fn}.calls", "count"), (f"sequences.{fn}.self_s", "s")]
    names += [("graphs.make_wheel.hit_ratio", "ratio"), ("trace.overhead_frac", "ratio")]
    return names


def python_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(starts: int) -> list[float]:
    """Scaled set-up times of fresh interpreters, one per start.

    Each child times its own import of wheelfan.cli and parser build, then
    samples its speed with the host-speed probe.  Spawning the interpreter
    and its site initialisation are left out: they belong to the Python
    installation (on a 2-vCPU x86-64 test host, a .pth file importing
    certifi took 75 ms of a 78 ms bare start) and no change to
    wheelfan can move them.
    """
    env = python_env()
    env["PYTHONPATH"] = os.pathsep.join([str(HERE), env["PYTHONPATH"]])
    times = []
    for _ in range(starts):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET], capture_output=True, text=True, env=env, cwd=ROOT, timeout=60
        )
        if out.returncode != 0:
            raise RuntimeError(f"set-up run failed with exit code {out.returncode}: {out.stderr.strip()}")
        elapsed, factor = map(float, out.stdout.split())
        times.append(elapsed * factor)
    return times


def run_worker(run_dir: Path, seconds: float, trace: int, probe: str, spans: Path, deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--src", str(SRC),
        "--run-dir", str(run_dir),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--min-passes", "1" if trace else "3",
        "--probe", probe,
        "--spans", str(spans),
    ]
    with subprocess.Popen(cmd, env=python_env(), cwd=ROOT) as proc:
        try:
            code = proc.wait(timeout=max(1.0, deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError("worker ran past the deadline") from None
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    return json.loads((run_dir / "result.json").read_text())


def judge(ops, check, result, run_dir: Path) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over every pass, untraced and traced."""
    first = result["untraced"][0]
    good = []
    reasons = []
    for i, op in enumerate(ops):
        text = (run_dir / f"out-{i}.txt").read_text()
        reason = check(op, text, first["codes"][i])
        if reason is not None:
            err = (run_dir / f"err-{i}.txt").read_text().strip()
            reasons.append(f"op {i} {' '.join(op.argv)}: {reason}" + (f" ({err})" if err else ""))
        good.append(reason is None)
    attempted = failed = 0
    for pas in result["untraced"] + result["traced"]:
        for i in range(len(ops)):
            attempted += 1
            ok = good[i] and pas["codes"][i] == 0 and pas["digests"][i] == first["digests"][i]
            failed += not ok
    return attempted, failed, reasons


def end_to_end(result, setup_s: float) -> dict:
    passes = result["untraced"]
    latencies = [t for p in passes for t in p["latencies"]]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(sum(p["latencies"]) for p in passes),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3,
        "peak_rss_mib": result["maxrss_kib"] / 1024,
    }


def per_layer(workload: str, result) -> dict:
    traced = result["traced"]
    calls = [{name: s["calls"] for name, s in p["layers"].items()} for p in traced]
    if any(c != calls[0] for c in calls):
        raise RuntimeError("traced passes disagree on call counts")
    missing = [name for name in COVERED[workload] if not calls[0].get(name)]
    if missing:
        raise RuntimeError(f"traced functions with zero calls on {workload}: {', '.join(missing)}")
    first = traced[0]
    layers = first["layers"]

    def self_s(name: str) -> float:
        return statistics.median(p["layers"].get(name, {}).get("self_s", 0.0) for p in traced)

    values = {}
    for name, _ in per_layer_names():
        base, _, field = name.rpartition(".")
        if field == "calls" and base != "formulas":
            values[name] = layers.get(base, {}).get("calls", 0)
        elif field == "self_s" and base != "formulas":
            values[name] = self_s(base)
    for fn in ENUMERATORS[:3]:
        values[f"enumeration.{fn}.emitted"] = first["emitted"][f"enumeration.{fn}"]
    values["enumeration.rotation_class_representative.emitted"] = first["representatives"]
    inner = layers.get("graphs.components", {}).get("under", {}).get("enumeration.enum_two_forests", 0)
    values["enumeration.enum_two_forests.yield"] = (
        first["emitted"]["enumeration.enum_two_forests"] / inner if inner else 0.0
    )
    values["kirchhoff.det_exact.order_sum"] = first["order_sum"]
    formulas = [name for name in layers if name.startswith("formulas.")]
    values["formulas.calls"] = sum(layers[name]["calls"] for name in formulas)
    values["formulas.self_s"] = sum(self_s(name) for name in formulas)
    lookups = first["make_wheel_hits"] + first["make_wheel_misses"]
    values["graphs.make_wheel.hit_ratio"] = first["make_wheel_hits"] / lookups if lookups else 0.0
    untraced_wall = statistics.median(sum(p["latencies"]) for p in result["untraced"])
    traced_wall = statistics.median(sum(p["latencies"]) for p in traced)
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1
    return {name: values[name] for name, _ in per_layer_names()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S

    if not (SRC / "wheelfan" / "cli.py").is_file():
        print(f"error: no wheelfan package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    if not args.trace:
        measure_setup(1)  # the first start pays for reading the files from disk
        setup = measure_setup(SETUP_STARTS)
    tag = f"{args.workload}-{args.seed}"
    run_dir = WORK / f"{tag}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        ops = workloads.build(args.workload, args.seed, run_dir)
        (run_dir / "ops.json").write_text(json.dumps([op.argv for op in ops]))
        (WORK / f"ops-{tag}.json").write_text(json.dumps([op.manifest() for op in ops], indent=0))
        print(f"{args.workload} seed={args.seed}: {workloads.summary(ops)}")
        probe = workloads.WORKLOADS[args.workload][1]
        result = run_worker(run_dir, args.seconds, args.trace, probe, WORK / f"spans-{args.workload}.tsv.gz", deadline)
        attempted, failed, reasons = judge(ops, workloads.check, result, run_dir)
        if not args.trace:
            setup += measure_setup(SETUP_STARTS)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for reason in reasons[:10]:
        print(f"FAIL {reason}")

    if args.trace:
        values = per_layer(args.workload, result)
        units = dict(per_layer_names())
    else:
        values = end_to_end(result, statistics.median(setup))
        units = END_TO_END_UNITS
    passes = result["untraced"] + result["traced"]
    raw = ", ".join(f"{sum(p['raw_latencies']):.3f}" for p in passes)
    print(f"passes={len(passes)} measured_s={result['measured_s']:.2f} attempted={attempted} failed={failed}")
    print(f"raw pass walls (s, before scaling to the reference host speed): {raw}")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

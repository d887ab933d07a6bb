"""Timed passes over one workload's op list, in a fresh interpreter.

Started by run.py with the op list already written.  Every op is one
``wheelfan.cli.main(argv)`` call with stdout and stderr captured.  The
make_wheel and make_fan caches are cleared before each op, because each CLI
invocation starts a fresh process with empty caches; it also makes every
pass do identical work, so traced call counts repeat exactly.

Untraced passes alternate with traced ones when tracing is on.  A pass's
wall time is the sum of its op latencies; the captured output is written to
disk (first pass) or hashed (later passes) between ops, outside the timing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

from probe import PROBES, SpeedProbe
from spans import Tracer


def run_pass(ops, cli, caches, probe_kind: str, out_dir: Path | None, tracer=None) -> dict:
    raw, scaled, digests, codes = [], [], [], []
    hits = misses = 0
    with SpeedProbe(probe_kind) as probe:
        for i, argv in enumerate(ops):
            for cache in caches:
                cache.cache_clear()
            gc.collect()
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.op = i
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                spent = probe.spent
                t0 = perf_counter()
                try:
                    rc = cli.main(argv)
                except Exception:  # a crashing op counts as failed; the rest still run
                    traceback.print_exc()
                    rc = -1
                t1 = perf_counter()
                spent = probe.spent - spent
            raw.append((t0, t1, t1 - t0 - spent))
            info = caches[0].cache_info()
            hits += info.hits
            misses += info.misses
            text = out.getvalue()
            codes.append(rc)
            digests.append(hashlib.sha256(text.encode()).hexdigest())
            if out_dir is not None:
                (out_dir / f"out-{i}.txt").write_text(text)
                (out_dir / f"err-{i}.txt").write_text(err.getvalue())
    scaled = [lat * probe.factor(t0, t1) for t0, t1, lat in raw]
    return {
        "latencies": scaled,
        "raw_latencies": [lat for _, _, lat in raw],
        "digests": digests,
        "codes": codes,
        "make_wheel_hits": hits,
        "make_wheel_misses": misses,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", required=True, help="directory holding the wheelfan package")
    parser.add_argument("--run-dir", required=True, help="holds ops.json; receives outputs and result.json")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--min-passes", type=int, default=3)
    parser.add_argument("--probe", choices=sorted(PROBES), required=True, help="host-speed probe loop")
    parser.add_argument("--spans", help="file for the spans of the first traced pass")
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    from wheelfan import cli, graphs

    run_dir = Path(args.run_dir)
    ops = json.loads((run_dir / "ops.json").read_text())
    caches = [graphs.make_wheel, graphs.make_fan]

    untraced, traced = [], []
    first_tracer = None
    start = perf_counter()
    while True:
        untraced.append(run_pass(ops, cli, caches, args.probe, run_dir if not untraced else None))
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                result = run_pass(ops, cli, caches, args.probe, None, tracer)
            finally:
                tracer.uninstall()
            result["layers"] = tracer.aggregate()
            result["emitted"] = tracer.emitted
            result["representatives"] = len(tracer.representatives)
            result["order_sum"] = tracer.order_sum
            traced.append(result)
            if first_tracer is None:
                first_tracer = tracer
            passes = len(traced)
        else:
            passes = len(untraced)
        if perf_counter() - start >= args.seconds and passes >= args.min_passes:
            break
    if first_tracer is not None and args.spans:
        first_tracer.write_spans(Path(args.spans))

    result = {
        "untraced": untraced,
        "traced": traced,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "measured_s": perf_counter() - start,
    }
    (run_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

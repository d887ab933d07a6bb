"""Outside-in tracing of the wheelfan layers.

The program is not edited.  Instead every public function of the layer
modules is replaced, in every module namespace that bound it, by a wrapper
that records one span per call: name, start, end, parent span and op id.
Spans stay in memory in flat arrays and are aggregated (calls, self time)
after the traced pass.  Self time is a span's duration minus the durations
of its direct child spans.

``graphs.canonical_edge`` is left unwrapped: it is a two-line leaf called
about 1.6 million times per verify sweep, and a span around it would cost
more than the work it measures.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
from array import array
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "verify", "bijection", "enumeration", "kirchhoff", "formulas", "sequences", "graphs")
UNWRAPPED = {"graphs.canonical_edge"}
# classmethods wrapped on their class; listed by "module.Class.method"
CLASSMETHODS = ("bijection.WheelForest.from_edges", "bijection.FanTree.from_edges")
# enumerators whose result length is reported as .emitted
EMITTERS = ("enumeration.enum_spanning_trees", "enumeration.enum_two_forests", "enumeration.enum_arc_forests")


class Tracer:
    """Holds the spans and counters of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.op = -1
        self.emitted: dict[str, int] = {name: 0 for name in EMITTERS}
        self.representatives: set = set()
        self.order_sum = 0
        self._undo: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends, stack = self.span_start, self.span_end, self.stack
        on_result = self._result_hook(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def _result_hook(self, name: str):
        if name in self.emitted:

            def count(args, result):
                self.emitted[name] += len(result)

            return count
        if name == "enumeration.rotation_class_representative":
            return lambda args, result: self.representatives.add(result)
        if name == "kirchhoff.det_exact":

            def order(args, result):
                self.order_sum += len(args[0])

            return order
        return None

    def install(self):
        """Wrap every traced function in every namespace that holds it."""
        modules = {layer: importlib.import_module(f"wheelfan.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or name in UNWRAPPED
                    or getattr(obj, "__module__", None) != module.__name__
                    or not (inspect.isfunction(obj) or hasattr(obj, "cache_info"))
                ):
                    continue
                # keyed by id: namespaces also hold unhashable values such as SUITES
                wrappers[id(obj)] = self._wrap(name, obj)
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._set(module, attr, wrappers[id(obj)])
        suites = modules["verify"].SUITES
        for key, fn in list(suites.items()):
            if id(fn) in wrappers:
                self._undo.append((suites.__setitem__, key, fn))
                suites[key] = wrappers[id(fn)]
        for name in CLASSMETHODS:
            layer, cls_name, meth = name.split(".")
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[meth]
            self._set(cls, meth, classmethod(self._wrap(name, original.__func__)), original)

    def _set(self, owner, attr, value, original=None):
        original = getattr(owner, attr) if original is None else original
        self._undo.append((functools.partial(setattr, owner), attr, original))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            put, key, original = self._undo.pop()
            put(key, original)

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per traced name: calls, self_s, and calls made directly under each parent."""
        count = len(self.span_name)
        child_time = [0.0] * count
        for i in range(count):
            p = self.span_parent[i]
            if p >= 0:
                child_time[p] += self.span_end[i] - self.span_start[i]
        stats: dict[str, dict] = {name: {"calls": 0, "self_s": 0.0, "under": {}} for name in self.names}
        for i in range(count):
            entry = stats[self.names[self.span_name[i]]]
            entry["calls"] += 1
            entry["self_s"] += self.span_end[i] - self.span_start[i] - child_time[i]
            p = self.span_parent[i]
            parent = self.names[self.span_name[p]] if p >= 0 else ""
            entry["under"][parent] = entry["under"].get(parent, 0) + 1
        return stats

    def write_spans(self, path: Path):
        """Spans as TSV: op, name, start_s, end_s, parent span index (-1 for none)."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("op\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.span_name)):
                out.write(
                    f"{self.span_op[i]}\t{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i] - t0:.7f}\t{self.span_end[i] - t0:.7f}\t{self.span_parent[i]}\n"
                )

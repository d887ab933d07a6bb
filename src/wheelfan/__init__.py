"""Exact spanning-tree and two-forest toolkit for wheel and fan graphs.

Three independent computation paths (closed forms, Laplacian minors, brute
force) cover the same quantities; the verify module keeps them honest.

Importing the package loads graphs and sequences only.  The math layers
kirchhoff, enumeration, bijection and formulas load on first use: the
re-exported kirchhoff and bijection names resolve on first access, and cli
and verify bind those modules through lazy_module, which runs a module when
one of its attributes is first read.  A CLI start thus loads the package,
cli, verify, graphs, report and sequences, and a command adds the layers it
calls.
"""

import importlib.util
import sys

from .graphs import LabeledGraph, make_fan, make_wheel, components, is_spanning_tree
from .sequences import fib, lucas

__version__ = "0.1.0"

# each name the package re-exports from a math layer, and its module
_LAZY_NAMES = {
    "count_spanning_trees": "kirchhoff",
    "count_two_forests": "kirchhoff",
    "effective_resistance": "kirchhoff",
    "FanTree": "bijection",
    "WheelForest": "bijection",
    "fiber_report": "bijection",
    "forward": "bijection",
    "inverse": "bijection",
    "normalize": "bijection",
}

__all__ = [
    "LabeledGraph",
    "make_fan",
    "make_wheel",
    "components",
    "is_spanning_tree",
    "fib",
    "lucas",
    *_LAZY_NAMES,
    "__version__",
]


def lazy_module(name: str):
    """The submodule wheelfan.NAME, which runs when one of its attributes is
    first read; what sys.modules holds for it, if it was imported before."""
    fullname = f"{__name__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        # as an import would, so that wheelfan.NAME reads the module
        globals()[name] = module
    return module


def __getattr__(name: str):
    if name not in _LAZY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(lazy_module(_LAZY_NAMES[name]), name)

"""Exact spanning-tree and two-forest toolkit for wheel and fan graphs.

Three independent computation paths (closed forms, Laplacian minors, brute
force) cover the same quantities; the verify module keeps them honest.
"""

from .graphs import LabeledGraph, make_fan, make_wheel, components, is_spanning_tree
from .sequences import fib, lucas
from .kirchhoff import count_spanning_trees, count_two_forests, effective_resistance
from .bijection import FanTree, WheelForest, fiber_report, forward, inverse, normalize

__version__ = "0.1.0"

__all__ = [
    "LabeledGraph",
    "make_fan",
    "make_wheel",
    "components",
    "is_spanning_tree",
    "fib",
    "lucas",
    "count_spanning_trees",
    "count_two_forests",
    "effective_resistance",
    "FanTree",
    "WheelForest",
    "fiber_report",
    "forward",
    "inverse",
    "normalize",
    "__version__",
]

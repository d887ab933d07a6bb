"""Brute-force ground truth for small graphs, and the wheel-forest type.

Everything here enumerates explicitly and is meant to be audited, not to be
fast.  The recursion prunes cycles early with a rollback union-find, and the
output order is the lexicographic order of the chosen edge subsets, so runs
are deterministic and duplicate-free.  For separating two-forests the same
union-find also skips every edge that would join u's part to v's, so each
subset the walk reaches is one the caller keeps.

Three limits keep a run finite: the vertex cap, a work budget and the walk's
depth.  Before it walks, an enumerator takes its exact output size from a
count and refuses with EnumerationCapExceeded, naming that count, above
ENUM_BUDGET.  Trees and separating two-forests are sized by the Laplacian
minor, the arc forests of a wheel by n*f(2n-1).  The count only sizes the
run; every emitted subset is still found by the walk.  The walk recurses
once per chosen edge, so a graph with more vertices than half of Python's
recursion limit is refused too.  The size_* functions make those checks
alone, so a caller can refuse a whole run before any walk starts.

WheelForest, the two-component spanning forest of a wheel with its rim arc
located, lives here because enum_arc_forests emits it; the bijection module
maps it to fan trees.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .graphs import Edge, LabeledGraph, canonical_edge, components, make_wheel, rotate_rim_labels
from .kirchhoff import count_spanning_trees, count_two_forests
from .report import Check, format_int, info_check
from .sequences import fib

DEFAULT_ENUM_CAP = 10
# most subsets any one enumeration may emit; K8's 262,144 trees fit, K10's 10^8 do not
ENUM_BUDGET = 10**6


class EnumerationCapExceeded(ValueError):
    pass


def _checked_size(vertex_count: int, cap: int, count, what: str) -> int:
    # the vertex cap first, so the exact count() never runs on a graph over it
    if vertex_count > cap:
        raise EnumerationCapExceeded(f"graph has {vertex_count} vertices, enumeration cap is {cap}")
    size = count()
    if size > ENUM_BUDGET:
        raise EnumerationCapExceeded(
            f"graph has {format_int(size)} {what}, enumeration budget is {ENUM_BUDGET}"
        )
    # the walk recurses once per chosen edge, up to V-1 deep; half the
    # recursion limit leaves room for the frames of its callers
    depth = sys.getrecursionlimit() // 2
    if vertex_count > depth:
        raise EnumerationCapExceeded(f"graph has {vertex_count} vertices, enumeration depth limit is {depth}")
    return size


def _acyclic_subsets(
    g: LabeledGraph, size: int, apart: tuple[int, int] | None = None
) -> list[tuple[Edge, ...]]:
    # backtracking over the sorted edge list; an edge is skipped at once if it
    # closes a cycle or, when apart = (u, v) is given, joins u's part to v's
    edges = g.edges
    total = len(edges)
    parent = list(range(g.vertex_count))
    rank = [1] * g.vertex_count

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    chosen: list[Edge] = []
    out: list[tuple[Edge, ...]] = []

    def walk(start: int, need: int):
        if need == 0:
            out.append(tuple(chosen))
            return
        ru = rv = -1  # roots are never negative: without a pair no edge matches
        if apart is not None:
            ru, rv = find(apart[0]), find(apart[1])
        for idx in range(start, total - need + 1):
            a, b = edges[idx]
            ra, rb = find(a), find(b)
            if ra == rb or (ra == ru and rb == rv) or (ra == rv and rb == ru):
                continue
            if rank[ra] < rank[rb]:
                ra, rb = rb, ra
            parent[rb] = ra
            rank[ra] += rank[rb]
            chosen.append(edges[idx])
            walk(idx + 1, need - 1)
            chosen.pop()
            rank[ra] -= rank[rb]
            parent[rb] = rb

    walk(0, size)
    return out


def size_spanning_trees(g: LabeledGraph, cap: int = DEFAULT_ENUM_CAP) -> int:
    """How many trees enum_spanning_trees(g, cap) emits; refuses as it does, without the walk."""
    return _checked_size(g.vertex_count, cap, lambda: count_spanning_trees(g), "spanning trees")


def enum_spanning_trees(g: LabeledGraph, cap: int = DEFAULT_ENUM_CAP) -> list[tuple[Edge, ...]]:
    """All spanning trees as canonical edge tuples, lexicographically ordered."""
    size_spanning_trees(g, cap)
    # V-1 acyclic edges on V vertices are automatically connected
    return _acyclic_subsets(g, g.vertex_count - 1)


@dataclass(frozen=True)
class ForestRecord:
    edges: tuple[Edge, ...]
    parts: tuple[tuple[int, ...], ...]


def size_two_forests(g: LabeledGraph, u: int, v: int, cap: int = DEFAULT_ENUM_CAP) -> int:
    """How many forests enum_two_forests(g, u, v, cap) emits; refuses as it does, without the walk."""
    if u == v:
        raise ValueError("the two vertices must be distinct")
    # count_two_forests also refuses a vertex out of range
    return _checked_size(g.vertex_count, cap, lambda: count_two_forests(g, u, v), "separating two-forests")


def enum_two_forests(g: LabeledGraph, u: int, v: int, cap: int = DEFAULT_ENUM_CAP) -> list[ForestRecord]:
    """All two-component spanning forests with u and v in different parts."""
    size_two_forests(g, u, v, cap)
    # V-2 acyclic edges leave exactly two parts, and the walk keeps u and v apart
    return [
        ForestRecord(sub, tuple(components(g, sub)))
        for sub in _acyclic_subsets(g, g.vertex_count - 2, (u, v))
    ]


def rim_arc_of(n: int, rim_part: tuple[int, ...], edges) -> tuple[int, int]:
    """(start, length) of a rim vertex set that must be a contiguous arc.

    edges are the forest's edges.  A full-rim part takes its start from the
    one missing cycle edge: missing {i, i+1} starts the arc at i+1, missing
    {1, n} starts it at 1.
    """
    k = len(rim_part)
    members = set(rim_part)
    if k == n:
        present = set(edges)
        missing = [
            e
            for i in range(1, n + 1)
            if (e := (min(i, i % n + 1), max(i, i % n + 1))) not in present
        ]
        if len(missing) != 1:
            raise ValueError("full-rim component must omit exactly one cycle edge")
        a, b = missing[0]
        start = 1 if (a, b) == (1, n) else b
        return start, n
    starts = [v for v in rim_part if (v - 2) % n + 1 not in members]
    if len(starts) != 1 or members != {(starts[0] - 1 + t) % n + 1 for t in range(k)}:
        raise ValueError("component avoiding the center is not a contiguous rim arc")
    return starts[0], k


def _analyze_forest(n: int, edges) -> tuple[tuple[Edge, ...], int, int]:
    """Check a wheel forest's edges; return them sorted and canonical, and locate the arc."""
    if n < 3:
        raise ValueError("wheel requires at least 3 rim vertices")
    edges = tuple(sorted(canonical_edge(a, b) for a, b in edges))
    if len(set(edges)) != len(edges):
        raise ValueError("duplicate edge in forest")
    # counted before the wheel is built, so a huge n with few edges costs nothing
    if len(edges) != n - 1:
        raise ValueError(f"forest on the wheel with {n} rim vertices needs {n - 1} edges, got {len(edges)}")
    parts = components(make_wheel(n), edges)  # also validates edges against the wheel
    if len(parts) != 2:
        raise ValueError("edge set is not a two-component spanning forest (it contains a cycle)")
    return (edges, *rim_arc_of(n, parts[1], edges))  # parts are ordered by minimum vertex, 0 first


@dataclass(frozen=True)
class WheelForest:
    """Two-component spanning forest of a wheel, its rim arc located.

    edges is the sorted tuple of canonical edges.  The component without the
    center is a rim arc of arc_len vertices starting at rim position
    arc_start; the center's component holds the other n - arc_len edges.
    """

    n: int
    edges: tuple[Edge, ...]
    arc_start: int
    arc_len: int

    def __post_init__(self):
        if _analyze_forest(self.n, self.edges) != (self.edges, self.arc_start, self.arc_len):
            raise ValueError("forest fields are inconsistent with the edge set")

    @classmethod
    def _unchecked(cls, n: int, edges: tuple[Edge, ...], arc_start: int, arc_len: int) -> "WheelForest":
        # Skips __post_init__.  Only three callers may use it, each with
        # fields that already describe a valid forest: from_edges (fresh from
        # _analyze_forest), enum_arc_forests (a subset its walk found) and
        # bijection.normalize (a rotation of a validated forest).
        self = object.__new__(cls)
        self.__dict__.update(n=n, edges=edges, arc_start=arc_start, arc_len=arc_len)
        return self

    @classmethod
    def from_edges(cls, n: int, edges) -> "WheelForest":
        return cls._unchecked(n, *_analyze_forest(n, edges))


def size_arc_forests(n: int, cap: int = DEFAULT_ENUM_CAP) -> int:
    """How many forests enum_arc_forests(n, cap) emits; refuses as it does, without the walk."""
    # Count by the arc length k of the rim-only part.  k = n: the center is
    # isolated and the rim keeps all but one of its n edges, n forests.
    # k < n: n arc starts, each arc spanned by its rim path, and the center
    # part a spanning tree of the fan on the other n-k rim vertices,
    # f(2(n-k)) choices.  With f(2) + f(4) + ... + f(2n-2) = f(2n-1) - 1 the
    # total is n + n*(f(2n-1) - 1) = n*f(2n-1).
    if n < 3:  # before the count, which has no meaning below 3
        raise ValueError("wheel requires at least 3 rim vertices")
    return _checked_size(n + 1, cap, lambda: n * fib(2 * n - 1), "two-component forests")


def enum_arc_forests(n: int, cap: int = DEFAULT_ENUM_CAP) -> list[WheelForest]:
    """Two-component spanning forests of the wheel, center part vs rim-only part.

    By definition one part holds vertex 0 and the other only rim vertices.
    Every two-component spanning forest of a wheel has that shape, so no
    filter is needed: n-1 acyclic edges on n+1 vertices always leave two
    parts.  rim_arc_of checks that the rim-only part is a contiguous arc.
    """
    size_arc_forests(n, cap)
    g = make_wheel(n)
    return [
        WheelForest._unchecked(n, sub, *rim_arc_of(n, components(g, sub)[1], sub))
        for sub in _acyclic_subsets(g, n - 1)
    ]


def rotation_class_representative(f: WheelForest) -> tuple[Edge, ...]:
    """The forest's edges rotated so its arc starts at rim vertex 1.

    A forest has one arc, so every rotation of it lands on the same tuple:
    the arc-normal form, which bijection.normalize builds its forest on.
    """
    return rotate_rim_labels(f.edges, 1 - f.arc_start, f.n)


def arc_forest_census(n_values, cap: int = DEFAULT_ENUM_CAP) -> list[Check]:
    """Measured cardinalities beside candidate closed forms, as info rows.

    Reports the labeled count and the rotation-class count next to f(2n-2),
    f(2n-1), f(2n) and n*f(2n-1), and names whichever candidates match.  A
    rim rotation moves the arc start, so each class has exactly one member
    whose arc starts at rim vertex 1, and the census counts those.  Nothing
    here asserts; the comparison itself is the deliverable.
    """
    checks = []
    for n in n_values:
        records = enum_arc_forests(n, cap=cap)
        labeled = len(records)
        classes = sum(r.arc_start == 1 for r in records)
        candidates = {
            "f(2n-2)": fib(2 * n - 2),
            "f(2n-1)": fib(2 * n - 1),
            "f(2n)": fib(2 * n),
            "n*f(2n-1)": n * fib(2 * n - 1),
        }
        label_hits = [name for name, v in candidates.items() if v == labeled] or ["none"]
        class_hits = [name for name, v in candidates.items() if v == classes] or ["none"]
        values = " ".join(f"{name}={v}" for name, v in candidates.items())
        checks.append(
            info_check(
                "arc-forest census",
                f"n={n}",
                f"labeled={labeled} classes={classes} {values} "
                f"labeled_matches={','.join(label_hits)} class_matches={','.join(class_hits)}",
            )
        )
    return checks

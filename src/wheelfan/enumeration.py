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
maps it to fan trees.  This module returns edges and counts only: the verify
suites build every report row, the arc-forest census included.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .graphs import Edge, LabeledGraph, canonical_edge, components, make_wheel, rotate_rim_labels
from .kirchhoff import count_spanning_trees, count_two_forests
from .report import format_int
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
    """(start, length) of the arc that the center-free part of a wheel forest spans.

    edges are the forest's edges.  The part is joined by rim edges alone, so
    it is an arc, and it starts at its one vertex whose rim edge from the
    previous vertex is absent: that edge leaves the arc, or is the one
    missing cycle edge when the arc is the whole rim.
    """
    present = set(edges)
    (start,) = [v for v in rim_part if canonical_edge((v - 2) % n + 1, v) not in present]
    return start, len(rim_part)


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
    The fields are trusted as given: edges from outside enter through
    from_edges, which checks them and locates the arc.
    """

    n: int
    edges: tuple[Edge, ...]
    arc_start: int
    arc_len: int

    @classmethod
    def from_edges(cls, n: int, edges) -> "WheelForest":
        return cls(n, *_analyze_forest(n, edges))


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
    parts.  rim_arc_of locates the arc of each subset the walk finds.
    """
    size_arc_forests(n, cap)
    g = make_wheel(n)
    return [
        WheelForest(n, sub, *rim_arc_of(n, components(g, sub)[1], sub))
        for sub in _acyclic_subsets(g, n - 1)
    ]


def rotation_class_representative(f: WheelForest) -> tuple[Edge, ...]:
    """The forest's edges rotated so its arc starts at rim vertex 1.

    A forest has one arc, so every rotation of it lands on the same tuple:
    the arc-normal form, which bijection.normalize builds its forest on.
    """
    return rotate_rim_labels(f.edges, 1 - f.arc_start, f.n)

"""Brute-force ground truth for small graphs, and the wheel-forest type.

Everything here enumerates explicitly and is meant to be audited, not to be
fast.  The walk backtracks over the sorted edge list with a rollback
union-find, and the output order is the lexicographic order of the chosen
edge subsets, so runs are deterministic and duplicate-free.  Each part keeps
an int bitmask of the edges with exactly one end in it, and the walk carries
the mask of edges between two parts, so a call reads its candidate edges off
the masks: it never tries an edge that would close a cycle nor, for
separating two-forests, one that would join u's part to v's, and each
subset the walk reaches is one the caller keeps.  A spanning tree leaves no
vertex alone, and a separating forest none but u or v, so the walk for
those returns from a call once it is past some such vertex's last edge with
that vertex still a singleton: no later edge can reach it.  The walk for
the arc forests of a wheel may leave the center or a rim vertex alone and
is not pruned that way.  The prune changes neither the output nor its order.

Three limits keep a run finite: the vertex cap, a work budget and the walk's
depth.  Before it walks, an enumerator takes its exact output size from a
count and raises Refusal, naming that count, above ENUM_BUDGET.  Trees and
separating two-forests are sized by the Laplacian minor, the arc forests of
a wheel by n*f(2n-1).  The count only sizes the run; every emitted subset is
still found by the walk.  The walk is skipped only when the graph's own
partition, one components pass over all its edges, rules out every tree or
separating forest, whatever the count says.  The walk recurses once per
chosen edge but the last two, which it reads off the masks in the loop that
finds the first of them, so a graph with more vertices than half of
Python's recursion limit is refused too.  The size_* functions make those
checks alone, so a caller can refuse a whole run before any walk starts.

WheelForest, the two-component spanning forest of a wheel with its rim arc
located, lives here because enum_arc_forests emits it; the bijection module
maps it to fan trees.  rim_arc_of is the one rule for the arc: the arc is the
run of rim edges that no spoke reaches, read off the forest's edges in one
linear pass.  enum_arc_forest_edges is the one walk over a wheel's arc
forests and locates no arc, so a caller that needs only the edges pays for
none.  The walk already guarantees a forest, so enum_arc_forests applies the
rule alone to each of its tuples; WheelForest.from_edges first checks
outside edges with one union-find pass over the wheel.  This module returns
edges and counts only: the verify suites build every report row, the
arc-forest census included.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

from .graphs import (
    Edge, LabeledGraph, Refusal, _check_distinct, _check_rim, canonical_edge, components, make_wheel, rotate_rim_labels,
)
from .kirchhoff import count_spanning_trees, count_two_forests
from .report import format_int
from .sequences import fib

DEFAULT_ENUM_CAP = 10
# most subsets any one enumeration may emit; K8's 262,144 trees fit, K10's 10^8 do not
ENUM_BUDGET = 10**6


def _checked_size(vertex_count: int, cap: int, count, what: str) -> int:
    # the vertex cap first, so the exact count() never runs on a graph over it
    if vertex_count > cap:
        raise Refusal(f"graph has {vertex_count} vertices, enumeration cap is {cap}")
    size = count()
    if size > ENUM_BUDGET:
        raise Refusal(f"graph has {format_int(size)} {what}, enumeration budget is {ENUM_BUDGET}")
    # the walk recurses once per chosen edge but the last two, up to V-2
    # frames for a tree; half the recursion limit leaves room for its callers' frames
    depth = sys.getrecursionlimit() // 2
    if vertex_count > depth:
        raise Refusal(f"graph has {vertex_count} vertices, enumeration depth limit is {depth}")
    return size


def _acyclic_subsets(
    g: LabeledGraph, size: int, apart: tuple[int, int] | None = None
) -> list[tuple[Edge, ...]]:
    # backtracking over the sorted edge list, edge idx being bit idx of an
    # int mask.  A rollback union-find keeps, at each root r, cut[r]: the
    # edges with exactly one end in r's part.  The walk carries crossing, the
    # edges between two parts; a union of parts a and b clears their common
    # edges cut[a] & cut[b] from it and gives the joined part cut[a] ^ cut[b].
    # A call's candidates are the crossing edges in [start, total - need],
    # minus, when apart = (u, v) is given, those between u's part and v's,
    # taken lowest bit first, so the order is lexicographic and no edge that
    # closes a cycle or joins u to v is ever tried.  With two edges left the
    # second is any candidate after the first once the first's ends are
    # joined, read off the masks with no union and no deeper call, so the
    # walk recurses once per chosen edge but the last two.  A call returns
    # once it is past the last edge of a vertex that must not be alone and
    # that vertex is still a singleton: no later sibling can reach it.  Every
    # edge of such a singleton is a candidate, so checking after each
    # candidate misses none.
    if size == 0:
        return [()]  # a 1-vertex tree, or a 2-vertex separating forest
    edges = g.edges
    if size == 1:  # any one edge, but the one joining u to v
        return [(e,) for e in edges if apart is None or e != canonical_edge(*apart)]
    total = len(edges)
    if size > total:
        return []
    parent = list(range(g.vertex_count))
    rank = [1] * g.vertex_count
    cut = [0] * g.vertex_count
    for idx, (a, b) in enumerate(edges):
        cut[a] |= 1 << idx
        cut[b] |= 1 << idx
    chosen: list[Edge] = []
    out: list[tuple[Edge, ...]] = []
    # closing[idx]: the vertices that must not be alone and whose last edge is idx
    closing: list[tuple[int, ...]] = [()] * total
    if size == g.vertex_count - 1 or apart is not None:
        final = {}
        for idx, (a, b) in enumerate(edges):
            final[a] = final[b] = idx
        for w, idx in final.items():
            if apart is None or w not in apart:
                closing[idx] += (w,)

    def walk(start: int, need: int, crossing: int):
        ru = rv = -1  # roots are never negative: without a pair no part is kept apart
        between = 0  # the edges between u's part and v's
        if apart is not None:
            ru, rv = apart
            while parent[ru] != ru:
                ru = parent[ru]
            while parent[rv] != rv:
                rv = parent[rv]
            between = cut[ru] & cut[rv]
        candidates = crossing & ~between & ((2 << (total - need)) - (1 << start))
        pair = need == 2
        if pair:
            prefix = tuple(chosen)
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            idx = low.bit_length() - 1
            edge = edges[idx]
            ra, rb = edge
            while parent[ra] != ra:
                ra = parent[ra]
            while parent[rb] != rb:
                rb = parent[rb]
            ca = cut[ra]
            cb = cut[rb]
            if pair:
                # the edges the union would leave between u's part and v's
                if ru == ra or ru == rb:
                    between_after = (ca ^ cb) & cut[rv]
                elif rv == ra or rv == rb:
                    between_after = cut[ru] & (ca ^ cb)
                else:
                    between_after = between
                lasts = crossing & ~(ca & cb) & ~between_after & -(low << 1)
                pre = prefix + (edge,)
                while lasts:
                    bit = lasts & -lasts
                    lasts ^= bit
                    out.append(pre + (edges[bit.bit_length() - 1],))
            else:
                if rank[ra] < rank[rb]:
                    ra, rb, ca, cb = rb, ra, cb, ca
                parent[rb] = ra
                rank[ra] += rank[rb]
                cut[ra] = ca ^ cb
                chosen.append(edge)
                walk(idx + 1, need - 1, crossing & ~(ca & cb))
                chosen.pop()
                cut[ra] = ca
                rank[ra] -= rank[rb]
                parent[rb] = rb
            for w in closing[idx]:
                if parent[w] == w and rank[w] == 1:
                    return

    walk(0, size, (1 << total) - 1)
    return out


def size_spanning_trees(g: LabeledGraph, cap: int = DEFAULT_ENUM_CAP) -> int:
    """How many trees enum_spanning_trees(g, cap) emits; refuses as it does, without the walk."""
    return _checked_size(g.vertex_count, cap, lambda: count_spanning_trees(g), "spanning trees")


def enum_spanning_trees(g: LabeledGraph, cap: int = DEFAULT_ENUM_CAP) -> list[tuple[Edge, ...]]:
    """All spanning trees as canonical edge tuples, lexicographically ordered."""
    size_spanning_trees(g, cap)
    # g's own partition, not the minor that sized the run, rules the walk
    # out, so this route stays independent of that minor
    if len(components(g, g.edges)) > 1:
        return []
    # V-1 acyclic edges on V vertices are automatically connected
    return _acyclic_subsets(g, g.vertex_count - 1)


def size_two_forests(g: LabeledGraph, u: int, v: int, cap: int = DEFAULT_ENUM_CAP) -> int:
    """How many forests enum_two_forests(g, u, v, cap) emits; refuses as it does, without the walk."""
    _check_distinct(u, v)
    # count_two_forests also refuses a vertex out of range
    return _checked_size(g.vertex_count, cap, lambda: count_two_forests(g, u, v), "separating two-forests")


def enum_two_forests(g: LabeledGraph, u: int, v: int, cap: int = DEFAULT_ENUM_CAP) -> list[tuple[Edge, ...]]:
    """Two-part spanning forests with u and v apart, as canonical edge tuples, lexicographically ordered."""
    size_two_forests(g, u, v, cap)
    # as for trees: none exists if g has over two parts, or two with u and v
    # in the same one
    parts = components(g, g.edges)
    if len(parts) > 2 or (len(parts) == 2 and (u in parts[0]) == (v in parts[0])):
        return []
    # V-2 acyclic edges leave exactly two parts, and the walk keeps u and v apart
    return _acyclic_subsets(g, g.vertex_count - 2, (u, v))


def rim_arc_of(n: int, edges) -> tuple[int, int]:
    """(start, length) of the arc that the center-free part of a wheel forest spans.

    edges are the forest's canonical edges.  A run is a maximal path of
    present rim edges.  Every run but the arc meets the center by exactly one
    spoke (two would close a cycle), so the arc is the one run that no spoke
    reaches.  With no spoke the one run is the whole rim, and it starts after
    the one missing rim edge.  One pass marks the spokes and the rim edges
    v -> v % n + 1; then each run is walked from its start, a vertex whose
    rim edge from the previous vertex is absent, until a spoke meets it.
    Every rim vertex is visited at most twice.
    """
    spoke = [False] * (n + 1)
    rim = [False] * (n + 1)  # rim[v]: the rim edge v -> v % n + 1 is present
    for a, b in edges:
        if a == 0:
            spoke[b] = True
        elif b == a + 1:
            rim[a] = True
        else:  # the closing edge {1, n}
            rim[n] = True
    rim[0] = rim[n]  # so rim[v - 1] is the edge into v, for v = 1 too
    for start in range(1, n + 1):
        if rim[start - 1] or spoke[start]:
            continue  # not a run start, or a run the center reaches
        end = start
        while rim[end]:
            end = end % n + 1
            if spoke[end]:
                break
        else:
            return start, (end - start) % n + 1
    raise Refusal("edge set has no center-free rim arc")


def _analyze_forest(n: int, edges) -> tuple[tuple[Edge, ...], int, int]:
    """Check a wheel forest's edges; return them sorted and canonical, and locate the arc."""
    _check_rim(n)
    edges = tuple(sorted(canonical_edge(a, b) for a, b in edges))
    if len(set(edges)) != len(edges):
        raise Refusal("duplicate edge in forest")
    # counted before the wheel is built, so a huge n with few edges costs nothing
    if len(edges) != n - 1:
        raise Refusal(f"forest on the wheel with {n} rim vertices needs {n - 1} edges, got {len(edges)}")
    # also validates edges against the wheel
    if len(components(make_wheel(n), edges)) != 2:
        raise Refusal("edge set is not a two-component spanning forest (it contains a cycle)")
    return (edges, *rim_arc_of(n, edges))


class WheelForest(NamedTuple):
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
    _check_rim(n)  # before the count, which has no meaning below MIN_RIM
    return _checked_size(n + 1, cap, lambda: n * fib(2 * n - 1), "two-component forests")


def enum_arc_forest_edges(n: int, cap: int = DEFAULT_ENUM_CAP) -> list[tuple[Edge, ...]]:
    """Two-component spanning forests of the wheel as canonical edge tuples, lexicographically ordered.

    By definition one part holds vertex 0 and the other only rim vertices.
    Every two-component spanning forest of a wheel has that shape, so no
    filter is needed: n-1 acyclic edges on n+1 vertices always leave two
    parts.  No arc is located: enum_arc_forests does that on these tuples.
    """
    size_arc_forests(n, cap)
    return _acyclic_subsets(make_wheel(n), n - 1)


def enum_arc_forests(n: int, cap: int = DEFAULT_ENUM_CAP) -> list[WheelForest]:
    """The forests of enum_arc_forest_edges, in its order, each with its rim arc located.

    rim_arc_of reads the arc of each subset the walk finds off its rim runs,
    so no subset is partitioned again.
    """
    return [WheelForest(n, sub, *rim_arc_of(n, sub)) for sub in enum_arc_forest_edges(n, cap)]


def rotation_class_representative(f: WheelForest) -> tuple[Edge, ...]:
    """The forest's edges rotated so its arc starts at rim vertex 1.

    A forest has one arc, so every rotation of it lands on the same tuple:
    the arc-normal form, which bijection.normalize builds its forest on.
    """
    return rotate_rim_labels(f.edges, 1 - f.arc_start, f.n)

"""Immutable labeled simple graphs, plus the wheel and fan constructors.

Vertex 0 is always the center (wheel) or hub (fan); rim and path vertices
are 1..n.  Subgraphs are plain edge subsets against a parent graph so that
vertex labels survive every operation.  A LabeledGraph checks in one linear
scan that its edges are canonical (a < b) and strictly increasing; make_graph
sorts arbitrary pairs into that form, and make_wheel and make_fan emit theirs
in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable

Edge = tuple[int, int]


def canonical_edge(a: int, b: int) -> Edge:
    if a == b:
        raise ValueError(f"loop edge {a}-{b} not allowed")
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class LabeledGraph:
    vertex_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if self.vertex_count < 1:
            raise ValueError("graph needs at least one vertex")
        prev = (-1, -1)
        for e in self.edges:
            a, b = e
            if not (0 <= a < b < self.vertex_count):
                raise ValueError(f"edge {a}-{b} out of range or not canonical")
            if e <= prev:
                raise ValueError(f"duplicate edge {a}-{b}" if e == prev else "edges must be in sorted order")
            prev = e

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)


def make_graph(vertex_count: int, edges: Iterable[tuple[int, int]]) -> LabeledGraph:
    """Build a LabeledGraph from any iterable of endpoint pairs, oriented, deduped and sorted."""
    canon = sorted({canonical_edge(a, b) for a, b in edges})
    return LabeledGraph(vertex_count, tuple(canon))


# cached: the canonical sweep makes 91 hits and 10 misses on make_wheel, and
# 627 hits and 12 misses on make_fan, most from FanTree checking each distinct
# forward image
@lru_cache(maxsize=None)
def make_wheel(n: int) -> LabeledGraph:
    """Wheel with rim vertices 1..n and center 0.  2n edges, in sorted order."""
    if n < 3:
        raise ValueError("wheel requires at least 3 rim vertices")
    spokes = [(0, i) for i in range(1, n + 1)]
    rim = [(1, 2), (1, n)] + [(i, i + 1) for i in range(2, n)]
    return LabeledGraph(n + 1, tuple(spokes + rim))


@lru_cache(maxsize=None)
def make_fan(m: int) -> LabeledGraph:
    """Fan with path vertices 1..m and hub 0.  2m-1 edges, in sorted order."""
    if m < 1:
        raise ValueError("fan requires at least 1 path vertex")
    hub = [(0, i) for i in range(1, m + 1)]
    path = [(i, i + 1) for i in range(1, m)]
    return LabeledGraph(m + 1, tuple(hub + path))


def components(g: LabeledGraph, sub: Iterable[Edge]) -> list[tuple[int, ...]]:
    """Connected-component partition of all vertices under the edge subset.

    Isolated vertices appear as singletons.  Parts are sorted internally and
    ordered by their minimum vertex id, so the output is deterministic.
    """
    allowed = g.edge_set
    # union-find with path halving; a union hangs the larger root under the
    # smaller, so parent[x] <= x and every root is the minimum of its part
    parent = list(range(g.vertex_count))
    for e in sub:
        if e not in allowed:
            raise ValueError(f"edge {e[0]}-{e[1]} is not an edge of the graph")
        a, b = e
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    # visiting x in increasing order, parent[x] < x already points at its root,
    # so one step resolves x; members arrive sorted, parts by minimum vertex
    parts: dict[int, list[int]] = {}
    for x in range(g.vertex_count):
        r = parent[x] = parent[parent[x]]
        if r == x:
            parts[x] = [x]
        else:
            parts[r].append(x)
    return [tuple(p) for p in parts.values()]


def is_acyclic(g: LabeledGraph, sub: Iterable[Edge]) -> bool:
    """True iff sub has no cycle; a repeated edge counts as one.

    Every edge of a forest joins two parts, so a forest with e edges leaves
    vertex_count - e parts and any cycle leaves more.
    """
    sub = list(sub)
    return len(components(g, sub)) == g.vertex_count - len(sub)


def is_spanning_tree(g: LabeledGraph, sub: Iterable[Edge]) -> bool:
    """True iff sub is acyclic, connected and has vertex_count-1 edges."""
    sub = list(sub)
    # components first, so a non-edge raises whatever the length
    return len(components(g, sub)) == 1 and len(sub) == g.vertex_count - 1


def rotate_rim_labels(edges: Iterable[Edge], shift: int, n: int) -> tuple[Edge, ...]:
    """Relabel rim vertices of a wheel subgraph by a cyclic shift.

    Vertex 0 stays fixed; rim vertex v goes to ((v-1+shift) mod n)+1.  Used
    for rotation normalization and for the rotation-class quotient.
    """
    # a dict, not a list: a negative endpoint must miss the table, not wrap
    label = {v: (v - 1 + shift) % n + 1 for v in range(1, n + 1)}
    label[0] = 0
    moved = []
    for a, b in edges:
        try:
            x, y = label[a], label[b]
        except KeyError as missing:
            raise ValueError(f"vertex {missing.args[0]} is not a rim vertex of a wheel with {n} rim vertices") from None
        # canonical_edge only where it has work: a swap, or a loop to refuse
        moved.append((x, y) if x < y else canonical_edge(x, y))
    return tuple(sorted(moved))


def _parse_int(text: str, what: str) -> int:
    """The integer text spells in ASCII digits after an optional minus.

    Every integer a user types comes through here; int() alone would also
    take spaces, underscores, a plus sign and other scripts' digits.  It
    runs twice per edge line, so it stays private: perfbench/spans.py wraps
    every public function, and a span per field would cost more than the work.
    """
    if text.isascii() and (text.isdigit() or text[:1] == "-" and text[1:].isdigit()):
        try:
            return int(text)  # it keeps its limit on the number of digits
        except ValueError:
            pass
    raise ValueError(f"bad {what} {text!r}")


# --- edge-list text format ---------------------------------------------------
# First line "V <vertex_count>", then one edge per line as "a b" with a < b.
# LF terminated.  The parser rejects duplicates, loops and out-of-range ids.


def format_edge_list(vertex_count: int, edges: Iterable[Edge]) -> str:
    return f"V {vertex_count}\n" + "".join([f"{a} {b}\n" for a, b in sorted(edges)])


def parse_edge_list(text: str) -> LabeledGraph:
    lines = [s for ln in text.splitlines() if (s := ln.strip()) and not s.startswith("#")]
    if not lines or not lines[0].startswith("V "):
        raise ValueError('edge list must start with a "V <vertex_count>" line')
    try:
        vertex_count = _parse_int(lines[0][2:].strip(), "vertex count")
    except ValueError:
        raise ValueError(f"bad vertex count line: {lines[0]!r}") from None
    edges = []
    for ln in lines[1:]:
        try:
            x, y = ln.split()
            a, b = _parse_int(x, "vertex"), _parse_int(y, "vertex")
        except ValueError:
            raise ValueError(f"bad edge line: {ln!r}") from None
        if not a < b:
            raise ValueError(f"edge line {ln!r} must satisfy a < b")
        edges.append((a, b))
    if len(set(edges)) != len(edges):
        raise ValueError("duplicate edge in edge list")
    return LabeledGraph(vertex_count, tuple(sorted(edges)))

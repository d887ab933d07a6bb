"""Immutable labeled simple graphs, plus the wheel and fan constructors.

Vertex 0 is always the center (wheel) or hub (fan); rim and path vertices
are 1..n.  Subgraphs are plain edge subsets against a parent graph so that
vertex labels survive every operation.  A LabeledGraph checks in one linear
scan, when it is made, that its edges are canonical (a < b) and strictly
increasing; make_graph sorts arbitrary pairs into that form, and make_wheel
and make_fan emit theirs in order.  The check sits in __new__, which _make,
and so _replace, goes through too.  A graph has no __dict__ and takes no new
attribute, so the one graph make_wheel or make_fan caches for every caller
cannot be changed.

Four domain rules are stated here once, each by a helper that raises its one
message: a wheel's MIN_RIM rim vertices, a fan's MIN_PATH path vertices, a
vertex in range and a pair of distinct vertices.  The helpers are private, as
_parse_int is: perfbench/spans.py wraps every public function, and a span per
check would cost more than the check.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple

Edge = tuple[int, int]

MIN_RIM = 3  # the wheel W_{n+1}: rim 1..n around the center 0
MIN_PATH = 1  # the fan F_m: path 1..m beside the hub 0
DEFAULT_ENUM_CAP = 10  # most vertices a graph may have for the brute-force enumerators


class Refusal(ValueError):
    """The one way the package refuses an input; any other exception is a bug."""


def _check_rim(n: int) -> None:
    if n < MIN_RIM:
        raise Refusal("wheel requires at least 3 rim vertices")


def _check_path(m: int) -> None:
    if m < MIN_PATH:
        raise Refusal("fan requires at least 1 path vertex")


def _check_vertices(vertex_count: int, *vertices: int) -> None:
    for w in vertices:
        if not 0 <= w < vertex_count:
            raise Refusal(f"vertex {w} out of range")


def _check_distinct(u: int, v: int) -> None:
    if u == v:
        raise Refusal("the two vertices must be distinct")


def canonical_edge(a: int, b: int) -> Edge:
    if a == b:
        raise Refusal(f"loop edge {a}-{b} not allowed")
    return (a, b) if a < b else (b, a)


class _GraphFields(NamedTuple):
    vertex_count: int
    edges: tuple[Edge, ...]


class LabeledGraph(_GraphFields):
    __slots__ = ()

    def __new__(cls, vertex_count: int, edges: tuple[Edge, ...]):
        if vertex_count < 1:
            raise Refusal("graph needs at least one vertex")
        prev = (-1, -1)
        for e in edges:
            a, b = e
            if not (0 <= a < b < vertex_count):
                raise Refusal(f"edge {a}-{b} out of range or not canonical")
            if e <= prev:
                raise Refusal(f"duplicate edge {a}-{b}" if e == prev else "edges must be in sorted order")
            prev = e
        return super().__new__(cls, vertex_count, edges)

    @classmethod
    def _make(cls, iterable) -> "LabeledGraph":
        return cls(*iterable)

    @property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)


def make_graph(vertex_count: int, edges: Iterable[tuple[int, int]]) -> LabeledGraph:
    """Build a LabeledGraph from any iterable of endpoint pairs, oriented, deduped and sorted."""
    canon = sorted({canonical_edge(a, b) for a, b in edges})
    return LabeledGraph(vertex_count, tuple(canon))


# cached: the canonical sweep makes 35 hits and 10 misses on make_wheel, and
# 619 hits and 12 misses on make_fan, most from FanTree checking each distinct
# forward image; bounded, so a long run does not keep every graph it built
@lru_cache(maxsize=16)
def make_wheel(n: int) -> LabeledGraph:
    """Wheel with rim vertices 1..n and center 0.  2n edges, in sorted order."""
    _check_rim(n)
    spokes = [(0, i) for i in range(1, n + 1)]
    rim = [(1, 2), (1, n)] + [(i, i + 1) for i in range(2, n)]
    return LabeledGraph(n + 1, tuple(spokes + rim))


@lru_cache(maxsize=16)
def make_fan(m: int) -> LabeledGraph:
    """Fan with path vertices 1..m and hub 0.  2m-1 edges, in sorted order."""
    _check_path(m)
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
            raise Refusal(f"edge {e[0]}-{e[1]} is not an edge of the graph")
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


def is_spanning_tree(g: LabeledGraph, sub: Iterable[Edge]) -> bool:
    """True iff sub is acyclic, connected and has vertex_count-1 edges."""
    sub = list(sub)
    # components first, so a non-edge raises whatever the length
    return len(components(g, sub)) == 1 and len(sub) == g.vertex_count - 1


# at most 16 maps of n + 1 entries stay alive: the arc-forest walk's budget
# admits wheels of at most 13 rim vertices, and auditing one wheel rotates by
# at most its n shifts, so every map of the wheel under audit stays while it
# is read
@lru_cache(maxsize=16)
def _rim_rotation(n: int, shift: int) -> dict[int, int]:
    # a dict, not a list: a negative endpoint must miss the table, not wrap.
    # Shared by every caller, so it is only read.
    label = {v: (v - 1 + shift) % n + 1 for v in range(1, n + 1)}
    label[0] = 0
    return label


def rotate_rim_labels(edges: Iterable[Edge], shift: int, n: int) -> tuple[Edge, ...]:
    """Relabel rim vertices of a wheel subgraph by a cyclic shift.

    Vertex 0 stays fixed; rim vertex v goes to ((v-1+shift) mod n)+1.  Used
    for rotation normalization and for the rotation-class quotient.  The
    map for (n, shift mod n) is built once and read from a shared table of
    the 16 most recent maps, so one wheel's audit builds each of its maps once.
    """
    label = _rim_rotation(n, shift % n if n else 0)  # n = 0: no rim, every shift is the same
    moved = []
    for a, b in edges:
        try:
            x, y = label[a], label[b]
        except KeyError as missing:
            raise Refusal(f"vertex {missing.args[0]} is not a rim vertex of a wheel with {n} rim vertices") from None
        moved.append(canonical_edge(x, y))
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
    raise Refusal(f"bad {what} {text!r}")


# --- edge-list text format ---------------------------------------------------
# First line "V <vertex_count>", then one edge per line as "a b" with a < b.
# LF terminated.  The parser rejects duplicates, loops and out-of-range ids.


def format_edge_list(vertex_count: int, edges: Iterable[Edge]) -> str:
    return f"V {vertex_count}\n" + "".join([f"{a} {b}\n" for a, b in sorted(edges)])


def parse_edge_list(text: str) -> LabeledGraph:
    # a UTF-8 byte-order mark is not whitespace, so strip() would keep it
    lines = [s for ln in text.removeprefix("\ufeff").splitlines() if (s := ln.strip()) and not s.startswith("#")]
    if not lines or len(head := lines[0].split()) < 2 or head[0] != "V":
        raise Refusal('edge list must start with a "V <vertex_count>" line')
    try:
        vertex_count = _parse_int(lines[0][1:].lstrip(), "vertex count")
    except Refusal:
        raise Refusal(f"bad vertex count line: {lines[0]!r}") from None
    edges = []
    for ln in lines[1:]:
        try:
            x, y = ln.split()
            a, b = _parse_int(x, "vertex"), _parse_int(y, "vertex")
        except ValueError:
            raise Refusal(f"bad edge line: {ln!r}") from None
        if not a < b:
            raise Refusal(f"edge line {ln!r} must satisfy a < b")
        edges.append((a, b))
    if len(set(edges)) != len(edges):
        raise Refusal("duplicate edge in edge list")
    return LabeledGraph(vertex_count, tuple(sorted(edges)))

"""Immutable labeled simple graphs, plus the wheel and fan constructors.

Vertex 0 is always the center (wheel) or hub (fan); rim and path vertices
are 1..n.  Subgraphs are plain edge subsets against a parent graph so that
vertex labels survive every operation.
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
        seen = set()
        for e in self.edges:
            a, b = e
            if not (0 <= a < b < self.vertex_count):
                raise ValueError(f"edge {a}-{b} out of range or not canonical")
            if e in seen:
                raise ValueError(f"duplicate edge {a}-{b}")
            seen.add(e)
        if list(self.edges) != sorted(self.edges):
            raise ValueError("edges must be in sorted order")

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)


def make_graph(vertex_count: int, edges: Iterable[tuple[int, int]]) -> LabeledGraph:
    """Build a LabeledGraph from any iterable of endpoint pairs."""
    canon = sorted({canonical_edge(a, b) for a, b in edges})
    return LabeledGraph(vertex_count, tuple(canon))


# constructors are cached: graphs are immutable values and the forest
# validators rebuild the same wheel thousands of times during a sweep
@lru_cache(maxsize=None)
def make_wheel(n: int) -> LabeledGraph:
    """Wheel with rim vertices 1..n and center 0.  2n edges."""
    if n < 3:
        raise ValueError("wheel requires at least 3 rim vertices")
    spokes = [(0, i) for i in range(1, n + 1)]
    rim = [canonical_edge(i, i % n + 1) for i in range(1, n + 1)]
    return make_graph(n + 1, spokes + rim)


@lru_cache(maxsize=None)
def make_fan(m: int) -> LabeledGraph:
    """Fan with path vertices 1..m and hub 0.  2m-1 edges."""
    if m < 1:
        raise ValueError("fan requires at least 1 path vertex")
    hub = [(0, i) for i in range(1, m + 1)]
    path = [(i, i + 1) for i in range(1, m)]
    return make_graph(m + 1, hub + path)


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

    def move(v: int) -> int:
        if v == 0:
            return 0
        if not 1 <= v <= n:
            raise ValueError(f"vertex {v} is not a rim vertex of a wheel with {n} rim vertices")
        return (v - 1 + shift) % n + 1

    return tuple(sorted(canonical_edge(move(a), move(b)) for a, b in edges))


# --- edge-list text format ---------------------------------------------------
# First line "V <vertex_count>", then one edge per line as "a b" with a < b.
# LF terminated.  The parser rejects duplicates, loops and out-of-range ids.


def format_edge_list(vertex_count: int, edges: Iterable[Edge]) -> str:
    lines = [f"V {vertex_count}"]
    lines.extend(f"{a} {b}" for a, b in sorted(edges))
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> LabeledGraph:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    lines = [ln for ln in lines if not ln.startswith("#")]
    if not lines or not lines[0].startswith("V "):
        raise ValueError('edge list must start with a "V <vertex_count>" line')
    try:
        vertex_count = int(lines[0][2:])
    except ValueError:
        raise ValueError(f"bad vertex count line: {lines[0]!r}") from None
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line: {ln!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"bad edge line: {ln!r}") from None
        if not a < b:
            raise ValueError(f"edge line {ln!r} must satisfy a < b")
        edges.append((a, b))
    if len(set(edges)) != len(edges):
        raise ValueError("duplicate edge in edge list")
    return LabeledGraph(vertex_count, tuple(sorted(edges)))

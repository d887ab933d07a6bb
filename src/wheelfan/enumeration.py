"""Brute-force ground truth for small graphs, and the wheel-forest type.

Everything here enumerates explicitly and is meant to be audited, not to be
fast.  The recursion prunes cycles early with a rollback union-find, and the
output order is the lexicographic order of the chosen edge subsets, so runs
are deterministic and duplicate-free.  For separating two-forests the same
union-find also skips every edge that would join u's part to v's, so each
subset the walk reaches is one the caller keeps.

Two limits keep a run finite: the vertex cap, and a work budget.  Before it
walks, an enumerator takes its exact output size from a count and refuses
with EnumerationCapExceeded, naming that count, above ENUM_BUDGET.  Trees
and separating two-forests are sized by the Laplacian minor, the arc
forests of a wheel by n*f(2n-1).  The count only sizes the run; every
emitted subset is still found by the walk.

WheelForest, the two-component spanning forest of a wheel with its rim arc
located, lives here because enum_arc_forests emits it; the bijection module
maps it to fan trees.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Edge, LabeledGraph, canonical_edge, components, make_wheel, rotate_rim_labels
from .kirchhoff import count_spanning_trees, count_two_forests
from .report import Check, info_check
from .sequences import fib

DEFAULT_ENUM_CAP = 10
# most subsets any one enumeration may emit; K8's 262,144 trees fit, K10's 10^8 do not
ENUM_BUDGET = 10**6


class EnumerationCapExceeded(ValueError):
    pass


def _check_cap(vertex_count: int, cap: int):
    if vertex_count > cap:
        raise EnumerationCapExceeded(
            f"graph has {vertex_count} vertices, enumeration cap is {cap}"
        )


def _check_budget(count: int, what: str):
    # the minor route predicts the output size exactly before the walk starts
    if count > ENUM_BUDGET:
        raise EnumerationCapExceeded(
            f"graph has {count} {what}, enumeration budget is {ENUM_BUDGET}"
        )


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


def enum_spanning_trees(g: LabeledGraph, cap: int = DEFAULT_ENUM_CAP) -> list[tuple[Edge, ...]]:
    """All spanning trees as canonical edge tuples, lexicographically ordered."""
    _check_cap(g.vertex_count, cap)
    _check_budget(count_spanning_trees(g), "spanning trees")
    # V-1 acyclic edges on V vertices are automatically connected
    return _acyclic_subsets(g, g.vertex_count - 1)


@dataclass(frozen=True)
class ForestRecord:
    edges: tuple[Edge, ...]
    parts: tuple[tuple[int, ...], ...]


def enum_two_forests(g: LabeledGraph, u: int, v: int, cap: int = DEFAULT_ENUM_CAP) -> list[ForestRecord]:
    """All two-component spanning forests with u and v in different parts."""
    if u == v:
        raise ValueError("the two vertices must be distinct")
    _check_cap(g.vertex_count, cap)
    # count_two_forests also refuses a vertex out of range, before the walk
    _check_budget(count_two_forests(g, u, v), "separating two-forests")
    # V-2 acyclic edges leave exactly two parts, and the walk keeps u and v apart
    return [
        ForestRecord(sub, tuple(components(g, sub)))
        for sub in _acyclic_subsets(g, g.vertex_count - 2, (u, v))
    ]


def rim_arc_of(n: int, rim_part: tuple[int, ...], cycle_edges) -> tuple[int, int]:
    """(start, length) of a rim vertex set that must be a contiguous arc.

    A full-rim part takes its start from the one missing cycle edge: missing
    {i, i+1} starts the arc at i+1, missing {1, n} starts it at 1.
    """
    k = len(rim_part)
    members = set(rim_part)
    if k == n:
        present = set(cycle_edges)
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


def _split_forest(
    n: int, edges: tuple[Edge, ...], rim_part: tuple[int, ...]
) -> tuple[tuple[Edge, ...], tuple[Edge, ...], int, int]:
    # the WheelForest fields of a two-component forest whose part without
    # vertex 0 is rim_part; an edge lies in that part iff its smaller end does
    rim = set(rim_part)
    cycle_edges = tuple(e for e in edges if e[0] in rim)
    center_edges = tuple(e for e in edges if e[0] not in rim)
    return (center_edges, cycle_edges, *rim_arc_of(n, rim_part, cycle_edges))


def _analyze_forest(n: int, edges) -> tuple[tuple[Edge, ...], tuple[Edge, ...], int, int]:
    """Check a wheel forest's edges, then split them and locate the arc."""
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
    return _split_forest(n, edges, parts[1])  # parts are ordered by minimum vertex, 0 first


@dataclass(frozen=True)
class WheelForest:
    """Two-component spanning forest of a wheel, arc metadata included.

    center_edges live in the component holding vertex 0 (spokes and possibly
    rim edges); cycle_edges form the path on the center-free arc, which has
    arc_len vertices and starts at rim position arc_start.
    """

    n: int
    center_edges: tuple[Edge, ...]
    cycle_edges: tuple[Edge, ...]
    arc_start: int
    arc_len: int

    def __post_init__(self):
        ce, cy, start, k = _analyze_forest(self.n, self.center_edges + self.cycle_edges)
        if (ce, cy, start, k) != (self.center_edges, self.cycle_edges, self.arc_start, self.arc_len):
            raise ValueError("forest fields are inconsistent with the edge set")

    @classmethod
    def _unchecked(cls, n: int, center_edges, cycle_edges, arc_start: int, arc_len: int) -> "WheelForest":
        # Skips __post_init__.  Only three callers may use it, each with
        # fields that already describe a valid forest: from_edges (fresh from
        # _analyze_forest), enum_arc_forests (split from a subset its walk
        # found) and bijection.normalize (a rotation of a validated forest).
        self = object.__new__(cls)
        self.__dict__.update(
            n=n, center_edges=center_edges, cycle_edges=cycle_edges, arc_start=arc_start, arc_len=arc_len
        )
        return self

    @classmethod
    def from_edges(cls, n: int, edges) -> "WheelForest":
        return cls._unchecked(n, *_analyze_forest(n, edges))

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.center_edges + self.cycle_edges))


def enum_arc_forests(n: int, cap: int = DEFAULT_ENUM_CAP) -> list[WheelForest]:
    """Two-component spanning forests of the wheel, center part vs rim-only part.

    By definition one part holds vertex 0 and the other only rim vertices.
    Every two-component spanning forest of a wheel has that shape, so no
    filter is needed: n-1 acyclic edges on n+1 vertices always leave two
    parts.  rim_arc_of checks that the rim-only part is a contiguous arc.
    """
    _check_cap(n + 1, cap)  # before the wheel is built
    g = make_wheel(n)
    # Count by the arc length k of the rim-only part.  k = n: the center is
    # isolated and the rim keeps all but one of its n edges, n forests.
    # k < n: n arc starts, each arc spanned by its rim path, and the center
    # part a spanning tree of the fan on the other n-k rim vertices,
    # f(2(n-k)) choices.  With f(2) + f(4) + ... + f(2n-2) = f(2n-1) - 1 the
    # total is n + n*(f(2n-1) - 1) = n*f(2n-1).
    _check_budget(n * fib(2 * n - 1), "two-component forests")
    return [
        WheelForest._unchecked(n, *_split_forest(n, sub, components(g, sub)[1]))
        for sub in _acyclic_subsets(g, n - 1)
    ]


def rotation_class_representative(f: WheelForest) -> tuple[Edge, ...]:
    """The forest's edges rotated so its arc starts at rim vertex 1.

    A forest has one arc, so every rotation of it lands on the same tuple:
    the arc-normal form, the edges of bijection.normalize's forest.
    """
    return rotate_rim_labels(f.edges, 1 - f.arc_start, f.n)


def arc_forest_census(n_values, cap: int = DEFAULT_ENUM_CAP) -> list[Check]:
    """Measured cardinalities beside candidate closed forms, as info rows.

    Reports the labeled count and the rotation-class count next to f(2n-2),
    f(2n-1), f(2n) and n*f(2n-1), and names whichever candidates match.
    Nothing here asserts; the comparison itself is the deliverable.
    """
    checks = []
    for n in n_values:
        records = enum_arc_forests(n, cap=cap)
        labeled = len(records)
        classes = len({rotation_class_representative(r) for r in records})
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

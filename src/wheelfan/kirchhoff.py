"""Exact Laplacian machinery: tree counts, two-forest counts, resistances.

count_spanning_trees is the matrix-tree determinant; count_two_forests is the
all-minors extension (drop both vertices of the pair).  Determinants run over
plain Python ints with Bareiss elimination, so nothing is ever rounded.

The minor is eliminated in greedy minimum-degree order (Tinney-Walker), which
keeps the fill of sparse graphs small, and det_exact skips every row whose
entry in the pivot column is zero, rescaling it only when it is next used.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from dataclasses import dataclass
from typing import Sequence

from .graphs import LabeledGraph


@dataclass(frozen=True)
class LaplacianMatrix:
    order: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n, rows = self.order, self.entries
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("entries must form an order x order square")
        for i in range(n):
            if sum(rows[i]) != 0:
                raise ValueError(f"row {i} does not sum to zero")
            for j in range(n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("Laplacian must be symmetric")
                if i != j and rows[i][j] not in (0, -1):
                    raise ValueError("off-diagonal entries must be 0 or -1")

    @classmethod
    def _unchecked(cls, order: int, entries: tuple[tuple[int, ...], ...]) -> "LaplacianMatrix":
        # Skips __post_init__.  Only laplacian() may use it: it has just built
        # the entries from the edges of a validated LabeledGraph.
        self = object.__new__(cls)
        self.__dict__.update(order=order, entries=entries)
        return self

    def minor(self, drop: set[int]) -> list[list[int]]:
        keep = [i for i in range(self.order) if i not in drop]
        return [[self.entries[i][j] for j in keep] for i in keep]


def laplacian(g: LabeledGraph) -> LaplacianMatrix:
    n = g.vertex_count
    m = [[0] * n for _ in range(n)]
    for a, b in g.edges:
        m[a][b] -= 1
        m[b][a] -= 1
        m[a][a] += 1
        m[b][b] += 1
    return LaplacianMatrix._unchecked(n, tuple(tuple(row) for row in m))


def _rescale(row: list[int], start: int, num: int, den: int) -> None:
    for j in range(start, len(row)):
        row[j] = row[j] * num // den


def det_exact(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free Bareiss elimination.

    Every intermediate entry is a minor of the input, so the integer divisions
    are exact.  Zero pivots trigger a row swap; if no swap helps, the matrix
    is singular and the answer is 0.  The empty matrix has determinant 1.

    A row whose entry in the pivot column is zero is skipped: Bareiss would
    only scale it by pivot / divisor.  Its stamp records the step it was last
    brought up to date, and the product of the skipped scalings telescopes to
    one exact rescale when the row is next used.
    """
    n = len(matrix)
    if n == 0:
        return 1
    rows = [list(r) for r in matrix]
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    sign = 1
    # prevs[k] is the divisor of step k; a row with stamp s holds its true
    # entries at step k times prevs[s] / prevs[k]
    prevs = [1]
    stamp = [0] * n
    for k in range(n - 1):
        if rows[k][k] == 0:
            for i in range(k + 1, n):
                if rows[i][k] != 0:
                    rows[k], rows[i] = rows[i], rows[k]
                    stamp[k], stamp[i] = stamp[i], stamp[k]
                    sign = -sign
                    break
            else:
                return 0
        prev = prevs[k]
        rk = rows[k]
        if stamp[k] != k:
            _rescale(rk, k, prev, prevs[stamp[k]])
        pivot = rk[k]
        for i in range(k + 1, n):
            ri = rows[i]
            if ri[k] == 0:
                continue
            if stamp[i] != k:
                _rescale(ri, k, prev, prevs[stamp[i]])
            lead = ri[k]
            for j in range(k + 1, n):
                ri[j] = (pivot * ri[j] - lead * rk[j]) // prev
            ri[k] = 0
            stamp[i] = k + 1
        prevs.append(pivot)
    return sign * rows[n - 1][n - 1] * prevs[n - 1] // prevs[stamp[n - 1]]


def _min_degree_order(g: LabeledGraph, drop: set[int]) -> list[int]:
    """Greedy minimum-degree elimination order of the vertices not dropped.

    Eliminating a vertex joins its neighbours into a clique (the fill Bareiss
    would create).  Ties go to the lowest id, and once the remaining vertices
    form a clique they follow in id order.
    """
    adj = {v: set() for v in range(g.vertex_count) if v not in drop}
    for a, b in g.edges:
        if a in adj and b in adj:
            adj[a].add(b)
            adj[b].add(a)
    # lazy heap: an entry is stale once its vertex is gone or its degree moved
    heap = [(len(nbrs), v) for v, nbrs in adj.items()]
    heapify(heap)
    order = []
    while adj:
        d, v = heappop(heap)
        if v not in adj or d != len(adj[v]):
            continue
        if d == len(adj) - 1:
            break
        nbrs = adj.pop(v)
        for w in nbrs:
            adj_w = adj[w]
            adj_w |= nbrs
            adj_w.discard(w)
            adj_w.discard(v)
            heappush(heap, (len(adj_w), w))
        order.append(v)
    return order + sorted(adj)


def _ordered_minor(g: LabeledGraph, drop: set[int]) -> list[list[int]]:
    # a symmetric permutation of rows and columns keeps the determinant
    entries = laplacian(g).entries
    keep = _min_degree_order(g, drop)
    return [[entries[i][j] for j in keep] for i in keep]


def count_spanning_trees(g: LabeledGraph) -> int:
    """Spanning-tree count via the principal minor that drops vertex 0.

    Which vertex is dropped does not matter; invariance is covered by tests.
    Disconnected graphs give 0 rather than an error.
    """
    if g.vertex_count == 1:
        return 1
    return det_exact(_ordered_minor(g, {0}))


def count_two_forests(g: LabeledGraph, u: int, v: int) -> int:
    """Number of two-component spanning forests with u and v in different parts."""
    if u == v:
        raise ValueError("the two vertices must be distinct")
    for w in (u, v):
        if not 0 <= w < g.vertex_count:
            raise ValueError(f"vertex {w} out of range")
    return det_exact(_ordered_minor(g, {u, v}))


def effective_resistance(g: LabeledGraph, u: int, v: int) -> Fraction:
    """Exact resistance between u and v with every edge a unit resistor.

    Equals count_two_forests(g,u,v) / count_spanning_trees(g).  u == v gives 0.
    """
    if u == v:
        if not 0 <= u < g.vertex_count:
            raise ValueError(f"vertex {u} out of range")
        return Fraction(0)
    trees = count_spanning_trees(g)
    if trees == 0:
        raise ValueError("infinite resistance: graph is disconnected")
    return Fraction(count_two_forests(g, u, v), trees)

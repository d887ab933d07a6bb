"""Exact Laplacian machinery: tree counts, two-forest counts, resistances.

count_spanning_trees is the matrix-tree determinant; count_two_forests is the
all-minors extension (drop both vertices of the pair).  Determinants run over
plain Python ints with fraction-free Bareiss elimination, so nothing is ever
rounded.

effective_resistance needs both of those minors, and one is nested in the
other: with v ordered last, det(L without u and v) is the leading block of
det(L without u).  Bareiss makes each step's divisor a leading principal
minor, so one pass over L without u reads both, the two-forest count as the
divisor of the last step and the tree count as the result.  Of the pair, u
is the end of higher degree and v the other.

A Laplacian is made only from a graph, by laplacian(), and is held as its
neighbour lists; no route builds it as an n x n array, whose dense entries
and natural-order minors are kept as oracles for the tests.  Each minor is
built from the lists straight into sparse rows in greedy minimum-degree
order (Tinney-Walker), which keeps the fill of sparse graphs small.  The
minor is symmetric, so a row keeps only its upper triangle, as a dict from
column to entry, and det_exact eliminates it with one symmetric Bareiss pass
(George & Liu 1981): the lead of row i at step k is entry i of pivot row k,
a row the pivot row does not reach is rescaled only when it is next used,
and the pivot row is dropped once used.  Once a pivot row reaches every
later row, each later row is fresh and holds every later column, so the
rest of the minor is dense: on dense graphs the order leaves a trailing
clique.  The pass then copies those rows' upper triangle, entries the dicts
already held, into lists and finishes over them two steps at a time, by
Bareiss's two-step form: one list comprehension per row and pair of steps,
dividing by the square of the divisor before the pair, and one single step
on the last row when the count of steps is odd.  No rescaling is left to do
there.  A Laplacian minor is positive semidefinite, so a zero pivot means
the minor is singular.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Sequence

from .graphs import LabeledGraph


@dataclass(frozen=True)
class LaplacianMatrix:
    """The Laplacian D - A of a simple graph, held as its neighbour lists.

    laplacian() is the one way to make one, from a validated graph, so the
    matrix is symmetric with rows summing to zero by construction.
    """

    order: int
    neighbours: tuple[tuple[int, ...], ...]

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """The dense n x n entries; for tests and oracles, never on a route."""
        rows = []
        for i, nbrs in enumerate(self.neighbours):
            row = [0] * self.order
            row[i] = len(nbrs)
            for j in nbrs:
                row[j] = -1
            rows.append(tuple(row))
        return tuple(rows)

    def minor(self, drop: set[int]) -> list[list[int]]:
        """Dense minor without the rows and columns in drop, in vertex order."""
        keep = [i for i in range(self.order) if i not in drop]
        entries = self.entries
        return [[entries[i][j] for j in keep] for i in keep]


def laplacian(g: LabeledGraph) -> LaplacianMatrix:
    nbrs: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for a, b in g.edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    return LaplacianMatrix(g.vertex_count, tuple(map(tuple, nbrs)))


class LaplacianMinor(list):
    """A Laplacian minor as sparse upper-triangular rows.

    Row i is a dict from column j >= i to the entry, the diagonal always
    present.  _ordered_minor builds every one a route eliminates, so
    det_exact may rely on it being symmetric positive semidefinite.
    det_exact consumes its rows and leaves in `leading` the determinant of
    the block without the last row and column, the divisor of the last
    Bareiss step.
    """

    leading: int


def _det_minor(rows: LaplacianMinor) -> int:
    n = len(rows)
    if n == 0:
        return 1
    # prevs[k] is the divisor of step k; a row with stamp s holds its true
    # entries at step k times prevs[s] / prevs[k]
    prevs = [1]
    stamp = [0] * n
    for k in range(n - 1):
        rk, rows[k] = rows[k], None
        prev, old = prevs[k], prevs[stamp[k]]
        if old != prev:
            for j in rk:
                rk[j] = rk[j] * prev // old
        pivot = rk.pop(k)
        if pivot == 0:
            # a singular leading block of a semidefinite matrix makes it, and
            # every larger leading block, singular
            rows.leading = 0
            return 0
        # by symmetry, the rows the pivot row reaches are its own columns
        cols = sorted(j for j, a in rk.items() if a)
        for p, i in enumerate(cols):
            lead, ri = rk[i], rows[i]
            old = prevs[stamp[i]]
            stale = old != prev
            stamp[i] = k + 1
            new = {}
            for j in cols[p:]:
                a = ri.pop(j, 0)
                if stale:
                    a = a * prev // old
                new[j] = (pivot * a - lead * rk[j]) // prev
            # columns the pivot row does not reach only scale by pivot / prev,
            # which on a stale row's stored entries is pivot / old
            for j, a in ri.items():
                new[j] = a * pivot // old
            rows[i] = new
        prevs.append(pivot)
        if len(cols) == n - k - 1:
            break
    else:
        rows.leading = prevs[n - 1]
        return rows[n - 1][n - 1] * prevs[n - 1] // prevs[stamp[n - 1]]
    # the pivot row reached every later row, so each is fresh and full: the
    # rest is a dense upper triangle, row i holding columns i..n-1
    tail = [[rows[i][j] for j in range(i, n)] for i in range(k + 1, n)]
    m, prev = len(tail), pivot
    # two steps per pass (Bareiss 1968): pivot rows t and t+1 hold the block
    # [[a, b], [b, c]], and entry j of a later row i becomes the 3x3 minor on
    # rows t, t+1, i and columns t, t+1, j over prev^2 (Sylvester's identity),
    # expanded along row i with u and v, its cofactors, shared by every row;
    # the next divisor, the pivot step t+1 would have had, is d / prev
    for t in range(0, m - 2, 2):
        rt, rs = tail[t], tail[t + 1]
        a, b, c = rt[0], rt[1], rs[0]
        d = a * c - b * b
        # the block is semidefinite, so a == 0 forces b == 0 and d == 0 too
        if d == 0:
            rows.leading = 0
            return 0
        # column j >= t+2 of the two pivot rows, which by symmetry is also
        # the pair's entries in row j
        cols = list(zip(rt[2:], rs[1:]))
        u = [a * y - b * x for x, y in cols]
        v = [b * y - c * x for x, y in cols]
        square = prev * prev
        for p, (lt, ls) in enumerate(cols):
            i = t + 2 + p
            tail[i] = [(d * e - ls * uj + lt * vj) // square for e, uj, vj in zip(tail[i], u[p:], v[p:])]
        prev = d // prev
    if m % 2 == 0:
        # an odd number of steps leaves one, on the 1x1 remainder; a zero
        # pivot there has a zero lead, so the result is 0 as it must be
        (pivot, lead), (last,) = tail[-2:]
        rows.leading = pivot
        return (pivot * last - lead * lead) // prev
    rows.leading = prev
    return tail[-1][0]


def det_exact(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free Bareiss elimination.

    A LaplacianMinor is eliminated in place by the symmetric sparse pass of
    the module docstring.  Any other square matrix is copied and eliminated
    by textbook Bareiss: every intermediate entry is a minor of the input, so
    the integer divisions are exact; a zero pivot triggers a row swap, and if
    no swap helps the matrix is singular and the answer is 0.  The empty
    matrix has determinant 1.
    """
    if isinstance(matrix, LaplacianMinor):
        return _det_minor(matrix)
    n = len(matrix)
    if n == 0:
        return 1
    rows = [list(r) for r in matrix]
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    sign, prev = 1, 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for i in range(k + 1, n):
                if rows[i][k] != 0:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        rk = rows[k]
        pivot = rk[k]
        for i in range(k + 1, n):
            ri = rows[i]
            lead = ri[k]
            for j in range(k + 1, n):
                ri[j] = (pivot * ri[j] - lead * rk[j]) // prev
        prev = pivot
    return sign * rows[n - 1][n - 1]


def _min_degree_order(neighbours: tuple[tuple[int, ...], ...], drop: set[int], last: int | None = None) -> list[int]:
    """Greedy minimum-degree elimination order of the vertices not dropped.

    Eliminating a vertex joins its neighbours into a clique (the fill Bareiss
    would create).  Ties go to the lowest id, and once the remaining vertices
    form a clique they follow in id order.  The vertex last, if any, counts
    in the degrees and the fill but is never chosen: it comes last.
    """
    adj = {v: {w for w in nbrs if w not in drop} for v, nbrs in enumerate(neighbours) if v not in drop}
    # lazy heap: an entry is stale once its vertex is gone or its degree moved
    heap = [(len(nbrs), v) for v, nbrs in adj.items()]
    heapify(heap)
    order = []
    while len(adj) > 1:
        d, v = heappop(heap)
        if v == last or v not in adj or d != len(adj[v]):
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
    return order + sorted(adj, key=lambda w: (w == last, w))


def _ordered_minor(lap: LaplacianMatrix, drop: set[int], last: int | None = None) -> LaplacianMinor:
    # a symmetric permutation of rows and columns keeps the determinant
    keep = _min_degree_order(lap.neighbours, drop, last)
    pos = {v: i for i, v in enumerate(keep)}
    rows = LaplacianMinor()
    for i, v in enumerate(keep):
        nbrs = lap.neighbours[v]
        row = {i: len(nbrs)}
        for w in nbrs:
            j = pos.get(w, -1)
            if j > i:
                row[j] = -1
        rows.append(row)
    return rows


def count_spanning_trees(g: LabeledGraph) -> int:
    """Spanning-tree count via the principal minor that drops vertex 0.

    Which vertex is dropped does not matter; invariance is covered by tests.
    Disconnected graphs give 0 rather than an error, at once when there are
    too few edges to connect the vertices.
    """
    if g.vertex_count == 1:
        return 1
    if len(g.edges) < g.vertex_count - 1:
        return 0
    return det_exact(_ordered_minor(laplacian(g), {0}))


def count_two_forests(g: LabeledGraph, u: int, v: int) -> int:
    """Number of two-component spanning forests with u and v in different parts."""
    if u == v:
        raise ValueError("the two vertices must be distinct")
    for w in (u, v):
        if not 0 <= w < g.vertex_count:
            raise ValueError(f"vertex {w} out of range")
    if len(g.edges) < g.vertex_count - 2:
        return 0  # too few edges for two parts to span the vertices
    return det_exact(_ordered_minor(laplacian(g), {u, v}))


def _component_holding(g: LabeledGraph, u: int, v: int) -> tuple[LabeledGraph, int, int]:
    """The component of g that holds u, relabelled 0.., with u and v in its labels.

    Found from the edge list alone, so a huge vertex count with few edges
    allocates nothing per vertex.
    """
    adjacent: dict[int, list[int]] = {}
    for a, b in g.edges:
        adjacent.setdefault(a, []).append(b)
        adjacent.setdefault(b, []).append(a)
    seen, todo = {u}, [u]
    while todo:
        for w in adjacent.get(todo.pop(), ()):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    if v not in seen:
        raise ValueError("infinite resistance: graph is disconnected")
    index = {w: i for i, w in enumerate(sorted(seen))}
    # an increasing relabelling keeps g's edges canonical and in sorted order
    h = LabeledGraph(len(index), tuple((index[a], index[b]) for a, b in g.edges if a in index))
    return h, index[u], index[v]


def _forests_and_trees(g: LabeledGraph, u: int, v: int) -> tuple[int, int]:
    """The two-forest count and the tree count of (u, v), off one elimination.

    R is symmetric, so the end of higher degree is dropped and the other
    goes last: a hub kept last would be updated at nearly every step.
    """
    lap = laplacian(g)
    if len(lap.neighbours[u]) < len(lap.neighbours[v]):
        u, v = v, u
    minor = _ordered_minor(lap, {u}, last=v)
    trees = det_exact(minor)
    return minor.leading, trees


def effective_resistance(g: LabeledGraph, u: int, v: int) -> Fraction:
    """Exact resistance between u and v with every edge a unit resistor.

    On a connected graph it equals count_two_forests(g,u,v) /
    count_spanning_trees(g) (Bapat and Gupta).  Both are read off one
    Bareiss pass over the Laplacian without the end of higher degree (u on
    a tie), the other end ordered last: the divisor of the last step is the
    two-forest count and the result is the tree count.  No current leaves
    the component of u, so a disconnected graph, whose tree count is 0, is
    answered by a second pass on that component alone, and by that pass only
    when it has fewer than V-1 edges; v outside it has infinite resistance, a
    ValueError.  u == v gives 0.
    """
    for w in (u, v):
        if not 0 <= w < g.vertex_count:
            raise ValueError(f"vertex {w} out of range")
    if u == v:
        return Fraction(0)
    # with too few edges to connect g, the whole-graph pass would only say so
    trees = 0
    if len(g.edges) >= g.vertex_count - 1:
        forests, trees = _forests_and_trees(g, u, v)
    if trees == 0:
        forests, trees = _forests_and_trees(*_component_holding(g, u, v))
    return Fraction(forests, trees)

"""Exact Laplacian machinery: tree counts, two-forest counts, resistances.

count_spanning_trees is the matrix-tree determinant; count_two_forests is the
all-minors extension (drop both vertices of the pair).  Determinants run over
plain Python ints, by continuants or by fraction-free Bareiss elimination, so
nothing is ever rounded.

effective_resistance needs both of those minors, and one is nested in the
other: with v ordered last, det(L without u and v) is the leading block of
det(L without u).  Bareiss makes each step's divisor a leading principal
minor, so one pass over L without u reads both, the two-forest count as the
divisor of the last step and the tree count as the result.  Of the pair, u
is the end of higher degree and v the other.

A Laplacian is made only from a graph, by laplacian(), and is held as its
neighbour lists; no route builds it as an n x n array.  The dense matrix,
its natural-order minors and textbook Bareiss live in tests/oracles.py, as
the references the tests check the routes against.

Every minor the CLI asks of a wheel or a fan has a graph of paths and
cycles, or of paths and one apex (the center or hub), and _ordered_minor
first tries that shape from the neighbour lists alone, whatever graph they
came from.  A count of the kept edges refuses most other minors at once;
one scan then picks the apex, the kept vertex of highest degree above 2,
and walks the rest, which must be paths, or cycles when there is no apex.
A minor that fits is a MinorShape, whose determinant needs no division: a
path's block is the continuant D_j = d_j D_{j-1} - D_{j-2} of its degrees,
a cycle's is D(1..L) - D(2..L-1) - 2, and with an apex of degree d it is
d prod D - sum over paths of w prod of the other D, where w, the apex's
term through one path, runs beside D in the same pass.  So it takes linear
steps, against Bareiss's divisions of growing minors.  With v last, the
leading determinant is the shape without v, a path split in two or a cycle
opened, and one walk gives both: the path that holds v is walked forward up
to v and back from its far end, the two parts are its blocks without v, and
joined at v they give the whole path; the walk round a cycle starts at v
and carries the opened path's continuant beside the cycle's.  Every other
block is walked once for both.

Any other minor is built from the lists straight into sparse rows in greedy
minimum-degree order (Tinney-Walker), which keeps the fill of sparse graphs
small.  The minor is symmetric, so a row keeps only its upper triangle, as a
dict from column to entry, and det_exact eliminates it with one symmetric
Bareiss pass (George & Liu 1981): the lead of row i at step k is entry i of
pivot row k, and the pivot row is dropped once used.  A step changes only
the entries at the columns its pivot row reaches, in the rows it reaches;
every other entry would only scale by the step's pivot over its divisor.  So
each entry carries the step it was last written at, and it is rescaled by
the ratio of two divisors only when it is next read: as an entry of a pivot
row, or of the block a pivot row reaches.  Once a pivot row reaches every
later row, each entry of those rows has just been written and each row holds
every later column, so the rest of the minor is dense: on dense graphs the
order leaves a trailing clique.  The pass then copies those rows' upper
triangle, entries the dicts already held, into lists and finishes over them
two steps at a time, by Bareiss's two-step form: one list comprehension per
row and pair of steps, dividing by the square of the divisor before the
pair, and one single step on the last row when the count of steps is odd.
No rescaling is left to do there.  A Laplacian minor is positive
semidefinite, so a zero pivot means the minor is singular.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush

from .graphs import LabeledGraph, Refusal, _check_distinct, _check_vertices


Neighbours = tuple[tuple[int, ...], ...]


def laplacian(g: LabeledGraph) -> Neighbours:
    """The Laplacian D - A of a validated graph, as each vertex's neighbours.

    Vertex v's degree, the diagonal entry, is len() of its tuple, and each
    neighbour is a -1 off the diagonal, so the matrix is symmetric with rows
    summing to zero by construction.  len() of the whole is the order.
    """
    nbrs: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for a, b in g.edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    return tuple(map(tuple, nbrs))


class LaplacianMinor(list):
    """A Laplacian minor as sparse upper-triangular rows.

    Row i is a dict from column j >= i to the entry, the diagonal always
    present.  _min_degree_minor builds every one a route eliminates, so
    det_exact may rely on it being symmetric positive semidefinite.
    det_exact consumes its rows, keeping the step of each entry beside them,
    and leaves in `leading` the determinant of the block without the last
    row and column, the divisor of the last Bareiss step.
    """

    leading: int


class MinorShape:
    """A Laplacian minor whose graph is paths and cycles, or paths and one apex.

    Each block is a path or a cycle of the graph without the apex, held as
    (degrees, flags, cycle): its vertices' full degrees, the minor's
    diagonal, in path order; per vertex 1 if it is adjacent to the apex, else
    0; and whether the block is a cycle, which it can be only when there is
    no apex.  apex is the apex's full degree, or None when there is none.
    last is where the vertex ordered last lies: (b, i) for position i of
    block b, (None, None) when it is the apex, and None when no vertex goes
    last; the walk round a cycle starts at last, so there i is 0.  len() is
    the minor's order.  det_exact evaluates it by continuants and, when
    last is set, leaves in `leading` the determinant without last, off the
    same walk, as it does for a LaplacianMinor.
    """

    __slots__ = ("blocks", "apex", "last", "order", "leading")

    def __init__(self, blocks, apex, last, order):
        self.blocks, self.apex, self.last, self.order = blocks, apex, last, order

    def __len__(self) -> int:
        return self.order


def _det_minor(rows: LaplacianMinor) -> int:
    n = len(rows)
    if n == 0:
        return 1
    # prevs[k] is the divisor of step k, and when[i][j] the step of entry
    # (i, j): the true entry at step k is the stored one times prevs[k] /
    # prevs[when[i][j]], since a step that leaves an entry out of its block
    # only scales it by pivot / prev
    prevs = [1]
    when = [dict.fromkeys(row, 0) for row in rows]
    for k in range(n - 1):
        rk, rows[k] = rows[k], None
        prev = prevs[k]
        for j, s in when[k].items():
            if s != k:
                rk[j] = rk[j] * prev // prevs[s]
        pivot = rk.pop(k)
        if pivot == 0:
            # a singular leading block of a semidefinite matrix makes it, and
            # every larger leading block, singular
            rows.leading = 0
            return 0
        # by symmetry, the rows the pivot row reaches are its own columns; in
        # those rows only the entries of those columns change, each read and
        # rescaled here, and the rest keep their steps
        cols = sorted(j for j, a in rk.items() if a)
        for p, i in enumerate(cols):
            lead, ri, wi = rk[i], rows[i], when[i]
            for j in cols[p:]:
                s = wi.get(j)
                if s is None:
                    ri[j] = -lead * rk[j] // prev
                else:
                    a = ri[j]
                    if s != k:
                        a = a * prev // prevs[s]
                    ri[j] = (pivot * a - lead * rk[j]) // prev
                wi[j] = k + 1
        prevs.append(pivot)
        if len(cols) == n - k - 1:
            break
    else:
        rows.leading = prevs[n - 1]
        return rows[n - 1][n - 1] * prevs[n - 1] // prevs[when[n - 1][n - 1]]
    # the pivot row reached every later row, so each entry of those rows is
    # fresh and each row full: the rest is a dense upper triangle, row i
    # holding columns i..n-1
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


def _continuant(degrees: list[int]) -> int:
    # a path's tridiagonal block, every coupling -1: D_j = d_j D_{j-1} - D_{j-2}
    now, before = 1, 0
    for d in degrees:
        now, before = d * now - before, now
    return now


def _cycle_terms(degrees: list[int]) -> tuple[int, int]:
    """The determinant of a cycle's block and of the path R left without its first vertex.

    Along vertex 1 the cycle expands to d_1 D(R) - D(R without its first) -
    D(R without its last) - 2, R being 2..L.  One loop carries all three:
    D(R) and D(R without its last) as a continuant does, and D(R without its
    first) as a second chain, which starts at (0, -1) so that R's first
    degree takes it to (1, 0).
    """
    now, before, inner, inner_before = 1, 0, 0, -1
    for d in degrees[1:]:
        now, before, inner, inner_before = d * now - before, now, d * inner - inner_before, inner
    return degrees[0] * now - inner - before - 2, now


def _apex_state(degrees: list[int], flags: list[int]) -> tuple[int, int, int, int, int]:
    """The state (D, D-, w, w-, s) of a path's block T after its last vertex.

    D is det T and w = a^T adj(T) a its apex term, a holding the flags; D-
    and w- are the same without the last vertex.  adj(T)[p][q] is
    D(1..p-1) D(q+1..L) for p <= q, so w runs beside D without division:
    w_j = d_j w_{j-1} - w_{j-2} + a_j D_{j-1} + 2 a_j s_{j-1}, where
    s_j = s_{j-1} + a_j D_{j-1}.
    """
    now = 1
    before = w = w_before = s = 0
    for d, a in zip(degrees, flags):
        if a:
            now, before, w, w_before, s = d * now - before, now, d * w - w_before + now + 2 * s, w, s + now
        else:
            now, before, w, w_before = d * now - before, now, d * w - w_before, w
    return now, before, w, w_before, s


def _apex_terms(degrees: list[int], flags: list[int]) -> tuple[int, int]:
    """The determinant D of a path's block and its apex term w."""
    now, _, w, _, _ = _apex_state(degrees, flags)
    return now, w


def _join(d: int, a: int, prefix: tuple, suffix: tuple) -> tuple[int, int]:
    """(D, w) of a path's block from the states of the parts on each side of one vertex.

    The vertex has degree d and flag a; prefix is the state of the part
    before it, suffix that of the part after it, walked from the far end.
    Expanding along the vertex, D = d D_P D_S - D_P- D_S - D_P D_S-.  In w,
    the pairs (p, q) within one part give the first four terms, the pairs
    across it 2 s_P s_S, and the pairs through the vertex its flag's terms.
    """
    dp, dp_, wp, wp_, sp = prefix
    ds, ds_, ws, ws_, ss = suffix
    det = d * dp * ds - dp_ * ds - dp * ds_
    w = (d * ds - ds_) * wp - ds * wp_ + (d * dp - dp_) * ws - dp * ws_ + 2 * sp * ss
    if a:
        w += 2 * sp * ds + 2 * dp * ss + dp * ds
    return det, w


def _fold(terms, prod: int = 1, cross: int = 0) -> tuple[int, int]:
    # the blocks are block-diagonal beside the apex, so the determinant is
    # apex * prod D - sum over blocks p of w_p * prod over the other blocks of D
    for det, w in terms:
        prod, cross = prod * det, cross * det + w * prod
    return prod, cross


def _beside(apex: int | None, prod: int, cross: int) -> int:
    return prod if apex is None else apex * prod - cross


def _shape_det(shape: MinorShape) -> int:
    """The determinant of a MinorShape, and its leading one when a vertex is last.

    Every block but the one that holds last is walked once, and its D and w
    serve both determinants.  On a path, the part before last is walked
    forward and the part after it from the far end, and _join gives the
    whole block; on a cycle, whose walk starts at last, _cycle_terms gives
    the cycle and the path it opens into.
    """
    apex, blocks = shape.apex, shape.blocks
    b, i = shape.last or (None, None)
    terms = []
    for c, (degrees, flags, cycle) in enumerate(blocks):
        if c == b:
            continue
        if cycle:
            terms.append((_cycle_terms(degrees)[0], 0))
        elif apex is None:
            terms.append((_continuant(degrees), 0))
        else:
            terms.append(_apex_terms(degrees, flags))
    prod, cross = _fold(terms)
    if b is None:
        if shape.last is not None:
            shape.leading = prod  # without the apex, the blocks alone
        return _beside(apex, prod, cross)
    degrees, flags, cycle = blocks[b]
    if cycle:
        whole, opened = _cycle_terms(degrees)
        block, parts = [(whole, 0)], [(opened, 0)]
    else:
        prefix = _apex_state(degrees[:i], flags[:i])
        suffix = _apex_state(degrees[:i:-1], flags[:i:-1])
        block = [_join(degrees[i], flags[i], prefix, suffix)]
        parts = [(prefix[0], prefix[2]), (suffix[0], suffix[2])]
    shape.leading = _beside(apex, *_fold(parts, prod, cross))
    return _beside(apex, *_fold(block, prod, cross))


def det_exact(matrix: LaplacianMinor | MinorShape) -> int:
    """Exact determinant of a minor _ordered_minor builds.

    A MinorShape is evaluated by the continuants of the module docstring,
    and when it has a vertex last, leading becomes its determinant without
    that vertex, off the same walk.  A LaplacianMinor is eliminated in place
    by the symmetric sparse Bareiss pass of the module docstring.  The empty
    minor has determinant 1.
    """
    if isinstance(matrix, MinorShape):
        return _shape_det(matrix)
    return _det_minor(matrix)


def _min_degree_order(neighbours: Neighbours, drop: set[int], last: int | None = None) -> list[int]:
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


def _min_degree_minor(lap: Neighbours, drop: set[int], last: int | None = None) -> LaplacianMinor:
    # a symmetric permutation of rows and columns keeps the determinant
    keep = _min_degree_order(lap, drop, last)
    pos = {v: i for i, v in enumerate(keep)}
    rows = LaplacianMinor()
    for i, v in enumerate(keep):
        nbrs = lap[v]
        row = {i: len(nbrs)}
        for w in nbrs:
            j = pos.get(w, -1)
            if j > i:
                row[j] = -1
        rows.append(row)
    return rows


def _shape(nbrs: Neighbours, drop: set[int], last: int | None) -> MinorShape | None:
    """The minor without drop as a MinorShape, or None when its graph does not fit.

    Degrees here count kept neighbours only.  The apex is the kept vertex of
    highest degree, lowest id on a tie, and only when that degree exceeds 2.
    Without it, every kept vertex must have degree at most 2, so the rest is
    paths and cycles, and with an apex only paths.
    """
    n = len(nbrs)
    # paths and an apex keep at most 2(k-1) of the edges, cycles alone at
    # most k: twice the kept edge count is the degree sum less, per dropped
    # vertex, twice its degree and once each dropped neighbour
    lost = sum(2 * len(nbrs[d]) - len(drop.intersection(nbrs[d])) for d in drop)
    if sum(map(len, nbrs)) - lost > 4 * (n - len(drop) - 1):
        return None
    # red[v] is v's degree among the kept vertices other than the apex, and
    # negative for the dropped vertices, the apex and, later, walked vertices
    deg = list(map(len, nbrs))
    red = deg[:]
    for d in drop:
        for w in nbrs[d]:
            red[w] -= 1
    for d in drop:
        red[d] = -1
    top = max(red)
    apex = None
    flag = bytearray(n)
    if top > 2:
        c = red.index(top)
        red[c] = -1
        for w in nbrs[c]:
            red[w] -= 1
            flag[w] = 1
        if max(red) > 2:
            return None
        apex = deg[c]
    blocks, where = [], None
    # each path from one end first, so every vertex then left lies on a
    # cycle; the walk round the cycle that holds last starts there
    starts = [v for v, r in enumerate(red) if r == 0 or r == 1]
    if last is not None:
        starts.append(last)
    for v in starts + list(range(n)):
        if red[v] < 0:
            continue
        cycle = red[v] == 2
        if cycle and apex is not None:
            return None
        path = [v]
        red[v] = -1
        while True:
            for w in nbrs[v]:
                if red[w] >= 0:
                    break
            else:
                break
            red[w] = -1
            path.append(w)
            v = w
        if where is None and last in path:
            where = len(blocks), path.index(last)
        blocks.append((list(map(deg.__getitem__, path)), list(map(flag.__getitem__, path)), cycle))
    if last is not None and where is None:
        where = None, None  # last is the apex
    return MinorShape(blocks, apex, where, n - len(drop))


def _ordered_minor(lap: Neighbours, drop: set[int], last: int | None = None) -> LaplacianMinor | MinorShape:
    """The minor without drop, for det_exact: a MinorShape when its graph fits, else min-degree rows."""
    shape = _shape(lap, drop, last)
    return _min_degree_minor(lap, drop, last) if shape is None else shape


def count_spanning_trees(g: LabeledGraph) -> int:
    """Spanning-tree count via the principal minor that drops vertex 0.

    Which vertex is dropped does not matter; invariance is covered by tests.
    Disconnected graphs give 0 rather than an error, at once when there are
    too few edges to connect the vertices.
    """
    if len(g.edges) < g.vertex_count - 1:
        return 0
    return det_exact(_ordered_minor(laplacian(g), {0}))


def count_two_forests(g: LabeledGraph, u: int, v: int) -> int:
    """Number of two-component spanning forests with u and v in different parts."""
    _check_distinct(u, v)
    _check_vertices(g.vertex_count, u, v)
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
        raise Refusal("infinite resistance: graph is disconnected")
    index = {w: i for i, w in enumerate(sorted(seen))}
    # an increasing relabelling keeps g's edges canonical and in sorted order
    h = LabeledGraph(len(index), tuple((index[a], index[b]) for a, b in g.edges if a in index))
    return h, index[u], index[v]


def _forests_and_trees(g: LabeledGraph, u: int, v: int) -> tuple[int, int]:
    """The two-forest count and the tree count of (u, v), off one det_exact call.

    R is symmetric, so the end of higher degree is dropped and the other
    goes last: a hub kept last would be updated at nearly every step.
    """
    lap = laplacian(g)
    if len(lap[u]) < len(lap[v]):
        u, v = v, u
    minor = _ordered_minor(lap, {u}, last=v)
    trees = det_exact(minor)
    return minor.leading, trees


def effective_resistance(g: LabeledGraph, u: int, v: int) -> Fraction:
    """Exact resistance between u and v with every edge a unit resistor.

    On a connected graph it equals count_two_forests(g,u,v) /
    count_spanning_trees(g) (Bapat and Gupta).  Both are read off one
    det_exact call on the Laplacian without the end of higher degree (u on
    a tie), the other end ordered last: its leading determinant, without
    that end too, is the two-forest count and the result is the tree count.
    No current leaves the component of u, so a disconnected graph, whose
    tree count is 0, is answered by a second pass on that component alone,
    and by that pass only when it has fewer than V-1 edges; v outside it has
    infinite resistance, a Refusal.  u == v gives 0.
    """
    _check_vertices(g.vertex_count, u, v)
    if u == v:
        return Fraction(0)
    # with too few edges to connect g, the whole-graph pass would only say so
    trees = 0
    if len(g.edges) >= g.vertex_count - 1:
        forests, trees = _forests_and_trees(g, u, v)
    if trees == 0:
        forests, trees = _forests_and_trees(*_component_holding(g, u, v))
    return Fraction(forests, trees)

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from wheelfan import formulas, kirchhoff
from wheelfan.enumeration import enum_spanning_trees, enum_two_forests
from wheelfan.graphs import components, make_fan, make_graph, make_wheel
from wheelfan.kirchhoff import (
    count_spanning_trees,
    count_two_forests,
    det_exact,
    effective_resistance,
    laplacian,
)
from oracles import bareiss_det, cofactor_det, dense_laplacian, dense_minor
from strategies import apex_and_path_graphs, connected_graphs, cycles_and_paths_graphs, graphs


def test_laplacian_wheel3():
    entries = dense_laplacian(laplacian(make_wheel(3)))
    assert all(entries[i][i] == 3 for i in range(4))
    assert all(entries[i][j] == -1 for i in range(4) for j in range(4) if i != j)


def test_laplacian_single_edge():
    assert dense_laplacian(laplacian(make_fan(1))) == ((1, -1), (-1, 1))


def test_laplacian_rows_sum_to_zero():
    entries = dense_laplacian(laplacian(make_graph(3, [(0, 1), (1, 2)])))
    assert all(sum(row) == 0 for row in entries)


@given(g=graphs())
def test_laplacian_of_any_graph_is_a_laplacian(g):
    # symmetric, zero row sums, 0/-1 off the diagonal and the degree on it
    entries = dense_laplacian(laplacian(g))
    n = g.vertex_count
    degree = [sum(v in e for e in g.edges) for v in range(n)]
    assert len(entries) == n and all(len(row) == n for row in entries)
    assert all(entries[i][j] == entries[j][i] for i in range(n) for j in range(n))
    assert all(sum(row) == 0 for row in entries)
    assert all(entries[i][j] in (0, -1) for i in range(n) for j in range(n) if i != j)
    assert [entries[v][v] for v in range(n)] == degree


def test_det_basics():
    assert bareiss_det([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
    assert bareiss_det([[2, 1], [1, 2]]) == 3
    assert bareiss_det([]) == 1
    assert bareiss_det([[1, 2], [2, 4]]) == 0
    # zero pivot forces a row swap
    assert bareiss_det([[0, 1], [1, 0]]) == -1
    with pytest.raises(ValueError):
        bareiss_det([[1, 2]])


def test_det_against_cofactor_oracle():
    rng = random.Random(20260823)
    for _ in range(25):
        size = rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
        assert bareiss_det(m) == cofactor_det(m)


NONZERO = (-3, -2, -1, 1, 2, 3)


def _zero_heavy_matrix(rng, size, kind):
    density = rng.uniform(0.2, 0.5)
    m = [[rng.choice(NONZERO) if rng.random() < density else 0 for _ in range(size)] for _ in range(size)]
    if kind == "permutation":
        # one guaranteed nonzero per row and column, in shuffled columns
        for i, j in enumerate(rng.sample(range(size), size)):
            m[i][j] = rng.choice(NONZERO)
    elif kind == "rank-deficient" and size >= 2:
        i, j = rng.sample(range(size), 2)
        m[i] = [rng.choice(NONZERO) * x for x in m[j]]
    return m


def test_det_zero_heavy_against_cofactor_oracle():
    # mostly-zero rows drive bareiss_det's row swap at a zero pivot and,
    # when no row below has a nonzero in the pivot column, its singular exit
    rng = random.Random(20261018)
    dets = []
    for case in range(360):
        kind = ("sparse", "rank-deficient", "permutation")[case % 3]
        m = _zero_heavy_matrix(rng, case % 8, kind)
        dets.append(bareiss_det(m))
        assert dets[-1] == cofactor_det(m), (kind, m)
    assert dets.count(0) > 30 and len(dets) - dets.count(0) > 100
    # step 0 leaves a zero pivot at step 1, so rows 1 and 3 swap and the
    # sign flips before the elimination goes on
    m = [[2, 0, 1, 2], [-1, 0, 0, 0], [1, 0, 1, 0], [0, -1, 0, 0]]
    assert bareiss_det(m) == cofactor_det(m) == 2


@pytest.mark.parametrize("n", [100, 200])
def test_minor_route_matches_closed_forms_at_large_n(n):
    assert count_spanning_trees(make_wheel(n)) == formulas.trees_wheel(n)
    assert count_spanning_trees(make_fan(n)) == formulas.trees_fan(n)
    assert count_two_forests(make_wheel(n), 0, 1) == formulas.forests_sep_center(n)


@pytest.mark.parametrize("n", [100, 200])
def test_resistance_matches_closed_forms_at_large_n(n):
    # both orientations: the pass drops the end of higher degree either way
    wheel, fan = make_wheel(n), make_fan(n)
    for u, v in [(0, 1), (1, 0), (n, 0)]:
        assert effective_resistance(wheel, u, v) == formulas.resistance_center(n)
    for k in (1, 2, n // 3, n // 2):
        for u, v in [(1, 1 + k), (1 + k, 1), (n, (n + k - 1) % n + 1)]:
            assert effective_resistance(wheel, u, v) == formulas.resistance_rim(n, k)
    trees = count_spanning_trees(fan)
    for u, v in [(0, 1), (n // 2, 0), (1, n), (n // 3, 2 * n // 3 + 1), (n, 2)]:
        assert effective_resistance(fan, u, v) == Fraction(count_two_forests(fan, u, v), trees)


@settings(deadline=None)
@given(g=st.one_of(graphs(), apex_and_path_graphs(), cycles_and_paths_graphs()))
def test_resistance_is_the_ratio_of_natural_order_minors_on_each_component(g):
    # the natural-order oracle, textbook Bareiss on the vertex-order minor,
    # shares neither the route's order nor the last divisor the pass reads;
    # apex-and-path and cycle-and-path graphs send both passes down the
    # shape route
    parts = components(g, g.edges)
    where = {w: i for i, part in enumerate(parts) for w in part}
    for part in parts:
        index = {w: i for i, w in enumerate(part)}
        Lc = laplacian(make_graph(len(part), [(index[a], index[b]) for a, b in g.edges if a in index]))
        for u, v in permutations(part, 2):
            i, j = index[u], index[v]
            assert effective_resistance(g, u, v) == Fraction(bareiss_det(dense_minor(Lc, {i, j})), bareiss_det(dense_minor(Lc, {i})))
    for u, v in permutations(range(g.vertex_count), 2):
        if where[u] != where[v]:
            with pytest.raises(ValueError, match="infinite resistance"):
                effective_resistance(g, u, v)


@pytest.mark.parametrize(
    "g, u, v, passes",
    [
        (make_wheel(6), 2, 5, 1),
        (make_fan(5), 0, 3, 1),
        (make_fan(5), 3, 0, 1),
        (make_graph(7, [(1, 3), (1, 5), (1, 6), (3, 5), (3, 6), (5, 6), (0, 2)]), 6, 3, 2),
    ],
)
def test_resistance_takes_one_elimination_per_pass(monkeypatch, g, u, v, passes):
    # a disconnected graph has tree count 0 and makes exactly one more pass
    expected = effective_resistance(g, u, v)
    calls = dict.fromkeys(["laplacian", "det_exact", "count_spanning_trees", "count_two_forests"], 0)
    for name in calls:

        def counted(*args, _name=name, _original=getattr(kirchhoff, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(kirchhoff, name, counted)
    assert effective_resistance(g, u, v) == expected
    assert calls == {"laplacian": passes, "det_exact": passes, "count_spanning_trees": 0, "count_two_forests": 0}


def _clique(m, first=0):
    return [(a, b) for a, b in combinations(range(first, first + m), 2)]


@pytest.mark.parametrize("m", range(1, 31))
def test_complete_graphs_run_the_dense_tail_from_the_first_step(m):
    # the first pivot row of a K_m minor reaches every later row, so all but
    # that step is dense; the resistance reads the tail's last divisor
    g = make_graph(m, _clique(m))
    assert count_spanning_trees(g) == (m ** m // m ** 2 if m > 1 else 1)
    if m > 1:
        assert count_two_forests(g, 0, m - 1) == 2 * m ** m // m ** 3
        assert effective_resistance(g, m - 1, 0) == Fraction(2, m)


@st.composite
def dense_graphs(draw):
    """A random graph on 12..24 vertices, each edge kept with probability 0.3..1."""
    vertices = draw(st.integers(12, 24))
    percent = draw(st.integers(30, 100))
    rng = draw(st.randoms(use_true_random=False))
    return make_graph(vertices, [e for e in _clique(vertices) if rng.randrange(100) < percent])


@settings(deadline=None, max_examples=40)
@given(g=dense_graphs(), data=st.data())
def test_dense_minors_match_natural_order_minors(g, data):
    # minimum-degree order leaves a dense graph a trailing clique, which the
    # pass finishes over list rows; the natural-order oracle checks it
    n = g.vertex_count
    u = data.draw(st.integers(0, n - 1))
    v = data.draw(st.integers(0, n - 1).filter(lambda w: w != u))
    L = laplacian(g)
    assert count_spanning_trees(g) == bareiss_det(dense_minor(L, {u}))
    assert count_two_forests(g, u, v) == bareiss_det(dense_minor(L, {u, v}))
    # with v last, the last divisor is the minor without both ends, even when
    # a zero pivot ends the pass early
    _assert_pass_matches_vertex_order(L, u, v)


@pytest.mark.parametrize("a, b", [(4, 7), (7, 4), (5, 5)])
def test_two_disjoint_cliques(a, b):
    # the tree minor drops vertex 0 of K_a and leaves K_b's block singular:
    # the pass ends at a zero pivot when the smaller K_b goes first, and at a
    # zero last entry of the dense tail when K_b goes last; a resistance
    # inside either clique then comes from the pass over its component
    g = make_graph(a + b, _clique(a) + _clique(b, first=a))
    assert count_spanning_trees(g) == 0
    assert count_two_forests(g, 0, a) == a ** (a - 2) * b ** (b - 2)
    assert effective_resistance(g, 1, a - 1) == Fraction(2, a)
    assert effective_resistance(g, a + b - 1, a) == Fraction(2, b)
    with pytest.raises(ValueError, match="infinite resistance"):
        effective_resistance(g, 0, a)


def _assert_pass_matches_vertex_order(L, u, v):
    # the minor without u, v last, against the natural-order oracle:
    # its determinant, and the last divisor as the minor without both; on the
    # route the minor takes, and on min-degree rows whatever its shape
    for minor in (kirchhoff._ordered_minor(L, {u}, last=v), kirchhoff._min_degree_minor(L, {u}, last=v)):
        assert det_exact(minor) == bareiss_det(dense_minor(L, {u}))
        assert minor.leading == bareiss_det(dense_minor(L, {u, v}))


@pytest.mark.parametrize(
    "a, b, pendant",
    [(3, 4, False), (2, 6, False), (4, 8, False), (3, 5, False), (5, 5, False)]
    + [(4, 3, True), (5, 3, True), (7, 2, True)],
)
def test_singular_minors_of_two_cliques_match_vertex_order(a, b, pendant):
    # K_a, with a pendant vertex on vertex 0 when asked, beside K_b.  A minor
    # that keeps a whole component is singular.  Over every u and v the
    # first zero falls at a dict-phase pivot or at the last entry of a tail
    # left with an even number of steps (pairs only) or an odd one (pairs
    # and the lone last step).  A tail pivot of a Laplacian minor is never
    # zero: its rows all lie in one component that the tail completes only
    # at its last row.
    edges = _clique(a) + _clique(b, first=a + pendant) + ([(0, a)] if pendant else [])
    L = laplacian(make_graph(a + pendant + b, edges))
    for u, v in permutations(range(len(L)), 2):
        _assert_pass_matches_vertex_order(L, u, v)


def _semidefinite_minor(vectors):
    # the Gram matrix of integer vectors, symmetric positive semidefinite, as
    # upper-triangle rows; the first vector meets every other, so its pivot
    # row reaches every later row and all steps but the first are the tail
    gram = [[sum(p * q for p, q in zip(x, y)) for y in vectors] for x in vectors]
    minor = kirchhoff.LaplacianMinor()
    for i, row in enumerate(gram):
        minor.append({j: row[j] for j in range(i, len(row)) if j == i or row[j]})
    return gram, minor


@pytest.mark.parametrize(
    "vectors",
    [
        # the first pivot of the first pair is zero, a second pair follows: x1 = 2 x0
        [(1, 0, 0, 0), (2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (1, 1, 1, 1)],
        # the first pivot of the second pair: x3 = x1 + x2 - x0
        [(1, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 1, 1, 0), (1, 0, 0, 1), (1, 2, 3, 4)],
        # the second pivot of the first pair, the lone step follows: x2 = 2 x1 - x0
        [(1, 0, 0, 0), (1, 1, 0, 0), (1, 2, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1)],
        # the second pivot of the second pair: x4 = x1 + x2 + x3 - 2 x0
        [(1, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (1, 1, 1, 1), (3, 1, 2, 5)],
        # the pivot of the lone last step, with no pair before it
        [(1, 0, 0, 0), (2, 0, 0, 0), (1, 1, 0, 0)],
        # the pivot of the lone last step, after a pair: x3 = x1 + x2 - x0
        [(1, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 1, 1, 0), (1, 0, 0, 1)],
    ],
    ids=["pair-first", "second-pair-first", "pair-second", "second-pair-second", "lone", "lone-after-pair"],
)
def test_zero_tail_pivots_end_the_pass(vectors):
    # the zero pivot makes every larger leading block singular, the
    # determinant and the last divisor among them; textbook Bareiss on the
    # same matrix is the oracle
    gram, minor = _semidefinite_minor(vectors)
    assert det_exact(minor) == bareiss_det(gram) == 0
    assert minor.leading == bareiss_det([row[:-1] for row in gram[:-1]]) == 0


@pytest.mark.parametrize("m", range(2, 16))
def test_every_tail_length_matches_vertex_order(m):
    # a K_m minor without u is one dict step, then a tail of m - 2 rows, so
    # the tail runs 0 to 12 steps: even counts by pairs alone, odd ones with
    # the lone last step.  K_m less a matching, whose entries are not all
    # alike, leaves a tail mostly one row shorter, of the other parity.
    matching = {(a, a + 1) for a in range(0, m - 2, 2)}
    for g in (make_graph(m, _clique(m)), make_graph(m, [e for e in _clique(m) if e not in matching])):
        L = laplacian(g)
        for u, v in {(0, m - 1), (m - 1, 0), (m // 2, 0)}:
            _assert_pass_matches_vertex_order(L, u, v)


def _value(minor, last):
    det = det_exact(minor)
    return det if last is None else (det, minor.leading)


def _bareiss(L, drop, last=None):
    # the generic route: min-degree rows without the shape check
    return _value(kirchhoff._min_degree_minor(L, drop, last), last)


def _by_shape(L, drop, last=None):
    minor = kirchhoff._ordered_minor(L, drop, last)
    # every minor of a wheel or a fan fits, but for the empty one of fan:1
    assert isinstance(minor, kirchhoff.MinorShape) or minor == []
    return _value(minor, last)


def _both_routes(L, drop, last=None):
    # the route _ordered_minor takes and the generic one must agree
    value = _value(kirchhoff._ordered_minor(L, drop, last), last)
    assert value == _bareiss(L, drop, last)
    return value


def _family(name, size):
    return make_wheel(size) if name == "wheel" else make_fan(size)


@pytest.mark.parametrize("family, size", [("wheel", n) for n in range(3, 31)] + [("fan", m) for m in range(1, 31)])
def test_shape_route_matches_bareiss_on_every_drop(family, size):
    # every 1- and 2-vertex drop, and every pair with one end dropped and the
    # other last, against min-degree Bareiss; on the smallest graphs against
    # the natural-order oracle too
    g = _family(family, size)
    L, n = laplacian(g), g.vertex_count
    trees = _bareiss(L, {0})
    assert all(_by_shape(L, {u}) == trees for u in range(n))
    for u, v in combinations(range(n), 2):
        forests = _bareiss(L, {u, v})
        if n <= 10:
            assert forests == bareiss_det(dense_minor(L, {u, v}))
        assert _by_shape(L, {u, v}) == forests
        assert _by_shape(L, {u}, v) == _by_shape(L, {v}, u) == (trees, forests)


@pytest.mark.parametrize("family", ["wheel", "fan"])
def test_shape_route_matches_bareiss_up_to_sixty(family):
    # sizes 31..60: every drop of one vertex, and every pair with the center
    # or hub or with vertex 1, the first of the rim or path, each end dropped
    # and the other last
    for size in range(31, 61):
        g = _family(family, size)
        L, n = laplacian(g), g.vertex_count
        trees = _bareiss(L, {0})
        assert all(_by_shape(L, {u}) == trees for u in range(n))
        for u in (0, 1):
            for v in set(range(n)) - {u}:
                forests = _bareiss(L, {u}, v)[1]
                assert _by_shape(L, {u, v}) == forests
                assert _by_shape(L, {u}, v) == _by_shape(L, {v}, u) == (trees, forests)


@settings(deadline=None)
@given(g=apex_and_path_graphs())
def test_shape_route_matches_both_oracles_on_apex_and_path_graphs(g):
    # the natural-order oracle and min-degree Bareiss, on every 2-vertex
    # drop and every pair with one end last
    L, n = laplacian(g), g.vertex_count
    trees = bareiss_det(dense_minor(L, {0}))
    for u, v in combinations(range(n), 2):
        forests = bareiss_det(dense_minor(L, {u, v}))
        assert _both_routes(L, {u, v}) == forests
        assert _both_routes(L, {u}, v) == _both_routes(L, {v}, u) == (trees, forests)
    # without the apex the graph is paths, which always fit
    assert any(isinstance(kirchhoff._ordered_minor(L, {w}), kirchhoff.MinorShape) for w in range(n))


@settings(deadline=None)
@given(g=cycles_and_paths_graphs())
def test_shape_route_matches_the_oracle_on_cycles_and_paths(g):
    # several cycles, so the one holding v, opened in rest, need not be the
    # first block: every 1-vertex drop, and every pair with u dropped and v last
    L, n = laplacian(g), g.vertex_count
    for u in range(n):
        trees = bareiss_det(dense_minor(L, {u}))
        assert _by_shape(L, {u}) == trees
        for v in set(range(n)) - {u}:
            assert _by_shape(L, {u}, v) == (trees, bareiss_det(dense_minor(L, {u, v})))


def _where_last_sits(shape):
    b, i = shape.last
    if b is None:
        return "apex"
    degrees, _, cycle = shape.blocks[b]
    if cycle:
        return "cycle"
    return "end" if i in (0, len(degrees) - 1) else "interior"


@settings(deadline=None)
@given(data=st.data())
def test_one_walk_per_resistance_matches_bareiss_wherever_last_sits(data):
    # the block holding last is walked forward to it and back from its far
    # end, then joined at it; draw where last sits first, so an apex or a
    # path interior comes up as often as a path end
    g = data.draw(st.one_of(apex_and_path_graphs(max_length=9), cycles_and_paths_graphs(max_length=9)))
    L, n = laplacian(g), g.vertex_count
    u = data.draw(st.integers(0, n - 1))
    sits = {}
    for v in set(range(n)) - {u}:
        minor = kirchhoff._ordered_minor(L, {u}, v)
        if isinstance(minor, kirchhoff.MinorShape):
            sits.setdefault(_where_last_sits(minor), []).append(v)
    assume(sits)
    where = data.draw(st.sampled_from(sorted(sits)))
    event(where)
    v = data.draw(st.sampled_from(sits[where]))
    assert _value(kirchhoff._ordered_minor(L, {u}, v), v) == _bareiss(L, {u}, v)


@pytest.mark.parametrize(
    "n, edges, drop",
    [
        # wheel:5 with a pendant vertex 6 on vertex 1, dropped: the center beside a cycle
        (7, [(0, w) for w in range(1, 6)] + [(w, w % 5 + 1) for w in range(1, 6)] + [(1, 6)], {6}),
        # fan:6 with a pendant vertex 7 on vertex 3, vertex 6 dropped: degree 3 off the apex
        (8, [(0, w) for w in range(1, 7)] + [(w, w + 1) for w in range(1, 6)] + [(3, 7)], {6}),
        # K_{2,4} with a pendant vertex 6 on vertex 2, dropped: two apexes of degree 4
        (7, [(a, w) for a in (0, 1) for w in range(2, 6)] + [(2, 6)], {6}),
    ],
    ids=["apex-beside-a-cycle", "degree-3-off-the-apex", "two-apexes"],
)
def test_near_miss_shapes_take_the_generic_route(n, edges, drop):
    # each keeps at most 2(k-1) edges of k vertices, so only the scan refuses it
    L = laplacian(make_graph(n, edges))
    trees = bareiss_det(dense_minor(L, drop))
    for v in [None, *set(range(n)) - drop]:
        minor = kirchhoff._ordered_minor(L, drop, v)
        assert isinstance(minor, kirchhoff.LaplacianMinor)
        assert _value(minor, v) == (trees if v is None else (trees, bareiss_det(dense_minor(L, drop | {v}))))


@pytest.mark.parametrize("reverse", [False, True])
def test_apex_ties_go_to_the_lowest_id(reverse):
    # 0, 1 and 2 have 3 kept neighbours each.  Without 0, the rest is the
    # paths 4-1-5, 6-2-7 and 3; without 1, vertex 2 keeps 3, and without 2,
    # vertex 1 does.  So the minor fits only while 0 has the lowest id of
    # the three, and labels reversed send it to the generic route, with the
    # same values
    edges = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (2, 7), (3, 8)]
    label = (lambda v: 8 - v) if reverse else (lambda v: v)
    L = laplacian(make_graph(9, [(label(a), label(b)) for a, b in edges]))
    drop = {label(8)}
    minor = kirchhoff._ordered_minor(L, drop)
    assert isinstance(minor, kirchhoff.LaplacianMinor if reverse else kirchhoff.MinorShape)
    assert det_exact(minor) == bareiss_det(dense_minor(L, drop))
    for v in set(range(9)) - drop:
        assert _both_routes(L, drop, v) == (bareiss_det(dense_minor(L, drop)), bareiss_det(dense_minor(L, drop | {v})))


def _sparse_random_graph(rng, vertices, degree):
    # a random spanning tree on shuffled labels, then random extra edges up
    # to the average degree, as the sparse files of the benchmark are built
    labels = list(range(vertices))
    rng.shuffle(labels)
    edges = {tuple(sorted((labels[i], labels[rng.randrange(i)]))) for i in range(1, vertices)}
    while len(edges) < round(vertices * degree / 2):
        edges.add(tuple(sorted(rng.sample(range(vertices), 2))))
    return make_graph(vertices, sorted(edges))


@pytest.mark.parametrize("vertices, degree", [(60, 3.0), (87, 3.3), (113, 3.7), (140, 4.0)])
def test_bareiss_rescales_each_entry_by_its_own_step(vertices, degree):
    # a pivot row of a sparse minor reaches few rows and, in those, few
    # columns, so entries wait many steps between reads, and entries of one
    # row carry different steps; trees, a separating pair and a resistance
    # pair, each det and leading block against the natural-order oracle
    rng = random.Random(f"sparse:{vertices}")
    L = laplacian(_sparse_random_graph(rng, vertices, degree))
    u, v, w, x = rng.sample(range(vertices), 4)
    for drop, last in (({u}, None), ({v, w}, None), ({x}, v)):
        minor = kirchhoff._min_degree_minor(L, drop, last)
        before_last = kirchhoff._min_degree_order(L, drop, last)[-1]
        assert det_exact(minor) == bareiss_det(dense_minor(L, drop))
        assert minor.leading == bareiss_det(dense_minor(L, drop | {before_last}))


@pytest.mark.parametrize("n", range(3, 33))
def test_bareiss_on_min_degree_rows_matches_the_paper_on_wheels(n):
    # criteria 3-5 meet the shape route on wheels; this keeps the generic
    # route checked against the same closed forms
    L = laplacian(make_wheel(n))
    assert isinstance(kirchhoff._min_degree_minor(L, {0}), kirchhoff.LaplacianMinor)
    assert _bareiss(L, {0}) == _bareiss(L, {1}) == formulas.trees_wheel(n)
    assert _bareiss(L, {1, 2}) == formulas.forests_sep_adjacent(n)
    assert _bareiss(L, {1, 0}) == formulas.forests_sep_center(n)
    if n >= 4:
        assert _bareiss(L, {1, 3}) == formulas.forests_sep_dist2(n)
    for k in range(1, n // 2 + 1):
        assert _bareiss(L, {1, 1 + k}) == formulas.forests_separating(n, k)
        # a resistance drops one end and reads the minor without both last
        trees, forests = _bareiss(L, {1}, 1 + k)
        assert Fraction(forests, trees) == formulas.resistance_rim(n, k)
    trees, forests = _bareiss(L, {0}, 1)
    assert Fraction(forests, trees) == formulas.resistance_center(n)


def test_shape_route_matches_the_paper_at_ten_thousand():
    n = 10**4
    wheel = make_wheel(n)
    assert count_spanning_trees(wheel) == formulas.trees_wheel(n)
    assert count_spanning_trees(make_fan(n)) == formulas.trees_fan(n)
    assert count_two_forests(wheel, 1, 2) == formulas.forests_sep_adjacent(n)
    assert count_two_forests(wheel, 5, 3) == formulas.forests_sep_dist2(n)
    assert count_two_forests(wheel, 0, 7) == formulas.forests_sep_center(n)
    assert count_two_forests(wheel, 10, n // 2 + 9) == formulas.forests_separating(n, n // 2 - 1)
    assert effective_resistance(wheel, 1, n // 3 + 1) == formulas.resistance_rim(n, n // 3)
    assert effective_resistance(wheel, n, 0) == formulas.resistance_center(n)


@settings(deadline=None)
@given(g=connected_graphs())
def test_minor_route_counts_trees_like_enumeration(g):
    assert count_spanning_trees(g) == len(enum_spanning_trees(g))


@settings(deadline=None)
@given(g=connected_graphs())
def test_minor_route_counts_two_forests_like_enumeration(g):
    for u, v in combinations(range(g.vertex_count), 2):
        assert count_two_forests(g, u, v) == len(enum_two_forests(g, u, v))


@settings(deadline=None)
@given(g=connected_graphs())
def test_every_dropped_vertex_gives_the_tree_count(g):
    L = laplacian(g)
    assert {bareiss_det(dense_minor(L, {v})) for v in range(g.vertex_count)} == {count_spanning_trees(g)}


@settings(deadline=None)
@given(g=graphs())
def test_minor_route_matches_natural_order_minors_on_any_graph(g):
    # isolated vertices give zero pivots, and the rows of a second component
    # are never reached by the first one's pivots
    L = laplacian(g)
    for v in range(g.vertex_count):
        assert count_spanning_trees(g) == bareiss_det(dense_minor(L, {v}))
    for u, v in combinations(range(g.vertex_count), 2):
        assert count_two_forests(g, u, v) == bareiss_det(dense_minor(L, {u, v}))


@settings(deadline=None)
@given(g=graphs())
def test_foster_theorem_holds_on_every_component(g):
    # Foster 1949 on each component: the resistances of all edges sum to V - c
    total = sum(effective_resistance(g, a, b) for a, b in g.edges)
    assert total == Fraction(g.vertex_count - len(components(g, g.edges)))


@settings(deadline=None)
@given(g=connected_graphs())
def test_foster_theorem_holds_exactly(g):
    # Foster 1949: the resistances of the edges sum to V - 1
    total = sum(effective_resistance(g, a, b) for a, b in g.edges)
    assert total == Fraction(g.vertex_count - 1)


def _all_resistances(g):
    return {(u, v): effective_resistance(g, u, v) for u, v in combinations(range(g.vertex_count), 2)}


@settings(deadline=None)
@given(g=connected_graphs())
def test_adding_an_edge_never_raises_a_resistance(g):
    # Rayleigh monotonicity: a unit resistor added anywhere lowers or keeps every R(u, v)
    before = _all_resistances(g)
    for e in combinations(range(g.vertex_count), 2):
        if e in g.edge_set:
            continue
        after = _all_resistances(make_graph(g.vertex_count, g.edges + (e,)))
        assert all(after[p] <= before[p] for p in before), e
        assert after[e] < before[e]


def _labeled_graphs(max_vertices):
    # every labeled simple graph on 1..max_vertices vertices, its edge subsets
    # in bitmask order: 1 + 2 + 8 + 64 + 1024 = 1099 graphs up to 5 vertices
    for n in range(1, max_vertices + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield make_graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])


def test_every_graph_on_at_most_five_vertices_agrees_across_routes():
    # bounded-exhaustive: the minors against the enumerators on every labeled
    # graph and every vertex pair.  A pair split over two parts has infinite
    # resistance; a pair within one part of a disconnected graph has the
    # resistance of that part, relabeled in order, which came earlier as a
    # connected graph on fewer vertices
    ratios = {}  # connected graph -> {pair: F(u|v) / tau}, both enumerated
    for g in _labeled_graphs(5):
        trees = len(enum_spanning_trees(g))
        assert count_spanning_trees(g) == trees, g
        parts = components(g, g.edges)
        where = {w: part for part in parts for w in part}
        found = ratios[g] = {} if len(parts) == 1 else None
        for u, v in combinations(range(g.vertex_count), 2):
            forests = len(enum_two_forests(g, u, v))
            assert count_two_forests(g, u, v) == forests, (g, u, v)
            part = where[u]
            if found is not None:
                ratio = found[u, v] = Fraction(forests, trees)
            elif part is where[v]:
                index = {w: i for i, w in enumerate(part)}
                h = make_graph(len(part), [(index[a], index[b]) for a, b in g.edges if a in index])
                ratio = ratios[h][index[u], index[v]]
            else:
                with pytest.raises(ValueError, match="^infinite resistance"):
                    effective_resistance(g, u, v)
                continue
            assert effective_resistance(g, u, v) == ratio, (g, u, v)
    assert len(ratios) == 1099


def test_tree_counts():
    assert count_spanning_trees(make_wheel(3)) == 16
    assert count_spanning_trees(make_wheel(4)) == 45
    assert count_spanning_trees(make_fan(3)) == 8
    assert count_spanning_trees(make_fan(1)) == 1


def test_disconnected_graph_has_no_trees():
    assert count_spanning_trees(make_graph(2, [])) == 0
    assert count_spanning_trees(make_graph(4, [(0, 1), (2, 3)])) == 0


@pytest.mark.parametrize("g", [make_wheel(3), make_wheel(5), make_fan(4)])
def test_dropped_vertex_does_not_matter(g):
    L = laplacian(g)
    values = {bareiss_det(dense_minor(L, {v})) for v in range(g.vertex_count)}
    assert len(values) == 1


def test_two_forest_counts():
    k4 = make_wheel(3)
    assert count_two_forests(k4, 1, 2) == 8
    assert count_two_forests(k4, 1, 0) == 8
    assert count_two_forests(make_wheel(4), 1, 2) == 24
    assert count_two_forests(make_wheel(4), 1, 3) == 30


def test_two_forests_need_distinct_vertices():
    with pytest.raises(ValueError, match="distinct"):
        count_two_forests(make_wheel(3), 2, 2)
    with pytest.raises(ValueError, match="out of range"):
        count_two_forests(make_wheel(3), 0, 9)


def test_resistance_values():
    assert effective_resistance(make_wheel(3), 1, 2) == Fraction(1, 2)
    assert effective_resistance(make_wheel(4), 1, 2) == Fraction(8, 15)
    assert effective_resistance(make_wheel(4), 1, 3) == Fraction(2, 3)
    assert effective_resistance(make_wheel(4), 1, 0) == Fraction(7, 15)


def test_resistance_conventions():
    assert effective_resistance(make_wheel(3), 2, 2) == 0
    with pytest.raises(ValueError, match="infinite resistance"):
        effective_resistance(make_graph(3, [(0, 1)]), 0, 2)


def test_resistance_within_a_component():
    assert effective_resistance(make_graph(3, [(0, 1)]), 0, 1) == 1
    # K4 on {1, 3, 5, 6} beside the edge 0-2 and the isolated vertex 4
    k4 = [(1, 3), (1, 5), (1, 6), (3, 5), (3, 6), (5, 6)]
    g = make_graph(7, k4 + [(0, 2)])
    assert effective_resistance(g, 5, 3) == effective_resistance(make_wheel(3), 2, 1) == Fraction(1, 2)
    assert effective_resistance(g, 2, 0) == 1
    for u, v in [(0, 1), (4, 6), (6, 4)]:
        with pytest.raises(ValueError, match="infinite resistance"):
            effective_resistance(g, u, v)
    with pytest.raises(ValueError, match="vertex 7 out of range"):
        effective_resistance(g, 1, 7)


def test_resistance_same_distance_same_value():
    g = make_wheel(4)
    assert effective_resistance(g, 1, 3) == effective_resistance(g, 2, 4)


@settings(deadline=None)
@given(n=st.integers(3, 6), u=st.integers(0, 6), v=st.integers(0, 6))
def test_resistance_symmetric(n, u, v):
    g = make_wheel(n)
    u, v = u % g.vertex_count, v % g.vertex_count
    assert effective_resistance(g, u, v) == effective_resistance(g, v, u)


@pytest.mark.parametrize("g", [make_wheel(4), make_wheel(5), make_fan(4)])
def test_resistance_triangle_inequality(g):
    for a, b, c in permutations(range(g.vertex_count), 3):
        r = lambda x, y: effective_resistance(g, x, y)
        assert r(a, c) <= r(a, b) + r(b, c)


@pytest.mark.parametrize("n", range(3, 11))
def test_two_forest_count_depends_only_on_cycle_distance(n):
    g = make_wheel(n)
    by_distance = {}
    for i, j in combinations(range(1, n + 1), 2):
        d = abs(i - j)
        k = min(d, n - d)
        by_distance.setdefault(k, set()).add(count_two_forests(g, i, j))
    assert all(len(values) == 1 for values in by_distance.values())


@pytest.mark.parametrize("g", [make_wheel(3), make_wheel(6), make_fan(5)])
def test_resistance_times_tree_count_is_integral(g):
    trees = count_spanning_trees(g)
    for u, v in combinations(range(g.vertex_count), 2):
        assert (effective_resistance(g, u, v) * trees).denominator == 1

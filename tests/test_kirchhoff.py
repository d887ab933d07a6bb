import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

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
from strategies import connected_graphs, graphs


def cofactor_det(m):
    # textbook expansion along the first row; the independent oracle
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        sub = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_det(sub)
    return total


def test_laplacian_wheel3():
    L = laplacian(make_wheel(3))
    assert all(L.entries[i][i] == 3 for i in range(4))
    assert all(L.entries[i][j] == -1 for i in range(4) for j in range(4) if i != j)


def test_laplacian_single_edge():
    assert laplacian(make_fan(1)).entries == ((1, -1), (-1, 1))


def test_laplacian_rows_sum_to_zero():
    L = laplacian(make_graph(3, [(0, 1), (1, 2)]))
    assert all(sum(row) == 0 for row in L.entries)


@given(g=graphs())
def test_laplacian_of_any_graph_is_a_laplacian(g):
    # symmetric, zero row sums, 0/-1 off the diagonal and the degree on it
    entries = laplacian(g).entries
    n = g.vertex_count
    degree = [sum(v in e for e in g.edges) for v in range(n)]
    assert len(entries) == n and all(len(row) == n for row in entries)
    assert all(entries[i][j] == entries[j][i] for i in range(n) for j in range(n))
    assert all(sum(row) == 0 for row in entries)
    assert all(entries[i][j] in (0, -1) for i in range(n) for j in range(n) if i != j)
    assert [entries[v][v] for v in range(n)] == degree


def test_det_basics():
    assert det_exact([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
    assert det_exact([[2, 1], [1, 2]]) == 3
    assert det_exact([]) == 1
    assert det_exact([[1, 2], [2, 4]]) == 0
    # zero pivot forces a row swap
    assert det_exact([[0, 1], [1, 0]]) == -1
    with pytest.raises(ValueError):
        det_exact([[1, 2]])


def test_det_against_cofactor_oracle():
    rng = random.Random(20260823)
    for _ in range(25):
        size = rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
        assert det_exact(m) == cofactor_det(m)


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
    # mostly-zero rows drive the dense branch's row swap at a zero pivot and,
    # when no row below has a nonzero in the pivot column, its singular exit
    rng = random.Random(20261018)
    dets = []
    for case in range(360):
        kind = ("sparse", "rank-deficient", "permutation")[case % 3]
        m = _zero_heavy_matrix(rng, case % 8, kind)
        dets.append(det_exact(m))
        assert dets[-1] == cofactor_det(m), (kind, m)
    assert dets.count(0) > 30 and len(dets) - dets.count(0) > 100
    # step 0 leaves a zero pivot at step 1, so rows 1 and 3 swap and the
    # sign flips before the elimination goes on
    m = [[2, 0, 1, 2], [-1, 0, 0, 0], [1, 0, 1, 0], [0, -1, 0, 0]]
    assert det_exact(m) == cofactor_det(m) == 2


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
@given(g=graphs())
def test_resistance_is_the_ratio_of_natural_order_minors_on_each_component(g):
    # the dense branch of det_exact in vertex order is the oracle: it shares
    # neither the minimum-degree order nor the last divisor the pass reads
    parts = components(g, g.edges)
    where = {w: i for i, part in enumerate(parts) for w in part}
    for part in parts:
        index = {w: i for i, w in enumerate(part)}
        Lc = laplacian(make_graph(len(part), [(index[a], index[b]) for a, b in g.edges if a in index]))
        for u, v in permutations(part, 2):
            i, j = index[u], index[v]
            assert effective_resistance(g, u, v) == Fraction(det_exact(Lc.minor({i, j})), det_exact(Lc.minor({i})))
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
    # pass finishes over list rows; the dense branch in vertex order is the oracle
    n = g.vertex_count
    u = data.draw(st.integers(0, n - 1))
    v = data.draw(st.integers(0, n - 1).filter(lambda w: w != u))
    L = laplacian(g)
    assert count_spanning_trees(g) == det_exact(L.minor({u}))
    assert count_two_forests(g, u, v) == det_exact(L.minor({u, v}))
    # with v last, the last divisor is the minor without both ends, even when
    # a zero pivot ends the pass early
    minor = kirchhoff._ordered_minor(L, {u}, last=v)
    assert det_exact(minor) == det_exact(L.minor({u}))
    assert minor.leading == det_exact(L.minor({u, v}))


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
    assert {det_exact(L.minor({v})) for v in range(g.vertex_count)} == {count_spanning_trees(g)}


@settings(deadline=None)
@given(g=graphs())
def test_minor_route_matches_natural_order_minors_on_any_graph(g):
    # isolated vertices give zero pivots, and the rows of a second component
    # are never reached by the first one's pivots
    L = laplacian(g)
    for v in range(g.vertex_count):
        assert count_spanning_trees(g) == det_exact(L.minor({v}))
    for u, v in combinations(range(g.vertex_count), 2):
        assert count_two_forests(g, u, v) == det_exact(L.minor({u, v}))


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
    values = {det_exact(L.minor({v})) for v in range(g.vertex_count)}
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

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from wheelfan import formulas
from wheelfan.enumeration import enum_spanning_trees, enum_two_forests
from wheelfan.graphs import make_fan, make_graph, make_wheel
from wheelfan.kirchhoff import (
    LaplacianMatrix,
    count_spanning_trees,
    count_two_forests,
    det_exact,
    effective_resistance,
    laplacian,
)
from strategies import connected_graphs


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


def test_laplacian_invariants_enforced():
    with pytest.raises(ValueError, match="symmetric"):
        LaplacianMatrix(2, ((1, -1), (0, 1)))
    with pytest.raises(ValueError, match="sum to zero"):
        LaplacianMatrix(2, ((1, -1), (-1, 2)))
    with pytest.raises(ValueError, match="square"):
        LaplacianMatrix(2, ((0, 0),))


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
    # mostly-zero rows drive the skipped-row rescale and the pivot swap
    rng = random.Random(20261018)
    dets = []
    for case in range(360):
        kind = ("sparse", "rank-deficient", "permutation")[case % 3]
        m = _zero_heavy_matrix(rng, case % 8, kind)
        dets.append(det_exact(m))
        assert dets[-1] == cofactor_det(m), (kind, m)
    assert dets.count(0) > 30 and len(dets) - dets.count(0) > 100
    # step 0 updates rows 1 and 2 but skips row 3; the zero pivot at step 1
    # swaps rows 1 and 3, whose stamps must travel with them
    m = [[2, 0, 1, 2], [-1, 0, 0, 0], [1, 0, 1, 0], [0, -1, 0, 0]]
    assert det_exact(m) == cofactor_det(m) == 2


@pytest.mark.parametrize("n", [100, 200])
def test_minor_route_matches_closed_forms_at_large_n(n):
    assert count_spanning_trees(make_wheel(n)) == formulas.trees_wheel(n)
    assert count_spanning_trees(make_fan(n)) == formulas.trees_fan(n)
    assert count_two_forests(make_wheel(n), 0, 1) == formulas.forests_sep_center(n)


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

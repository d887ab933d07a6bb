from itertools import combinations

import pytest
from hypothesis import given, settings

from wheelfan import enumeration, verify
from wheelfan.bijection import normalize
from wheelfan.enumeration import (
    WheelForest,
    enum_arc_forests,
    enum_spanning_trees,
    enum_two_forests,
    rim_arc_of,
    rotation_class_representative,
)
from wheelfan.graphs import LabeledGraph, Refusal, canonical_edge, components, is_spanning_tree, make_fan, make_graph, make_wheel, rotate_rim_labels
from wheelfan.kirchhoff import count_spanning_trees, count_two_forests
from wheelfan.sequences import fib
from oracles import is_acyclic
from strategies import connected_graphs, graphs


def _minor(g, *pair):
    # the Laplacian minor's count, which the CLI and verify hand an
    # enumerator to size its run: g's trees, or its forests separating pair
    if pair:
        return lambda: count_two_forests(g, *pair)
    return lambda: count_spanning_trees(g)


def test_triangle_has_three_trees():
    g = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    assert len(enum_spanning_trees(g, _minor(g))) == 3


@pytest.mark.parametrize("n", range(3, 8))
def test_wheel_tree_enumeration_matches_determinant(n):
    g = make_wheel(n)
    assert len(enum_spanning_trees(g, _minor(g))) == count_spanning_trees(g)


@pytest.mark.parametrize("m", range(1, 8))
def test_fan_tree_enumeration_matches_determinant(m):
    g = make_fan(m)
    assert len(enum_spanning_trees(g, _minor(g))) == count_spanning_trees(g)


def test_enumeration_order_is_lexicographic_and_duplicate_free():
    g = make_wheel(4)
    trees = enum_spanning_trees(g, _minor(g))
    assert trees == sorted(trees)
    assert len(set(trees)) == len(trees)
    # every entry is itself canonically sorted
    assert all(list(t) == sorted(t) for t in trees)


def _assert_increasing_subsequences(g, blocks):
    # cli.cmd_enumerate writes each block from g's own edge-list lines, in order
    index = {e: i for i, e in enumerate(g.edges)}
    for block in blocks:
        positions = [index[e] for e in block]
        assert all(a < b for a, b in zip(positions, positions[1:])), block


@settings(deadline=None)
@given(g=graphs(max_vertices=7))
def test_every_tree_and_forest_is_an_increasing_subsequence_of_the_edge_list(g):
    _assert_increasing_subsequences(g, enum_spanning_trees(g, _minor(g)))
    for u, v in combinations(range(g.vertex_count), 2):
        _assert_increasing_subsequences(g, enum_two_forests(g, u, v, _minor(g, u, v)))


@pytest.mark.parametrize("n", range(3, 7))
def test_every_arc_forest_is_an_increasing_subsequence_of_the_edge_list(n):
    _assert_increasing_subsequences(make_wheel(n), (rec.edges for rec in enum_arc_forests(n)))


@pytest.mark.parametrize("sizing", ["minor", 0, 1])
def test_a_partition_that_rules_everything_out_is_answered_without_a_walk(monkeypatch, sizing):
    # the graph's own partition alone skips the walk, whatever count sized the run
    def walk(*args):
        raise AssertionError("walked although the graph's own partition rules every subset out")

    monkeypatch.setattr(enumeration, "_acyclic_subsets", walk)

    def count(g, *pair):
        return _minor(g, *pair) if sizing == "minor" else lambda: sizing

    k8 = list(combinations(range(8), 2))
    g = make_graph(9, k8)
    assert enum_spanning_trees(g, count(g), cap=9) == []
    # two isolated vertices: three parts, so no pair is separated by V-2 edges
    g = make_graph(10, k8)
    assert enum_two_forests(g, 0, 8, count(g, 0, 8)) == []
    assert enum_two_forests(g, 8, 9, count(g, 8, 9)) == []
    # two parts with the pair in one of them
    g = make_graph(4, [(0, 1), (2, 3)])
    assert enum_two_forests(g, 0, 1, count(g, 0, 1)) == []


def test_a_pair_split_across_two_parts_is_still_walked():
    # two triangles: each separating forest is a tree of each triangle
    g = make_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    forests = enum_two_forests(g, 0, 3, _minor(g, 0, 3))
    assert len(forests) == count_two_forests(g, 0, 3) == 9
    assert all(components(g, sub) == [(0, 1, 2), (3, 4, 5)] for sub in forests)


def test_a_zero_count_on_a_connected_graph_does_not_stop_the_walk():
    # the sizing count is faulted; the walk is the independent route and still runs
    assert len(enum_spanning_trees(make_wheel(4), lambda: 0)) == 45
    assert len(enum_two_forests(make_wheel(4), 1, 2, lambda: 0)) == 24


def test_two_forest_enumeration():
    k4 = make_wheel(3)
    forests = enum_two_forests(k4, 1, 2, _minor(k4, 1, 2))
    assert len(forests) == 8 == count_two_forests(k4, 1, 2)
    assert len(enum_two_forests(k4, 1, 0, _minor(k4, 1, 0))) == 8
    for sub in forests:
        parts = components(k4, sub)
        assert len(parts) == 2
        assert (1 in parts[0]) != (2 in parts[0])


def test_two_forests_on_a_path():
    path = make_graph(3, [(0, 1), (1, 2)])
    assert len(enum_two_forests(path, 0, 2, _minor(path, 0, 2))) == 2  # drop either edge


def test_cap_enforced():
    g = make_wheel(10)
    with pytest.raises(Refusal, match="cap is 10"):
        enum_spanning_trees(g, _minor(g))
    g = make_wheel(5)
    with pytest.raises(Refusal, match="cap is 5"):
        enum_two_forests(g, 1, 2, _minor(g, 1, 2), cap=5)
    g = make_wheel(4)
    assert len(enum_spanning_trees(g, _minor(g), cap=5)) == 45


def test_budget_refuses_by_exact_count(monkeypatch):
    # wheel:4 has 45 spanning trees and 24 forests separating 1 from 2
    g = make_wheel(4)
    monkeypatch.setattr(enumeration, "ENUM_BUDGET", 45)
    assert len(enum_spanning_trees(g, _minor(g))) == 45
    monkeypatch.setattr(enumeration, "ENUM_BUDGET", 44)
    with pytest.raises(Refusal, match="45 spanning trees, enumeration budget is 44"):
        enum_spanning_trees(g, _minor(g))
    assert len(enum_two_forests(g, 1, 2, _minor(g, 1, 2))) == 24
    monkeypatch.setattr(enumeration, "ENUM_BUDGET", 23)
    with pytest.raises(Refusal, match="24 separating two-forests"):
        enum_two_forests(g, 1, 2, _minor(g, 1, 2))
    # wheel:3 has 3*f(5) = 15 two-component forests
    monkeypatch.setattr(enumeration, "ENUM_BUDGET", 15)
    assert len(enum_arc_forests(3)) == 15
    monkeypatch.setattr(enumeration, "ENUM_BUDGET", 14)
    with pytest.raises(Refusal, match="15 two-component forests, enumeration budget is 14"):
        enum_arc_forests(3)


@pytest.mark.parametrize("u, v", [(1, 99), (-1, 2), (2, 5)])
def test_two_forests_reject_vertices_out_of_range(u, v):
    bad = next(w for w in (u, v) if not 0 <= w < 5)
    g = make_wheel(4)
    with pytest.raises(ValueError, match=f"vertex {bad} out of range"):
        enum_two_forests(g, u, v, _minor(g, u, v))


def test_two_forests_refuse_one_vertex_twice():
    for call in (enumeration.size_two_forests, enum_two_forests):
        with pytest.raises(ValueError, match="^the two vertices must be distinct$"):
            call(make_wheel(4), 1, 1, _minor(make_wheel(4), 1, 1))


def _separating_forests_by_definition(g):
    # every (V-2)-edge acyclic subset in lexicographic order, no pruning;
    # a single vertex has no pair to separate
    if g.vertex_count < 2:
        return {}
    forests = [
        (sub, components(g, sub))
        for sub in combinations(g.edges, g.vertex_count - 2)
        if is_acyclic(g, sub)
    ]
    return {
        (u, v): [sub for sub, parts in forests if v not in next(p for p in parts if u in p)]
        for u, v in combinations(range(g.vertex_count), 2)
    }


@settings(deadline=None)
@given(g=connected_graphs(max_vertices=7))
def test_pruned_walk_matches_the_unpruned_definition(g):
    # the walk hangs v under u, so the pair is also given the other way round
    for (u, v), expected in _separating_forests_by_definition(g).items():
        for x, y in (u, v), (v, u):
            assert enum_two_forests(g, x, y, _minor(g, x, y)) == expected


@settings(deadline=None)
@given(g=connected_graphs(max_vertices=7))
def test_tree_walk_matches_the_unpruned_definition(g):
    # 1 and 2 vertices reach the walk's edge cases: no edge to choose, and
    # a first edge that is already the last
    expected = [sub for sub in combinations(g.edges, g.vertex_count - 1) if is_spanning_tree(g, sub)]
    assert enum_spanning_trees(g, _minor(g)) == expected


@settings(deadline=None)
@given(g=graphs(max_vertices=7))
def test_walk_matches_the_definition_on_any_graph(g):
    # the walk itself, without the partition gate, in the three modes the
    # enumerators use: trees, separating forests and the unpaired V-2 walk
    # of the arc forests; isolated vertices and several parts included
    V = g.vertex_count
    for size in (V - 1, V - 2) if V >= 2 else (V - 1,):
        expected = [sub for sub in combinations(g.edges, size) if is_acyclic(g, sub)]
        assert enumeration._acyclic_subsets(g, size) == expected
    for (u, v), expected in _separating_forests_by_definition(g).items():
        for pair in (u, v), (v, u):
            assert enumeration._acyclic_subsets(g, V - 2, pair) == expected


class _CountingEdges(tuple):
    reads = 0

    def __getitem__(self, i):
        _CountingEdges.reads += 1
        return tuple.__getitem__(self, i)


@pytest.mark.parametrize(
    "size, apart, found, reads",
    [
        (6, None, 1296, 2229),  # trees: 4139 reads without the prune
        (5, (1, 2), 432, 698),  # separating forests: 1238 without it
        (5, None, 2376, 3957),  # the arc-forest mode is not pruned
    ],
    ids=["trees", "forests", "arc-forests"],  # not the pinned counts, which move with the walk
)
def test_the_walk_stops_past_a_lone_vertexs_last_edge(monkeypatch, size, apart, found, reads):
    # vertex 0 hangs on (0, 1), the first edge, over K6 on 1..6: every tree
    # and separating forest holds (0, 1), so the walk ends once its top
    # level moves past it.  The walk reads edges[idx] once per candidate and
    # once per emitted leaf, so the reads measure its work
    monkeypatch.setattr(_CountingEdges, "reads", 0)
    g = LabeledGraph(7, _CountingEdges([(0, 1)] + list(combinations(range(1, 7), 2))))
    assert len(enumeration._acyclic_subsets(g, size, apart)) == found
    assert _CountingEdges.reads == reads


# the cycle on 80 vertices: its masks run past one 64-bit machine word
C80 = make_graph(80, [(i, (i + 1) % 80) for i in range(80)])


def test_trees_of_a_cycle_wider_than_a_machine_word():
    # dropping a later edge gives a smaller subset, so the last edge goes first
    trees = [tuple(e for e in C80.edges if e != dropped) for dropped in reversed(C80.edges)]
    assert enum_spanning_trees(C80, _minor(C80), cap=100) == trees


def test_forests_of_a_cycle_wider_than_a_machine_word():
    # a separating forest drops one edge from each u-v arc
    inner = [e for e in C80.edges if 3 <= e[0] and e[1] <= 50]
    outer = [e for e in C80.edges if e not in inner]
    forests = sorted(tuple(e for e in C80.edges if e not in (a, b)) for a in inner for b in outer)
    assert len(forests) == 47 * 33
    assert enum_two_forests(C80, 3, 50, _minor(C80, 3, 50), cap=100) == forests


def test_arc_forests_basic_membership():
    three = enum_arc_forests(3)
    assert any(r.edges == ((1, 2), (2, 3)) for r in three)  # isolated center
    four = enum_arc_forests(4)
    target = next(r for r in four if r.edges == ((0, 4), (1, 2), (2, 3)))
    assert target.arc_start == 1 and target.arc_len == 3
    assert target == WheelForest(4, ((0, 4), (1, 2), (2, 3)), 1, 3)


@pytest.mark.parametrize("n", range(3, 9))
def test_arc_forest_structure(n):
    g = make_wheel(n)
    rim_edges = {canonical_edge(i, i % n + 1) for i in range(1, n + 1)}
    for rec in enum_arc_forests(n):
        parts = components(g, rec.edges)
        assert len(parts) == 2
        rim_part = next(p for p in parts if 0 not in p)
        # contiguity: the part is exactly the arc the metadata claims
        expected = {(rec.arc_start - 1 + t) % n + 1 for t in range(rec.arc_len)}
        assert set(rim_part) == expected
        assert 1 <= rec.arc_len <= n
        if rec.arc_len == n:
            # the whole rim is the arc from any start: the start is where the
            # one absent rim edge runs in, from the vertex before it
            missing = rim_edges - set(rec.edges)
            assert missing == {canonical_edge((rec.arc_start - 2) % n + 1, rec.arc_start)}


@pytest.mark.parametrize("n", range(3, 7))
def test_arc_forests_are_exactly_the_two_component_forests(n):
    # the defining filter turns out to be vacuous: every two-component
    # spanning forest of a wheel has a center-free part made of rim vertices
    g = make_wheel(n)
    count = sum(
        1
        for sub in combinations(g.edges, n - 1)
        if len(components(g, sub)) == 2
    )
    assert len(enum_arc_forests(n)) == count


@pytest.mark.parametrize("n", range(3, 10))
def test_arc_forest_budget_count_is_the_enumerated_count(n):
    assert len(enum_arc_forests(n)) == n * fib(2 * n - 1)


@pytest.mark.parametrize("n", [2, 0, -5])
def test_arc_forests_below_three_rim_vertices_are_refused_before_the_count(n):
    # n*f(2n-1) is not evaluated: below 1 it would ask fib for a negative index
    for call in (enumeration.size_arc_forests, enumeration.enum_arc_forest_edges, enum_arc_forests):
        with pytest.raises(ValueError, match="^wheel requires at least 3 rim vertices$"):
            call(n)


def test_full_rim_arc_start_follows_missing_edge():
    assert rim_arc_of(4, [(1, 2), (2, 3), (3, 4)]) == (1, 4)
    assert rim_arc_of(4, [(2, 3), (3, 4), (1, 4)]) == (2, 4)
    assert rim_arc_of(4, [(1, 2), (3, 4), (1, 4)]) == (3, 4)


def test_an_edge_set_whose_every_run_meets_a_spoke_has_no_arc():
    # each rim vertex of wheel:3 is a run of its own, and its spoke meets it
    with pytest.raises(Refusal, match="^edge set has no center-free rim arc$"):
        rim_arc_of(3, [(0, 1), (0, 2), (0, 3)])


@pytest.mark.parametrize("n", range(3, 8))
def test_arc_rule_matches_the_center_free_part(n):
    # the two-component forests come from all (n-1)-subsets and a union-find,
    # not from the walk; the arc is read off the center-free part's vertex set
    g = make_wheel(n)
    rim_edges = {canonical_edge(v, v % n + 1) for v in range(1, n + 1)}
    forests = 0
    for sub in combinations(g.edges, n - 1):
        parts = components(g, sub)
        if len(parts) != 2:
            continue
        forests += 1
        rim_part = set(parts[1])  # parts are ordered by minimum vertex, the center's first
        k = len(rim_part)
        arcs = [
            (s, k)
            for s in range(1, n + 1)
            if {(s - 1 + t) % n + 1 for t in range(k)} == rim_part
            # a whole-rim arc starts where the one absent rim edge runs in
            and (k < n or rim_edges - set(sub) == {canonical_edge((s - 2) % n + 1, s)})
        ]
        assert rim_arc_of(n, sub) == arcs[0] and len(arcs) == 1
    assert forests == n * fib(2 * n - 1)


def test_rotation_representative_is_rotation_invariant():
    # the family is closed under rotation, so each rotated forest has its own record
    records = {rec.edges: rec for rec in enum_arc_forests(5)}
    for rec in records.values():
        rep = rotation_class_representative(rec)
        for s in range(5):
            assert rotation_class_representative(records[rotate_rim_labels(rec.edges, s, 5)]) == rep


@pytest.mark.parametrize("n", range(3, 8))
def test_rotation_representative_is_the_normalized_forest(n):
    for rec in enum_arc_forests(n):
        nf = normalize(rec)
        assert rotation_class_representative(rec) == nf.edges
        assert nf.arc_start == 1
        assert (nf is rec) == (rec.arc_start == 1)


FROZEN_COUNTS = {3: (15, 5), 4: (52, 13), 5: (170, 34), 6: (534, 89), 7: (1631, 233)}


@pytest.mark.parametrize("n", sorted(FROZEN_COUNTS))
def test_arc_forest_counts(n):
    labeled, classes = FROZEN_COUNTS[n]
    records = enum_arc_forests(n)
    assert len(records) == labeled
    reps = {rotation_class_representative(r) for r in records}
    assert len(reps) == classes


def test_census_reports_matches_without_asserting():
    checks = verify.run_suites(["tau"], 5)
    assert len(checks) == 3
    assert all(c.ok is None for c in checks)
    for c, n in zip(checks, range(3, 6)):
        assert f"n={n}" == c.params
        assert "labeled_matches=n*f(2n-1)" in c.actual
        assert "class_matches=f(2n-1)" in c.actual

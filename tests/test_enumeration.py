from itertools import combinations

import pytest
from hypothesis import given, settings

from wheelfan import enumeration
from wheelfan.bijection import normalize
from wheelfan.enumeration import (
    EnumerationCapExceeded,
    ForestRecord,
    arc_forest_census,
    enum_arc_forests,
    enum_spanning_trees,
    enum_two_forests,
    rim_arc_of,
    rotation_class_representative,
)
from wheelfan.graphs import components, is_acyclic, make_fan, make_graph, make_wheel, rotate_rim_labels
from wheelfan.kirchhoff import count_spanning_trees, count_two_forests
from wheelfan.sequences import fib
from strategies import connected_graphs


def test_triangle_has_three_trees():
    g = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    assert len(enum_spanning_trees(g)) == 3


@pytest.mark.parametrize("n", range(3, 8))
def test_wheel_tree_enumeration_matches_determinant(n):
    g = make_wheel(n)
    assert len(enum_spanning_trees(g)) == count_spanning_trees(g)


@pytest.mark.parametrize("m", range(1, 8))
def test_fan_tree_enumeration_matches_determinant(m):
    g = make_fan(m)
    assert len(enum_spanning_trees(g)) == count_spanning_trees(g)


def test_enumeration_order_is_lexicographic_and_duplicate_free():
    trees = enum_spanning_trees(make_wheel(4))
    assert trees == sorted(trees)
    assert len(set(trees)) == len(trees)
    # every entry is itself canonically sorted
    assert all(list(t) == sorted(t) for t in trees)


def test_two_forest_enumeration():
    k4 = make_wheel(3)
    recs = enum_two_forests(k4, 1, 2)
    assert len(recs) == 8 == count_two_forests(k4, 1, 2)
    assert len(enum_two_forests(k4, 1, 0)) == 8
    for rec in recs:
        assert rec.parts == tuple(components(k4, rec.edges))
        assert len(rec.parts) == 2


def test_two_forests_on_a_path():
    path = make_graph(3, [(0, 1), (1, 2)])
    assert len(enum_two_forests(path, 0, 2)) == 2  # drop either edge


def test_cap_enforced():
    with pytest.raises(EnumerationCapExceeded, match="cap is 10"):
        enum_spanning_trees(make_wheel(10))
    with pytest.raises(EnumerationCapExceeded, match="cap is 5"):
        enum_two_forests(make_wheel(5), 1, 2, cap=5)
    assert len(enum_spanning_trees(make_wheel(4), cap=5)) == 45


def test_budget_refuses_by_exact_count(monkeypatch):
    # wheel:4 has 45 spanning trees and 24 forests separating 1 from 2
    monkeypatch.setattr(enumeration, "ENUM_BUDGET", 45)
    assert len(enum_spanning_trees(make_wheel(4))) == 45
    monkeypatch.setattr(enumeration, "ENUM_BUDGET", 44)
    with pytest.raises(EnumerationCapExceeded, match="45 spanning trees, enumeration budget is 44"):
        enum_spanning_trees(make_wheel(4))
    assert len(enum_two_forests(make_wheel(4), 1, 2)) == 24
    monkeypatch.setattr(enumeration, "ENUM_BUDGET", 23)
    with pytest.raises(EnumerationCapExceeded, match="24 separating two-forests"):
        enum_two_forests(make_wheel(4), 1, 2)
    # wheel:3 has 3*f(5) = 15 two-component forests
    monkeypatch.setattr(enumeration, "ENUM_BUDGET", 15)
    assert len(enum_arc_forests(3)) == 15
    monkeypatch.setattr(enumeration, "ENUM_BUDGET", 14)
    with pytest.raises(EnumerationCapExceeded, match="15 two-component forests, enumeration budget is 14"):
        enum_arc_forests(3)


@pytest.mark.parametrize("u, v", [(1, 99), (-1, 2), (2, 5)])
def test_two_forests_reject_vertices_out_of_range(u, v):
    bad = next(w for w in (u, v) if not 0 <= w < 5)
    with pytest.raises(ValueError, match=f"vertex {bad} out of range"):
        enum_two_forests(make_wheel(4), u, v)


def _separating_forests_by_definition(g):
    # every (V-2)-edge acyclic subset in lexicographic order, no pruning;
    # a single vertex has no pair to separate
    if g.vertex_count < 2:
        return {}
    forests = [
        (sub, tuple(components(g, sub)))
        for sub in combinations(g.edges, g.vertex_count - 2)
        if is_acyclic(g, sub)
    ]
    return {
        (u, v): [
            ForestRecord(sub, parts)
            for sub, parts in forests
            if v not in next(p for p in parts if u in p)
        ]
        for u, v in combinations(range(g.vertex_count), 2)
    }


@settings(deadline=None)
@given(g=connected_graphs(max_vertices=7))
def test_pruned_walk_matches_the_unpruned_definition(g):
    for (u, v), expected in _separating_forests_by_definition(g).items():
        assert enum_two_forests(g, u, v) == expected


def test_arc_forests_basic_membership():
    three = enum_arc_forests(3)
    assert any(r.edges == ((1, 2), (2, 3)) for r in three)  # isolated center
    four = enum_arc_forests(4)
    target = next(r for r in four if r.edges == ((0, 4), (1, 2), (2, 3)))
    assert target.arc_start == 1 and target.arc_len == 3
    assert target.center_edges == ((0, 4),)
    assert target.cycle_edges == ((1, 2), (2, 3))


@pytest.mark.parametrize("n", range(3, 7))
def test_arc_forest_structure(n):
    g = make_wheel(n)
    for rec in enum_arc_forests(n):
        parts = components(g, rec.edges)
        assert len(parts) == 2
        rim_part = next(p for p in parts if 0 not in p)
        # contiguity: the part is exactly the arc the metadata claims
        expected = {(rec.arc_start - 1 + t) % n + 1 for t in range(rec.arc_len)}
        assert set(rim_part) == expected
        assert 1 <= rec.arc_len <= n


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


def test_full_rim_arc_start_follows_missing_edge():
    assert rim_arc_of(4, (1, 2, 3, 4), [(1, 2), (2, 3), (3, 4)]) == (1, 4)
    assert rim_arc_of(4, (1, 2, 3, 4), [(2, 3), (3, 4), (1, 4)]) == (2, 4)
    assert rim_arc_of(4, (1, 2, 3, 4), [(1, 2), (3, 4), (1, 4)]) == (3, 4)


def test_rim_arc_rejects_non_arcs():
    with pytest.raises(ValueError, match="contiguous"):
        rim_arc_of(5, (1, 3), [])


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
        expected = normalize(rec).forest.edges
        assert rotation_class_representative(rec) == expected


FROZEN_COUNTS = {3: (15, 5), 4: (52, 13), 5: (170, 34), 6: (534, 89), 7: (1631, 233)}


@pytest.mark.parametrize("n", sorted(FROZEN_COUNTS))
def test_arc_forest_counts(n):
    labeled, classes = FROZEN_COUNTS[n]
    records = enum_arc_forests(n)
    assert len(records) == labeled
    reps = {rotation_class_representative(r) for r in records}
    assert len(reps) == classes


def test_census_reports_matches_without_asserting():
    checks = arc_forest_census(range(3, 6))
    assert len(checks) == 3
    assert all(c.ok is None for c in checks)
    for c, n in zip(checks, range(3, 6)):
        assert f"n={n}" == c.params
        assert "labeled_matches=n*f(2n-1)" in c.actual
        assert "class_matches=f(2n-1)" in c.actual

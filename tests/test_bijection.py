from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import wheelfan.bijection
import wheelfan.enumeration
from wheelfan.bijection import (
    FanTree,
    FiberReport,
    NormalizedForest,
    WheelForest,
    conditioned_forward,
    conditioned_inverse,
    fiber_report,
    forward,
    inverse,
    normalize,
)
from wheelfan.enumeration import enum_arc_forests
from wheelfan.graphs import is_spanning_tree, make_fan, rotate_rim_labels


def wf(n, edges):
    return WheelForest.from_edges(n, edges)


def test_forest_fields():
    f = wf(4, [(1, 2), (2, 3), (0, 4)])
    assert f.center_edges == ((0, 4),)
    assert f.cycle_edges == ((1, 2), (2, 3))
    assert (f.arc_start, f.arc_len) == (1, 3)
    assert f.edges == ((0, 4), (1, 2), (2, 3))


def test_forest_validation():
    with pytest.raises(ValueError, match="needs 3 edges"):
        wf(4, [(1, 2)])
    with pytest.raises(ValueError, match="cycle"):
        wf(4, [(0, 1), (0, 2), (1, 2)])  # triangle plus two isolated rim vertices
    with pytest.raises(ValueError, match="not an edge"):
        wf(5, [(1, 3), (0, 2), (0, 4), (0, 5)])
    with pytest.raises(ValueError, match="at least 3"):
        wf(2, [(1, 2)])
    with pytest.raises(ValueError, match="inconsistent"):
        WheelForest(4, ((0, 4),), ((1, 2), (2, 3)), arc_start=2, arc_len=3)


def test_fan_tree_validation():
    FanTree.from_edges(3, [(1, 2), (2, 3), (0, 3)])
    with pytest.raises(ValueError, match="not a spanning tree"):
        FanTree.from_edges(3, [(0, 1), (0, 2), (1, 2)])


def test_normalize_moves_arc_to_position_one():
    nf = normalize(wf(4, [(2, 3), (0, 1), (0, 4)]))
    assert nf.rotation == 1
    assert nf.forest.edges == ((0, 3), (0, 4), (1, 2))
    assert (nf.forest.arc_start, nf.forest.arc_len) == (1, 2)


def test_normalize_is_identity_when_already_normal():
    f = wf(4, [(1, 2), (2, 3), (0, 4)])
    nf = normalize(f)
    assert nf.rotation == 0
    assert nf.forest.edges == f.edges


def test_normalize_full_path_tie_break():
    # missing cycle edge already at {4,1}: no rotation
    nf = normalize(wf(4, [(1, 2), (2, 3), (3, 4)]))
    assert nf.rotation == 0
    # rotated copy: missing edge {1,2} means the arc starts at 2
    nf = normalize(wf(4, [(2, 3), (3, 4), (1, 4)]))
    assert nf.rotation == 1
    assert nf.forest.edges == ((1, 2), (2, 3), (3, 4))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_normalize_records_recovering_rotation(n):
    for rec in enum_arc_forests(n):
        nf = normalize(wf(n, rec.edges))
        assert rotate_rim_labels(nf.forest.edges, nf.rotation, n) == rec.edges


@pytest.mark.parametrize("n", range(3, 8))
def test_unchecked_constructions_match_the_checked_path(n):
    # enum_arc_forests and normalize build forests without analysing them;
    # both must give exactly what from_edges gives, all five fields compared
    for rec in enum_arc_forests(n):
        f = wf(n, rec.edges)
        assert rec == f
        nf = normalize(f)
        assert nf.forest == wf(n, rotate_rim_labels(f.edges, -nf.rotation, n))


def test_each_forest_is_analysed_once(monkeypatch):
    calls = []
    original = wheelfan.enumeration._analyze_forest

    def counting(n, edges):
        calls.append(n)
        return original(n, edges)

    monkeypatch.setattr(wheelfan.enumeration, "_analyze_forest", counting)
    f = wf(5, [(0, 1), (0, 2), (3, 4), (4, 5)])
    assert len(calls) == 1
    nf = normalize(f)
    assert nf.rotation == 2
    normalize(nf.forest)
    normalize(enum_arc_forests(5)[-1])
    assert len(calls) == 1


def test_one_wheel_forest_class():
    assert wheelfan.bijection.WheelForest is wheelfan.enumeration.WheelForest is wheelfan.WheelForest


def test_normalized_forest_invariant():
    shifted = wf(4, [(2, 3), (0, 1), (0, 4)])
    with pytest.raises(ValueError, match="start at rim position 1"):
        NormalizedForest(shifted, 0)


# the three pinned forward vectors and two pinned inverse vectors, n=4
def test_forward_examples():
    assert forward(wf(4, [(1, 2), (2, 3), (0, 4)])).edges == ((0, 3), (1, 2), (2, 3))
    assert forward(wf(4, [(2, 3), (0, 1), (0, 4)])).edges == ((0, 2), (0, 3), (1, 2))
    assert forward(wf(4, [(1, 2), (2, 3), (3, 4)])).edges == ((0, 1), (1, 2), (2, 3))


def test_inverse_examples():
    tree = FanTree.from_edges(3, [(1, 2), (0, 2), (0, 3)])
    assert inverse(tree, 4).edges == ((0, 3), (0, 4), (1, 2))
    tree = FanTree.from_edges(3, [(0, 1), (1, 2), (2, 3)])
    assert inverse(tree, 4).edges == ((1, 2), (2, 3), (3, 4))


def test_round_trip_on_a_normalized_representative():
    f = wf(4, [(1, 2), (2, 3), (0, 4)])
    assert inverse(forward(f), 4).edges == f.edges


def test_inverse_rejects_non_images():
    with pytest.raises(ValueError, match="one initial run"):
        inverse(FanTree.from_edges(3, [(0, 1), (2, 3), (0, 3)]), 4)
    with pytest.raises(ValueError, match="inside the initial path run"):
        inverse(FanTree.from_edges(3, [(1, 2), (0, 1), (0, 3)]), 4)
    with pytest.raises(ValueError, match="rim size"):
        inverse(FanTree.from_edges(3, [(1, 2), (0, 2), (0, 3)]), 5)


# the conditioned pair at n=4: forest of F(v1|vc) <-> spanning tree of F_4
CONDITIONED_VECTORS = [
    (((0, 3), (0, 4), (1, 2)), ((0, 1), (0, 3), (0, 4), (1, 2))),
    (((0, 3), (1, 2), (1, 4)), ((0, 2), (0, 4), (1, 2), (2, 3))),  # vertex 1 in mid-arc
    (((1, 4), (2, 3), (3, 4)), ((0, 4), (1, 2), (2, 3), (3, 4))),  # isolated center
]


@pytest.mark.parametrize("forest, tree", CONDITIONED_VECTORS)
def test_conditioned_examples(forest, tree):
    image = conditioned_forward(wf(4, forest))
    assert (image.m, image.edges) == (4, tree)
    assert conditioned_inverse(FanTree.from_edges(4, tree)).edges == forest


def test_conditioned_forward_rejects_vertex_one_on_the_center_side():
    with pytest.raises(ValueError, match=r"F\(v1\|vc\)"):
        conditioned_forward(wf(4, [(0, 1), (0, 4), (2, 3)]))


@pytest.mark.parametrize("n", range(3, 9))
def test_spoke_star_family_round_trips(n):
    # arc 1..k plus spokes to every remaining rim vertex, and the full path;
    # exactly the forests whose center side has no rim edges
    family = []
    for k in range(1, n):
        family.append([(i, i + 1) for i in range(1, k)] + [(0, j) for j in range(k + 1, n + 1)])
    family.append([(i, i + 1) for i in range(1, n)])
    assert len(family) == n
    for edges in family:
        f = wf(n, edges)
        assert inverse(forward(f), n).edges == f.edges


@pytest.mark.parametrize("n", range(3, 7))
def test_images_are_spanning_trees_of_the_smaller_fan(n):
    fan = make_fan(n - 1)
    seen_classes = set()
    for rec in enum_arc_forests(n):
        nf = normalize(wf(n, rec.edges))
        if nf.forest.edges in seen_classes:
            continue
        seen_classes.add(nf.forest.edges)
        image = forward(nf.forest)
        assert image.m == n - 1
        assert len(image.edges) == n - 1
        assert is_spanning_tree(fan, image.edges)


@lru_cache(maxsize=None)
def _records(n):
    return enum_arc_forests(n)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 6), pick=st.integers(0, 10**6), shift=st.integers(-6, 6))
def test_forward_ignores_rotation(n, pick, shift):
    records = _records(n)
    edges = records[pick % len(records)].edges
    rotated = rotate_rim_labels(edges, shift, n)
    assert forward(wf(n, rotated)).edges == forward(wf(n, edges)).edges


def test_two_labeled_forests_share_an_image():
    # distinct labeled forests, same rotation class, one image
    a = wf(4, [(2, 3), (0, 1), (0, 4)])
    b = wf(4, [(1, 2), (0, 3), (0, 4)])
    assert a.edges != b.edges
    assert forward(a).edges == forward(b).edges == ((0, 2), (0, 3), (1, 2))


FROZEN_REPORTS = {
    # n: (labeled, classes, images, max normalized fiber, round trips)
    3: (15, 5, 3, 2, 3),
    4: (52, 13, 8, 3, 4),
    5: (170, 34, 21, 4, 5),
    6: (534, 89, 55, 5, 6),
    7: (1631, 233, 144, 6, 7),
}


@pytest.mark.parametrize("n", sorted(FROZEN_REPORTS))
def test_fiber_report_frozen_numbers(n):
    labeled, classes, images, max_fiber, trips = FROZEN_REPORTS[n]
    rep = fiber_report(n)
    assert rep.labeled_count == labeled
    assert rep.class_count == classes
    assert rep.image_count == images
    assert rep.max_fiber == max_fiber
    assert rep.roundtrip_ok == trips
    assert rep.roundtrip_total == classes
    assert rep.all_images_valid
    assert rep.covers_target_fan
    assert rep.target_path_vertices == n - 1
    assert not rep.roundtrip_pass


def test_fiber_report_histograms_n3():
    rep = fiber_report(3)
    assert rep.normalized_fibers == ((1, 1), (2, 2))
    assert rep.labeled_fibers == ((3, 1), (6, 2))


def test_fiber_report_histograms_n4():
    rep = fiber_report(4)
    assert rep.normalized_fibers == ((1, 4), (2, 3), (3, 1))
    assert rep.labeled_fibers == ((4, 4), (8, 3), (12, 1))


def test_machine_line_format():
    assert fiber_report(4).machine_line() == "n=4 images=8 fibers_max=3 roundtrip=fail"


def test_report_lines_mention_the_deviation():
    lines = fiber_report(4).render_lines()
    assert lines[-1] == "n=4 images=8 fibers_max=3 roundtrip=fail"
    assert any("one path vertex fewer" in ln for ln in lines)


def test_n3_classes_and_images_exactly():
    rep = fiber_report(3)
    records = enum_arc_forests(3)
    classes = {normalize(wf(3, r.edges)).forest.edges for r in records}
    assert classes == {
        ((0, 2), (0, 3)),
        ((0, 2), (2, 3)),
        ((0, 3), (1, 2)),
        ((0, 3), (2, 3)),
        ((1, 2), (2, 3)),
    }
    images = {forward(wf(3, list(c))).edges for c in classes}
    assert images == {((0, 1), (0, 2)), ((0, 1), (1, 2)), ((0, 2), (1, 2))}
    assert rep.image_count == len(images)

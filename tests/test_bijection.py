from collections import Counter
from contextlib import suppress
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import wheelfan.bijection
import wheelfan.enumeration
from wheelfan.bijection import (
    FanTree,
    FiberReport,
    WheelForest,
    conditioned_forward,
    conditioned_inverse,
    fiber_report,
    forward,
    inverse,
    normalize,
)
from wheelfan.cli import main
from wheelfan.enumeration import enum_arc_forests, enum_spanning_trees
from wheelfan.graphs import canonical_edge, is_spanning_tree, make_fan, rotate_rim_labels
from wheelfan.kirchhoff import count_spanning_trees


def wf(n, edges):
    return WheelForest.from_edges(n, edges)


def test_forest_fields():
    f = wf(4, [(1, 2), (2, 3), (0, 4)])
    assert list(WheelForest._fields) == ["n", "edges", "arc_start", "arc_len"]
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


def test_fan_tree_validation():
    FanTree.from_edges(3, [(1, 2), (2, 3), (0, 3)])
    with pytest.raises(ValueError, match="not a spanning tree"):
        FanTree.from_edges(3, [(0, 1), (0, 2), (1, 2)])


def test_fan_tree_make_and_replace_check_the_tree_too():
    # _replace builds through _make, and _make through the constructor
    with pytest.raises(ValueError, match="not a spanning tree of the fan with 3 path vertices"):
        FanTree._make((3, ((1, 2),)))
    tree = FanTree.from_edges(3, [(1, 2), (2, 3), (0, 3)])
    with pytest.raises(ValueError, match="not a spanning tree of the fan with 4 path vertices"):
        tree._replace(m=4)
    star = tree._replace(edges=((0, 1), (0, 2), (0, 3)))
    assert type(star) is FanTree and star == FanTree.from_edges(3, [(0, 1), (0, 2), (0, 3)])


def test_normalize_moves_arc_to_position_one():
    f = wf(4, [(2, 3), (0, 1), (0, 4)])
    assert (f.arc_start, f.arc_len) == (2, 2)
    nf = normalize(f)
    assert nf.edges == ((0, 3), (0, 4), (1, 2))
    assert (nf.arc_start, nf.arc_len) == (1, 2)


def test_normalize_is_identity_when_already_normal():
    f = wf(4, [(1, 2), (2, 3), (0, 4)])
    assert normalize(f) is f


def test_normalize_full_path_tie_break():
    # missing cycle edge already at {4,1}: no rotation
    f = wf(4, [(1, 2), (2, 3), (3, 4)])
    assert normalize(f) is f
    # rotated copy: missing edge {1,2} means the arc starts at 2
    f = wf(4, [(2, 3), (3, 4), (1, 4)])
    assert f.arc_start == 2
    assert normalize(f).edges == ((1, 2), (2, 3), (3, 4))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_normalize_records_recovering_rotation(n):
    # rotating the rim back by arc_start - 1 recovers the original labeling
    for rec in enum_arc_forests(n):
        nf = normalize(wf(n, rec.edges))
        assert rotate_rim_labels(nf.edges, rec.arc_start - 1, n) == rec.edges


@pytest.mark.parametrize("n", range(3, 8))
def test_built_forests_match_from_edges(n):
    # enum_arc_forests and normalize build forests without analysing them;
    # both must give exactly what from_edges gives, all four fields compared
    for rec in enum_arc_forests(n):
        f = wf(n, rec.edges)
        assert rec == f
        assert normalize(f) == wf(n, rotate_rim_labels(f.edges, 1 - f.arc_start, n))


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
    assert (f.arc_start, nf.arc_start) == (3, 1)
    normalize(nf)
    normalize(enum_arc_forests(5)[-1])
    assert len(calls) == 1
    # the inverses build their forests directly, each with the arc from_edges finds
    inverted, conditioned = [], []
    for m in range(1, 7):
        fan = make_fan(m)
        for edges in enum_spanning_trees(fan, lambda: count_spanning_trees(fan)):
            tree = FanTree(m, edges)
            with suppress(ValueError):  # not an image of forward, or m = 1
                inverted.append(inverse(tree, m + 1))
            with suppress(ValueError):  # m < 3
                conditioned.append(conditioned_inverse(tree))
    assert len(calls) == 1
    assert inverted and len(conditioned) == sum(count_spanning_trees(make_fan(m)) for m in range(3, 7))
    assert all(f == WheelForest.from_edges(f.n, f.edges) for f in inverted + conditioned)


def test_forward_checks_each_image(monkeypatch, capsys):
    # with the tree check refusing everything, no image may pass unchecked
    monkeypatch.setattr(wheelfan.bijection, "is_spanning_tree", lambda g, sub: False)
    assert main(["bijection", "forward", "--n", "4", "--edges", "0-3,0-4,1-2"]) == 2
    assert "not a spanning tree of the fan with 3 path vertices" in capsys.readouterr().err
    assert not fiber_report(5).all_images_valid


def test_inverse_refuses_a_wheel_with_fewer_than_3_rim_vertices(capsys):
    assert main(["bijection", "inverse", "--n", "2", "--edges", "0-1"]) == 2
    assert capsys.readouterr().err == "error: wheel requires at least 3 rim vertices\n"


def test_one_wheel_forest_class():
    assert wheelfan.bijection.WheelForest is wheelfan.enumeration.WheelForest is wheelfan.WheelForest


def test_normalized_forest_invariant():
    # a normalized forest's arc starts at rim position 1
    shifted = wf(4, [(2, 3), (0, 1), (0, 4)])
    assert normalize(shifted).arc_start == 1


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
        if nf.edges in seen_classes:
            continue
        seen_classes.add(nf.edges)
        image = forward(nf)
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


@pytest.mark.parametrize("n", range(3, 8))
def test_forward_collapses_the_normalized_forest(n):
    # forward relabels each forest's own edges once; rotating through
    # normalize first and collapsing the cut vertex k+1 onto k is the oracle
    for f in _records(n):
        k = f.arc_len
        if k == n:
            continue  # the isolated-center image is built, not relabeled
        moved = [tuple(v if v <= k else v - 1 for v in e) for e in normalize(f).edges]
        assert forward(f).edges == tuple(sorted(canonical_edge(a, b) for a, b in moved))


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
    assert rep.all_images_valid
    assert rep.covers_target_fan
    lines = rep.render_lines()
    assert f"target fan path vertices: {n - 1}" in lines
    assert f"round trips on normalized representatives: {trips}/{classes}" in lines
    assert not rep.roundtrip_pass
    # every labeled forest keeps its class's image; the spoke-only
    # representatives (one per arc length) all invert exactly
    assert rep.rotation_stable == labeled
    assert rep.spoke_only_ok == rep.spoke_only_total == n
    # the labeled histogram counts each labeled forest's own image once
    assert sum(size * count for size, count in rep.labeled_fibers) == labeled


@pytest.mark.parametrize("n", range(3, 8))
def test_fiber_report_walks_only_the_arc_forests(monkeypatch, n):
    # the target fan is counted by its Laplacian minor, not walked
    walked = []
    original = wheelfan.enumeration._acyclic_subsets

    def counting(g, size, apart=None):
        walked.append(g.vertex_count)
        return original(g, size, apart)

    monkeypatch.setattr(wheelfan.enumeration, "_acyclic_subsets", counting)
    assert fiber_report(n).covers_target_fan
    assert walked == [n + 1]



@pytest.mark.parametrize("n", sorted(FROZEN_REPORTS))
def test_fiber_report_checks_and_inverts_each_image_once(monkeypatch, n):
    # rotated forests share an image: the tree check and the round trip run
    # once per distinct image, not once per labeled forest or class
    checked, inverted = [], []
    original_inverse = wheelfan.bijection.inverse

    def checking(g, sub):
        checked.append(sub)
        return is_spanning_tree(g, sub)

    def inverting(tree, rim):
        inverted.append(tree.edges)
        return original_inverse(tree, rim)

    monkeypatch.setattr(wheelfan.bijection, "is_spanning_tree", checking)
    monkeypatch.setattr(wheelfan.bijection, "inverse", inverting)
    rep = fiber_report(n)
    assert len(checked) == len(inverted) == rep.image_count == FROZEN_REPORTS[n][2]
    assert len(set(checked)) == len(checked) and len(set(inverted)) == len(inverted)


@pytest.mark.parametrize("n", range(3, 9))
def test_fiber_report_relabels_and_normalizes_each_forest_once(monkeypatch, n):
    # a second pass over the forests would leave the report equal to the
    # per-forest report below but double the work
    calls = Counter()
    for name in ("_image_edges", "normalize"):
        real = getattr(wheelfan.bijection, name)
        monkeypatch.setattr(
            wheelfan.bijection, name, lambda *args, name=name, real=real: calls.update([name]) or real(*args)
        )
    rep = fiber_report(n)
    assert calls == {"_image_edges": rep.labeled_count, "normalize": rep.labeled_count}
    assert rep.labeled_count == len(enum_arc_forests(n))


@pytest.mark.parametrize("n", range(3, 9))
def test_fiber_report_builds_each_collapse_map_once(monkeypatch, n):
    # a map depends only on the arc, so one build per forest would repeat it
    built = []
    real = wheelfan.bijection._collapse_map
    monkeypatch.setattr(wheelfan.bijection, "_collapse_map", lambda *args: built.append(args) or real(*args))
    rep = fiber_report(n)
    arcs = {(f.arc_start, f.arc_len) for f in enum_arc_forests(n) if f.arc_len < n}
    assert sorted(built) == sorted((n, start, k) for start, k in arcs)
    assert rep.rotation_stable == rep.labeled_count


def _per_forest_report(n):
    """The fiber report recomputed with forward and inverse on every forest."""
    records = enum_arc_forests(n)
    trees = []
    for f in records:
        try:
            trees.append(forward(f))
        except ValueError:
            trees.append(None)
    reps = [(f, tree) for f, tree in zip(records, trees) if f.arc_start == 1]
    class_image = {f.edges: tree.edges for f, tree in reps if tree is not None}

    def round_trips(f, tree):
        try:
            return inverse(tree, n).edges == f.edges
        except ValueError:
            return False

    trips = [tree is not None and round_trips(f, tree) for f, tree in reps]
    spoke_only = [sum(a == 0 for a, _ in f.edges) == n - f.arc_len for f, _ in reps]
    labeled = Counter(tree.edges for tree in trees if tree is not None)
    classes = Counter(class_image.values())
    hist = lambda c: tuple(sorted(Counter(c.values()).items()))
    fan_trees = count_spanning_trees(make_fan(n - 1))
    return FiberReport(
        n=n,
        labeled_count=len(records),
        class_count=len(reps),
        image_count=len(classes),
        fan_tree_count=fan_trees,
        labeled_fibers=hist(labeled),
        normalized_fibers=hist(classes),
        all_images_valid=len(class_image) == len(reps),
        covers_target_fan=len(classes) == fan_trees,
        roundtrip_ok=sum(trips),
        rotation_stable=sum(
            tree is not None and class_image.get(normalize(f).edges) == tree.edges for f, tree in zip(records, trees)
        ),
        spoke_only_total=sum(spoke_only),
        spoke_only_ok=sum(t and s for t, s in zip(trips, spoke_only)),
    )


@pytest.mark.parametrize("n", range(3, 9))
def test_fiber_report_matches_the_per_forest_report(n):
    assert fiber_report(n) == _per_forest_report(n)


@pytest.mark.parametrize("n", [4, 5])
def test_fiber_report_matches_the_per_forest_report_with_one_image_refused(monkeypatch, n):
    # every image in turn fails the tree check; each forest mapping onto it
    # must drop out of the report exactly as when checked one by one
    images = sorted({forward(f).edges for f in enum_arc_forests(n)})
    for refused in images:
        refusing = lambda g, sub, refused=refused: sub != refused and is_spanning_tree(g, sub)
        monkeypatch.setattr(wheelfan.bijection, "is_spanning_tree", refusing)
        rep = fiber_report(n)
        assert (rep.image_count, rep.all_images_valid) == (len(images) - 1, False)
        assert rep == _per_forest_report(n)

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
    classes = {normalize(wf(3, r.edges)).edges for r in records}
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

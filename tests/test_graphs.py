from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from wheelfan.graphs import (
    LabeledGraph,
    components,
    format_edge_list,
    is_acyclic,
    is_spanning_tree,
    make_fan,
    make_graph,
    make_wheel,
    parse_edge_list,
    rotate_rim_labels,
)
from strategies import connected_graphs


def degrees(g):
    d = Counter()
    for a, b in g.edges:
        d[a] += 1
        d[b] += 1
    return d


def test_wheel_structure():
    g = make_wheel(4)
    assert g.vertex_count == 5
    assert len(g.edges) == 8
    assert all((0, i) in g.edges for i in range(1, 5))
    d = degrees(g)
    assert d[0] == 4
    assert all(d[v] == 3 for v in range(1, 5))


def test_wheel_3_is_complete_graph_on_4():
    g = make_wheel(3)
    assert g.vertex_count == 4
    assert set(g.edges) == set(combinations(range(4), 2))


def test_fan_structure():
    g = make_fan(3)
    assert g.vertex_count == 4
    assert set(g.edges) == {(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)}
    assert len(make_fan(1).edges) == 1
    assert degrees(make_fan(5))[0] == 5


@pytest.mark.parametrize("n", [0, 1, 2])
def test_wheel_too_small(n):
    with pytest.raises(ValueError, match="at least 3 rim vertices"):
        make_wheel(n)


def test_fan_too_small():
    with pytest.raises(ValueError):
        make_fan(0)


def test_graph_validation():
    with pytest.raises(ValueError, match="duplicate"):
        LabeledGraph(3, ((0, 1), (0, 1)))
    with pytest.raises(ValueError, match="out of range"):
        LabeledGraph(3, ((0, 3),))
    with pytest.raises(ValueError):
        LabeledGraph(3, ((1, 0),))  # not canonical
    with pytest.raises(ValueError, match="sorted"):
        LabeledGraph(3, ((1, 2), (0, 1)))
    with pytest.raises(ValueError):
        make_graph(2, [(0, 0)])


def test_components_examples():
    assert components(make_wheel(3), [(1, 2)]) == [(0,), (1, 2), (3,)]
    assert components(make_wheel(3), []) == [(0,), (1,), (2,), (3,)]
    # two parts, center together with vertex 4
    assert components(make_wheel(4), [(1, 2), (2, 3), (0, 4)]) == [(0, 4), (1, 2, 3)]


def test_components_rejects_foreign_edge():
    with pytest.raises(ValueError, match="not an edge"):
        components(make_fan(3), [(1, 3)])


def test_is_spanning_tree_examples():
    fan = make_fan(3)
    assert is_spanning_tree(fan, [(1, 2), (2, 3), (0, 3)])
    assert not is_spanning_tree(fan, [(0, 1), (0, 2), (1, 2)])  # cycle, misses 3
    assert not is_spanning_tree(fan, [])


@pytest.mark.parametrize("n", [3, 4, 5])
def test_spanning_tree_agrees_with_component_count(n):
    # exhaustive over all edge subsets of the wheel; the part count comes
    # from _sorted_groups, not from components, which both functions use
    g = make_wheel(n)
    for size in range(len(g.edges) + 1):
        for sub in combinations(g.edges, size):
            parts = len(_sorted_groups(g.vertex_count, sub))
            assert is_acyclic(g, sub) == (parts == g.vertex_count - size)
            assert is_spanning_tree(g, sub) == (size == g.vertex_count - 1 and parts == 1)


def test_repeated_edge_reads_as_a_cycle():
    fan = make_fan(3)
    assert is_acyclic(fan, [(0, 1), (1, 2)])
    assert not is_acyclic(fan, [(0, 1), (1, 2), (0, 1)])
    # three edges on four vertices, but only two distinct ones
    assert not is_spanning_tree(fan, [(0, 1), (1, 2), (1, 2)])


@given(
    n=st.integers(3, 6),
    picks=st.lists(st.integers(0, 10**6), max_size=12),
)
def test_components_always_partition(n, picks):
    g = make_wheel(n)
    sub = [g.edges[p % len(g.edges)] for p in picks]
    parts = components(g, set(sub))
    seen = [v for part in parts for v in part]
    assert sorted(seen) == list(range(g.vertex_count))
    assert [p[0] for p in parts] == sorted(p[0] for p in parts)


def _sorted_groups(vertex_count, sub):
    # merge vertex sets edge by edge, then sort members and parts
    group = {x: {x} for x in range(vertex_count)}
    for a, b in sub:
        merged = group[a] | group[b]
        for x in merged:
            group[x] = merged
    return sorted({tuple(sorted(s)) for s in group.values()})


@given(g=connected_graphs(), data=st.data())
def test_components_match_sorted_groups(g, data):
    sub = data.draw(st.lists(st.sampled_from(g.edges), max_size=12)) if g.edges else []
    assert components(g, sub) == _sorted_groups(g.vertex_count, sub)
    non_edges = [e for e in combinations(range(g.vertex_count), 2) if e not in g.edge_set]
    if non_edges:
        a, b = data.draw(st.sampled_from(non_edges))
        at = data.draw(st.integers(0, len(sub)))
        with pytest.raises(ValueError, match=f"edge {a}-{b} is not an edge of the graph"):
            components(g, sub[:at] + [(a, b)] + sub[at:])


def test_rotation_identity_and_inverse():
    edges = ((0, 4), (1, 2), (2, 3))
    assert rotate_rim_labels(edges, 0, 4) == edges
    assert rotate_rim_labels(edges, 4, 4) == edges
    once = rotate_rim_labels(edges, 1, 4)
    assert rotate_rim_labels(once, -1, 4) == edges


def test_rotation_shifts_rim_only():
    assert rotate_rim_labels(((0, 1),), 2, 5) == ((0, 3),)
    assert rotate_rim_labels(((4, 5),), 1, 5) == ((1, 5),)  # wraps around
    with pytest.raises(ValueError, match="not a rim vertex"):
        rotate_rim_labels(((1, 7),), 1, 5)


@given(n=st.integers(3, 7), s=st.integers(-10, 10), t=st.integers(-10, 10))
def test_rotations_compose(n, s, t):
    g = make_wheel(n)
    assert rotate_rim_labels(rotate_rim_labels(g.edges, s, n), t, n) == rotate_rim_labels(
        g.edges, s + t, n
    )


def test_edge_list_round_trip():
    g = make_fan(3)
    text = format_edge_list(g.vertex_count, g.edges)
    assert text.startswith("V 4\n")
    assert text.endswith("\n")
    back = parse_edge_list(text)
    assert back == g


@pytest.mark.parametrize(
    "text,needle",
    [
        ("0 1\n", "must start"),
        ("V x\n0 1\n", "bad vertex count"),
        ("V 3\n1 0\n", "a < b"),
        ("V 3\n0 1\n0 1\n", "duplicate"),
        ("V 3\n0 5\n", "out of range"),
        ("V 3\n0 1 2\n", "bad edge line"),
        ("V 3\n0 x\n", "bad edge line"),
    ],
)
def test_edge_list_rejects(text, needle):
    with pytest.raises(ValueError, match=needle):
        parse_edge_list(text)


def test_edge_list_skips_comment_lines():
    g = parse_edge_list("# a triangle plus hub\nV 4\n0 1\n# rim\n1 2\n1 3\n")
    assert g.vertex_count == 4
    assert g.edges == ((0, 1), (1, 2), (1, 3))

"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from wheelfan.graphs import make_graph


@st.composite
def connected_graphs(draw, max_vertices=8):
    """A random spanning tree on at most max_vertices shuffled labels, plus up to 5 extra edges."""
    vertices = draw(st.integers(1, max_vertices))
    labels = draw(st.permutations(range(vertices)))
    edges = [(labels[i], labels[draw(st.integers(0, i - 1))]) for i in range(1, vertices)]
    if vertices >= 2:
        pair = st.tuples(st.integers(0, vertices - 1), st.integers(0, vertices - 1)).filter(lambda p: p[0] != p[1])
        edges += draw(st.lists(pair, max_size=5))
    return make_graph(vertices, edges)


@st.composite
def graphs(draw, max_vertices=7):
    """A random simple graph on at most max_vertices; it may be disconnected or have isolated vertices."""
    vertices = draw(st.integers(1, max_vertices))
    pair = st.tuples(st.integers(0, vertices - 1), st.integers(0, vertices - 1)).filter(lambda p: p[0] != p[1])
    return make_graph(vertices, draw(st.lists(pair, max_size=2 * vertices)) if vertices >= 2 else [])


@st.composite
def apex_and_path_graphs(draw, max_paths=3, max_length=4):
    """Disjoint paths on shuffled labels, each vertex joined or not to one extra vertex, the apex.

    A path joined nowhere to the apex is a part of its own, and the apex may
    be isolated, so the graph may be disconnected.
    """
    lengths = draw(st.lists(st.integers(1, max_length), min_size=1, max_size=max_paths))
    labels = draw(st.permutations(range(sum(lengths) + 1)))
    apex, edges, start = labels[0], [], 1
    for length in lengths:
        path = labels[start : start + length]
        edges += zip(path, path[1:])
        edges += [(apex, w) for w in path if draw(st.booleans())]
        start += length
    return make_graph(len(labels), edges)

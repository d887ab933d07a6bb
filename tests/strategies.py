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

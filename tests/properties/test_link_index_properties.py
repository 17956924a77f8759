"""Property tests for the topology's directed-link index.

``Topology.directed_edges`` is the one link order every layer reads (the
reference engine's send order); ``edge_rows`` is its inverse.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.topology.generators import hierarchical_topology, random_topology
from repro.topology.graph import Topology


@st.composite
def any_topology(draw):
    """A random graph (possibly disconnected), or one with links removed."""
    n = draw(st.integers(min_value=1, max_value=20))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    topology = Topology(n, edges)
    if draw(st.booleans()) and edges:
        removed = draw(st.lists(st.sampled_from(edges), unique=True))
        topology = topology.remove_edges(removed)
    return topology


@st.composite
def connected_topology(draw):
    n = draw(st.integers(min_value=2, max_value=25))
    degree = draw(st.floats(min_value=2.0 * (n - 1) / n, max_value=float(n - 1)))
    topology = random_topology(n, degree, seed=draw(st.integers(0, 10_000)))
    if draw(st.booleans()) and topology.edges:
        topology = topology.remove_edges([draw(st.sampled_from(topology.edges))])
    return topology


hierarchies = st.builds(
    hierarchical_topology,
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3),
    st.booleans(),
)

topologies = st.one_of(any_topology(), connected_topology(), hierarchies)


@given(topologies)
@settings(max_examples=80, deadline=None)
def test_directed_edges_is_the_reference_send_order(topology):
    src, dst = topology.directed_edges
    expected = [(i, j) for i in topology for j in topology.neighbors(i)]
    assert list(zip(src.tolist(), dst.tolist())) == expected
    assert src.dtype == dst.dtype == np.int64
    assert not src.flags.writeable and not dst.flags.writeable
    assert topology.directed_edges is topology.directed_edges  # cached


@given(topologies)
@settings(max_examples=80, deadline=None)
def test_edge_rows_inverts_the_index(topology):
    src, dst = topology.directed_edges
    assert topology.edge_rows(src, dst).tolist() == list(range(src.size))
    # Each link's reverse is a link too, and maps back.
    reverse = topology.edge_rows(dst, src)
    assert np.all(reverse >= 0)
    assert np.array_equal(src[reverse], dst)


@given(topologies)
@settings(max_examples=80, deadline=None)
def test_edge_rows_is_minus_one_off_the_links(topology):
    n = topology.n_nodes
    u, v = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    rows = topology.edge_rows(u.ravel(), v.ravel())
    links = {(i, j) for i in topology for j in topology.neighbors(i)}
    for i, j, row in zip(u.ravel().tolist(), v.ravel().tolist(), rows.tolist()):
        assert (row >= 0) == ((i, j) in links)
    assert np.all(rows[u.ravel() == v.ravel()] == -1)
    outside = topology.edge_rows([-1, 0, n, 0], [0, -1, 0, n])
    assert outside.tolist() == [-1, -1, -1, -1]

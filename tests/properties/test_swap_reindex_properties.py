"""Property tests for the run-state re-index a topology swap applies.

A swap reads the run state once, maps every new directed edge to its old
row with the old topology's ``edge_rows``, loads
:func:`~repro.core.engine.reindex_state` of it and restarts every node
(``SNAPTrainer._reload``). Every engine swaps this way, so cross-engine
equality cannot catch a mistake here; these properties hold the function
itself, on random graphs, graphs with links removed or re-added, and
hierarchies.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.config import SNAPConfig
from repro.core.engine import EngineState, carry_rows, reindex_state, scatter_state
from repro.topology.graph import Topology
from tests.core.test_topology_readd import build_trainer, ring_with_chords
from tests.properties.test_link_index_properties import topologies

EDGE_COLUMNS = ("views", "last_sent", "fresh", "previous_views", "previous_fresh")
NODE_COLUMNS = (
    "params", "previous_params", "previous_gradient", "has_previous", "iteration"
)


@st.composite
def swaps(draw):
    """An old topology and a new one over the same nodes: links pruned, added back."""
    old = draw(topologies)
    n = old.n_nodes
    kept = draw(st.lists(st.sampled_from(old.edges), unique=True)) if old.edges else []
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    added = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    new = Topology(n, sorted(set(kept) | set(added)))
    if draw(st.booleans()):
        old, new = new, old  # the hierarchy is then what a swap re-adds
    return old, new


@st.composite
def states(draw, topology: Topology):
    """A run state over ``topology`` with every column distinct per row."""
    seed = draw(st.integers(0, 2**32 - 1))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(seed)
    n = topology.n_nodes
    src, dst = topology.directed_edges
    e = src.size
    return EngineState(
        params=rng.normal(size=(n, d)),
        previous_params=rng.normal(size=(n, d)),
        previous_gradient=rng.normal(size=(n, d)),
        has_previous=rng.random(n) < 0.5,
        iteration=rng.integers(0, 50, size=n),
        src=src,
        dst=dst,
        views=rng.normal(size=(e, d)),
        last_sent=rng.normal(size=(e, d)),
        fresh=rng.random(e) < 0.5,
        previous_views=rng.normal(size=(e, d)),
        previous_fresh=rng.random(e) < 0.5,
    )


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_reindex_carries_and_keeps_seeds(data):
    old, new = data.draw(swaps())
    state = data.draw(states(old))
    ages = np.arange(1, old.directed_edges[0].size + 1, dtype=np.int64)
    src, dst = new.directed_edges
    rows = old.edge_rows(src, dst)

    moved = reindex_state(state, rows, src, dst)
    moved_ages = carry_rows(ages, rows, 0)

    kept, added = rows >= 0, rows < 0
    assert np.array_equal(moved.src, src) and np.array_equal(moved.dst, dst)
    for name in EDGE_COLUMNS:
        carried = getattr(moved, name)[kept]
        assert carried.tobytes() == getattr(state, name)[rows[kept]].tobytes(), name
    # The ages move through the same rows; an added link starts at 0.
    assert np.array_equal(moved_ages[kept], ages[rows[kept]])
    assert not moved_ages[added].any()
    # An added link is in the round-zero condition: both ends exact, fresh.
    seeds = state.params[src[added]]
    assert np.array_equal(moved.views[added], seeds)
    assert np.array_equal(moved.last_sent[added], seeds)
    assert moved.fresh[added].all() and moved.previous_fresh[added].all()
    # Every per-node column, the EXTRA memory flag included, is carried:
    # the restart is _reload's, not the re-index's.
    for name in NODE_COLUMNS:
        assert np.array_equal(getattr(moved, name), getattr(state, name)), name


def test_reload_restarts_every_node():
    """``_reload`` carries the state through ``reindex_state``, then restarts
    EXTRA on every node through ``Engine.restart``."""
    config = SNAPConfig(engine="reference", optimize_weights=False, seed=3)
    trainer = build_trainer(ring_with_chords(8, [(0, 3)]), config)
    trainer.run(max_rounds=3, stop_on_convergence=False)
    state = trainer.engine.state()
    assert state.has_previous.all()
    restarted = []
    restart = trainer.engine.restart
    trainer.engine.restart = lambda nodes: restarted.extend(nodes) or restart(nodes)
    trainer._reload(state, np.arange(state.src.size))
    assert sorted(restarted) == list(range(8))
    moved = trainer.engine.state()
    assert not moved.has_previous.any()
    for name in ("params", "iteration", "views", "last_sent", "fresh"):
        assert np.array_equal(getattr(moved, name), getattr(state, name)), name


def test_scatter_leaves_no_key_of_a_pruned_neighbor():
    """Writing a pruned state onto the servers replaces every per-neighbor
    dict, so the dropped links leave nothing behind; the previous layer is
    carried (every node had one) until ``Engine.restart`` clears it."""
    config = SNAPConfig(engine="reference", optimize_weights=False, seed=3)
    old = ring_with_chords(8, [(0, 3), (2, 6)])
    trainer = build_trainer(old, config)
    trainer.run(max_rounds=3, stop_on_convergence=False)
    servers = trainer.servers
    assert all(server.previous_views for server in servers)
    assert all(server.previous_fresh for server in servers)

    new = old.remove_edges([(0, 3), (2, 6)])
    src, dst = new.directed_edges
    state = trainer.engine.state()
    scatter_state(reindex_state(state, old.edge_rows(src, dst), src, dst), servers)
    for server in servers:
        expected = set(new.neighbors(server.node_id))
        ledgers = (server.views, server.last_sent, server.fresh, server.previous_fresh)
        for ledger in (*ledgers, server.previous_views):
            assert set(ledger) == expected
        assert server.previous_params is not None
    trainer.engine.restart(range(len(servers)))
    for server in servers:
        assert server.previous_views == {}
        assert server.previous_params is None and server._previous_gradient is None

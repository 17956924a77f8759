"""The incast scenario from the paper's introduction.

The paper motivates peer-to-peer operation partly by the incast problem:
"when an edge server is selected as a parameter server to collect the
parameter updates from other servers, the incast problem may occur", and by
multi-hop cost: "there are usually multiple physical hops from an edge
server to a selected parameter server". These tests pin down both effects in
the cost accounting.
"""

import numpy as np
import pytest

from repro.baselines.parameter_server import ParameterServerTrainer
from repro.data.dataset import Dataset
from repro.data.partition import iid_partition
from repro.models.ridge import RidgeRegression
from repro.network.timing import LinkTimingModel
from repro.topology.generators import star_topology
from repro.topology.graph import Topology


@pytest.fixture
def star_setup(rng):
    n, p = 160, 3
    X = rng.normal(size=(n, p))
    y = X @ rng.normal(size=p)
    n_servers = 8
    shards = iid_partition(Dataset(X, y), n_servers, seed=0)
    model = RidgeRegression(p, regularization=0.1)
    return model, shards, star_topology(n_servers, center=0)


class TestHopCostDependsOnElection:
    def test_hub_server_is_cheapest(self, star_setup):
        """Electing the hub gives every worker a 1-hop path; electing a leaf
        forces 2 hops for all the other leaves — strictly more cost for the
        same bytes."""
        model, shards, topo = star_setup
        costs = {}
        for server_node in (0, 1):  # hub vs leaf
            trainer = ParameterServerTrainer(
                model, shards, topo, server_node=server_node, seed=0
            )
            result = trainer.run(max_rounds=3, stop_on_convergence=False)
            costs[server_node] = result.total_cost
            assert result.total_bytes == costs.get("bytes", result.total_bytes)
            costs["bytes"] = result.total_bytes
        assert costs[0] < costs[1]
        # hub election: every flow is exactly one hop -> cost == bytes
        assert costs[0] == costs["bytes"]

    def test_leaf_election_cost_formula(self, star_setup):
        """With a leaf elected, the 6 other leaves pay 2 hops each way and
        the hub pays 1: cost = bytes * (2*6 + 1*1) / 7 per direction."""
        model, shards, topo = star_setup
        trainer = ParameterServerTrainer(
            model, shards, topo, server_node=1, seed=0
        )
        result = trainer.run(max_rounds=1, stop_on_convergence=False)
        per_flow = 8 * model.n_params
        # 7 workers up + 7 pushes down; hub (node 0) flows are 1 hop, the
        # other 6 leaves are 2 hops.
        expected = 2 * per_flow * (1 * 1 + 6 * 2)
        assert result.total_cost == expected


class TestIncastSerialization:
    def test_hub_ingress_serializes_in_the_timing_model(self, star_setup):
        """All worker->server flows target the same node; on a star, each
        arrives over its own link, but the *push* direction leaves the hub
        over distinct links too — the incast pain appears when the elected
        server is a leaf: every flow funnels through the single hub-leaf
        link and the round's makespan scales with the worker count."""
        model, shards, topo = star_setup
        timing = LinkTimingModel(bandwidth_bytes_per_s=1000.0, latency_s=0.0)

        def round_time(server_node):
            trainer = ParameterServerTrainer(
                model, shards, topo, server_node=server_node, seed=0
            )
            trainer.run(max_rounds=1, stop_on_convergence=False)
            return timing.total_time(trainer.tracker, 1)

        # Leaf election funnels 2-hop flows; hub election parallelizes.
        assert round_time(1) > round_time(0)


class TestSnapAvoidsTheHotspot:
    def test_snap_star_traffic_is_spread_across_links(self, star_setup):
        """Under SNAP the hub still touches every flow on a star (it is
        everyone's only neighbor), but no *multi-hop* funnel exists and the
        per-link load is one frame per direction per round."""
        from repro.core import SNAPConfig, SNAPTrainer

        model, shards, topo = star_setup
        trainer = SNAPTrainer(
            model,
            shards,
            topo,
            config=SNAPConfig(compressor="changed_only", seed=0),
        )
        trainer.run(max_rounds=2, stop_on_convergence=False)
        for record in trainer.tracker.records():
            assert record.hops == 1
        # every round: one frame per directed edge = 2 * 7 flows
        round_one = [
            r for r in trainer.tracker.records() if r.round_index == 1
        ]
        assert len(round_one) == 2 * topo.n_edges


class TestPathGraphWorstCase:
    def test_cost_grows_with_distance_to_the_server(self, rng):
        """On a path graph, electing an endpoint maximizes total hop cost."""
        p = 2
        n_servers = 6
        X = rng.normal(size=(120, p))
        y = rng.normal(size=120)
        shards = iid_partition(Dataset(X, y), n_servers, seed=0)
        model = RidgeRegression(p, regularization=0.1)
        path = Topology(n_servers, [(i, i + 1) for i in range(n_servers - 1)])

        def cost(server_node):
            trainer = ParameterServerTrainer(
                model, shards, path, server_node=server_node, seed=0
            )
            return trainer.run(
                max_rounds=1, stop_on_convergence=False
            ).total_cost

        middle = cost(2)
        endpoint = cost(0)
        assert endpoint > middle

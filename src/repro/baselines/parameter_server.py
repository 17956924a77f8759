"""The Parameter-Server (PS) comparison scheme.

Section V: "We leverage the algorithm in [10] as the representative of PS
scheme ... in a general edge computing system, we randomly select the
parameter server, and send all the data through the least hop path to
minimize the network-wide data transmission."

Every iteration, each worker computes its full local gradient and ships it
(full precision, ``8P`` bytes) to the elected server over the least-hop
path; the server averages the gradients, takes a gradient-descent step, and
pushes the updated parameter vector (``8P`` bytes) back to every worker,
again over least-hop paths. The elected server itself pays no network cost
for its own gradient. Subclasses can override the worker-to-server gradient
encoding — that hook is how TernGrad plugs in.
"""

from __future__ import annotations

import numpy as np

from repro.consensus.convergence import ConvergenceDetector
from repro.data.dataset import Dataset
from repro.exceptions import ConfigurationError
from repro.models.base import Model
from repro.models.metrics import accuracy_score
from repro.network.cost import CommunicationCostTracker
from repro.network.frames import full_vector_bytes
from repro.results import RoundRecord, TrainingResult
from repro.topology.graph import Topology
from repro.topology.routing import all_pairs_hop_counts
from repro.types import NodeId, Params
from repro.utils.rng import make_rng
from repro.utils.validation import check_fraction, check_positive_int


class ParameterServerTrainer:
    """Synchronous parameter-server training over an edge topology.

    Parameters
    ----------
    model:
        The shared model object.
    shards:
        One private dataset per edge server; ``shards[i]`` lives on node ``i``.
    topology:
        The physical network; gradients and parameters are charged for the
        least-hop path between each worker and the elected server.
    alpha:
        Step size; ``None`` selects ``safety * 2 / L_f`` where ``L_f`` is the
        mean-aggregate objective's Lipschitz bound.
    step_safety:
        Fraction of the cap used by the automatic step size.
    server_node:
        The elected parameter server; ``None`` picks one uniformly at random
        (the paper's rule), controlled by ``seed``.
    initial_params:
        Starting point; defaults to ``model.init_params(seed)``.
    seed:
        Seed for server election and default initialization.
    """

    scheme_name = "ps"

    def __init__(
        self,
        model: Model,
        shards: list[Dataset],
        topology: Topology,
        alpha: float | None = None,
        step_safety: float = 0.5,
        server_node: NodeId | None = None,
        initial_params: Params | None = None,
        seed: int | None = None,
    ):
        if len(shards) != topology.n_nodes:
            raise ConfigurationError(
                f"{len(shards)} shards for {topology.n_nodes} servers"
            )
        self.model = model
        self.shards = shards
        self.topology = topology
        self._rng = make_rng(seed)
        if server_node is None:
            server_node = int(self._rng.integers(0, topology.n_nodes))
        if not 0 <= server_node < topology.n_nodes:
            raise ConfigurationError(
                f"server_node {server_node} outside 0..{topology.n_nodes - 1}"
            )
        self.server_node = server_node
        self._hops = all_pairs_hop_counts(topology)
        self.tracker = CommunicationCostTracker(self._hops)

        # Mean-aggregate objective: averaging gradients across workers means
        # the effective Lipschitz constant is the mean of the per-shard ones.
        mean_lipschitz = float(
            np.mean(model.lipschitz_bounds([shard.X for shard in shards]))
        )
        if alpha is None:
            check_fraction("step_safety", step_safety)
            alpha = step_safety * 2.0 / mean_lipschitz
        if alpha <= 0:
            raise ConfigurationError(f"alpha must be > 0, got {alpha}")
        self.alpha = float(alpha)

        if initial_params is None:
            initial_params = model.init_params(seed)
        self.params = model.check_params(initial_params).copy()

    # -- the gradient-encoding hook (identity for plain PS) ----------------------

    def encode_gradient(self, gradient: Params) -> tuple[Params, int]:
        """Return ``(gradient as the server receives it, wire bytes)``.

        Plain PS sends full precision: the gradient unchanged, ``8P`` bytes.
        TernGrad overrides this with stochastic ternarization.
        """
        return gradient, full_vector_bytes(gradient.size)

    def run(
        self,
        max_rounds: int = 500,
        detector: ConvergenceDetector | None = None,
        test_set: Dataset | None = None,
        eval_every: int = 0,
        stop_on_convergence: bool = True,
    ) -> TrainingResult:
        """Run synchronous PS training; traffic is hop-weighted per flow."""
        check_positive_int("max_rounds", max_rounds)
        if detector is None:
            detector = ConvergenceDetector()
        records: list[RoundRecord] = []
        n_params = self.model.n_params
        # Every round: one gradient flow per worker up, one full vector down.
        workers = [node for node in self.topology if node != self.server_node]
        server = [self.server_node] * len(workers)
        push_bytes = [full_vector_bytes(n_params)] * len(workers)
        params_sent = 2 * len(workers) * n_params

        for round_index in range(1, max_rounds + 1):
            gradients, gradient_bytes = [], []
            for node, shard in enumerate(self.shards):
                gradient = self.model.gradient(self.params, shard.X, shard.y)
                if node == self.server_node:
                    gradients.append(gradient)
                    continue
                received, wire_bytes = self.encode_gradient(gradient)
                gradients.append(received)
                gradient_bytes.append(wire_bytes)
            self.tracker.record_many(round_index, workers, server, gradient_bytes)
            self.params = self.params - self.alpha * np.mean(gradients, axis=0)

            # Push the updated parameters back to every worker, full precision.
            self.tracker.record_many(round_index, server, workers, push_bytes)

            loss = self._global_loss()
            accuracy = None
            if test_set is not None and eval_every > 0 and round_index % eval_every == 0:
                accuracy = self._evaluate(test_set)
            records.append(
                RoundRecord(
                    round_index=round_index,
                    mean_loss=loss,
                    consensus_error=0.0,
                    bytes_sent=self.tracker.round_bytes(round_index),
                    cost=self.tracker.round_cost(round_index),
                    params_sent=params_sent,
                    accuracy=accuracy,
                )
            )
            if detector.observe(loss, 0.0) and stop_on_convergence:
                break

        final_accuracy = self._evaluate(test_set) if test_set is not None else None
        return TrainingResult(
            scheme=self.scheme_name,
            rounds=records,
            converged_at=detector.converged_at,
            final_params=self.params.copy(),
            total_bytes=self.tracker.total_bytes,
            total_cost=self.tracker.total_cost,
            final_accuracy=final_accuracy,
            info={"alpha": self.alpha, "server_node": self.server_node},
        )

    def _global_loss(self) -> float:
        """Mean over shards of the loss at the (single) global parameter vector."""
        return float(
            np.mean(
                [
                    self.model.loss(self.params, shard.X, shard.y)
                    for shard in self.shards
                ]
            )
        )

    def _evaluate(self, test_set: Dataset) -> float:
        predictions = self.model.predict(self.params, test_set.X)
        return accuracy_score(test_set.y, predictions)

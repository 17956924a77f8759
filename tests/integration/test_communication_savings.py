"""Integration tests for SNAP's communication-saving machinery end to end."""

import numpy as np
import pytest

from repro.core import SNAPConfig, SNAPTrainer
from repro.simulation.experiments import mnist_mlp_workload


@pytest.fixture(scope="module")
def mlp_runs():
    """SNAP vs SNAP-0 on the (small) MLP testbed workload with a shared alpha."""
    # Easier noise level so the run converges (and SNAP's traffic decays)
    # within the test's round budget.
    workload = mnist_mlp_workload(
        n_servers=3, n_train=600, n_test=200, noise_std=0.3, seed=1
    )
    init = workload.model.init_params(workload.seed)
    outcomes = {}
    for name, compressor in [
        ("snap", "ape"),
        ("snap0", "changed_only"),
    ]:
        trainer = SNAPTrainer(
            workload.model,
            workload.shards,
            workload.topology,
            config=SNAPConfig(compressor=compressor, alpha=0.5, seed=workload.seed),
            initial_params=init,
        )
        outcomes[name] = trainer.run(
            max_rounds=120, test_set=workload.test_set, stop_on_convergence=False
        )
    return outcomes


class TestMLPSavings:
    """The Fig. 4 testbed regime: many parameters, most barely changing."""

    def test_large_byte_savings(self, mlp_runs):
        ratio = mlp_runs["snap"].total_bytes / mlp_runs["snap0"].total_bytes
        assert ratio < 0.7  # the paper reports ~80% savings at convergence

    def test_accuracy_preserved(self, mlp_runs):
        gap = mlp_runs["snap0"].final_accuracy - mlp_runs["snap"].final_accuracy
        assert gap < 0.05

    def test_snap_traffic_decays_toward_zero(self, mlp_runs):
        trace = mlp_runs["snap"].bytes_trace()
        assert trace[-1] < 0.25 * trace[0]

    def test_snap0_traffic_does_not_decay_to_zero(self, mlp_runs):
        """SNAP-0 keeps sending slightly-changed parameters (Fig. 4(b))."""
        trace = mlp_runs["snap0"].bytes_trace()
        assert trace[-1] > 0.5 * trace[0]

    def test_params_sent_shrinks(self, mlp_runs):
        sent = [r.params_sent for r in mlp_runs["snap"].rounds]
        assert sent[-1] < sent[0]


class TestFrameAccounting:
    def test_bytes_match_frame_formulas_exactly(self):
        """Replay a short run and recompute every frame size by hand."""
        workload = mnist_mlp_workload(n_servers=3, n_train=90, n_test=30, seed=2)
        trainer = SNAPTrainer(
            workload.model,
            workload.shards,
            workload.topology,
            config=SNAPConfig(alpha=0.3, seed=0),
        )
        trainer.run(max_rounds=5, stop_on_convergence=False)
        from repro.network.frames import encoded_update_bytes

        total = 0
        for record in trainer.tracker.records():
            assert record.hops == 1
            total += record.size_bytes
        assert total == trainer.tracker.total_bytes
        # every flow's size must be one of the achievable frame sizes
        n_params = workload.model.n_params
        achievable = {
            encoded_update_bytes(n_params, m) for m in range(n_params + 1)
        }
        for record in trainer.tracker.records():
            assert record.size_bytes in achievable

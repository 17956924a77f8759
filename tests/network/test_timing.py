"""Tests for repro.network.timing.LinkTimingModel."""

import pytest

from repro.exceptions import ConfigurationError
from repro.network.cost import CommunicationCostTracker, FlowRecord
from repro.network.timing import GIGABIT_PER_SECOND, LinkTimingModel


def flow(src, dst, size, hops=1, round_index=1):
    return FlowRecord(round_index, src, dst, size, hops)


def round_makespan(model, flows):
    """One synchronous round's time: ``total_time`` over a one-round ledger."""
    tracker = CommunicationCostTracker()
    for f in flows:
        tracker.record(1, f.source, f.destination, f.size_bytes, hops=f.hops)
    return model.total_time(tracker, 1)


class TestRoundMakespan:
    def test_single_flow(self):
        model = LinkTimingModel(bandwidth_bytes_per_s=100.0, latency_s=0.5)
        assert round_makespan(model, [flow(0, 1, 200)]) == pytest.approx(0.5 + 2.0)

    def test_parallel_links_take_the_max(self):
        model = LinkTimingModel(bandwidth_bytes_per_s=100.0, latency_s=0.0)
        flows = [flow(0, 1, 100), flow(2, 3, 300)]
        assert round_makespan(model, flows) == pytest.approx(3.0)

    def test_shared_link_serializes(self):
        model = LinkTimingModel(bandwidth_bytes_per_s=100.0, latency_s=0.0)
        flows = [flow(0, 1, 100), flow(0, 1, 100)]
        assert round_makespan(model, flows) == pytest.approx(2.0)

    def test_multi_hop_flow_takes_hops_times_longer(self):
        model = LinkTimingModel(bandwidth_bytes_per_s=100.0, latency_s=0.0)
        assert round_makespan(model, [flow(0, 5, 100, hops=3)]) == pytest.approx(3.0)

    def test_empty_round_costs_only_compute(self):
        model = LinkTimingModel(compute_s_per_round=0.25)
        assert round_makespan(model, []) == 0.25

    def test_directed_links_are_independent(self):
        model = LinkTimingModel(bandwidth_bytes_per_s=100.0, latency_s=0.0)
        flows = [flow(0, 1, 200), flow(1, 0, 200)]
        assert round_makespan(model, flows) == pytest.approx(2.0)


class TestTotalTime:
    def test_sums_round_makespans(self):
        tracker = CommunicationCostTracker()
        tracker.record(1, 0, 1, 100, hops=1)
        tracker.record(2, 0, 1, 300, hops=1)
        model = LinkTimingModel(bandwidth_bytes_per_s=100.0, latency_s=0.0)
        assert model.total_time(tracker, 2) == pytest.approx(1.0 + 3.0)

    def test_traffic_free_rounds_still_pay_compute(self):
        tracker = CommunicationCostTracker()
        model = LinkTimingModel(compute_s_per_round=0.1)
        assert model.total_time(tracker, 5) == pytest.approx(0.5)

    def test_negative_rounds_rejected(self):
        with pytest.raises(ValueError):
            LinkTimingModel().total_time(CommunicationCostTracker(), -1)


class TestHeterogeneousOverrides:
    """Per-node compute and per-link bandwidth dicts (heterogeneous fleets)."""

    def test_uniform_defaults_pin_legacy_makespans(self):
        """Empty override dicts reproduce the historical uniform outputs
        exactly — the backward-compatibility regression pin."""
        legacy = LinkTimingModel(bandwidth_bytes_per_s=100.0, latency_s=0.5)
        explicit = LinkTimingModel(
            bandwidth_bytes_per_s=100.0,
            latency_s=0.5,
            node_compute_s={},
            link_bandwidth={},
        )
        cases = [
            [flow(0, 1, 200)],
            [flow(0, 1, 100), flow(2, 3, 300)],
            [flow(0, 1, 100), flow(0, 1, 100)],
            [flow(0, 5, 100, hops=3)],
            [],
        ]
        for flows in cases:
            assert round_makespan(explicit, flows) == round_makespan(legacy, flows)
        assert round_makespan(legacy, [flow(0, 1, 200)]) == pytest.approx(2.5)
        assert round_makespan(legacy, []) == 0.0

    def test_per_node_compute_takes_the_max(self):
        """A synchronous round waits for the slowest server's gradient."""
        model = LinkTimingModel(
            bandwidth_bytes_per_s=100.0,
            latency_s=0.0,
            compute_s_per_round=0.1,
            node_compute_s={3: 1.0},
        )
        assert model.compute_time(3) == 1.0
        assert model.compute_time(0) == 0.1
        assert model.max_compute_s() == 1.0
        assert round_makespan(model, [flow(0, 1, 100)]) == pytest.approx(2.0)
        assert round_makespan(model, []) == pytest.approx(1.0)

    def test_per_link_bandwidth_override(self):
        model = LinkTimingModel(
            bandwidth_bytes_per_s=100.0,
            latency_s=0.0,
            link_bandwidth={(0, 1): 10.0},
        )
        # The slow link dominates; the untouched link keeps the default.
        flows = [flow(0, 1, 100), flow(2, 3, 100)]
        assert round_makespan(model, flows) == pytest.approx(10.0)
        assert round_makespan(model, [flow(2, 3, 100)]) == pytest.approx(1.0)

    def test_undirected_key_covers_both_directions(self):
        model = LinkTimingModel(
            bandwidth_bytes_per_s=100.0, link_bandwidth={(1, 4): 50.0}
        )
        assert model.bandwidth(1, 4) == 50.0
        assert model.bandwidth(4, 1) == 50.0
        directed = LinkTimingModel(
            bandwidth_bytes_per_s=100.0,
            link_bandwidth={(1, 4): 50.0, (4, 1): 25.0},
        )
        # A directed key wins over the canonical undirected one.
        assert directed.bandwidth(4, 1) == 25.0
        assert directed.bandwidth(1, 4) == 50.0

    def test_transfer_s_prices_one_frame(self):
        model = LinkTimingModel(
            bandwidth_bytes_per_s=100.0,
            latency_s=0.5,
            link_bandwidth={(0, 1): 10.0},
        )
        assert model.transfer_s(0, 1, 20) == pytest.approx(0.5 + 2.0)
        assert model.transfer_s(2, 3, 20) == pytest.approx(0.5 + 0.2)
        assert model.transfer_s(2, 3, 20, hops=2) == pytest.approx(0.5 + 0.4)

    def test_override_validation(self):
        with pytest.raises(ConfigurationError):
            LinkTimingModel(node_compute_s={0: -1.0})
        with pytest.raises(ConfigurationError):
            LinkTimingModel(node_compute_s={"a": 1.0})
        with pytest.raises(ConfigurationError):
            LinkTimingModel(link_bandwidth={(0, 1): 0.0})
        with pytest.raises(ConfigurationError):
            LinkTimingModel(link_bandwidth={(0, 1, 2): 10.0})


class TestDefaults:
    def test_paper_link_speed(self):
        assert GIGABIT_PER_SECOND == 125_000_000.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LinkTimingModel(bandwidth_bytes_per_s=0.0)
        with pytest.raises(ConfigurationError):
            LinkTimingModel(latency_s=-1.0)


class TestWithRealRun:
    def test_snap_run_is_faster_than_sno_on_the_wire(self):
        """End to end: SNAP's shrinking frames shorten the estimated wall clock."""
        from repro.core import SNAPConfig, SNAPTrainer
        from repro.simulation.experiments import credit_svm_workload

        workload = credit_svm_workload(
            n_servers=6, average_degree=3.0, n_train=600, n_test=100, seed=2
        )
        model = LinkTimingModel(bandwidth_bytes_per_s=10_000.0, latency_s=0.0)
        times = {}
        for name, compressor in [
            ("snap", "ape"),
            ("sno", "dense"),
        ]:
            trainer = SNAPTrainer(
                workload.model,
                workload.shards,
                workload.topology,
                config=SNAPConfig(compressor=compressor, seed=0),
                initial_params=workload.model.init_params(0),
            )
            trainer.run(max_rounds=80, stop_on_convergence=False)
            times[name] = model.total_time(trainer.tracker, 80)
        assert times["snap"] < times["sno"]

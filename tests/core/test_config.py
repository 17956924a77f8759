"""Tests for repro.core.config.SNAPConfig."""

import dataclasses

import pytest

from repro.compression import CompressorSpec
from repro.core.config import SNAPConfig
from repro.exceptions import ConfigurationError
from repro.network.timing import LinkTimingModel


class TestDefaults:
    def test_paper_defaults(self):
        config = SNAPConfig()
        assert config.compressor == CompressorSpec("ape")
        assert config.ape_initial_fraction == pytest.approx(0.10)
        assert config.ape_stage_iterations == 10
        assert config.ape_decay == pytest.approx(0.9)
        assert config.optimize_weights is True

    def test_auto_alpha_by_default(self):
        assert SNAPConfig().alpha is None


class TestValidation:
    def test_bad_alpha_rejected(self):
        with pytest.raises(ConfigurationError):
            SNAPConfig(alpha=0.0)

    def test_bad_selection_rejected(self):
        # The scheme has one field, ``compressor``; there is no second knob.
        with pytest.raises(TypeError, match="selection"):
            SNAPConfig(selection="ape")

    def test_bad_decay_rejected(self):
        with pytest.raises(ConfigurationError):
            SNAPConfig(ape_decay=1.0)

    def test_bad_stage_iterations_rejected(self):
        with pytest.raises(ConfigurationError):
            SNAPConfig(ape_stage_iterations=0)

    def test_sparse_weights_exclude_weight_optimization(self):
        with pytest.raises(ConfigurationError):
            SNAPConfig(sparse_weights=True, optimize_weights=True)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"compressor": "topk:k=4"},  # no controller to step the knob
            {"adaptive_topology": True},  # the APE preset has no byte knob
            {"adaptive_topology": True, "compressor": "terngrad"},
            {"adaptive_topology": True, "compressor": "dense"},
        ],
    )
    def test_a_budget_nothing_can_step_is_refused(self, overrides):
        with pytest.raises(ConfigurationError, match="bytes_budget"):
            SNAPConfig(bytes_budget=1000, **overrides)

    @pytest.mark.parametrize(
        "compressor", ["uniform:bits=8", "uniform:bits=6", "topk:k=4", "randomk:k=4"]
    )
    def test_a_budget_on_a_byte_knob_is_accepted(self, compressor):
        config = SNAPConfig(
            adaptive_topology=True, compressor=compressor, bytes_budget=1000
        )
        assert config.bytes_budget == 1000

    def test_bad_budget_rejected(self):
        with pytest.raises(ConfigurationError, match="bytes_budget"):
            SNAPConfig(adaptive_topology=True, compressor="topk:k=4", bytes_budget=0)

    def test_field_count(self):
        """A new knob is a decision, not a side effect: update this with it."""
        assert len(dataclasses.fields(SNAPConfig)) == 24

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    @pytest.mark.parametrize(
        "field, value",
        [
            ("staleness_bound", 3),
            ("straggler_patience_s", 0.5),
            ("timing", LinkTimingModel()),
        ],
    )
    def test_semisync_knobs_refused_off_the_semisync_engine(
        self, engine, field, value
    ):
        """The other engines have no event clock: the knob would be ignored."""
        with pytest.raises(ConfigurationError, match=field):
            SNAPConfig(engine=engine, **{field: value})
        assert getattr(SNAPConfig(engine="semisync", **{field: value}), field) == value


class TestScenarioAxes:
    """Validation of the byzantine / drift / hierarchy scenario knobs."""

    def test_robust_aggregation_string_normalizes(self):
        from repro.core.robust import RobustAggregationSpec

        config = SNAPConfig(robust_aggregation="trimmed_mean:f=2")
        assert isinstance(config.robust_aggregation, RobustAggregationSpec)
        assert config.robust_aggregation.kind == "trimmed_mean"
        assert config.robust_aggregation.f == 2
        assert SNAPConfig(robust_aggregation="median").robust_aggregation.f == 1

    def test_robust_aggregation_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            SNAPConfig(robust_aggregation="mean-of-means")
        with pytest.raises(ConfigurationError):
            SNAPConfig(robust_aggregation="krum:k=2")
        with pytest.raises(ConfigurationError):
            SNAPConfig(robust_aggregation=42)

    def test_drift_requires_a_schedule(self):
        with pytest.raises(ConfigurationError):
            SNAPConfig(drift="label_shift")

    def test_drift_forbids_staleness(self):
        from repro.data.drift import StreamingArrival

        drift = StreamingArrival(period=3)
        SNAPConfig(drift=drift)  # staleness_bound=0: fine
        with pytest.raises(ConfigurationError):
            SNAPConfig(drift=drift, engine="semisync", staleness_bound=1)

    def test_drift_forbids_sample_count_weighting(self):
        from repro.core.config import ShardWeighting
        from repro.data.drift import StreamingArrival

        with pytest.raises(ConfigurationError):
            SNAPConfig(
                drift=StreamingArrival(period=3),
                shard_weighting=ShardWeighting.SAMPLES,
            )

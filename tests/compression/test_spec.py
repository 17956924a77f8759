"""CompressorSpec parsing, validation, and the builder."""

from __future__ import annotations

import pytest

from repro.compression import (
    PRESET_KINDS,
    APECompressor,
    CompressorSpec,
    TopKCompressor,
    build_compressor,
)
from repro.core.config import SNAPConfig
from repro.exceptions import ConfigurationError


class TestParse:
    def test_bare_kind_fills_defaults(self):
        spec = CompressorSpec.parse("topk")
        assert spec.params_dict() == {"k": 16}
        assert spec.label == "topk(k=16)"

    def test_arguments(self):
        spec = CompressorSpec.parse("uniform:bits=6")
        assert spec.params_dict() == {"bits": 6}
        assert spec.label == "uniform(bits=6)"

    def test_specs_are_hashable_and_canonical(self):
        a = CompressorSpec.parse("topk:k=16")
        b = CompressorSpec.parse("topk")
        assert a == b and hash(a) == hash(b)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown compressor kind"):
            CompressorSpec.parse("gzip")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigurationError, match="does not take parameter"):
            CompressorSpec.parse("topk:bits=3")

    def test_malformed_argument_rejected(self):
        with pytest.raises(ConfigurationError, match="malformed"):
            CompressorSpec.parse("topk:k")

    def test_ef_on_preset_rejected(self):
        """The retired ``ef:`` prefix parses as the bare spec, until
        benchmarks/e2e/workloads.py stops spelling it; on a preset, and with
        no kind after it, it is refused as before."""
        alias = CompressorSpec.parse("ef:uniform:bits=6")
        assert alias == CompressorSpec.parse("uniform:bits=6")
        assert alias.spec_string == "uniform:bits=6"
        for preset in PRESET_KINDS:
            with pytest.raises(ConfigurationError, match="already performs"):
                CompressorSpec.parse("ef:" + preset)
        with pytest.raises(ConfigurationError, match="names no kind"):
            CompressorSpec.parse("ef:")

    def test_with_param_coerces_cli_strings(self):
        spec = CompressorSpec.parse("topk").with_param("k", "8")
        assert spec.params_dict() == {"k": 8}


class TestNormalize:
    def test_accepts_string_and_spec(self):
        spec = CompressorSpec.normalize("terngrad")
        assert spec.kind == "terngrad"
        assert CompressorSpec.normalize(spec) is spec

    def test_rejects_other_types(self):
        with pytest.raises(ConfigurationError):
            CompressorSpec.normalize(42)
        with pytest.raises(ConfigurationError):
            CompressorSpec.normalize(None)


class TestBuild:
    def test_presets_build_ape_compressor(self):
        assert isinstance(
            build_compressor(CompressorSpec("ape")), APECompressor
        )
        dense = build_compressor(CompressorSpec("dense"))
        assert isinstance(dense, APECompressor) and dense.dense

    def test_parameters_reach_the_instance(self):
        compressor = build_compressor(CompressorSpec.parse("topk:k=5"))
        assert isinstance(compressor, TopKCompressor)
        assert compressor.k == 5
        assert compressor.name == "topk(k=5)"


class TestConfigIntegration:
    def test_config_normalizes_spec_strings(self):
        config = SNAPConfig(compressor="topk:k=4")
        assert isinstance(config.compressor, CompressorSpec)
        assert config.compressor.label == "topk(k=4)"

    def test_ape_preset_is_the_default_spec(self):
        assert SNAPConfig().compressor == CompressorSpec("ape")
        with pytest.raises(ConfigurationError, match="compressor"):
            SNAPConfig(compressor=None)

"""Property-based tests for the compressor-spec grammar.

The grammar ``kind[:key=value,...]`` is the public identity of a
compression scheme — CLI flag, ``SNAPConfig.compressor``, checkpoint
compatibility tag. These properties pin its round trips: formatting a
parsed spec re-parses to the same spec, parsing is insensitive to argument
grouping, and every malformed input is rejected with a
:class:`ConfigurationError` that names the problem.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.compression.spec import _SCHEMAS, PRESET_KINDS, CompressorSpec
from repro.exceptions import ConfigurationError

#: kinds whose schema carries parameters (round trips include values).
PARAM_KINDS = sorted(kind for kind, schema in _SCHEMAS.items() if schema)
NO_PARAM_KINDS = sorted(kind for kind, schema in _SCHEMAS.items() if not schema)

param_values = st.one_of(
    st.integers(min_value=-(10**6), max_value=10**6),
    st.floats(
        min_value=-1e6,
        max_value=1e6,
        allow_nan=False,
        allow_infinity=False,
    ).filter(lambda x: x != int(x)),  # ints already covered; avoid 2.0 == "2"
    st.booleans(),
)


@st.composite
def specs(draw):
    """A valid CompressorSpec across kinds and parameters."""
    kind = draw(st.sampled_from(sorted(_SCHEMAS)))
    schema = _SCHEMAS[kind]
    params = {}
    for name in schema:
        if draw(st.booleans()):
            params[name] = draw(param_values)
    return CompressorSpec(kind=kind, params=tuple(params.items()))


class TestRoundTrip:
    @given(specs())
    @settings(max_examples=200, deadline=None)
    def test_parse_spec_string_is_identity(self, spec):
        assert CompressorSpec.parse(spec.spec_string) == spec

    @given(specs())
    @settings(max_examples=200, deadline=None)
    def test_double_round_trip_is_stable(self, spec):
        once = CompressorSpec.parse(spec.spec_string)
        assert once.spec_string == spec.spec_string
        assert CompressorSpec.parse(once.spec_string) == once

    @given(specs())
    @settings(max_examples=100, deadline=None)
    def test_normalize_accepts_both_forms(self, spec):
        assert CompressorSpec.normalize(spec) is spec
        assert CompressorSpec.normalize(spec.spec_string) == spec

    @given(specs())
    @settings(max_examples=100, deadline=None)
    def test_label_and_spec_string_agree_on_identity(self, spec):
        other = CompressorSpec.parse(spec.spec_string)
        assert other.label == spec.label

    @given(st.sampled_from(PARAM_KINDS), st.data())
    @settings(max_examples=100, deadline=None)
    def test_argument_grouping_is_irrelevant(self, kind, data):
        """``kind:a=1,b=2`` and ``kind:a=1:b=2`` parse identically."""
        schema = _SCHEMAS[kind]
        values = {
            name: data.draw(st.integers(1, 100), label=name) for name in schema
        }
        comma = kind + ":" + ",".join(f"{k}={v}" for k, v in values.items())
        colon = kind + "".join(f":{k}={v}" for k, v in values.items())
        assert CompressorSpec.parse(comma) == CompressorSpec.parse(colon)


class TestRejections:
    @given(st.text(min_size=1, max_size=30).filter(lambda s: s.strip()))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_text_never_crashes_unexpectedly(self, text):
        """parse() either returns a valid spec or raises ConfigurationError."""
        try:
            spec = CompressorSpec.parse(text)
        except ConfigurationError:
            return
        assert spec.kind in _SCHEMAS

    @given(st.sampled_from(sorted(_SCHEMAS)))
    @settings(max_examples=20, deadline=None)
    def test_unknown_parameter_names_are_rejected_with_context(self, kind):
        with pytest.raises(ConfigurationError) as excinfo:
            CompressorSpec.parse(f"{kind}:no_such_knob=1")
        message = str(excinfo.value)
        assert kind in message
        assert "no_such_knob" in message

    @given(st.sampled_from(PRESET_KINDS))
    @settings(max_examples=10, deadline=None)
    def test_ef_on_presets_is_rejected_with_reason(self, preset):
        with pytest.raises(ConfigurationError) as excinfo:
            CompressorSpec.parse(f"ef:{preset}")
        assert "error feedback" in str(excinfo.value)

    @pytest.mark.parametrize(
        "bad",
        ["", "   ", ":", "ef:", "ef", "topk:k", "topk:=3", "nosuchkind"],
    )
    def test_malformed_specs_name_the_problem(self, bad):
        with pytest.raises(ConfigurationError) as excinfo:
            CompressorSpec.parse(bad)
        # Every rejection carries a message mentioning either the offending
        # text or the grammar, never a bare assertion.
        assert str(excinfo.value)

    def test_non_string_is_rejected(self):
        with pytest.raises(ConfigurationError):
            CompressorSpec.parse(42)  # type: ignore[arg-type]


class TestSpecStringShape:
    @given(st.sampled_from(NO_PARAM_KINDS))
    @settings(max_examples=10, deadline=None)
    def test_parameterless_kinds_render_bare(self, kind):
        assert CompressorSpec(kind=kind).spec_string == kind

    def test_defaults_are_made_explicit(self):
        """Canonicalization fills schema defaults into the spec string."""
        assert CompressorSpec.parse("topk").spec_string == "topk:k=16"
        assert CompressorSpec.parse("uniform").spec_string == "uniform:bits=4"

    def test_ef_prefix_round_trips(self):
        """The retired ``ef:`` prefix parses as the bare spec, so its
        spec string is the bare spelling and re-parses to the same spec."""
        spec = CompressorSpec.parse("ef:uniform:bits=6")
        assert spec.spec_string == "uniform:bits=6"
        assert CompressorSpec.parse(spec.spec_string) == spec

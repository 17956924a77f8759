"""The retired ``ef:`` prefix on the presets.

Reference tracking already performs error feedback, so ``ef:X`` parses as
``X``; on a preset the prefix is refused with that reason.
"""

from __future__ import annotations

import pytest

from repro.compression import CompressorSpec
from repro.exceptions import ConfigurationError


@pytest.mark.parametrize("preset", ["ape", "changed_only", "dense"])
def test_wrapping_a_preset_is_rejected(preset):
    with pytest.raises(ConfigurationError, match="already performs error feedback"):
        CompressorSpec.parse(f"ef:{preset}")

"""The workload scenario pack: byzantine / drifting / hierarchical sweeps.

Marked ``differential`` — excluded from tier-1 and run by
``make verify-invariants`` / CI's ``scenario-smoke``. Two layers of
certification:

* **Cross-engine** — every curated pack scenario and the first generated
  scenarios of the workload axis (indices ≥ ``WORKLOAD_AXIS_START``) must
  agree bit-for-bit across reference, vectorized, and semi-sync engines
  with strict monitors armed.
* **Golden pins** — the reference digest of each curated scenario is
  committed below. A pin moving means byzantine transmission, robust
  mixing, drift resharding, or tiered weighting changed numerically; update
  the constants only with an explanation of *why* the trajectory moved.

The pre-existing 25-scenario pins (``test_differential.py``,
``tests/compression/test_regression_pin.py``) draw every field before the
workload axis is sampled, so they are untouched by construction — the axis
gate is asserted here too.
"""

from __future__ import annotations

import pytest

from repro.testing import run_scenario, run_workload_suite, summarize
from repro.testing.digest import capture_run
from repro.testing.scenarios import (
    WORKLOAD_AXIS_START,
    ScenarioGen,
    workload_scenarios,
)

pytestmark = pytest.mark.differential

MASTER_SEED = 0

#: How many generated workload-axis scenarios the sweep must clear.
AXIS_SWEEP_COUNT = 6

#: Reference-engine digests of the curated pack, keyed by scenario index.
#: Captured via ``RunDigest.pinned()`` — legacy pin keys, so the same
#: tooling that diffs the compression pins diffs these.
GOLDEN = {
    -101: {  # sign_flip x2 vs trimmed_mean:f=2
        "rounds_sha": "778057cf2a2c9ebfc30f6bf80682569c53b8febe62eb72fb2e286cdf83640d0d",
        "ledger_sha": "bf6f8912749bf53496611121e0c20d4b00dd3f648b9af0027e193ea20a087cee",
        "final_params_sha": "e7a27f23e9118ec5af862e87cdc2487c118a5cb133c9787838de429d6ebe971e",
        "total_bytes": 7244,
        "total_cost": 7244,
        "final_loss": "0x1.5ce2053a4f69bp-1",
    },
    -102: {  # gaussian noise vs median, under a full link/node fault plan
        "rounds_sha": "6f34b3093ba6675ba0805730d3ccb57056b38221c513dd86ac233917976baad8",
        "ledger_sha": "9f06efa1c46b3cdf8d4a9a0b435f7e9eef88e398d6de633c2b259363a272974a",
        "final_params_sha": "a3853ce250aca003204e7f2f7c85f10c14631a54d6f9a16a7057d2f92c40403a",
        "total_bytes": 3792,
        "total_cost": 3792,
        "final_loss": "0x1.6633495cd4463p-1",
    },
    -103: {  # scaled-update boosting vs krum, top-k compressed
        "rounds_sha": "1304215f66b26810303fd9165548ddb55c58481ca7fd548eb0b49037d9935618",
        "ledger_sha": "36a2bf2ff067d50be5b36df6b307114355b6e0631ef05c8da46b7e471788409e",
        "final_params_sha": "d062a8e7d75c7bf5c4c244eaa27bef59685e33ddbc273aed93bdda5d5338e61f",
        "total_bytes": 5040,
        "total_cost": 5040,
        "final_loss": "0x1.53bb2ac6018f4p-1",
    },
    -104: {  # label-shift drift, period 3
        "rounds_sha": "9c1c83f0d3e1fe936700d46d08e593d5dc80818e12195cc72944480ee1d1421c",
        "ledger_sha": "9cb65a1a3b797077f99089e196f2233f692bcfeed00670f2207aa9aedbdc1365",
        "final_params_sha": "7b7c224e5f1ee2b16fa6283e556bb8d13b6228256174e77114369a566d972187",
        "total_bytes": 7216,
        "total_cost": 7216,
        "final_loss": "0x1.43026bd78c443p-1",
    },
    -105: {  # streaming arrival, top-k
        "rounds_sha": "650e164dbd57b3f7000aeaec48ff29091df6bf2c6b6cdd48114947359a4a39c1",
        "ledger_sha": "36a2bf2ff067d50be5b36df6b307114355b6e0631ef05c8da46b7e471788409e",
        "final_params_sha": "cb15830ab9fc0edb90323567c566086ed86253ec7db72418a4b09692a010aa5b",
        "total_bytes": 5040,
        "total_cost": 5040,
        "final_loss": "0x1.4e14361238a8cp-1",
    },
    -106: {  # 1+2+6 hierarchy, tiered Metropolis, changed-only selection
        "rounds_sha": "d964c53c7b24bf39cedd9026099d00c8f8d42ab3fef9ac9512fee5fdee3450a7",
        "ledger_sha": "0f530e0228aaa2198dc85b02090569310fbc57ce8af6d6b5efc0deac5c2a5c91",
        "final_params_sha": "6102159dcf0c63c0996fb7d7fca6e80e9e2de3a63bd410c1091863e5baea8b71",
        "total_bytes": 8320,
        "total_cost": 8320,
        "final_loss": "0x1.0d2487f6e9fcdp-1",
    },
    -107: {  # 1+3+6 hierarchy with a sign-flip attacker vs trimmed_mean
        "rounds_sha": "4eb2251d726c5358452082f71226747660bbd73230a443606b5fb312f666227b",
        "ledger_sha": "54d7ca8c9d8b0b7b4dcd26ec13d951f9148931e5fd48f247d490bc953df2cff9",
        "final_params_sha": "78505c8877c81f4f54d20af03d13ea68d2c100356c17cefb4fd8b4a61a816e3c",
        "total_bytes": 9204,
        "total_cost": 9204,
        "final_loss": "0x1.532758f8f72eep-1",
    },
}


class TestWorkloadPack:
    def test_pack_covers_all_three_axes(self):
        pack = workload_scenarios(MASTER_SEED)
        assert {s.index for s in pack} == set(GOLDEN)
        assert any(s.byzantine for s in pack)
        assert any(s.drift_kind for s in pack)
        assert any(s.hierarchy for s in pack)
        # ... and the composed corners: byzantine under faults, byzantine
        # with compression, byzantine inside a hierarchy.
        assert any(s.byzantine and s.faulty for s in pack)
        assert any(s.byzantine and s.compressor for s in pack)
        assert any(s.byzantine and s.hierarchy for s in pack)

    def test_all_engines_agree_on_the_pack(self):
        reports = run_workload_suite(MASTER_SEED)
        failures = [report for report in reports if not report.ok]
        assert not failures, summarize(reports)
        for report in reports:
            assert set(report.monitor_checks) == {
                "reference",
                "vectorized",
                "semisync",
            }
            for checks in report.monitor_checks.values():
                assert checks.get("byte-ledger", 0) >= 1

    @pytest.mark.parametrize(
        "scenario",
        workload_scenarios(MASTER_SEED),
        ids=lambda s: f"scenario[{s.index}]",
    )
    def test_reference_digest_matches_golden_pin(self, scenario):
        trainer = scenario.build_trainer("reference", invariants="strict")
        digest = capture_run(trainer)
        pin = GOLDEN[scenario.index]
        assert digest.matches_pin(pin), (
            f"{scenario.describe()} moved off its golden pin:\n"
            f"  pinned: {pin}\n  got:    {digest.pinned()}"
        )


class TestWorkloadAxisSweep:
    def test_generated_axis_scenarios_agree_across_engines(self):
        gen = ScenarioGen(MASTER_SEED)
        reports = [
            run_scenario(gen.scenario(WORKLOAD_AXIS_START + i))
            for i in range(AXIS_SWEEP_COUNT)
        ]
        failures = [report for report in reports if not report.ok]
        assert not failures, summarize(reports)

    def test_axis_gate_leaves_historical_scenarios_unchanged(self):
        """Indices below the gate never sample the workload axis, so every
        pre-pack golden pin stays valid by construction."""
        gen = ScenarioGen(MASTER_SEED)
        for index in range(WORKLOAD_AXIS_START):
            scenario = gen.scenario(index)
            assert scenario.byzantine is None
            assert scenario.robust is None
            assert scenario.drift_kind is None
            assert scenario.hierarchy == ()

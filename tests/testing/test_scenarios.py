"""ScenarioGen: determinism, lattice validity, and fresh-object discipline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression.spec import CompressorSpec
from repro.core.config import StragglerStrategy
from repro.testing import Scenario, ScenarioGen

GEN = ScenarioGen(master_seed=7)
SAMPLE = GEN.scenarios(12)


class TestDeterminism:
    def test_scenario_is_a_pure_function_of_its_index(self):
        assert GEN.scenario(5) == ScenarioGen(7).scenario(5)

    def test_index_order_does_not_matter(self):
        fresh = ScenarioGen(7)
        backwards = [fresh.scenario(i) for i in reversed(range(12))]
        assert list(reversed(backwards)) == SAMPLE

    def test_from_index_matches_the_generator(self):
        for scenario in SAMPLE[:4]:
            assert (
                Scenario.from_index(scenario.master_seed, scenario.index)
                == scenario
            )

    def test_different_master_seeds_diverge(self):
        assert ScenarioGen(7).scenarios(6) != ScenarioGen(8).scenarios(6)

    def test_start_offset_slices_the_same_stream(self):
        assert GEN.scenarios(4, start=3) == SAMPLE[3:7]


class TestLatticeValidity:
    @pytest.mark.parametrize("scenario", SAMPLE, ids=lambda s: f"i{s.index}")
    def test_fields_are_in_range(self, scenario):
        assert 4 <= scenario.n_nodes <= 8
        assert 0 <= len(scenario.chords) <= 3
        assert scenario.model_kind in ("logistic", "svm")
        assert 3 <= scenario.n_features <= 8
        assert 20 <= scenario.n_samples <= 45
        assert 6 <= scenario.max_rounds <= 14
        StragglerStrategy(scenario.straggler)

    @pytest.mark.parametrize("scenario", SAMPLE, ids=lambda s: f"i{s.index}")
    def test_topology_is_connected(self, scenario):
        topology = scenario.topology()
        assert topology.is_connected()
        assert topology.n_nodes == scenario.n_nodes

    @pytest.mark.parametrize("scenario", SAMPLE, ids=lambda s: f"i{s.index}")
    def test_compressor_specs_parse(self, scenario):
        spec = CompressorSpec.parse(scenario.compressor)
        params = spec.params_dict()
        if "k" in params:
            assert 1 <= params["k"] <= scenario.n_features + 1
        if "bits" in params:
            assert 2 <= params["bits"] <= 8

    def test_shards_are_deterministic_binary_and_sized(self):
        scenario = SAMPLE[0]
        shards = scenario.shards()
        assert len(shards) == scenario.n_nodes
        for shard in shards:
            assert shard.X.shape == (scenario.n_samples, scenario.n_features)
            assert set(np.unique(shard.y)) <= {0.0, 1.0}
        again = scenario.shards()
        for first, second in zip(shards, again):
            np.testing.assert_array_equal(first.X, second.X)


class TestFreshObjects:
    def test_fault_plans_are_never_shared(self):
        scenario = next(s for s in SAMPLE if s.faulty)
        assert scenario.fault_plan() is not scenario.fault_plan()

    def test_clean_scenarios_have_no_plan(self):
        scenario = next(s for s in SAMPLE if not s.faulty)
        assert scenario.fault_plan() is None

    def test_build_trainer_builds_independent_trainers(self):
        scenario = SAMPLE[0].with_overrides(max_rounds=3)
        first = scenario.build_trainer("reference")
        second = scenario.build_trainer("reference")
        assert first is not second
        assert first.servers[0] is not second.servers[0]
        # Running one must not advance the other.
        first.run(stop_on_convergence=False)
        assert second.rounds_completed == 0


class TestOverridesAndDescribe:
    def test_with_overrides_replaces_without_mutating(self):
        scenario = SAMPLE[0]
        other = scenario.with_overrides(max_rounds=99)
        assert other.max_rounds == 99
        assert scenario.max_rounds != 99
        assert other.with_overrides(max_rounds=scenario.max_rounds) == scenario

    def test_describe_names_the_reproduction_pair(self):
        scenario = SAMPLE[3]
        text = scenario.describe()
        assert f"[{scenario.master_seed}/{scenario.index}]" in text
        assert scenario.model_kind in text
        assert scenario.compressor in text

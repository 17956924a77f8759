"""Bit-for-bit equivalence: vectorized engine vs the reference oracle.

The vectorized engine (`repro.core.engine.VectorizedEngine`) promises the
*same trajectories* as the per-object reference implementation — not merely
close, but identical floating point values, identical byte accounting, and
identical post-run server state — across every preset scheme, both
straggler strategies, and active fault plans. These tests pin that contract.
"""

import dataclasses

import numpy as np
import pytest

from repro.compression import PRESET_KINDS
from repro.core.config import ShardWeighting, SNAPConfig, StragglerStrategy
from repro.core.engine import Engine, EngineState, ReferenceEngine, VectorizedEngine
from repro.core.trainer import SNAPTrainer
from repro.data.dataset import Dataset
from repro.exceptions import ConfigurationError
from repro.faults.models import (
    CorruptionModel,
    GilbertElliottLinkFailures,
    IndependentCorruption,
    MarkovNodeFailures,
    NoCorruption,
    ScheduledCorruption,
)
from repro.faults.plan import FaultPlan
from repro.models.logistic import LogisticRegression
from repro.models.mlp import MLPClassifier
from repro.models.softmax import SoftmaxRegression
from repro.testing import RunDigest
from repro.topology.graph import Topology

N_NODES = 6
EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)]


def _binary_shards(seed=0, n_samples=40, n_features=5, sizes=None):
    rng = np.random.default_rng(seed)
    shards = []
    counts = sizes if sizes is not None else [n_samples] * N_NODES
    for count in counts:
        X = rng.normal(size=(count, n_features))
        w = rng.normal(size=n_features)
        y = (X @ w + 0.3 * rng.normal(size=count) > 0).astype(float)
        shards.append(Dataset(X, y))
    return shards


def _multiclass_shards(seed=0, n_samples=30, n_features=4, n_classes=3):
    rng = np.random.default_rng(seed)
    shards = []
    for _ in range(N_NODES):
        X = rng.normal(size=(n_samples, n_features))
        y = rng.integers(0, n_classes, size=n_samples)
        shards.append(Dataset(X, y))
    return shards


def _fault_plan():
    return FaultPlan(
        links=GilbertElliottLinkFailures(0.25, 0.5, seed=11),
        nodes=MarkovNodeFailures(0.12, 0.6, seed=12),
        corruption=IndependentCorruption(0.08, seed=13),
    )


def _lossy_links_plan():
    """Link bursts + random frame corruption, every server up."""
    return FaultPlan(
        links=GilbertElliottLinkFailures(0.25, 0.5, seed=11),
        corruption=IndependentCorruption(0.15, seed=13),
    )


def _scheduled_corruption_plan():
    """An explicit schedule, plus node crashes so rounds skip edges entirely."""
    directed = EDGES + [(v, u) for u, v in EDGES]
    return FaultPlan(
        nodes=MarkovNodeFailures(0.12, 0.6, seed=12),
        corruption=ScheduledCorruption(
            {r: directed[r % 5 :: 3] for r in range(1, 31, 2)}
        ),
    )


class _PerFrameOnlyCorruption(CorruptionModel):
    """Implements only the per-frame form: the per-round query is the
    base-class default that loops it."""

    def corrupted(self, topology, source, destination, round_index):
        return (source + 2 * destination + round_index) % 4 == 0


def _per_frame_only_plan():
    return FaultPlan(
        nodes=MarkovNodeFailures(0.12, 0.6, seed=12),
        corruption=_PerFrameOnlyCorruption(),
    )


def _run(engine, model, shards, *, fault_plan=None, rounds=30, **config_overrides):
    """``fault_plan`` is ``True`` for :func:`_fault_plan` or a plan factory
    (plans cache state, so every run builds its own)."""
    config_overrides.setdefault("optimize_weights", False)
    config = SNAPConfig(engine=engine, max_rounds=rounds, seed=7, **config_overrides)
    if fault_plan is True:
        fault_plan = _fault_plan
    trainer = SNAPTrainer(
        model,
        shards,
        Topology(N_NODES, EDGES),
        config,
        fault_plan=fault_plan() if fault_plan else None,
    )
    result = trainer.run(stop_on_convergence=False)
    return trainer, result


def _assert_identical(ref_pair, vec_pair):
    ref_trainer, ref_result = ref_pair
    vec_trainer, vec_result = vec_pair
    # One RunDigest covers the whole equivalence surface: the round-record
    # trajectory, the flow ledger, the final mean parameters, and the
    # post-run per-server state (params, iterations, views, last_sent,
    # freshness, schedule state machines).
    ref_digest = RunDigest.capture(ref_trainer, ref_result)
    vec_digest = RunDigest.capture(vec_trainer, vec_result)
    assert ref_digest == vec_digest, ref_digest.diff(vec_digest)
    # Accuracy is evaluation-side and deliberately outside the digest's
    # frozen recipe; pin it separately.
    accuracies = lambda result: [r.accuracy for r in result.rounds]  # noqa: E731
    assert accuracies(ref_result) == accuracies(vec_result)
    assert ref_result.final_accuracy == vec_result.final_accuracy


class TestEngineSelection:
    def test_config_rejects_unknown_engine(self):
        with pytest.raises(ConfigurationError):
            SNAPConfig(engine="warp-drive")

    def test_trainer_builds_requested_engine(self):
        shards = _binary_shards()
        model = LogisticRegression(5)
        ref, _ = _run("reference", model, shards, rounds=1)
        vec, _ = _run("vectorized", model, shards, rounds=1)
        assert isinstance(ref.engine, ReferenceEngine)
        assert isinstance(vec.engine, VectorizedEngine)


class TestEngineProtocol:
    """Every engine is an ``Engine``, and ``state()`` reads alike on each."""

    def test_every_engine_subclasses_the_protocol(self):
        from repro.core.async_engine import SemiSyncEngine
        from repro.runtime.testbed import TestbedRuntime

        engines = (ReferenceEngine, VectorizedEngine, SemiSyncEngine, TestbedRuntime)
        for engine in engines:
            assert issubclass(engine, Engine), engine

    @pytest.mark.parametrize("compressor", [None, "topk:k=2"])
    def test_state_columns_are_equal_across_engines(self, compressor):
        shards = _binary_shards()
        model = LogisticRegression(5)
        kwargs = {} if compressor is None else {"compressor": compressor}
        trainers = [
            _run(engine, model, shards, fault_plan=True, rounds=12, **kwargs)[0]
            for engine in ("reference", "vectorized", "semisync")
        ]
        reference, *others = (trainer.engine.state() for trainer in trainers)
        for state in others:
            for field in dataclasses.fields(EngineState):
                left = getattr(reference, field.name)
                right = getattr(state, field.name)
                if field.name in ("previous_params", "previous_gradient"):
                    # Rows without a previous iterate carry no meaning.
                    left = left[reference.has_previous]
                    right = right[state.has_previous]
                if field.name == "previous_views":
                    # Nor do the views of a receiver with no previous layer.
                    left = left[reference.has_previous_views[reference.dst]]
                    right = right[state.has_previous_views[state.dst]]
                np.testing.assert_array_equal(left, right, err_msg=field.name)

    def test_vectorized_state_views_the_engine_arrays_read_only(self):
        trainer, _ = _run(
            "vectorized", LogisticRegression(5), _binary_shards(), rounds=3
        )
        engine = trainer.engine
        state = engine.state()
        assert state.last_sent.base is state.views.base  # identity 1: one storage
        for array, own in (
            (state.params, engine.params),
            (state.views, engine.views),
        ):
            assert np.shares_memory(array, own)
            assert not array.flags.writeable
        assert engine.params.flags.writeable  # the engine's own stay writable


# The ids keep the names these cases had when the schemes were an enum.
@pytest.mark.parametrize(
    "compressor", PRESET_KINDS, ids=lambda kind: f"SelectionPolicy.{kind.upper()}"
)
@pytest.mark.parametrize("straggler", list(StragglerStrategy))
class TestPolicyMatrix:
    """Every policy × straggler combination, clean and faulty networks."""

    def test_clean_network(self, compressor, straggler):
        shards = _binary_shards()
        model = LogisticRegression(5)
        kwargs = dict(compressor=compressor, straggler_strategy=straggler)
        _assert_identical(
            _run("reference", model, shards, **kwargs),
            _run("vectorized", model, shards, **kwargs),
        )

    def test_gilbert_elliott_fault_plan(self, compressor, straggler):
        """GE link bursts + Markov node crashes + frame corruption."""
        shards = _binary_shards(seed=1)
        model = LogisticRegression(5)
        kwargs = dict(compressor=compressor, straggler_strategy=straggler)
        _assert_identical(
            _run("reference", model, shards, fault_plan=True, **kwargs),
            _run("vectorized", model, shards, fault_plan=True, **kwargs),
        )


#: One per path through the round: the preset kernel, the columnar batched
#: compressors, and the per-edge-RNG compressors that enter the same round
#: through the base-class adapters.
CORRUPTION_SPECS = ["ape", "topk:k=2", "uniform:bits=4", "randomk:k=2"]


@pytest.mark.parametrize("spec", CORRUPTION_SPECS)
class TestCorruptionQueryForms:
    """The engines ask the corruption model in different forms (per frame vs
    per round); the full digests must not differ."""

    def _both(self, spec, plan, **kwargs):
        shards = _binary_shards(seed=9)
        model = LogisticRegression(5)
        if spec != "ape":
            kwargs["compressor"] = spec
        ref = _run("reference", model, shards, fault_plan=plan, **kwargs)
        vec = _run("vectorized", model, shards, fault_plan=plan, **kwargs)
        _assert_identical(ref, vec)
        return ref

    def test_gilbert_elliott_links_and_independent_corruption(self, spec):
        trainer, result = self._both(spec, _lossy_links_plan)
        # The plan bites: frames went on the wire and did not arrive.
        ledger_flows = trainer.tracker.n_flows
        delivered = sum(
            2 * len(EDGES) - record.stale_links for record in result.rounds
        )
        assert delivered < ledger_flows < 30 * 2 * len(EDGES)

    def test_scheduled_corruption_with_node_crashes(self, spec):
        self._both(spec, _scheduled_corruption_plan)

    def test_model_with_only_the_per_frame_form(self, spec):
        assert "corrupted_edges" not in vars(_PerFrameOnlyCorruption)
        self._both(spec, _per_frame_only_plan)


@pytest.mark.parametrize("compressor", [None, "topk:k=2", "randomk:k=2"])
def test_links_only_plan_asks_no_per_frame_corruption_question(
    compressor, monkeypatch
):
    """A plan without a corruption model carries ``NoCorruption()``, never
    ``None``: the vectorized engine must not pay a Python call per frame for
    it."""
    calls = []
    original = NoCorruption.corrupted
    monkeypatch.setattr(
        NoCorruption,
        "corrupted",
        lambda self, *args: calls.append(args) or original(self, *args),
    )
    plan = lambda: FaultPlan(  # noqa: E731
        links=GilbertElliottLinkFailures(0.25, 0.5, seed=11)
    )
    kwargs = {} if compressor is None else {"compressor": compressor}
    shards = _binary_shards(seed=10)
    model = LogisticRegression(5)
    _run("vectorized", model, shards, fault_plan=plan, rounds=8, **kwargs)
    assert calls == []
    _run("reference", model, shards, fault_plan=plan, rounds=8, **kwargs)
    assert calls  # the per-frame engines still ask frame by frame


class TestModelCoverage:
    def test_softmax_model(self):
        shards = _multiclass_shards()
        model = SoftmaxRegression(4, 3)
        _assert_identical(
            _run("reference", model, shards, fault_plan=True, rounds=20),
            _run("vectorized", model, shards, fault_plan=True, rounds=20),
        )

    def test_mlp_model(self):
        shards = _multiclass_shards(seed=2)
        model = MLPClassifier((4, 6, 3))
        _assert_identical(
            _run("reference", model, shards, fault_plan=True, rounds=15),
            _run("vectorized", model, shards, fault_plan=True, rounds=15),
        )

    def test_unequal_shards_sample_weighting(self):
        """Ragged shard sizes exercise the non-uniform batched fallback."""
        shards = _binary_shards(seed=3, sizes=[20, 35, 28, 41, 22, 30])
        model = LogisticRegression(5)
        kwargs = dict(shard_weighting=ShardWeighting.SAMPLES)
        _assert_identical(
            _run("reference", model, shards, fault_plan=True, **kwargs),
            _run("vectorized", model, shards, fault_plan=True, **kwargs),
        )


class TestObservability:
    def test_accuracy_evaluation_matches(self):
        shards = _binary_shards(seed=4)
        test_set = _binary_shards(seed=5, n_samples=60)[0]
        model = LogisticRegression(5)

        def run(engine):
            config = SNAPConfig(
                engine=engine, max_rounds=20, seed=7, optimize_weights=False
            )
            trainer = SNAPTrainer(model, shards, Topology(N_NODES, EDGES), config)
            result = trainer.run(
                stop_on_convergence=False, test_set=test_set, eval_every=5
            )
            return trainer, result

        ref = run("reference")
        vec = run("vectorized")
        _assert_identical(ref, vec)
        evaluated = [r.accuracy for r in ref[1].rounds if r.accuracy is not None]
        assert len(evaluated) == 4  # eval_every=5 over 20 rounds

    def test_callbacks_observe_synced_servers(self):
        """on_round sees up-to-date EdgeServer state under the fast path."""
        shards = _binary_shards(seed=6)
        model = LogisticRegression(5)
        config = SNAPConfig(
            engine="vectorized", max_rounds=5, seed=7, optimize_weights=False
        )
        trainer = SNAPTrainer(model, shards, Topology(N_NODES, EDGES), config)
        observed = []

        def on_round(record):
            observed.append(trainer.servers[0].iteration)

        trainer.run(stop_on_convergence=False, on_round=on_round)
        assert observed == [1, 2, 3, 4, 5]

    def test_second_run_continues_identically(self):
        """Engine state round-trips through the server objects between runs."""
        shards = _binary_shards(seed=8)
        model = LogisticRegression(5)

        def run_split(engine):
            config = SNAPConfig(
                engine=engine, max_rounds=30, seed=7, optimize_weights=False
            )
            trainer = SNAPTrainer(
                model,
                shards,
                Topology(N_NODES, EDGES),
                config,
                fault_plan=_fault_plan(),
            )
            first = trainer.run(max_rounds=12, stop_on_convergence=False)
            second = trainer.run(max_rounds=13, stop_on_convergence=False)
            return trainer, first, second

        ref_trainer, ref_a, ref_b = run_split("reference")
        vec_trainer, vec_a, vec_b = run_split("vectorized")
        assert ref_a.rounds == vec_a.rounds
        assert ref_b.rounds == vec_b.rounds
        assert np.array_equal(ref_b.final_params, vec_b.final_params)
        for ref, vec in zip(ref_trainer.servers, vec_trainer.servers):
            assert np.array_equal(ref.params, vec.params)

    @staticmethod
    def _server_fields(server) -> dict:
        """Every piece of per-server state an engine writes back."""
        return {
            "params": server.params,
            "previous_params": server.previous_params,
            "_previous_gradient": server._previous_gradient,
            "iteration": server.iteration,
            "views": server.views,
            "last_sent": server.last_sent,
            "fresh": server.fresh,
            "previous_views": server.previous_views,
            "previous_fresh": server.previous_fresh,
        }

    @classmethod
    def _assert_same_fields(cls, ref, vec):
        for name, expected in cls._server_fields(ref).items():
            actual = cls._server_fields(vec)[name]
            if isinstance(expected, dict):
                assert list(actual) == list(expected), (ref.node_id, name)
                for key, value in expected.items():
                    assert np.array_equal(actual[key], value), (ref.node_id, name, key)
                    assert type(actual[key]) is type(value), (ref.node_id, name, key)
            elif expected is None or isinstance(expected, int):
                assert actual == expected and type(actual) is type(expected), (
                    ref.node_id,
                    name,
                )
            else:
                assert np.array_equal(actual, expected), (ref.node_id, name)

    @classmethod
    def _assert_own_memory(cls, trainer) -> tuple[list, list]:
        """Every array written back to a vectorized trainer's servers is its
        own memory, shared with no engine stack and no other server array;
        returns the ``(node, field, key, array)`` rows and the stacks."""
        engine = trainer.engine
        written = [
            (server.node_id, name, key, array)
            for server in trainer.servers
            for name, field in cls._server_fields(server).items()
            for key, array in (
                field.items() if isinstance(field, dict) else [(None, field)]
            )
            if isinstance(array, np.ndarray)
        ]
        stacks = [
            engine._stack_current,
            engine._stack_previous,
            engine.previous_gradients,
        ]
        for *_, array in written:
            assert not any(np.shares_memory(array, stack) for stack in stacks)
        for a, (*where_a, array_a) in enumerate(written):
            for *where_b, array_b in written[a + 1 :]:
                assert not np.shares_memory(array_a, array_b), (where_a, where_b)
        return written, stacks

    def test_write_back_matches_every_server_field(self):
        """After a run with crashed servers and APE stage restarts, the
        vectorized write-back leaves every server field equal to the reference
        servers' — keys, key order and values — and every written array is
        its own memory: shared with no engine stack and no other server's."""
        shards = _binary_shards(seed=8)
        model = LogisticRegression(5)

        def run(engine):
            config = SNAPConfig(
                engine=engine,
                seed=7,
                optimize_weights=False,
                ape_stage_iterations=3,
            )
            trainer = SNAPTrainer(
                model,
                shards,
                Topology(N_NODES, EDGES),
                config,
                fault_plan=_fault_plan(),
            )
            result = trainer.run(max_rounds=25, stop_on_convergence=False)
            return trainer, result

        (ref_trainer, ref_result), (vec_trainer, vec_result) = (
            run("reference"),
            run("vectorized"),
        )
        assert ref_result.rounds == vec_result.rounds
        topology = vec_trainer.topology
        assert any(
            vec_trainer.fault_plan.failed_nodes(topology, r) for r in range(1, 26)
        )
        assert vec_trainer.compressors[0].schedule.bank.stages.max() > 0
        for ref, vec in zip(ref_trainer.servers, vec_trainer.servers):
            self._assert_same_fields(ref, vec)

        written, stacks = self._assert_own_memory(vec_trainer)

        # An in-place write to one last_sent record reaches nothing else.
        sender = vec_trainer.servers[1]
        receiver = vec_trainer.servers[sender.neighbors[0]]
        before = {
            id(array): array.copy() for *_, array in written
        } | {id(stack): stack.copy() for stack in stacks}
        target = sender.last_sent[receiver.node_id]
        target += 1.0
        for *_, array in written:
            if array is not target:
                assert np.array_equal(array, before[id(array)])
        for stack in stacks:
            assert np.array_equal(stack, before[id(stack)])
        assert not np.array_equal(receiver.views[sender.node_id], target)


class TestLedgerBatches:
    """At tau=0 every engine writes the same ledger in the same batches: one
    ``record_many`` per round, read back identically through every view."""

    @staticmethod
    def _ledger(trainer):
        tracker = trainer.tracker
        return {
            "batches": [
                (round_index, *(column.tolist() for column in columns))
                for round_index, *columns in tracker.flow_columns()
            ],
            "records": tracker.records(),
            "per_edge_bytes": tracker.per_edge_bytes(),
            "stage_bytes": tracker.stage_bytes(),
            "stage_costs": tracker.stage_costs(),
            "per_round_bytes": tracker.per_round_bytes(),
            "per_round_costs": tracker.per_round_costs(),
        }

    @pytest.mark.parametrize("plan", [None, _lossy_links_plan])
    def test_reference_semisync_and_vectorized_agree(self, plan):
        ledgers = {}
        for engine in ("reference", "semisync", "vectorized"):
            trainer, _ = _run(
                engine, LogisticRegression(5), _binary_shards(), fault_plan=plan
            )
            ledgers[engine] = self._ledger(trainer)
        reference = ledgers["reference"]
        assert ledgers["semisync"] == reference
        assert ledgers["vectorized"] == reference
        batch_rounds = [batch[0] for batch in reference["batches"]]
        traffic_rounds = [r for r, _ in reference["per_round_bytes"]]
        assert batch_rounds == traffic_rounds  # one batch per round

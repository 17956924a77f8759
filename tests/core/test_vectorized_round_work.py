"""The vectorized round does each piece of work once, and stays bitwise.

Counts, not clocks: ``compress_batch`` receives one row per distinct
(sender, view) run, a run evaluates ``rounds + 1`` logistic margin products
(the loss's forward pass feeds the next round's gradients), a topology
swap prepares no shard again while a drift epoch does, and a dropped
trainer's prepared shards die with it although its model lives on. The
pins hold a ``topk`` run through a mid-run swap, a drift epoch and a
resume from a checkpoint to the digests these runs had when every edge
row was selected on its own and every round ran two forward passes.
"""

from __future__ import annotations

import gc
import json
import weakref

import numpy as np
import pytest

from repro.compression.sparsify import TopKCompressor
from repro.core import SNAPConfig, SNAPTrainer
from repro.core.checkpoint import restore_checkpoint, save_checkpoint
from repro.data.dataset import Dataset
from repro.data.drift import LabelShiftDrift
from repro.faults import FaultPlan, GilbertElliottLinkFailures, ScheduledCorruption
from repro.models.logistic import LogisticRegression
from repro.testing.digest import RunDigest
from repro.topology.generators import random_regular_topology
from tests.core.test_topology_readd import manual_swap_trainer, run_manual_drop_readd

N_NODES, N_FEATURES = 8, 5


def _shards():
    rng = np.random.default_rng([21, N_NODES, 3])
    shards = []
    for _ in range(N_NODES):
        X = rng.normal(size=(30, N_FEATURES))
        shards.append(Dataset(X, (X @ rng.normal(size=N_FEATURES) > 0).astype(float)))
    return shards


def _trainer(fault_plan=None, model=None, **overrides) -> SNAPTrainer:
    settings = dict(
        engine="vectorized", compressor="topk:k=3", seed=7, optimize_weights=False
    )
    settings.update(overrides)
    return SNAPTrainer(
        model if model is not None else LogisticRegression(N_FEATURES),
        _shards(),
        random_regular_topology(N_NODES, degree=4, seed=5),
        SNAPConfig(**settings),
        fault_plan=fault_plan,
    )


def _count_rows(monkeypatch) -> list[int]:
    """Record the row count of every ``TopKCompressor.compress_batch`` call."""
    rows = []
    original = TopKCompressor.compress_batch

    def counting(self, currents, references, states=None, ctxs=None):
        rows.append(len(currents))
        return original(self, currents, references, states, ctxs)

    monkeypatch.setattr(TopKCompressor, "compress_batch", counting)
    return rows


def _count_margins(monkeypatch) -> list[int]:
    calls = []
    original = LogisticRegression._margins_stack

    def counting(self, params_stack, prepared):
        calls.append(1)
        return original(self, params_stack, prepared)

    monkeypatch.setattr(LogisticRegression, "_margins_stack", counting)
    return calls


def _count_prepares(monkeypatch) -> list[int]:
    """Record the shard count of every ``prepare_shards`` call."""
    shards = []
    original = LogisticRegression.prepare_shards

    def counting(self, pairs):
        pairs = list(pairs)
        shards.append(len(pairs))
        return original(self, pairs)

    monkeypatch.setattr(LogisticRegression, "prepare_shards", counting)
    return shards


class TestOneSelectionPerDistinctView:
    def test_a_fault_free_round_selects_one_row_per_sender(self, monkeypatch):
        rows = _count_rows(monkeypatch)
        _trainer().run(max_rounds=6, stop_on_convergence=False)
        assert rows == [N_NODES] * 6

    def test_a_dropped_delivery_adds_one_row_for_its_edge(self, monkeypatch):
        """Edge ``(0 -> j)`` for 0's largest neighbour ``j`` is the last row
        of 0's run; a damaged frame on it in round 2 leaves its view
        behind the others', so round 3 selects one row more."""
        topology = random_regular_topology(N_NODES, degree=4, seed=5)
        last = max(topology.neighbors(0))
        plan = FaultPlan(corruption=ScheduledCorruption({2: [(0, last)]}))
        rows = _count_rows(monkeypatch)
        _trainer(fault_plan=plan).run(max_rounds=3, stop_on_convergence=False)
        assert rows == [N_NODES, N_NODES, N_NODES + 1]

    def test_equal_views_of_different_senders_stay_apart(self):
        from repro.core.engine import reference_runs

        sources = np.array([0, 0, 1, 1, 1, 2])
        references = np.zeros((6, 3))
        references[3, 1] = -0.0  # bitwise apart from 0.0
        firsts, runs = reference_runs(sources, references)
        assert firsts.tolist() == [0, 2, 3, 4, 5]
        assert runs.tolist() == [0, 0, 1, 2, 3, 4]


class TestOneForwardPassPerRound:
    def test_a_run_computes_rounds_plus_one_margin_products(self, monkeypatch):
        calls = _count_margins(monkeypatch)
        _trainer().run(max_rounds=9, stop_on_convergence=False)
        assert len(calls) == 9 + 1

    def test_a_boundary_drops_the_kept_forward_pass(self, monkeypatch):
        """A drift epoch reloads the engine: the round after it computes
        its gradients' margins afresh, on the new shards."""
        calls = _count_margins(monkeypatch)
        trainer = _trainer(drift=LabelShiftDrift(period=3, seed=4))
        trainer.run(max_rounds=9, stop_on_convergence=False)
        assert trainer._drift_epoch == 2
        assert len(calls) == 9 + 1 + 2

    def test_a_dropped_trainer_frees_its_prepared_shards(self):
        """The engine, not the shared model, owns the prepared shards and
        the kept forward pass, so both die with the trainer by refcount."""
        model = LogisticRegression(N_FEATURES)
        trainer = _trainer(model=model)
        trainer.run(max_rounds=3, stop_on_convergence=False)
        prepared = weakref.ref(trainer.engine.prepared)
        margins = weakref.ref(trainer.engine._forward["margins"])
        gc.disable()
        try:
            del trainer
            assert prepared() is None and margins() is None
        finally:
            gc.enable()
        _trainer(model=model).run(max_rounds=2, stop_on_convergence=False)


class TestBatchEvaluatorOverrides:
    """The vectorized engine hands ``forward`` to a model's batch evaluators
    as their third positional argument (the ``Model`` contract)."""

    def test_a_two_argument_override_fails_on_the_first_round(self):
        class TwoArgumentLogistic(LogisticRegression):
            def batch_gradients(self, params_stack, prepared):
                return super().batch_gradients(params_stack, prepared)

        trainer = _trainer(model=TwoArgumentLogistic(N_FEATURES))
        with pytest.raises(TypeError, match="positional argument"):
            trainer.run(max_rounds=1, stop_on_convergence=False)

    def test_an_override_that_takes_forward_runs_bitwise(self):
        class ForwardingLogistic(LogisticRegression):
            def batch_gradients(self, params_stack, prepared, forward=None):
                return super().batch_gradients(params_stack, prepared, forward)

        def digest(model):
            trainer = _trainer(model=model)
            result = trainer.run(max_rounds=4, stop_on_convergence=False)
            return RunDigest.capture(trainer, result)

        plain = digest(LogisticRegression(N_FEATURES))
        assert digest(ForwardingLogistic(N_FEATURES)) == plain


class TestPreparedShardsSurviveASwap:
    def test_a_vectorized_swap_prepares_nothing(self, monkeypatch):
        shards = _count_prepares(monkeypatch)
        run_manual_drop_readd(manual_swap_trainer("vectorized"))
        assert shards == [8]

    def test_built_servers_keep_their_prepared_shards(self, monkeypatch):
        shards = _count_prepares(monkeypatch)
        run_manual_drop_readd(manual_swap_trainer("reference"))
        assert shards == [1] * 8

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_a_drift_epoch_prepares_again(self, engine, monkeypatch):
        shards = _count_prepares(monkeypatch)
        trainer = _trainer(engine=engine, drift=LabelShiftDrift(period=3, seed=4))
        trainer.run(max_rounds=7, stop_on_convergence=False)
        assert trainer._drift_epoch == 2
        per_epoch = [N_NODES] if engine == "vectorized" else [1] * N_NODES
        assert shards == per_epoch * 3


def swap_digest() -> RunDigest:
    trainer = manual_swap_trainer("vectorized", compressor="topk:k=3")
    return RunDigest.capture(trainer, run_manual_drop_readd(trainer))


def _lossy_plan() -> FaultPlan:
    return FaultPlan(links=GilbertElliottLinkFailures(0.3, 0.5, seed=9))


def drift_digest() -> RunDigest:
    trainer = _trainer(
        fault_plan=_lossy_plan(), drift=LabelShiftDrift(period=4, seed=4)
    )
    result = trainer.run(max_rounds=12, stop_on_convergence=False)
    return RunDigest.capture(trainer, result)


def resume_digest(directory) -> RunDigest:
    first = _trainer(fault_plan=_lossy_plan())
    first.run(max_rounds=6, stop_on_convergence=False)
    path = save_checkpoint(first, directory / "topk.npz")
    resumed = _trainer(fault_plan=_lossy_plan())
    restore_checkpoint(resumed, path)
    result = resumed.run(max_rounds=6, stop_on_convergence=False)
    return RunDigest.capture(resumed, result)


#: Captured on the parent commit, where every eligible edge row was
#: selected by its own stable argsort and each round ran two forward passes.
GOLDEN = {
    "topk-swap": {
        "rounds_sha": "d718d799818391aac7ecccfa674687edfe3b814a934b8a99b14700fceebb44e3",
        "ledger_sha": "e6910be532246e742b04e7ec5f3628f57d7d52991eecd9c47d709ab9adabe460",
        "final_params_sha": "02aedb66d7277bc8cb445929c0e4c4d0993eeffab95228638e2e43ac42fbad22",
        "server_state_sha": "5a433879ea2f0bfcb04a1d7ecc2b16fa752758ed989d4939d61d0e35caf597ed",
        "total_bytes": 7704,
        "total_cost": 7704,
        "final_loss": "0x1.27217cce77f4cp-1",
        "version": 1,
    },
    "topk-drift": {
        "rounds_sha": "b3fdda9cdba068e67229e374d38f4de5eeefdaa8d2cfa03ee5ccb2f75c52d682",
        "ledger_sha": "89532dd48b78e3990522286d9183c48be96b806de6e604c0769963e0348d029d",
        "final_params_sha": "6055e9d9c713087c005f9da83b33a293aea3259cfc1ddd819ddf230f63fe4b7e",
        "server_state_sha": "b12895db6b768a1203fbfa7a96cc58e337b19c760205491bcf2482fa707efb7e",
        "total_bytes": 8784,
        "total_cost": 8784,
        "final_loss": "0x1.5e9628889dc2fp-1",
        "version": 1,
    },
    "topk-resume": {
        "rounds_sha": "7e4e0c8d3633d89ff23617620f3996b88f83f06a6620727762199804af6f7742",
        "ledger_sha": "d41118ad509cc1fc950489a35b38e279e3cd1a522c2381a9738036e9b8fb4426",
        "final_params_sha": "46e370e9c14e8159206282ba1cd4940ee3324eb8ed3460c13140749555290390",
        "server_state_sha": "a65a84a1078f2630ab9402e64df614fc1cfb9bc45c7e4f9589fd46b48b08eba3",
        "total_bytes": 4968,
        "total_cost": 4968,
        "final_loss": "0x1.5ea136632fd02p-1",
        "version": 1,
    },
}


def test_topk_swap_digest_is_pinned():
    assert json.loads(swap_digest().to_json()) == GOLDEN["topk-swap"]


def test_topk_drift_digest_is_pinned():
    assert json.loads(drift_digest().to_json()) == GOLDEN["topk-drift"]


def test_topk_resume_digest_is_pinned(tmp_path):
    assert json.loads(resume_digest(tmp_path).to_json()) == GOLDEN["topk-resume"]

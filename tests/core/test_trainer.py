"""Tests for repro.core.trainer.SNAPTrainer."""

import gc
import sys
import weakref
from collections import Counter

import numpy as np
import pytest

from repro.consensus.convergence import ConvergenceDetector
from repro.core.config import SNAPConfig
from repro.core.trainer import SNAPTrainer
from repro.data.dataset import Dataset
from repro.data.drift import DriftSchedule, LabelShiftDrift, StreamingArrival
from repro.data.partition import iid_partition
from repro.exceptions import ConfigurationError, DataError
from repro.models.base import _CANDIDATES
from repro.models.logistic import LogisticRegression
from repro.models.ridge import RidgeRegression
from repro.models.svm import LinearSVM
from repro.network.cost import FlowRecord
from repro.topology.generators import complete_topology, random_topology, ring_topology
from repro.topology.graph import Topology
from repro.weights.construction import metropolis_weights


@pytest.fixture
def ridge_setup(rng):
    """4 servers, ridge shards, known closed-form optimum."""
    n, p = 240, 3
    X = rng.normal(size=(n, p))
    y = X @ rng.normal(size=p) + 0.1 * rng.normal(size=n)
    dataset = Dataset(X, y)
    shards = iid_partition(dataset, 4, seed=1)
    model = RidgeRegression(p, regularization=0.1)
    topo = random_topology(4, 2.5, seed=2)
    exact = model.solve_exact(X, y)
    return model, shards, topo, exact


class TestConstruction:
    def test_shard_count_must_match(self, ridge_setup):
        model, shards, topo, _ = ridge_setup
        with pytest.raises(ConfigurationError):
            SNAPTrainer(model, shards[:2], topo)

    def test_disconnected_topology_rejected(self, ridge_setup):
        model, shards, _, _ = ridge_setup
        disconnected = Topology(4, [(0, 1), (2, 3)])
        with pytest.raises(ConfigurationError):
            SNAPTrainer(model, shards, disconnected)

    def test_explicit_weight_matrix_used(self, ridge_setup):
        model, shards, topo, _ = ridge_setup
        weights = metropolis_weights(topo)
        trainer = SNAPTrainer(model, shards, topo, weight_matrix=weights)
        np.testing.assert_array_equal(trainer.weight_matrix, weights)
        assert trainer._weight_info["weight_problem"] == "explicit"

    def test_metropolis_when_optimization_disabled(self, ridge_setup):
        model, shards, topo, _ = ridge_setup
        config = SNAPConfig(optimize_weights=False)
        trainer = SNAPTrainer(model, shards, topo, config=config)
        np.testing.assert_allclose(
            trainer.weight_matrix, metropolis_weights(topo)
        )

    def test_all_servers_share_initial_params(self, ridge_setup):
        model, shards, topo, _ = ridge_setup
        trainer = SNAPTrainer(model, shards, topo, config=SNAPConfig(seed=3))
        for server in trainer.servers:
            np.testing.assert_array_equal(server.params, trainer.initial_params)

    def test_auto_alpha_positive_and_bounded(self, ridge_setup):
        model, shards, topo, _ = ridge_setup
        trainer = SNAPTrainer(model, shards, topo)
        assert 0 < trainer.alpha < 2.0 / trainer.lipschitz

    def test_ape_schedules_only_for_ape_policy(self, ridge_setup):
        model, shards, topo, _ = ridge_setup
        assert SNAPTrainer(model, shards, topo)._schedules is not None
        assert (
            SNAPTrainer(model, shards, topo, config=SNAPConfig(compressor="changed_only"))._schedules
            is None
        )


class TestTraining:
    def test_snap0_converges_to_global_optimum(self, ridge_setup):
        model, shards, topo, exact = ridge_setup
        trainer = SNAPTrainer(
            model, shards, topo, config=SNAPConfig(compressor="changed_only", seed=0)
        )
        trainer.run(
            max_rounds=1500,
            detector=ConvergenceDetector(
                relative_loss_tolerance=1e-9, consensus_tolerance=1e-7
            ),
        )
        np.testing.assert_allclose(trainer.mean_params(), exact, atol=1e-3)

    def test_snap_converges_close_to_optimum(self, ridge_setup):
        model, shards, topo, exact = ridge_setup
        trainer = SNAPTrainer(model, shards, topo, config=SNAPConfig(seed=0))
        trainer.run(
            max_rounds=1500,
            detector=ConvergenceDetector(
                relative_loss_tolerance=1e-9, consensus_tolerance=1e-7
            ),
        )
        np.testing.assert_allclose(trainer.mean_params(), exact, atol=2e-2)

    def test_result_records_every_round(self, ridge_setup):
        model, shards, topo, _ = ridge_setup
        trainer = SNAPTrainer(model, shards, topo, config=SNAPConfig(seed=0))
        result = trainer.run(max_rounds=10, stop_on_convergence=False)
        assert result.n_rounds == 10
        assert [r.round_index for r in result.rounds] == list(range(1, 11))
        assert all(r.bytes_sent >= 0 for r in result.rounds)

    def test_stops_on_convergence(self, ridge_setup):
        model, shards, topo, _ = ridge_setup
        trainer = SNAPTrainer(model, shards, topo, config=SNAPConfig(compressor="changed_only", seed=0))
        result = trainer.run(max_rounds=1000)
        assert result.converged_at is not None
        assert result.n_rounds == result.converged_at

    def test_scheme_names(self, ridge_setup):
        model, shards, topo, _ = ridge_setup
        for config, name in [
            (SNAPConfig(seed=0), "snap"),
            (SNAPConfig(compressor="changed_only", seed=0), "snap0"),
            (SNAPConfig(compressor="dense", seed=0), "sno"),
        ]:
            trainer = SNAPTrainer(model, shards, topo, config=config)
            assert trainer.run(max_rounds=3, stop_on_convergence=False).scheme == name

    @pytest.mark.parametrize("engine", ["reference", "vectorized", "semisync"])
    def test_finished_run_is_freed_without_the_cyclic_collector(
        self, ridge_setup, engine
    ):
        """The engine's back-reference is weak: dropping the trainer frees the
        run (prepared shards, edge state) at once, not at the next gen-2 GC."""
        model, shards, topo, _ = ridge_setup
        trainer = SNAPTrainer(
            model, shards, topo, config=SNAPConfig(seed=0, engine=engine)
        )
        trainer.run(max_rounds=2, stop_on_convergence=False)
        alive = weakref.ref(trainer)
        gc.disable()
        try:
            del trainer
            assert alive() is None
        finally:
            gc.enable()

    def test_bad_max_rounds_rejected(self, ridge_setup):
        model, shards, topo, _ = ridge_setup
        trainer = SNAPTrainer(model, shards, topo)
        with pytest.raises(ConfigurationError):
            trainer.run(max_rounds=0)


class TestCommunicationAccounting:
    def test_sno_sends_everything_every_round(self, ridge_setup):
        model, shards, topo, _ = ridge_setup
        trainer = SNAPTrainer(model, shards, topo, config=SNAPConfig(compressor="dense", seed=0))
        result = trainer.run(max_rounds=5, stop_on_convergence=False)
        # 2 * n_edges directed flows per round, each the dense frame size.
        from repro.network.frames import frame_size_bytes, FrameFormat

        dense_bytes = frame_size_bytes(
            model.n_params, 0, FrameFormat.UNCHANGED_INDEX
        )
        expected = 2 * topo.n_edges * dense_bytes
        assert all(r.bytes_sent == expected for r in result.rounds)

    def test_snap_sends_no_more_than_snap0_and_sno(self, ridge_setup):
        model, shards, topo, _ = ridge_setup
        results = {}
        for name, config in [
            ("snap", SNAPConfig(seed=0)),
            ("snap0", SNAPConfig(compressor="changed_only", seed=0)),
            ("sno", SNAPConfig(compressor="dense", seed=0)),
        ]:
            trainer = SNAPTrainer(model, shards, topo, config=config)
            results[name] = trainer.run(
                max_rounds=60, stop_on_convergence=False
            ).total_bytes
        assert results["snap"] <= results["snap0"] <= results["sno"]

    def test_snap_traffic_decays(self, ridge_setup):
        """Fig. 4(b)'s headline shape: SNAP's per-round bytes shrink."""
        model, shards, topo, _ = ridge_setup
        trainer = SNAPTrainer(model, shards, topo, config=SNAPConfig(seed=0))
        result = trainer.run(max_rounds=200, stop_on_convergence=False)
        trace = result.bytes_trace()
        assert trace[-1] < trace[0] / 2

    def test_cost_equals_bytes_for_one_hop_traffic(self, ridge_setup):
        model, shards, topo, _ = ridge_setup
        trainer = SNAPTrainer(model, shards, topo, config=SNAPConfig(seed=0))
        result = trainer.run(max_rounds=5, stop_on_convergence=False)
        assert result.total_cost == result.total_bytes


class TestEvaluation:
    def test_accuracy_evaluated_on_schedule(self, rng):
        # classification setup so accuracy makes sense
        from repro.models.svm import LinearSVM

        n, p = 200, 4
        X = rng.normal(size=(n, p))
        y = np.where(X @ rng.normal(size=p) > 0, 1.0, -1.0)
        dataset = Dataset(X, y)
        shards = iid_partition(dataset, 3, seed=0)
        test_set = Dataset(X[:50], y[:50])
        model = LinearSVM(p, regularization=1e-2)
        trainer = SNAPTrainer(
            model, shards, complete_topology(3), config=SNAPConfig(seed=0)
        )
        result = trainer.run(
            max_rounds=9, test_set=test_set, eval_every=3, stop_on_convergence=False
        )
        evaluated = [r.round_index for r in result.rounds if r.accuracy is not None]
        assert evaluated == [3, 6, 9]
        assert result.final_accuracy is not None


class TestVectorizedRoundCallCount:
    """The one vectorized round is array-at-a-time: a count, not a clock."""

    @staticmethod
    def _python_calls_per_round(
        compressor: str,
        n_nodes: int,
        retain_flow_records: bool = False,
        model: str = "logistic",
        engine: str = "vectorized",
    ) -> float:
        """Python-level function calls one ``engine`` round makes at ``n_nodes``.

        Counted with ``sys.setprofile`` ("call" events only: C functions such
        as numpy kernels are not Python calls), as the slope between a
        3-round and a 13-round ``run()`` so the per-run ``begin_run`` /
        ``sync_to_servers`` cancel. The same on every machine.
        """
        from repro.models.logistic import LogisticRegression
        from repro.models.mlp import MLPClassifier
        from repro.topology.generators import random_regular_topology

        rng = np.random.default_rng(42)
        shards = []
        for _ in range(n_nodes):
            X = rng.normal(size=(30, 10))
            if model == "mlp":
                y = rng.integers(0, 3, 30).astype(float)
            else:
                y = (X @ rng.normal(size=10) > 0).astype(float)
            shards.append(Dataset(X, y))
        trainer = SNAPTrainer(
            MLPClassifier((10, 16, 3)) if model == "mlp" else LogisticRegression(10),
            shards,
            random_regular_topology(n_nodes, degree=4, seed=3),
            SNAPConfig(
                engine=engine,
                compressor=compressor,
                seed=7,
                optimize_weights=False,
                retain_flow_records=retain_flow_records,
            ),
        )

        def count(rounds: int) -> int:
            calls = 0

            def on_event(frame, event, arg):
                nonlocal calls
                if event == "call":
                    calls += 1

            sys.setprofile(on_event)
            try:
                trainer.run(max_rounds=rounds, stop_on_convergence=False)
            finally:
                sys.setprofile(None)
            return calls

        trainer.run(max_rounds=1, stop_on_convergence=False)  # warm-up
        return (count(13) - count(3)) / 10

    @pytest.mark.parametrize(
        "compressor",
        ["ape", "changed_only", "dense", "topk:k=4", "ef:topk:k=4", "uniform:bits=4"],
    )
    def test_no_per_node_or_per_edge_python_calls(self, compressor):
        """A reintroduced per-node or per-edge loop in ``communicate`` or
        ``step_round`` fails here for every ``batched`` compressor: a round is
        ~200 Python calls at any N, where one call per node would add 192 and
        one per directed edge 768 between N=64 and N=256."""
        small = self._python_calls_per_round(compressor, 64)
        large = self._python_calls_per_round(compressor, 256)
        assert large <= 1.1 * small, (
            f"Python calls per vectorized {compressor} round grew with N: "
            f"{small:.0f} at N=64 -> {large:.0f} at N=256; something walks "
            "the nodes or edges in Python"
        )

    @pytest.mark.parametrize("compressor", ["ape", "topk:k=4"])
    def test_retaining_the_flow_ledger_adds_no_per_edge_python_calls(
        self, compressor
    ):
        """With ``retain_flow_records=True`` (the default) a round keeps its
        ledger batch as columns: a ``FlowRecord`` per delivered edge built in
        ``record_many`` would add two calls per directed edge, 1 536 between
        N=64 and N=256."""
        small, large = (
            self._python_calls_per_round(compressor, n, retain_flow_records=True)
            for n in (64, 256)
        )
        assert large <= 1.1 * small, (
            f"Python calls per vectorized {compressor} round with the flow "
            f"ledger retained grew with N: {small:.0f} at N=64 -> {large:.0f} "
            "at N=256; record_many builds something per flow"
        )


    def test_grouped_mlp_kernels_stay_off_the_per_node_fallback(self):
        """The MLP's grouped forward / backward keep its vectorized round
        near array-at-a-time: the one per-node Python step left is the
        loss's ``np.mean`` chain (6 calls), where the per-node fallback the
        grouped kernels replaced costs 39 calls per node."""
        small, large = (
            self._python_calls_per_round("ape", n, model="mlp") for n in (64, 256)
        )
        per_node = (large - small) / (256 - 64)
        assert per_node <= 8, (
            f"Python calls per vectorized MLP round grew by {per_node:.1f} per "
            f"node ({small:.0f} at N=64 -> {large:.0f} at N=256); the MLP "
            "batch path fell back to per-node model calls"
        )

    def test_vectorized_round_makes_5x_fewer_python_calls_than_reference(self):
        """The fast path stays out of reference-speed territory: at N=64 the
        per-edge reference round makes over 5x the Python calls of the
        vectorized one (the wall-clock bar this count replaced was 5x)."""
        reference, vectorized = (
            self._python_calls_per_round("ape", 64, engine=engine)
            for engine in ("reference", "vectorized")
        )
        assert reference >= 5 * vectorized, (
            f"vectorized round makes {vectorized:.0f} Python calls at N=64, "
            f"reference {reference:.0f}: less than 5x apart"
        )


class TestVectorizedStateTransferLineCount:
    """Ingest and write-back move engine state per node: a count, not a clock."""

    @staticmethod
    def _lines(degree: int) -> int:
        """Python lines ``begin_run`` + ``sync_to_servers`` execute at N=64.

        Counted with ``sys.settrace`` "line" events, with the server list
        built, after a 3-round run of the dense scheme (no stage restarts,
        no faults: every node takes the same branches at either degree).
        C-level loops — ``map``, ``zip``, ``dict.update``, numpy — execute
        no Python lines.
        """
        from repro.topology.generators import random_regular_topology

        rng = np.random.default_rng(42)
        shards = []
        for _ in range(64):
            X = rng.normal(size=(30, 10))
            shards.append(Dataset(X, (X @ rng.normal(size=10) > 0).astype(float)))
        trainer = SNAPTrainer(
            LogisticRegression(10),
            shards,
            random_regular_topology(64, degree=degree, seed=3),
            SNAPConfig(
                engine="vectorized", compressor="dense", seed=7, optimize_weights=False
            ),
        )
        trainer.run(max_rounds=3, stop_on_convergence=False)
        # Read the list: with no server built both calls return at once.
        assert len(trainer.servers) == 64
        engine = trainer.engine
        lines = 0

        def on_event(frame, event, arg):
            nonlocal lines
            if event == "line":
                lines += 1
            return on_event

        previous = sys.gettrace()
        sys.settrace(on_event)
        try:
            engine.begin_run()
            engine.sync_to_servers()
        finally:
            sys.settrace(previous)
        return lines

    def test_ingest_and_write_back_do_not_walk_the_edges(self):
        """Doubling the degree at N=64 doubles the directed edges (256 ->
        512); a per-edge loop in ``begin_run`` or ``sync_to_servers`` adds
        several lines per edge, a per-node one nothing."""
        four, eight = self._lines(4), self._lines(8)
        assert eight <= four, (
            f"begin_run + sync_to_servers ran {four} Python lines at degree 4 "
            f"and {eight} at degree 8 (N=64): something walks the edges"
        )


class TestPerEdgeStateLineCount:
    """The per-edge engines gather ``state()`` per node: a count, not a clock.

    It is the strict monitor's per-round read and the digest's on those
    engines, and checkpoints write it.
    """

    @staticmethod
    def _lines(engine: str, degree: int) -> int:
        """Python lines ``engine.state()`` executes at N=64 after 3 dense rounds."""
        from repro.topology.generators import random_regular_topology

        rng = np.random.default_rng(42)
        shards = []
        for _ in range(64):
            X = rng.normal(size=(30, 10))
            shards.append(Dataset(X, (X @ rng.normal(size=10) > 0).astype(float)))
        trainer = SNAPTrainer(
            LogisticRegression(10),
            shards,
            random_regular_topology(64, degree=degree, seed=3),
            SNAPConfig(
                engine=engine, compressor="dense", seed=7, optimize_weights=False
            ),
        )
        trainer.run(max_rounds=3, stop_on_convergence=False)
        assert len(trainer._edge_states) == 64 * degree
        lines = 0

        def on_event(frame, event, arg):
            nonlocal lines
            if event == "line":
                lines += 1
            return on_event

        previous = sys.gettrace()
        sys.settrace(on_event)
        try:
            trainer.engine.state()
        finally:
            sys.settrace(previous)
        return lines

    @pytest.mark.parametrize("engine", ["reference", "semisync"])
    def test_state_does_not_walk_the_edges(self, engine):
        """Doubling the degree at N=64 doubles the directed edges (256 ->
        512); a per-edge loop adds a line or more per edge."""
        four, eight = self._lines(engine, 4), self._lines(engine, 8)
        assert eight <= four, (
            f"{engine} state() ran {four} Python lines at degree 4 and "
            f"{eight} at degree 8 (N=64): something walks the edges"
        )


class TestBadShardNamedAtConstruction:
    """A shard no step size can be bounded on is refused by node, before any SVD."""

    @pytest.mark.parametrize("model_class", [LogisticRegression, LinearSVM])
    @pytest.mark.parametrize("n_nodes", [4, 12])
    @pytest.mark.parametrize("bad", ["empty", "nan"])
    def test_names_the_node(self, rng, monkeypatch, model_class, n_nodes, bad):
        shards = []
        for _ in range(n_nodes):
            X = rng.normal(size=(10, 3))
            shards.append(Dataset(X, (X[:, 0] > 0).astype(float)))
        if bad == "empty":
            shards[2] = Dataset(np.empty((0, 3)), np.empty(0))
        else:
            X = shards[2].X.copy()
            X[4, 1] = np.nan
            shards[2] = Dataset(X, shards[2].y)

        def no_svd(*args, **kwargs):
            raise AssertionError("a shard was decomposed before validation")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        reason = "is empty" if bad == "empty" else "holds a non-finite value"
        with pytest.raises(DataError, match=rf"^node 2: {reason}") as error:
            SNAPTrainer(
                model_class(3),
                shards,
                ring_topology(n_nodes),
                SNAPConfig(optimize_weights=False),
            )
        assert error.value.shard == 2

    def test_names_the_drift_epoch(self, rng):
        class PoisonsNodeOneAtEpochTwo(DriftSchedule):
            def shard(self, node, base, epoch):
                if (node, epoch) != (1, 2):
                    return base
                X = base.X.copy()
                X[0, 0] = np.nan
                return Dataset(X, base.y)

        shards = []
        for _ in range(4):
            X = rng.normal(size=(10, 3))
            shards.append(Dataset(X, (X[:, 0] > 0).astype(float)))
        with pytest.raises(
            DataError, match=r"^node 1 at drift epoch 2: holds a non-finite value$"
        ) as error:
            SNAPTrainer(
                LogisticRegression(3),
                shards,
                ring_topology(4),
                SNAPConfig(
                    optimize_weights=False,
                    max_rounds=9,
                    drift=PoisonsNodeOneAtEpochTwo(period=3),
                ),
            )
        assert error.value.shard == 1


class TestSetUpLibraryCallCount:
    """Trainer set-up makes O(1) numpy / scipy wrapper calls in N: a count, not a clock."""

    #: (module prefix, function names) of the per-node loops set-up must not
    #: grow back: an SVD per shard, set operations per label vector, a
    #: one-row scipy matrix per server, and the step-size screen's own
    #: factorizations (a Cholesky, QR or eigenvalue call per shard).
    WATCHED = (
        ("numpy.linalg", {"svd", "norm", "cholesky", "qr", "eigvalsh"}),
        ("numpy.lib", {"unique", "isin"}),
        ("scipy.sparse", {"getrow"}),
    )

    @classmethod
    def _library_calls_during_construction(cls, n_nodes: int) -> dict:
        from repro.models.logistic import LogisticRegression
        from repro.topology.generators import random_regular_topology

        rng = np.random.default_rng(42)
        shards = []
        for _ in range(n_nodes):
            X = rng.normal(size=(30, 10))
            shards.append(Dataset(X, (X @ rng.normal(size=10) > 0).astype(float)))
        topology = random_regular_topology(n_nodes, degree=4, seed=3)
        config = SNAPConfig(
            engine="vectorized",
            sparse_weights=True,
            seed=7,
            optimize_weights=False,
            retain_flow_records=False,
        )
        calls: dict = {}

        def on_event(frame, event, arg):
            if event != "call":
                return
            module = frame.f_globals.get("__name__", "")
            name = frame.f_code.co_name
            for prefix, names in cls.WATCHED:
                if name in names and module.startswith(prefix):
                    calls[f"{prefix}:{name}"] = calls.get(f"{prefix}:{name}", 0) + 1
            if name == "svd" and module.startswith("numpy.linalg"):
                # Matrices handed to gesdd: a stack's leading dimension.
                a = frame.f_locals["a"]
                matrices = a.shape[0] if a.ndim == 3 else 1
                calls["gesdd matrices"] = calls.get("gesdd matrices", 0) + matrices

        sys.setprofile(on_event)
        try:
            SNAPTrainer(LogisticRegression(10), shards, topology, config)
        finally:
            sys.setprofile(None)
        return calls

    def test_no_per_node_linalg_setops_or_getrow_calls(self):
        small = self._library_calls_during_construction(32)
        large = self._library_calls_during_construction(128)
        # The hook sees the stacked SVD, so an empty dict is not a pass.
        assert small.get("numpy.linalg:svd", 0) >= 1
        assert large == small, (
            f"set-up library calls grew with N: {small} at N=32 -> {large} at "
            "N=128; something decomposes, validates or slices per node"
        )
        # The step size decomposes its screen's candidates, not every shard.
        assert small["gesdd matrices"] <= 2 * _CANDIDATES


class TestOnePerEdgeSender:
    """Every per-edge runtime sends through ``SNAPTrainer.send_round``."""

    ROUNDS = 6
    #: Server 2 is down for rounds 2-4: the skip path and ``offline``.
    OUTAGE = {2: [(2, 2), (3, 3), (4, 4)]}

    @pytest.fixture
    def send_round_calls(self, monkeypatch):
        """``(node, round)`` of every ``send_round`` call, in call order."""
        calls = []
        original = SNAPTrainer.send_round

        def counting(self, server, round_index, *args, **kwargs):
            calls.append((server.node_id, round_index))
            return original(self, server, round_index, *args, **kwargs)

        monkeypatch.setattr(SNAPTrainer, "send_round", counting)
        return calls

    def _expected(self, n_nodes):
        return sorted(
            (node, r)
            for r in range(1, self.ROUNDS + 1)
            for node in range(n_nodes)
            if not any(
                start <= r <= end for start, end in self.OUTAGE.get(node, ())
            )
        )

    @pytest.mark.parametrize("engine", ["reference", "semisync"])
    def test_engine_calls_it_once_per_active_server_per_round(
        self, ridge_setup, send_round_calls, engine
    ):
        """A runtime that regrows its own sender loop fails here: a count,
        not a clock."""
        from repro.faults import CrashRestartSchedule, FaultPlan

        model, shards, topo, _ = ridge_setup
        trainer = SNAPTrainer(
            model,
            shards,
            topo,
            config=SNAPConfig(engine=engine, seed=0, optimize_weights=False),
            fault_plan=FaultPlan(nodes=CrashRestartSchedule(self.OUTAGE)),
        )
        result = trainer.run(max_rounds=self.ROUNDS, stop_on_convergence=False)
        assert sorted(send_round_calls) == self._expected(topo.n_nodes)
        assert result.total_bytes > 0

    def test_testbed_node_calls_it_once_per_active_server_per_round(
        self, ridge_setup, send_round_calls
    ):
        from repro.faults import CrashRestartSchedule, FaultPlan
        from repro.runtime import TestbedRuntime

        model, shards, topo, _ = ridge_setup
        testbed = TestbedRuntime(
            model,
            shards,
            topo,
            config=SNAPConfig(seed=0, optimize_weights=False),
            fault_plan=FaultPlan(nodes=CrashRestartSchedule(self.OUTAGE)),
        )
        result = testbed.run(self.ROUNDS)
        assert sorted(send_round_calls) == self._expected(topo.n_nodes)
        assert result.payload_bytes_total > 0


class TestDriftSwapsThePreparedShard:
    """A drift epoch boundary replaces each server's shard through ``swap_data``.

    The reference engine's servers evaluate through a shard prepared once
    (design matrix and labels validated and kept); a shard swapped behind
    that copy would keep training on the old epoch's data while the
    vectorized engine, which re-prepares in ``Engine.rebuild``, moved on.
    """

    ROUNDS = 7

    @staticmethod
    def _inputs():
        rng = np.random.default_rng(23)
        shards = []
        for _ in range(4):
            X = rng.normal(size=(40, 5))
            shards.append(Dataset(X, (X @ rng.normal(size=5) > 0).astype(float)))
        return shards, complete_topology(4)

    @pytest.mark.parametrize(
        "make_drift",
        [
            lambda: StreamingArrival(period=2, initial_fraction=0.3),
            lambda: LabelShiftDrift(period=3, seed=4),
        ],
        ids=["streaming", "label-shift"],
    )
    @pytest.mark.parametrize("engine", ["reference", "semisync"])
    def test_per_edge_digest_equals_vectorized(self, make_drift, engine):
        from repro.models.svm import LinearSVM
        from repro.testing import capture_run

        shards, topo = self._inputs()

        def digest(name):
            config = SNAPConfig(
                engine=name, drift=make_drift(), seed=0, optimize_weights=False
            )
            trainer = SNAPTrainer(LinearSVM(5), shards, topo, config)
            captured = capture_run(trainer, max_rounds=self.ROUNDS)
            assert trainer._drift_epoch > 0
            return captured

        vectorized = digest("vectorized")
        assert digest(engine) == vectorized, vectorized.diff(digest(engine))

    def test_no_evaluation_after_a_boundary_sees_the_old_design(self):
        from repro.models.base import add_bias_column
        from repro.models.svm import LinearSVM

        designs_seen = []

        class RecordingSVM(LinearSVM):
            def batch_losses(self, params_stack, prepared):
                designs_seen.extend(design for design, _ in prepared)
                return super().batch_losses(params_stack, prepared)

            def batch_gradients(self, params_stack, prepared):
                designs_seen.extend(design for design, _ in prepared)
                return super().batch_gradients(params_stack, prepared)

        shards, topo = self._inputs()
        drift = StreamingArrival(period=2, initial_fraction=0.3)
        trainer = SNAPTrainer(
            RecordingSVM(5),
            shards,
            topo,
            SNAPConfig(engine="reference", drift=drift, seed=0, optimize_weights=False),
        )
        checked_epochs = set()

        def on_round(record):
            # Everything evaluated since the last record belongs to this round:
            # one gradient and one loss per server, on this epoch's shard.
            # (Until the first boundary the servers hold the base shards.)
            epoch = drift.epoch(record.round_index)
            expected = [
                add_bias_column(
                    (drift.shard(node, shard, epoch) if epoch else shard).X
                )
                for node, shard in enumerate(shards)
            ]
            assert len(designs_seen) == 2 * len(shards)
            for design in designs_seen:
                assert any(
                    design.shape == want.shape and np.array_equal(design, want)
                    for want in expected
                ), f"round {record.round_index} evaluated on another epoch's data"
            designs_seen.clear()
            checked_epochs.add(epoch)

        trainer.run(
            max_rounds=self.ROUNDS, stop_on_convergence=False, on_round=on_round
        )
        assert checked_epochs == {0, 1, 2, 3}  # three boundaries crossed


class TestNoPerMessageFixedCosts:
    """Rounds >= 2 of a per-edge run make no per-message ledger or set-op calls.

    Per-message fixed costs that were once paid — ``np.unique`` /
    ``searchsorted`` / ``union1d`` on a ledger batch, a :class:`FlowRecord`
    or a ledger write per frame, ``np.unique`` + ``np.isin`` + the bias column
    (``add_bias_column``) per loss / gradient on an immutable shard — cannot
    come back unnoticed: the first round may make set-operation calls (every
    server prepares its shard once), later rounds must make none, and every
    round charges its frames with one ``record_many`` per stage, a batch
    sorted enough to skip ``np.unique``. Nor may the per-edge work of a
    round (``send_round``, ``EdgeServer.step`` / ``local_loss`` /
    ``local_gradient`` and all they call) go back through numpy's Python
    wrapper of ``mean`` (``numpy._core._methods._mean``, docs/PERFORMANCE.md
    identity 17), or build a frame through a dataclass-generated
    ``ParameterUpdate.__init__`` or a ``__post_init__``: from round 2 on
    there are none. Counted with ``sys.setprofile`` on every thread as the
    difference between a short and a long run, and per round through a
    round observer: a count, not a clock. Nor may a sender build (or, on
    the testbed, encode) one message per edge when its neighbors hold the
    same reference, and no receiver may write into the message they share.
    """

    SHORT, LONG = 2, 7

    @staticmethod
    def _svm_inputs():
        from repro.models.svm import LinearSVM

        rng = np.random.default_rng(11)
        shards = []
        for _ in range(5):
            X = rng.normal(size=(24, 6))
            shards.append(Dataset(X, (X @ rng.normal(size=6) > 0).astype(float)))
        return LinearSVM(6), shards, random_topology(5, 2.5, seed=4)

    @staticmethod
    def _profile(run, trainer) -> tuple[list[str], Counter, Counter]:
        """The forbidden Python calls ``run()`` makes — set operations,
        ``add_bias_column`` and ``FlowRecord`` constructions, by name — its
        ledger writes per ``(round, stage)``, and its ``_mean`` and
        ``ParameterUpdate`` constructor calls per ``(round, kind)``."""
        import threading

        from repro.core.server import EdgeServer
        from repro.network import messages
        from repro.network.messages import ParameterUpdate

        per_edge = {
            SNAPTrainer.send_round.__code__,
            EdgeServer.step.__code__,
            EdgeServer.local_loss.__code__,
            EdgeServer.local_gradient.__code__,
        }
        tracker = trainer.tracker
        seen, writes, calls = [], Counter(), Counter()
        records = []
        record_many = tracker.record_many

        def counted_record_many(round_index, *args, stage=None, **kwargs):
            writes[round_index, stage] += 1
            return record_many(round_index, *args, stage=stage, **kwargs)

        def on_event(frame, event, arg):
            if event != "call":
                return
            code = frame.f_code
            if "arraysetops" in code.co_filename or code.co_name == "add_bias_column":
                seen.append(code.co_name)
            elif code.co_name == "__init__" and isinstance(
                frame.f_locals.get("self"), FlowRecord
            ):
                seen.append("FlowRecord")
            elif code.co_name in ("__init__", "__post_init__") and isinstance(
                frame.f_locals.get("self"), ParameterUpdate
            ):
                if code.co_filename == messages.__file__ and code.co_name == "__init__":
                    kind = "ParameterUpdate.__init__"
                else:
                    kind = f"dataclass ParameterUpdate.{code.co_name}"
                calls[len(records) + 1, kind] += 1
            elif code.co_name == "_mean" and code.co_filename.endswith("_methods.py"):
                caller = frame.f_back
                while caller is not None and caller.f_code not in per_edge:
                    caller = caller.f_back
                kind = "_mean" if caller is None else "per-edge _mean"
                calls[len(records) + 1, kind] += 1

        tracker.record_many = counted_record_many
        trainer.add_round_observer(records.append)
        threading.setprofile(on_event)
        sys.setprofile(on_event)
        try:
            # The hook does see ``_mean``: one call, in round 1.
            np.mean(np.zeros(2))
            run()
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
        return sorted(seen), writes, calls

    def _assert_later_rounds_add_none(self, run_for):
        short, _, _ = self._profile(*run_for(self.SHORT))
        long, writes, calls = self._profile(*run_for(self.LONG))
        # The hook does see them: each server's one shard preparation.
        assert "unique" in short and "add_bias_column" in short
        assert long == short, (
            f"rounds {self.SHORT + 1}..{self.LONG} made per-message calls the "
            f"first {self.SHORT} rounds did not: "
            f"{dict(Counter(long) - Counter(short))}"
        )
        assert "FlowRecord" not in long
        assert sorted({round_index for round_index, _ in writes}) == list(
            range(1, self.LONG + 1)
        )
        assert max(writes.values()) == 1, f"ledger writes per round: {writes}"
        forbidden = {
            key: count
            for key, count in calls.items()
            if 2 <= key[0] <= self.LONG
            and key[1] in (
                "per-edge _mean",
                "dataclass ParameterUpdate.__init__",
                "dataclass ParameterUpdate.__post_init__",
            )
        }
        assert not forbidden, f"per-edge numpy wrapper / dataclass calls: {forbidden}"
        # ... and sees both kinds: the sentinel above, and every round's frames.
        assert calls[1, "_mean"] >= 1
        for round_index in range(2, self.LONG + 1):
            assert calls[round_index, "ParameterUpdate.__init__"] > 0

    @pytest.mark.parametrize("engine", ["reference", "semisync"])
    def test_simulated_engines(self, engine):
        model, shards, topo = self._svm_inputs()

        def run_for(rounds):
            trainer = SNAPTrainer(
                model,
                shards,
                topo,
                config=SNAPConfig(engine=engine, seed=0, optimize_weights=False),
            )
            def run():
                trainer.run(max_rounds=rounds, stop_on_convergence=False)

            return run, trainer

        self._assert_later_rounds_add_none(run_for)

    def test_testbed(self):
        from repro.runtime import TestbedRuntime

        model, shards, topo = self._svm_inputs()

        def run_for(rounds):
            testbed = TestbedRuntime(
                model, shards, topo, config=SNAPConfig(seed=0, optimize_weights=False)
            )
            # The benchmark's tracker observer: per-round batches stay cheap too.
            testbed.trainer.tracker.add_observer(lambda *flows: None)
            return lambda: testbed.run(rounds), testbed.trainer

        self._assert_later_rounds_add_none(run_for)

    def _per_edge_run(self, engine: str, compressor: str = "ape"):
        """``(run, trainer)`` of a fault-free LONG-round run on ``engine``
        (``"testbed"`` runs the reference configuration over sockets)."""
        model, shards, topo = self._svm_inputs()
        config = SNAPConfig(
            engine="reference" if engine == "testbed" else engine,
            compressor=compressor,
            seed=0,
            optimize_weights=False,
        )
        if engine == "testbed":
            from repro.runtime import TestbedRuntime

            testbed = TestbedRuntime(model, shards, topo, config=config)
            return lambda: testbed.run(self.LONG), testbed.trainer
        trainer = SNAPTrainer(model, shards, topo, config=config)
        return (
            lambda: trainer.run(max_rounds=self.LONG, stop_on_convergence=False),
            trainer,
        )

    @pytest.mark.parametrize("engine", ["reference", "semisync", "testbed"])
    def test_one_message_per_sender_per_round(self, engine):
        """Fault-free, every neighbor of a sender holds the same reference:
        from round 2 on, ``compress`` and ``payload_to_update`` run once per
        sender per round, and on the testbed so does ``encode_update``."""
        import threading

        from repro.compression import APECompressor, payload_to_update
        from repro.network.codec import encode_update

        run, trainer = self._per_edge_run(engine)
        counted = {
            APECompressor.compress.__code__: "compress",
            payload_to_update.__code__: "payload_to_update",
            encode_update.__code__: "encode_update",
        }
        records, calls = [], Counter()

        def on_event(frame, event, arg):
            if event == "call" and frame.f_code in counted:
                calls[len(records) + 1, counted[frame.f_code]] += 1

        trainer.add_round_observer(records.append)
        threading.setprofile(on_event)
        sys.setprofile(on_event)
        try:
            run()
        finally:
            sys.setprofile(None)
            threading.setprofile(None)

        n_nodes, n_edges = trainer.topology.n_nodes, 2 * trainer.topology.n_edges
        assert n_edges > n_nodes
        names = ["compress", "payload_to_update"]
        if engine == "testbed":
            names.append("encode_update")
        for round_index in range(2, self.LONG + 1):
            for name in names:
                assert calls[round_index, name] == n_nodes, (
                    f"round {round_index}: {calls[round_index, name]} {name} "
                    f"calls for {n_nodes} senders and {n_edges} edges"
                )
        if engine != "testbed":
            assert not any(name == "encode_update" for _, name in calls)

    @pytest.mark.parametrize("compressor", ["ape", "uniform:bits=4"])
    @pytest.mark.parametrize("engine", ["reference", "semisync", "testbed"])
    def test_no_receiver_writes_into_a_frame(self, monkeypatch, engine, compressor):
        """Every frame's arrays are read-only — the sender's, which several
        receivers share, and the testbed's decoded ones: the run raises
        nothing and ends where an unguarded run ends."""
        import repro.core.trainer as trainer_module
        import repro.runtime.transport as transport_module

        def read_only(message):
            arrays = [message.indices, message.values]
            if message.quantization is not None:
                arrays.append(message.quantization.levels)
            for array in arrays:
                array.flags.writeable = False
            return message

        def frozen(build):
            return lambda *args, **kwargs: read_only(build(*args, **kwargs))

        run, trainer = self._per_edge_run(engine, compressor)
        run()
        unguarded = trainer.engine.state().params.copy()

        monkeypatch.setattr(
            trainer_module, "payload_to_update", frozen(trainer_module.payload_to_update)
        )
        monkeypatch.setattr(
            transport_module, "decode_update", frozen(transport_module.decode_update)
        )
        run, trainer = self._per_edge_run(engine, compressor)
        run()
        guarded = trainer.engine.state().params
        assert guarded.tobytes() == unguarded.tobytes()


class TestSendRound:
    """``send_round`` against a scripted wire: link state follows
    ``transmit``'s answer; the Algorithm 1 stage end is returned, for the
    engine to restart."""

    def _trainer(self, compressor, **config):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(120, 6))
        dataset = Dataset(X, X @ rng.normal(size=6))
        trainer = SNAPTrainer(
            RidgeRegression(6, regularization=0.1),
            iid_partition(dataset, 4, seed=1),
            complete_topology(4),
            config=SNAPConfig(
                compressor=compressor, seed=0, optimize_weights=False, **config
            ),
        )
        server = trainer.servers[0]
        # Far from what any neighbor holds: every scheme has something to send.
        server.params = server.params + rng.normal(size=server.params.size)
        return trainer, server

    def _send(self, trainer, server, accept, down=frozenset()):
        sent, offline = [], []

        def transmit(source, neighbor, message, stage):
            assert source == server.node_id
            assert stage == trainer.compressors[source].name
            sent.append((neighbor, message))
            return neighbor in accept

        trainer.send_round(server, 1, down, transmit, offline.append)
        return sent, offline

    @pytest.mark.parametrize("compressor", ["ape", "topk:k=2"])
    def test_link_state_advances_only_on_delivery(self, compressor):
        trainer, server = self._trainer(compressor)
        before = {j: sent.copy() for j, sent in server.last_sent.items()}
        sent, offline = self._send(trainer, server, accept={1}, down=frozenset({3}))

        assert [neighbor for neighbor, _ in sent] == [1, 2]
        assert all(message.n_sent > 0 for _, message in sent)
        delivered, dropped = sent[0][1], sent[1][1]
        assert delivered.round_index == 1 and delivered.sender == 0
        np.testing.assert_array_equal(
            server.last_sent[1], delivered.apply_to(before[1])
        )
        assert not np.array_equal(server.last_sent[1], before[1])
        np.testing.assert_array_equal(server.last_sent[2], before[2])
        assert dropped.n_sent > 0
        # The offline neighbor got its callback and nothing else: no update
        # was built, so not even its edge state exists.
        assert offline == [3]
        np.testing.assert_array_equal(server.last_sent[3], before[3])
        assert set(trainer._edge_states) == {(0, 1), (0, 2)}

    def test_stage_advance_restarts_the_recursion(self):
        """``send_round`` answers whether the stage ended and leaves EXTRA's
        memory alone; the engine's round then restarts the node."""
        for stage_iterations, restarted in ((1, True), (10, False)):
            trainer, server = self._trainer(
                "ape", ape_stage_iterations=stage_iterations
            )
            server.step()
            assert server.previous_params is not None
            answer = trainer.send_round(server, 1, frozenset(), lambda *_: True)
            assert answer is restarted
            assert server.previous_params is not None
            assert trainer._schedules[0].stage == int(restarted)

            trainer, _ = self._trainer("ape", ape_stage_iterations=stage_iterations)
            trainer.engine.step_round(1, frozenset())
            trainer.engine.communicate(1, frozenset())
            for server in trainer.servers:
                assert (server.previous_params is None) is restarted
                assert (server.previous_views == {}) is restarted

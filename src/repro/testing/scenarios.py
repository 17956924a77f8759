"""Seeded scenario generation for differential testing.

A :class:`Scenario` is a fully self-contained description of one training
run — topology, model, data shards, compression scheme, straggler strategy,
fault plan, round budget — every field derived deterministically from
``(master_seed, index)``. The same pair always rebuilds the identical
scenario on any machine, so a failing differential case is reproduced from
two integers (see ``docs/TESTING.md``).

:class:`ScenarioGen` samples scenarios across the whole configuration
lattice the engines must agree on:

* topology: ring of 4–8 servers plus 0–3 random chords (always connected);
* model: logistic regression or linear SVM on synthetic shards;
* compression: the three paper presets (``ape`` / ``changed_only`` /
  ``dense``) plus top-k, random-k, uniform quantization, and TernGrad;
* stragglers: the paper's stale rule or the reweight-to-self ablation;
* faults: clean, or a Gilbert–Elliott + Markov-node + corruption plan;
* weights: Metropolis (fast default) or the Section IV-B optimizer;
* adaptive topology: optimizer-backed scenarios may arm the online
  pruning/re-optimization controller with a drawn period and threshold, so
  mid-run topology swaps are part of the engine-equivalence lattice.

``Scenario.build_trainer`` always constructs *fresh* objects — fault models
and per-edge RNG streams hold state, so a trainer must never be reused
between the reference and vectorized runs of one comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.compression.spec import PRESET_KINDS
from repro.core.config import SNAPConfig, StragglerStrategy
from repro.core.trainer import SNAPTrainer
from repro.data.dataset import Dataset
from repro.data.drift import LabelShiftDrift, StreamingArrival
from repro.faults.byzantine import (
    ByzantinePlan,
    GaussianNoiseAttack,
    ScaledUpdateAttack,
    SignFlipAttack,
)
from repro.faults.models import (
    GilbertElliottLinkFailures,
    IndependentCorruption,
    MarkovNodeFailures,
)
from repro.faults.plan import FaultPlan
from repro.models.logistic import LogisticRegression
from repro.models.svm import LinearSVM
from repro.topology.generators import hierarchical_topology
from repro.topology.graph import Topology
from repro.weights.construction import tiered_metropolis_weights

#: The compression schemes a generated scenario may draw. ``None`` draws one
#: of the paper's presets; strings go through the spec grammar. Each bare
#: scheme is listed twice: the second copies held the retired error-feedback
#: wrapper, and keeping the menu's length keeps every scenario's draws.
_COMPRESSOR_MENU = (
    None,  # one of PRESET_KINDS
    "topk:k={k}",
    "randomk:k={k}",
    "uniform:bits={bits}",
    "terngrad",
    "topk:k={k}",
    "randomk:k={k}",
    "uniform:bits={bits}",
    "terngrad",
)


@dataclass(frozen=True)
class Scenario:
    """One deterministic training configuration for differential testing.

    Every field is a plain value (no live objects), so scenarios are
    hashable, printable, and trivially reconstructable from their seed.
    """

    master_seed: int
    index: int
    n_nodes: int
    chords: tuple  # extra (u, v) edges on top of the ring
    model_kind: str  # "logistic" | "svm"
    n_features: int
    n_samples: int
    data_seed: int
    compressor: str  # spec string
    straggler: str  # StragglerStrategy value
    optimize_weights: bool
    faulty: bool
    fault_seed: int
    link_p_fail: float
    link_p_recover: float
    node_p_fail: float
    node_p_recover: float
    corruption_rate: float
    max_rounds: int
    run_seed: int
    # Adaptive-topology axis (defaults keep pre-axis scenarios identical).
    adaptive: bool = False
    reoptimize_every: int = 5
    prune_threshold: float = 0.02
    # Workload axis (byzantine / drifting / hierarchical); defaults = plain
    # honest static-data ring scenarios, so pre-axis pins are untouched.
    byzantine: str | None = None  # "sign_flip" | "gaussian" | "scaled"
    byzantine_nodes: tuple = ()  # explicit attacker ids
    attack_scale: float = 1.0  # flip scale / noise sigma / blow-up factor
    byzantine_seed: int = 0  # gaussian attack noise stream
    robust: str | None = None  # robust-aggregation spec string
    drift_kind: str | None = None  # "label_shift" | "streaming"
    drift_period: int = 4
    drift_seed: int = 0
    hierarchy: tuple = ()  # branching per tier; () = ring + chords
    tier_damping: float = 0.5  # only used when hierarchy is set

    @classmethod
    def from_index(cls, master_seed: int, index: int) -> "Scenario":
        """Rebuild scenario ``index`` of the ``master_seed`` stream."""
        return ScenarioGen(master_seed).scenario(index)

    # -- construction ------------------------------------------------------------

    def topology(self) -> Topology:
        if self.hierarchy:
            return hierarchical_topology(list(self.hierarchy))
        ring = [(i, (i + 1) % self.n_nodes) for i in range(self.n_nodes)]
        return Topology(self.n_nodes, ring + [tuple(c) for c in self.chords])

    def model(self):
        if self.model_kind == "logistic":
            return LogisticRegression(self.n_features)
        if self.model_kind == "svm":
            return LinearSVM(self.n_features)
        raise ValueError(f"unknown model kind {self.model_kind!r}")

    def shards(self) -> list[Dataset]:
        """Synthetic linearly-separable-ish binary shards, one per server."""
        rng = np.random.default_rng([self.data_seed, self.n_nodes])
        out = []
        for _ in range(self.n_nodes):
            X = rng.normal(size=(self.n_samples, self.n_features))
            w = rng.normal(size=self.n_features)
            noise = 0.3 * rng.normal(size=self.n_samples)
            y = (X @ w + noise > 0).astype(float)
            out.append(Dataset(X, y))
        return out

    def byzantine_plan(self) -> ByzantinePlan | None:
        """A fresh byzantine plan for this scenario's attack axis."""
        if self.byzantine is None:
            return None
        if self.byzantine == "sign_flip":
            attack = SignFlipAttack(scale=self.attack_scale)
        elif self.byzantine == "gaussian":
            attack = GaussianNoiseAttack(
                sigma=self.attack_scale, seed=self.byzantine_seed
            )
        elif self.byzantine == "scaled":
            attack = ScaledUpdateAttack(factor=self.attack_scale)
        else:
            raise ValueError(f"unknown byzantine attack {self.byzantine!r}")
        return ByzantinePlan(attack, attackers=self.byzantine_nodes)

    def drift_schedule(self):
        """A fresh drift schedule for this scenario's data axis."""
        if self.drift_kind is None:
            return None
        if self.drift_kind == "label_shift":
            return LabelShiftDrift(self.drift_period, seed=self.drift_seed)
        if self.drift_kind == "streaming":
            return StreamingArrival(self.drift_period)
        raise ValueError(f"unknown drift kind {self.drift_kind!r}")

    def fault_plan(self) -> FaultPlan | None:
        """A fresh fault plan (fault models hold RNG state — never share)."""
        byzantine = self.byzantine_plan()
        if not self.faulty:
            if byzantine is None:
                return None
            return FaultPlan(byzantine=byzantine)
        return FaultPlan(
            links=GilbertElliottLinkFailures(
                self.link_p_fail, self.link_p_recover, seed=self.fault_seed
            ),
            nodes=MarkovNodeFailures(
                self.node_p_fail, self.node_p_recover, seed=self.fault_seed + 1
            ),
            corruption=(
                IndependentCorruption(
                    self.corruption_rate, seed=self.fault_seed + 2
                )
                if self.corruption_rate > 0
                else None
            ),
            byzantine=byzantine,
        )

    def config(self, engine: str, invariants: str = "off") -> SNAPConfig:
        return SNAPConfig(
            engine=engine,
            invariants=invariants,
            seed=self.run_seed,
            compressor=self.compressor,
            straggler_strategy=StragglerStrategy(self.straggler),
            optimize_weights=self.optimize_weights,
            weight_iterations=30 if self.optimize_weights else 150,
            max_rounds=self.max_rounds,
            adaptive_topology=self.adaptive,
            topology_reoptimize_every=self.reoptimize_every,
            topology_prune_threshold=self.prune_threshold,
            robust_aggregation=self.robust,
            drift=self.drift_schedule(),
        )

    def weight_matrix(self, topology: Topology):
        """The explicit W of a hierarchy scenario (cross-tier links damped
        by ``tier_damping``); ``None`` lets the config build it."""
        if not self.hierarchy:
            return None
        return tiered_metropolis_weights(topology, self.tier_damping)

    def build_trainer(self, engine: str, invariants: str = "off") -> SNAPTrainer:
        """A fresh trainer for this scenario on the requested engine."""
        topology = self.topology()
        return SNAPTrainer(
            self.model(),
            self.shards(),
            topology,
            self.config(engine, invariants),
            fault_plan=self.fault_plan(),
            weight_matrix=self.weight_matrix(topology),
        )

    def with_overrides(self, **changes) -> "Scenario":
        """A copy with some fields replaced (for shrinking / probing)."""
        return replace(self, **changes)

    def describe(self) -> str:
        """One-line label for logs and failure reports."""
        faults = "faulty" if self.faulty else "clean"
        weights = "optW" if self.optimize_weights else "metropolis"
        if self.adaptive:
            weights += f"+adapt/{self.reoptimize_every}"
        workload = ""
        if self.byzantine:
            workload += f" byz:{self.byzantine}x{len(self.byzantine_nodes)}"
        if self.robust:
            workload += f" robust:{self.robust}"
        if self.drift_kind:
            workload += f" drift:{self.drift_kind}/{self.drift_period}"
        if self.hierarchy:
            workload += f" hier:{'x'.join(map(str, self.hierarchy))}"
        shape = (
            f"hier{self.hierarchy}"
            if self.hierarchy
            else f"N={self.n_nodes}+{len(self.chords)}ch"
        )
        return (
            f"scenario[{self.master_seed}/{self.index}] "
            f"{shape} {self.model_kind} "
            f"d={self.n_features} {self.compressor} {self.straggler} {weights} "
            f"{faults} rounds={self.max_rounds}{workload}"
        )


#: First index at which the generator draws the workload axis (byzantine /
#: drifting / hierarchical). Earlier indices keep their historical field
#: values bit for bit, so the committed 25-scenario pins never move.
WORKLOAD_AXIS_START = 25


class ScenarioGen:
    """Deterministic scenario stream: ``scenario(i)`` is a pure function.

    Sampling uses ``np.random.default_rng([master_seed, index])`` — the
    SeedSequence spawn convention used throughout the repo — so scenario
    ``i`` never depends on whether scenarios ``0..i-1`` were generated.
    """

    def __init__(self, master_seed: int = 0):
        self.master_seed = int(master_seed)

    def scenario(self, index: int) -> Scenario:
        rng = np.random.default_rng([self.master_seed, int(index)])
        n_nodes = int(rng.integers(4, 9))

        # Chords over the ring: sample from the non-ring pairs.
        non_ring = [
            (u, v)
            for u in range(n_nodes)
            for v in range(u + 1, n_nodes)
            if not (v - u == 1 or (u == 0 and v == n_nodes - 1))
        ]
        n_chords = int(rng.integers(0, min(3, len(non_ring)) + 1))
        chord_idx = rng.choice(len(non_ring), size=n_chords, replace=False)
        chords = tuple(sorted(non_ring[int(i)] for i in chord_idx))

        model_kind = "svm" if rng.random() < 0.3 else "logistic"
        n_features = int(rng.integers(3, 9))
        n_samples = int(rng.integers(20, 46))

        compressor_template = _COMPRESSOR_MENU[
            int(rng.integers(0, len(_COMPRESSOR_MENU)))
        ]
        n_params = n_features + 1  # both model kinds fit an intercept
        if compressor_template is None:
            compressor = PRESET_KINDS[int(rng.integers(0, len(PRESET_KINDS)))]
        else:
            compressor = compressor_template.format(
                k=int(rng.integers(1, n_params + 1)),
                bits=int(rng.integers(2, 9)),
            )

        straggler = (
            StragglerStrategy.REWEIGHT
            if rng.random() < 0.3
            else StragglerStrategy.STALE
        )
        optimize_weights = rng.random() < 0.2
        faulty = rng.random() < 0.5

        scenario = Scenario(
            master_seed=self.master_seed,
            index=int(index),
            n_nodes=n_nodes,
            chords=chords,
            model_kind=model_kind,
            n_features=n_features,
            n_samples=n_samples,
            data_seed=int(rng.integers(0, 2**31)),
            compressor=compressor,
            straggler=straggler.value,
            optimize_weights=optimize_weights,
            faulty=faulty,
            fault_seed=int(rng.integers(0, 2**31)),
            link_p_fail=float(rng.uniform(0.05, 0.3)),
            link_p_recover=float(rng.uniform(0.3, 0.7)),
            node_p_fail=float(rng.uniform(0.02, 0.15)),
            node_p_recover=float(rng.uniform(0.4, 0.8)),
            corruption_rate=float(rng.uniform(0.0, 0.1)),
            max_rounds=int(rng.integers(6, 15)),
            run_seed=int(rng.integers(0, 2**31)),
            # Drawn after run_seed so every pre-axis field keeps its
            # historical value for a given (master_seed, index).
            adaptive=bool(optimize_weights and rng.random() < 0.35),
            reoptimize_every=int(rng.integers(3, 8)),
            prune_threshold=float(rng.uniform(0.01, 0.1)),
        )
        if index >= WORKLOAD_AXIS_START:
            scenario = self._draw_workload_axis(scenario, rng)
        return scenario

    def _draw_workload_axis(self, scenario: Scenario, rng) -> Scenario:
        """Widen a drawn scenario with one workload axis (or none).

        All draws happen *after* every historical field, from the same
        per-index stream, so the pre-axis fields above are untouched.
        """
        axis = int(rng.integers(0, 4))  # 0 = plain, 1 = byz, 2 = drift, 3 = hier
        if axis == 1:
            attack = ("sign_flip", "gaussian", "scaled")[int(rng.integers(0, 3))]
            n_attackers = 1 + int(rng.random() < 0.3)
            drawn = rng.choice(scenario.n_nodes, size=n_attackers, replace=False)
            attackers = tuple(sorted(int(a) for a in drawn))
            scale = {
                "sign_flip": 1.0,
                "gaussian": float(rng.uniform(0.1, 1.0)),
                "scaled": float(rng.uniform(2.0, 10.0)),
            }[attack]
            kind = ("trimmed_mean", "median", "krum")[int(rng.integers(0, 3))]
            # Tolerance sized to the worst honest neighborhood, so the
            # byzantine-bound invariant holds by construction.
            topology = scenario.topology()
            hostile = max(
                (
                    sum(1 for j in topology.neighbors(i) if j in attackers)
                    for i in range(topology.n_nodes)
                    if i not in attackers
                ),
                default=0,
            )
            return scenario.with_overrides(
                byzantine=attack,
                byzantine_nodes=attackers,
                attack_scale=scale,
                byzantine_seed=int(rng.integers(0, 2**31)),
                robust=f"{kind}:f={max(1, hostile)}",
            )
        if axis == 2:
            return scenario.with_overrides(
                drift_kind="label_shift" if rng.random() < 0.6 else "streaming",
                drift_period=int(rng.integers(2, 6)),
                drift_seed=int(rng.integers(0, 2**31)),
            )
        if axis == 3:
            branching = tuple(int(b) for b in rng.integers(2, 4, size=2))
            n_nodes = 1 + branching[0] + branching[0] * branching[1]
            # Tiered Metropolis is a fixed baseline: it excludes the weight
            # optimizer and (transitively) the adaptive controller.
            return scenario.with_overrides(
                hierarchy=branching,
                n_nodes=n_nodes,
                tier_damping=float(rng.uniform(0.3, 0.9)),
                optimize_weights=False,
                adaptive=False,
            )
        return scenario

    def scenarios(self, count: int, start: int = 0) -> list[Scenario]:
        """The first ``count`` scenarios from ``start`` (pure per index)."""
        return [self.scenario(index) for index in range(start, start + count)]


def workload_scenarios(master_seed: int = 0) -> list[Scenario]:
    """The curated workload pack: every new axis, differentially pinned.

    Hand-written (not drawn) so each scenario names exactly the surface it
    certifies: the three byzantine attacks each under a different robust
    aggregator, both drift schedules, and hierarchical tiers — plus one
    combined hierarchy-under-attack case. Negative indices keep them
    disjoint from every generated stream; golden digests are committed in
    ``tests/differential/test_workload_differential.py``.
    """
    base = dict(
        master_seed=master_seed,
        n_nodes=6,
        chords=((0, 3),),
        model_kind="logistic",
        n_features=5,
        n_samples=32,
        data_seed=421,
        compressor="ape",
        straggler="stale",
        optimize_weights=False,
        faulty=False,
        fault_seed=0,
        link_p_fail=0.0,
        link_p_recover=1.0,
        node_p_fail=0.0,
        node_p_recover=1.0,
        corruption_rate=0.0,
        max_rounds=10,
        run_seed=93,
    )

    def make(index: int, **over) -> Scenario:
        return Scenario(**{**base, "index": index, **over})

    return [
        make(
            -101,
            byzantine="sign_flip",
            byzantine_nodes=(1, 4),
            robust="trimmed_mean:f=2",
        ),
        make(
            -102,
            byzantine="gaussian",
            byzantine_nodes=(2,),
            attack_scale=0.5,
            byzantine_seed=7,
            robust="median:f=1",
            faulty=True,
            fault_seed=31,
            link_p_fail=0.15,
            link_p_recover=0.5,
            node_p_fail=0.05,
            node_p_recover=0.6,
            corruption_rate=0.05,
        ),
        make(
            -103,
            byzantine="scaled",
            byzantine_nodes=(0,),
            attack_scale=8.0,
            robust="krum:f=2",
            compressor="topk:k=3",
        ),
        make(-104, drift_kind="label_shift", drift_period=3, drift_seed=11),
        make(-105, drift_kind="streaming", drift_period=4, compressor="topk:k=3"),
        make(
            -106,
            hierarchy=(2, 3),
            n_nodes=9,
            tier_damping=0.5,
            compressor="changed_only",
        ),
        make(
            -107,
            hierarchy=(3, 2),
            n_nodes=10,
            tier_damping=0.7,
            byzantine="sign_flip",
            byzantine_nodes=(5,),
            robust="trimmed_mean:f=1",
        ),
    ]

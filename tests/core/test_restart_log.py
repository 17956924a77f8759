"""The restart log: every EXTRA restart as ``(node, iteration at restart)``.

``Engine.restart`` and its vectorized override are the only code that
clears EXTRA's two-term memory, so wrapping them (the ``restarts`` fixture)
sees every restart: an Algorithm 1 stage end, a topology swap and a drift
epoch. The multiset of restarts must be equal across the reference,
vectorized and semi-synchronous engines. The full sweep covers the 25
generated and 7 workload scenarios (``differential``); tier-1 runs one case
of each cause.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.testing.scenarios import ScenarioGen, workload_scenarios

ENGINES = ("reference", "vectorized", "semisync")


def restart_logs(scenario, restarts: list) -> dict[str, Counter]:
    """Each engine's restart multiset over the scenario's full round budget."""
    logs = {}
    for engine in ENGINES:
        restarts.clear()
        scenario.build_trainer(engine).run(stop_on_convergence=False)
        logs[engine] = Counter(restarts)
    return logs


def _pack(index: int):
    return next(s for s in workload_scenarios(0) if s.index == index)


#: One scenario per cause, each with no other cause: (scenario, whether
#: every restart takes the whole fleet at once).
SLICE = {
    # APE under link and node faults: a node that is down at the stage
    # end does not restart.
    "ape-stage-end": (lambda: _pack(-102), False),
    # Random-k with the adaptive controller: one pruning swap.
    "adaptive-swap": (lambda: ScenarioGen(0).scenario(10), True),
    # Top-k with streaming arrival: two drift epochs.
    "drift-epoch": (lambda: _pack(-105), True),
}


@pytest.mark.parametrize("case", list(SLICE))
def test_restart_log_is_equal_across_engines(restarts, case):
    build, whole_fleet = SLICE[case]
    scenario = build()
    logs = restart_logs(scenario, restarts)
    assert logs["vectorized"] == logs["reference"]
    assert logs["semisync"] == logs["reference"]
    by_iteration = Counter(iteration for _, iteration in logs["reference"].elements())
    assert by_iteration
    if whole_fleet:
        assert set(by_iteration.values()) == {scenario.n_nodes}
    else:
        assert max(by_iteration.values()) < scenario.n_nodes


@pytest.mark.differential
def test_restart_logs_are_equal_on_every_scenario(restarts):
    scenarios = [*ScenarioGen(0).scenarios(25), *workload_scenarios(0)]
    restarting = 0
    for scenario in scenarios:
        logs = restart_logs(scenario, restarts)
        assert logs["vectorized"] == logs["reference"], scenario.describe()
        assert logs["semisync"] == logs["reference"], scenario.describe()
        restarting += bool(logs["reference"])
    # Not vacuous: stage ends, swaps and drift epochs all occur.
    assert restarting >= 8

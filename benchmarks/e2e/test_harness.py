"""Self-tests of the benchmark harness (not part of tier-1).

Run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -q

They check the harness, not the program: tracer arithmetic, that tracing
leaves no wrapper behind and does not change a run, that every name
``BENCHMARK.json`` declares is emitted, and that ``--quick`` is a usable
smoke test.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from benchmarks.e2e import harness, layers
from benchmarks.e2e.cli import BENCHMARK_JSON, EXPECTED_JSON
from benchmarks.e2e.report import verdict
from benchmarks.e2e.tracer import Tracer
from benchmarks.e2e.workloads import LEARNABLE_WINDOW, WORKLOADS

RUN_PY = Path(__file__).resolve().parent / "run.py"
NAME = re.compile(r"[A-Za-z0-9_.-]+")


class _Ticks:
    """A clock that advances one second per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class _Layered:
    def outer(self):
        self.inner()
        self.inner()

    def inner(self):
        self.leaf()

    def leaf(self):
        return [1, 2, 3]


def test_self_time_of_nested_spans_is_duration_minus_children():
    tracer = Tracer(clock=_Ticks())
    tracer.wrap(_Layered, "outer", "outer")
    tracer.wrap(_Layered, "inner", "inner")
    tracer.wrap(_Layered, "leaf", "leaf", count=len)
    try:
        _Layered().outer()
    finally:
        tracer.restore()
    stats = tracer.stats()
    # Readings: outer 1..10; inner 2..5 and 6..9; leaf 3..4 and 7..8.
    assert stats["outer"].total_s == 9.0 and stats["outer"].self_s == 3.0
    assert stats["inner"].calls == 2 and stats["inner"].self_s == 4.0
    assert stats["leaf"].calls == 2 and stats["leaf"].self_s == 2.0
    assert sum(s.self_s for s in stats.values()) == stats["outer"].total_s
    assert tracer.counts == {"leaf": 6}
    parents = {s["name"]: s["parent"] for s in tracer.spans()}
    assert parents["outer"] == -1 and parents["inner"] == 0


def test_nested_spans_of_one_name_are_counted_once():
    class Wrapper:
        def compress(self, depth):
            return [0] if depth == 0 else self.compress(depth - 1)

    tracer = Tracer()
    tracer.wrap(Wrapper, "compress", "compress", count=len)
    try:
        Wrapper().compress(2)
    finally:
        tracer.restore()
    assert tracer.stats()["compress"].calls == 3
    assert tracer.counts == {"compress": 1}


def test_threads_keep_their_own_stacks_and_self_times_add_up():
    class Work:
        def outer(self):
            for _ in range(3):
                self.inner()

        def inner(self):
            time.sleep(0.002)

    tracer = Tracer()
    tracer.wrap(Work, "outer", "outer")
    tracer.wrap(Work, "inner", "inner")
    try:
        threads = [threading.Thread(target=Work().outer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        tracer.restore()
    stats = tracer.stats()
    assert stats["outer"].calls == 4 and stats["inner"].calls == 12
    top_level = sum(s["end"] - s["start"] for s in tracer.spans() if s["parent"] == -1)
    assert stats["outer"].total_s == pytest.approx(top_level)
    assert stats["outer"].self_s + stats["inner"].self_s == pytest.approx(top_level)
    # Every inner span's parent is the outer span of its own thread.
    by_thread = {}
    for span in tracer.spans():
        by_thread.setdefault(span["thread"], []).append(span)
    assert len(by_thread) == 4
    for spans in by_thread.values():
        assert [s["parent"] for s in spans] == [-1, 0, 0, 0]


def _patched_attributes(model) -> list[tuple]:
    probe = Tracer()
    layers.install(probe, model)
    layers.install_monitor(probe)
    targets = [(owner, attr) for owner, attr, _, _ in probe._patches]
    probe.restore()
    return targets


def test_wrappers_are_removed_after_the_traced_rep():
    workload = WORKLOADS["semisync_straggler_n32"]
    inputs = workload.generate(3)
    targets = _patched_attributes(inputs.model)
    missing = object()
    before = [vars(owner).get(attr, missing) for owner, attr in targets]
    _, tracer = harness.run_traced_rep(inputs, workload.quick_rounds())
    assert tracer.stats()["core.communicate_self"].calls == workload.quick_rounds()
    after = [vars(owner).get(attr, missing) for owner, attr in targets]
    assert all(a is b for a, b in zip(before, after))


@pytest.mark.parametrize(
    "name", ["vec_topk_lossy_n256", "semisync_straggler_n32", "tcp_testbed_n8"]
)
def test_traced_and_untraced_reps_have_the_same_digest(name):
    workload = WORKLOADS[name]
    inputs = workload.generate(5)
    rounds = workload.quick_rounds()
    plain = harness.run_rep(inputs, rounds)
    traced, _ = harness.run_traced_rep(inputs, rounds)
    assert plain.digest == traced.digest
    assert plain.bytes_total == traced.bytes_total
    assert plain.failed_ops == traced.failed_ops == 0


def _contract() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


def test_contract_names_the_registered_workloads():
    # The driver's set is a subset of the suite's seven (README, "Workloads"),
    # in the suite's order.
    contract = _contract()
    names = [w["name"] for w in contract["workloads"]]
    assert names == [name for name in WORKLOADS if name in names]
    names += [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert "setup_s" in {m["name"] for m in contract["end_to_end"]}


@pytest.mark.parametrize("trace", ["0", "1"])
def test_driver_line_carries_exactly_the_declared_metrics(trace):
    completed = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", "ref_credit_n60",
         "--seed", "11", "--seconds", "1", "--trace", trace, "--quick"],
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    line = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    section = "per_layer" if trace == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in _contract()[section]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
    for name in declared:
        # Every metric is also printed by name and unit above the last line.
        assert re.search(rf"^\s+{re.escape(name)}\s", completed.stdout, re.M), name


def test_quick_suite_is_a_smoke_test_under_thirty_seconds(tmp_path):
    out = tmp_path / "quick.json"
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(RUN_PY), "--seed", "7", "--quick", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - started
    assert completed.returncode == 0, completed.stderr
    assert elapsed < 30.0
    suite = json.loads(out.read_text())
    assert list(suite["workloads"]) == list(WORKLOADS)
    contract = _contract()
    for doc in suite["workloads"].values():
        assert doc["correct"] and doc["failed"] == 0
        assert {m["name"] for m in contract["end_to_end"]} <= set(doc["end_to_end"])
        assert {m["name"] for m in contract["per_layer"]} == set(doc["per_layer"])
        for summary in doc["end_to_end"].values():
            assert {"median", "q1", "q3", "min", "n"} <= set(summary)


def test_pinned_seed_meets_every_target_inside_the_learnable_window():
    pins = json.loads(EXPECTED_JSON.read_text())
    low, high = LEARNABLE_WINDOW
    assert set(pins) == set(WORKLOADS)
    for name, workload in WORKLOADS.items():
        share = pins[name]["round_to_target"] / workload.rounds
        assert low <= share <= high, (name, share)


def _summary(values):
    return harness.summarize(values)


def test_compare_verdicts():
    steady = _summary([1.00, 1.01, 0.99, 1.00, 1.02])
    assert verdict(steady, _summary([1.03, 1.04, 1.02, 1.03, 1.05]), 0.10)[0] == "ok"
    assert verdict(steady, _summary([1.20, 1.21, 1.19, 1.2, 1.22]), 0.10)[0] == "regressed"
    noisy = _summary([0.8, 1.0, 1.3, 0.9, 1.2])
    assert verdict(steady, noisy, 0.10)[0] == "unresolved"
    # Wide spread, but every sample of B beats every sample of A.
    assert verdict(noisy, _summary([0.5, 0.6, 0.7, 0.55, 0.65]), 0.10)[0] == "ok"
    zero = _summary([0.0])
    assert verdict(zero, zero, 0.0)[0] == "ok"
    assert verdict(zero, _summary([0.1]), 0.0)[0] == "regressed"

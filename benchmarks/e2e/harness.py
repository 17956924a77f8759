"""Rep execution and measurement for one workload in one process.

One invocation measures one workload: a warm-up rep, then *timed* reps
(fresh objects, nothing attached but one timestamp hook) until the
measurement window closes, then — when tracing — untraced/*traced* rep
pairs with the layer wrappers installed for the traced half, then one
*verify* rep that gates correctness.
End-to-end numbers come only from the timed reps; per-layer numbers only
from the traced reps; the verify rep decides ``correct``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np
import scipy

from repro.core.trainer import SNAPTrainer
from repro.exceptions import ReproError
from repro.orchestrator import (
    HeartbeatSender,
    JobManager,
    OrchestratedMembership,
    OrchestratorClient,
    OrchestratorService,
)
from repro.runtime import TestbedRuntime
from repro.testing import RunDigest, capture_run

from . import layers
from .tracer import Tracer
from .workloads import PINNED_SEED, Inputs, Workload, first_round_meeting

clock = time.perf_counter

#: Fewest timed reps an invocation reports medians over, however slow.
MIN_TIMED_REPS = 3


@dataclass
class Rep:
    """What one rep (construct + run) produced and how long it took."""

    setup_s: float
    run_s: float
    #: Construction start, the origin of ``time_to_target_s``.
    t0: float
    #: Run start, the origin of ``runtime.wireup_s``.
    t_run: float
    #: perf_counter stamp per round: when the round's record was appended
    #: (simulator) or its first frame hit the ledger (testbed, fleet).
    stamps: list[float]
    losses: list[float]
    bytes_total: int
    n_rounds: int
    digest: str
    #: Operations that failed: rounds short of the budget, frames rejected,
    #: peers written off, unscheduled evictions.
    failed_ops: int = 0
    counters: dict = field(default_factory=dict)
    #: Named durations measured around control-plane calls (fleet only).
    timings: dict = field(default_factory=dict)

    @property
    def final_loss(self) -> float:
        return self.losses[-1]


# -- the three runners ---------------------------------------------------------


def _sim_digest(digest: RunDigest) -> str:
    """The engine-independent part of a RunDigest, as one string.

    ``ledger_sha`` is left out on purpose: it hashes retained flow records,
    which a ``retain_flow_records=False`` run does not keep while a
    streaming capture does, so it differs between the timed and the verify
    rep of the same trajectory. Round records, final parameters, per-server
    state and the byte total pin the trajectory without it.
    """
    return "|".join(
        (
            digest.rounds_sha,
            digest.final_params_sha,
            digest.server_state_sha,
            str(digest.total_bytes),
            digest.final_loss,
        )
    )


def _run_sim(inputs: Inputs, rounds: int, strict: bool) -> Rep:
    config = inputs.config
    if strict:
        config = dataclasses.replace(config, invariants="strict")
    fault_plan = inputs.make_fault_plan()
    stamps: list[float] = []
    records = []

    def on_round(record) -> None:
        stamps.append(clock())
        records.append(record)

    t0 = clock()
    trainer = SNAPTrainer(
        inputs.model, inputs.shards, inputs.topology, config, fault_plan=fault_plan
    )
    t1 = clock()
    trainer.add_round_observer(on_round)
    run_kwargs = dict(
        max_rounds=rounds,
        test_set=inputs.test_set,
        eval_every=inputs.eval_every,
        stop_on_convergence=False,
    )
    t2 = clock()
    if strict:
        digest = capture_run(trainer, streaming=True, **run_kwargs)
        t3 = clock()
        info = {}
    else:
        result = trainer.run(**run_kwargs)
        t3 = clock()
        digest = RunDigest.capture(trainer, result)
        info = result.info
    tracker = trainer.tracker
    d = inputs.model.n_params
    directed_edges = 2 * len(inputs.topology.edges)
    params_sent = sum(r.params_sent for r in records)
    counters = {
        "params_sent": params_sent,
        "send_ratio": params_sent / max(1, len(records) * directed_edges * d),
        "flows": tracker.n_flows,
    }
    semi = info.get("semi_sync")
    if semi is not None:
        counters["semisync.fleet_makespan_s"] = semi["fleet_makespan_s"]
        counters["semisync.blocked_time_s"] = semi["blocked_time_s"]
        counters["semisync.degraded_events"] = semi["degraded_events"]
    return Rep(
        setup_s=t1 - t0,
        run_s=t3 - t2,
        t0=t0,
        t_run=t2,
        stamps=stamps,
        losses=[r.mean_loss for r in records],
        bytes_total=int(tracker.total_bytes),
        n_rounds=len(records),
        digest=_sim_digest(digest),
        failed_ops=rounds - len(records),
        counters=counters,
    )


def _testbed_digest(result) -> str:
    sha = hashlib.sha256()
    sha.update(np.ascontiguousarray(result.final_params).tobytes())
    sha.update(repr([loss.hex() for loss in result.mean_loss_trace]).encode())
    sha.update(repr(list(result.per_round_payload_bytes)).encode())
    return sha.hexdigest()


def _first_flow_hook(runtime: TestbedRuntime) -> dict[int, float]:
    """Timestamp each round's first ledger entry (the one attached hook)."""
    first: dict[int, float] = {}

    def on_flows(round_index, sources, destinations, sizes, hops) -> None:
        if round_index not in first:
            first[round_index] = clock()

    runtime.trainer.tracker.add_observer(on_flows)
    return first


def _stamps_per_round(first: dict[int, float], n_rounds: int) -> list[float]:
    """One stamp per round; a round without traffic inherits the next one's."""
    stamps, upcoming = [], None
    for round_index in range(n_rounds, 0, -1):
        upcoming = first.get(round_index, upcoming)
        stamps.append(upcoming)
    stamps.reverse()
    return [s for s in stamps if s is not None]


def _testbed_rep(runtime, result, first, rounds, t0, t1, t2, t3, extra_failed=0):
    tracker = runtime.trainer.tracker
    ledger_mismatch = result.payload_bytes_total != tracker.total_bytes
    dead_peers = sum(len(node.dead_peers) for node in runtime.nodes)
    n_frames = sum(node.frames_sent for node in runtime.nodes)
    failed = (
        (rounds - result.n_rounds)
        + result.corrupt_frames_total
        + len(result.dead_nodes)
        + dead_peers
        + int(ledger_mismatch)
        + extra_failed
    )
    return Rep(
        setup_s=t1 - t0,
        run_s=t3 - t2,
        t0=t0,
        t_run=t2,
        stamps=_stamps_per_round(first, result.n_rounds),
        losses=list(result.mean_loss_trace),
        bytes_total=int(result.payload_bytes_total),
        n_rounds=result.n_rounds,
        digest=_testbed_digest(result),
        failed_ops=failed,
        counters={
            "flows": tracker.n_flows,
            "frames": n_frames,
            "header_bytes": result.header_bytes_total,
            "corrupt_frames": result.corrupt_frames_total,
            "dead_nodes": len(result.dead_nodes),
            "ledger_mismatch": int(ledger_mismatch),
        },
    )


def _run_tcp(inputs: Inputs, rounds: int, strict: bool) -> Rep:
    config = inputs.config
    if strict:
        config = dataclasses.replace(config, invariants="strict")
    t0 = clock()
    runtime = TestbedRuntime(
        inputs.model, inputs.shards, inputs.topology, config=config
    )
    t1 = clock()
    first = _first_flow_hook(runtime)
    t2 = clock()
    result = runtime.run(rounds)
    t3 = clock()
    rep = _testbed_rep(runtime, result, first, rounds, t0, t1, t2, t3)
    if strict:
        rep.failed_ops += _tcp_differs_from_simulator(inputs, config, rounds, result)
    return rep


def _tcp_differs_from_simulator(inputs, config, rounds, result) -> int:
    """1 when the networked run is not bit-equal to a simulated run."""
    trainer = SNAPTrainer(inputs.model, inputs.shards, inputs.topology, config)
    simulated = trainer.run(max_rounds=rounds, stop_on_convergence=False)
    same = (
        np.array_equal(trainer.stacked_params(), result.final_params)
        and simulated.total_bytes == result.payload_bytes_total
        and [r.mean_loss for r in simulated.rounds] == result.mean_loss_trace
    )
    return 0 if same else 1


def _run_fleet(inputs: Inputs, rounds: int, strict: bool) -> Rep:
    """Compose the orchestrated fleet from the pieces ``run_elastic_fleet`` uses.

    Composed here rather than calling ``run_elastic_fleet`` so that set-up
    (service start + registrations + runtime construction) and the run are
    separately timed. The join and the leave arrive over the real HTTP API
    at a third and two thirds of the round budget.
    """
    plan = inputs.fleet
    config = inputs.config
    if strict:
        config = dataclasses.replace(config, invariants="strict")
    join_at = max(2, rounds // 3)
    leave_at = max(join_at + 1, 2 * rounds // 3)
    senders: list[HeartbeatSender] = []
    capabilities = {"cpu_cores": 2, "mem_mb": 512}
    timings: dict[str, float] = {}

    t0 = clock()
    manager = JobManager(
        heartbeat_s=plan.heartbeat_s, evict_after_misses=plan.evict_after_misses
    )
    service = OrchestratorService(manager, port=0, start_monitor=True).start()
    timings["orchestrator.service_start_s"] = clock() - t0
    try:
        client = OrchestratorClient(service.url)
        job = manager.create_job("elastic", capacity=plan.n_slots)
        for extra in range(1, plan.n_jobs):
            manager.create_job(f"tenant-{extra}", capacity=plan.n_slots)

        register_s: list[float] = []

        def register(name: str) -> str:
            started = clock()
            response = client.register(
                name, capabilities=capabilities, job=job.job_id
            )
            register_s.append(clock() - started)
            device_id = response["device_id"]
            senders.append(
                HeartbeatSender(client, device_id, plan.heartbeat_s).start()
            )
            return device_id

        device_ids = [
            register(f"edge-{i:02d}") for i in range(plan.initial_devices)
        ]
        leaver = device_ids[-1]
        job.schedule(leave_at, lambda: client.leave(leaver))
        job.schedule(join_at, lambda: register("edge-join"))
        runtime = TestbedRuntime(
            inputs.model,
            inputs.shards,
            inputs.topology,
            config=config,
            membership=OrchestratedMembership(job),
            round_deadline_s=plan.round_deadline_s,
        )
        t1 = clock()
        first = _first_flow_hook(runtime)
        t2 = clock()
        result = runtime.run(rounds)
        t3 = clock()
        started = clock()
        client.metrics()
        timings["orchestrator.metrics_scrape_ms"] = 1000 * (clock() - started)
        evictions = manager.monitor.evictions_total
    finally:
        started = clock()
        for sender in senders:
            sender.stop()
        service.stop()
        timings["orchestrator.stop_s"] = clock() - started
    timings["orchestrator.register_ms_p50"] = 1000 * statistics.median(register_s)
    rep = _testbed_rep(
        runtime, result, first, rounds, t0, t1, t2, t3, extra_failed=evictions
    )
    swaps = job.controller.swaps
    rep.counters.update(
        swaps=len(swaps),
        readded_edges=sum(len(s.added_edges) for s in swaps),
        evictions=evictions,
    )
    rep.timings = timings
    return rep


_RUNNERS = {"sim": _run_sim, "tcp": _run_tcp, "fleet": _run_fleet}


def run_rep(inputs: Inputs, rounds: int, strict: bool = False) -> Rep:
    """One rep on fresh objects: construct, run the fixed round budget."""
    return _RUNNERS[inputs.kind](inputs, rounds, strict)


def run_traced_rep(inputs: Inputs, rounds: int) -> tuple[Rep, Tracer]:
    """One rep with the layer wrappers installed; always restores them."""
    tracer = Tracer()
    layers.install(tracer, inputs.model)
    try:
        rep = run_rep(inputs, rounds)
    finally:
        tracer.restore()
    return rep, tracer


# -- statistics ----------------------------------------------------------------


def summarize(values: list[float]) -> dict:
    """Median, quartiles, minimum and n of one metric's samples."""
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "n": len(values),
        "values": values,
    }


def percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def peak_rss_mib() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    return rss / 2**20 if sys.platform == "darwin" else rss / 1024


def pin_to_one_cpu() -> int | None:
    """Pin this process to the last CPU of its allowed set; returns it."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment(cpu: int | None) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# -- per-layer metrics ---------------------------------------------------------

#: Spans reported as a plain ``<span>_s`` (self time) / ``<span>_calls`` pair.
PAIRED_SPANS = (
    "weights.build",
    "weights.resolve",
    "consensus.step_size",
    "consensus.error",
    "models.prepare",
    "models.gradient",
    "models.loss",
    "models.predict",
    "core.build_self",
    "core.engine_build",
    "core.begin_run",
    "core.step_round_self",
    "core.communicate_self",
    "core.sync_to_servers",
    "compression.build",
    "compression.compress",
    "network.ledger",
    "network.codec_encode",
    "network.codec_decode",
    "runtime.send",
    "runtime.recv_wait",
    "runtime.barrier_wait",
    "orchestrator.decide",
)


def layer_metrics(tracer: Tracer) -> dict[str, float | None]:
    """Per-layer numbers of one traced rep; ``None`` where a layer did not run."""
    stats = tracer.stats()
    out: dict[str, float | None] = {}
    for span in PAIRED_SPANS:
        entry = stats.get(span)
        out[f"{span}_s"] = entry.self_s if entry else None
        out[f"{span}_calls"] = entry.calls if entry else None

    def self_s(span: str) -> float:
        return stats[span].self_s if span in stats else 0.0

    # Everything in the run that no span claims: staleness ledger,
    # connectivity check, record building, observers, the loop itself.
    out["core.bookkeeping_s"] = stats["core.run"].self_s if "core.run" in stats else None
    if "faults.query" in stats or "faults.corrupted" in stats:
        out["faults.query_s"] = self_s("faults.query") + self_s("faults.corrupted")
        out["faults.query_calls"] = sum(
            stats[s].calls for s in ("faults.query", "faults.corrupted") if s in stats
        )
        out["faults.links_down"] = tracer.counts.get("faults.query", 0)
        out["faults.frames_corrupted"] = tracer.counts.get("faults.corrupted", 0)
    else:
        for name in ("query_s", "query_calls", "links_down", "frames_corrupted"):
            out[f"faults.{name}"] = None
    out["compression.payloads"] = (
        tracer.counts.get("compression.compress", 0)
        if "compression.compress" in stats
        else None
    )
    out["runtime.send_retries"] = (
        (stats["runtime.send_retry"].calls if "runtime.send_retry" in stats else 0)
        if "runtime.send" in stats
        else None
    )
    return out


#: Control-plane durations the fleet runner measures around its own calls.
_FLEET_TIMINGS = (
    "orchestrator.service_start_s",
    "orchestrator.register_ms_p50",
    "orchestrator.stop_s",
    "orchestrator.metrics_scrape_ms",
)


def rep_metrics(reps: list[Rep], kind: str) -> dict[str, float | None]:
    """Per-layer counts and latencies read off the *untraced* reps.

    Counts repeat exactly across reps of one seed, so the last rep's are
    reported; round latencies pool the last rep's rounds; control-plane
    durations are medians over the reps.
    """
    rep = reps[-1]
    counters = rep.counters
    rounds = max(1, rep.n_rounds)
    round_ms = [1000 * (b - a) for a, b in zip(rep.stamps, rep.stamps[1:])]
    p50 = statistics.median(round_ms) if round_ms else None
    p95 = percentile(round_ms, 0.95) if round_ms else None
    simulated = kind == "sim"
    out: dict[str, float | None] = {
        "core.rounds": rep.n_rounds,
        "core.params_sent": counters.get("params_sent"),
        "core.send_ratio": counters.get("send_ratio"),
        "core.round_ms_p50": p50 if simulated else None,
        "core.round_ms_p95": p95 if simulated else None,
        "core.round_samples": len(round_ms) if simulated else None,
        "core.semisync.fleet_makespan_s": counters.get("semisync.fleet_makespan_s"),
        "core.semisync.blocked_time_s": counters.get("semisync.blocked_time_s"),
        "core.semisync.degraded_events": counters.get("semisync.degraded_events"),
        "network.flows": counters["flows"],
        "network.frames": counters.get("frames"),
        "network.bytes_per_round": rep.bytes_total / rounds,
        "network.frame_bytes_mean": rep.bytes_total / max(1, counters["flows"]),
        "runtime.wireup_s": None if simulated else rep.stamps[0] - rep.t_run,
        "runtime.frames_per_s": (
            None if simulated else counters["frames"] / rep.run_s
        ),
        "runtime.round_ms_p50": None if simulated else p50,
        "runtime.round_ms_p95": None if simulated else p95,
        "runtime.header_bytes": counters.get("header_bytes"),
        "runtime.corrupt_frames": counters.get("corrupt_frames"),
        "runtime.dead_nodes": counters.get("dead_nodes"),
        "orchestrator.swaps": counters.get("swaps"),
        "orchestrator.readded_edges": counters.get("readded_edges"),
        "orchestrator.evictions": counters.get("evictions"),
    }
    for name in _FLEET_TIMINGS:
        out[name] = (
            statistics.median(r.timings[name] for r in reps)
            if name in rep.timings
            else None
        )
    return out


# -- one workload, one process -------------------------------------------------


def _timed_window(inputs, rounds, seconds, quick) -> list[Rep]:
    reps: list[Rep] = []
    deadline = clock() + seconds
    while True:
        reps.append(run_rep(inputs, rounds))
        if quick or (len(reps) >= MIN_TIMED_REPS and clock() >= deadline):
            return reps


def measure(
    workload: Workload,
    seed: int,
    timed_s: float,
    traced_s: float = 0.0,
    quick: bool = False,
    pins: dict | None = None,
    keep_spans: bool = False,
) -> dict:
    """Run one workload's protocol in this process; returns its result doc.

    Timed reps fill ``timed_s`` seconds and ``ru_maxrss`` is read. Then,
    when ``traced_s`` is positive, that window is filled with *pairs* of an
    untraced and a traced rep — alternating, so machine drift between the
    two cancels in ``harness.trace_overhead_pct`` — and the per-layer
    metrics are computed. With ``timed_s == 0`` the untraced halves of the
    pairs are the timed reps. The verify rep always runs last. ``quick``
    runs one rep of each kind on a tenth of the round budget.
    """
    trace = traced_s > 0
    rounds = workload.quick_rounds() if quick else workload.rounds
    started = clock()
    inputs = workload.generate(seed)
    generate_s = clock() - started
    errors: list[str] = []

    if not quick:
        # Warm-up, untimed: the first rep in a fresh process pays lazy
        # imports and cold caches (measured ~2x slower on the authoring
        # machine), which users of a long-lived trainer do not.
        run_rep(inputs, rounds)

    own_window = timed_s > 0
    timed = _timed_window(inputs, rounds, timed_s, quick) if own_window else []
    peak_rss = peak_rss_mib()

    # Each traced rep is reduced to its layer metrics at once; only the last
    # tracer (tens of thousands of spans) is kept, for ``--spans``.
    baseline: list[Rep] = []
    traced: list[Rep] = []
    layer_samples: list[dict] = []
    tracer = None
    if trace:
        deadline = clock() + traced_s
        while True:
            baseline.append(run_rep(inputs, rounds))
            rep, tracer = run_traced_rep(inputs, rounds)
            traced.append(rep)
            layer_samples.append(layer_metrics(tracer))
            if quick or clock() >= deadline:
                break
    if not own_window:
        timed = baseline

    # -- verify rep: strict invariants, streaming digest, ledger, finiteness.
    verify_started = clock()
    monitor_tracer = Tracer()
    layers.install_monitor(monitor_tracer)
    try:
        verify = run_rep(inputs, rounds, strict=True)
        violations = 0
    except ReproError as error:
        verify = None
        violations = 1
        errors.append(f"verify rep raised {type(error).__name__}: {error}")
    finally:
        monitor_tracer.restore()
    verify_total_s = clock() - verify_started

    reps = timed + (baseline if own_window else [])
    reps += traced + ([verify] if verify else [])
    digests = {rep.digest for rep in reps}
    if len(digests) > 1:
        errors.append(f"{len(digests)} distinct digests across reps of one seed")
    for rep in reps:
        if rep.n_rounds != rounds:
            errors.append(f"short run: {rep.n_rounds} of {rounds} rounds")
        if not all(math.isfinite(loss) for loss in rep.losses):
            errors.append("non-finite loss")
        if rep.counters.get("ledger_mismatch"):
            errors.append("ledger mismatch: payload bytes != tracker bytes")
    if verify is not None and verify.failed_ops:
        errors.append(f"verify rep counted {verify.failed_ops} failed operations")
    # The target literal is frozen for the pinned seed; on another seed's
    # data it may be met earlier, later, or not at all inside the budget —
    # then time-to-target is censored at the full rep, not a failure.
    round_to_target = first_round_meeting(workload.target, timed[0].losses)

    errors = list(dict.fromkeys(errors))  # one line per kind of failure

    attempted = rounds * len(reps) + (rounds if verify is None else 0)
    failed = sum(rep.failed_ops for rep in reps)
    correct = not errors
    if not correct:
        # A workload whose verification fails has no trustworthy numbers:
        # every operation it attempted counts as failed.
        failed = attempted
    failed = min(failed, attempted)

    def to_target(rep: Rep) -> float:
        index = round_to_target if round_to_target is not None else rep.n_rounds
        return rep.stamps[min(index, len(rep.stamps)) - 1] - rep.t0

    end_to_end = {
        "setup_s": summarize([rep.setup_s for rep in timed]),
        "run_s": summarize([rep.run_s for rep in timed]),
        "time_to_target_s": summarize([to_target(rep) for rep in timed]),
        "peak_rss_mb": summarize([peak_rss]),
        "bytes_total": summarize([rep.bytes_total for rep in timed]),
        "final_loss": summarize([rep.final_loss for rep in timed]),
        "failure_share": summarize([failed / attempted]),
    }

    timed_total = statistics.median(rep.setup_s + rep.run_s for rep in timed)
    per_layer: dict[str, float | None] = {}
    if trace:
        for name in layer_samples[0]:
            present = [s[name] for s in layer_samples if s[name] is not None]
            per_layer[name] = statistics.median(present) if present else None
        # Counts and latencies come from the untraced reps (no wrapper cost).
        per_layer.update(rep_metrics(timed, inputs.kind))
        baseline_total = statistics.median(
            rep.setup_s + rep.run_s for rep in baseline
        )
        traced_total = statistics.median(rep.setup_s + rep.run_s for rep in traced)
        monitor = monitor_tracer.stats().get("testing.monitor")
        pinned = _pin_match(pins, workload.name, seed, timed[0], round_to_target)
        per_layer.update(
            {
                "data.generate_s": generate_s,
                "testing.monitor_s": monitor.self_s if monitor else None,
                "testing.monitor_calls": monitor.calls if monitor else None,
                "testing.verify_overhead_pct": (
                    100 * (verify.setup_s + verify.run_s - timed_total) / timed_total
                    if verify is not None
                    else None
                ),
                "testing.verify_rep_s": verify_total_s,
                "testing.invariant_violations": violations,
                "testing.digest_pinned_match": pinned,
                "harness.trace_overhead_pct": (
                    100 * (traced_total - baseline_total) / baseline_total
                ),
                "harness.reps": len(timed),
                "harness.time_to_target_s": end_to_end["time_to_target_s"]["median"],
                "harness.round_to_target": round_to_target,
                "harness.final_loss": end_to_end["final_loss"]["median"],
                "harness.failure_share": failed / attempted,
            }
        )

    doc = {
        "workload": workload.name,
        "seed": seed,
        "rounds": rounds,
        "target": workload.target,
        "round_to_target": round_to_target,
        "digest": timed[0].digest,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }
    if keep_spans and tracer is not None:
        doc["spans"] = tracer.spans()
    return doc


def _pin_match(pins, name, seed, rep: Rep, round_to_target) -> int:
    """1 / 0 whether the seed-7 pins still match; -1 when no pin applies."""
    if seed != PINNED_SEED or not pins or name not in pins:
        return -1
    pin = pins[name]
    return int(
        pin["digest"] == rep.digest
        and pin["bytes_total"] == rep.bytes_total
        and pin["final_loss"] == rep.final_loss.hex()
        and pin["round_to_target"] == round_to_target
    )

#!/usr/bin/env python3
"""cProfile one untraced rep of a ``benchmarks/e2e`` workload.

``make profile WORKLOAD=<name> [SEED=7] [PHASE=both]`` — the function-level view the
benchmark's external tracer cannot give: the tracer attributes time to the
~40 public callables ``benchmarks/e2e/layers.py`` wraps (``network.ledger_s``
says the ledger is slow), a profile names what inside them is slow
(``np.unique`` on a length-1 array). Run it before choosing what to optimise
and quote its shares, not the tracer's, in the issue.

One warm-up rep (imports, lazy set-up, BLAS initialisation), then one rep
under ``cProfile`` — every thread the rep starts included (the TCP testbed
runs on the calling thread since PR 24; the fleet workload's heartbeat and
HTTP threads show, their blocking ``acquire`` rows are waiting, not work)
— with no layer wrappers installed, at the workload's full round
budget, pinned to one CPU with one BLAS thread exactly as
``benchmarks/e2e/run.py`` runs it. Prints the top functions by ``tottime``
(where the interpreter spent its own time) and by ``cumtime`` (which calls
that time sits under). The harness is imported read-only; nothing is written.
Profiled timings are inflated by the profiler's per-call cost, most for the
cheapest calls — read shares, and measure gains with ``make bench-pairs``.

``--phase setup`` profiles only the construction (``SNAPTrainer(...)`` or
``TestbedRuntime(...)``, whichever is outermost) and ``--phase run`` only
``.run(...)``, so each table's shares are of that phase alone; ``both`` (the
default) profiles the whole rep.

Then :data:`GC_REPS` more reps run without the profiler, and a
table gives, per rep and phase, the garbage collections of each generation
and their wall time, read from ``gc.callbacks``. A collection is a pause
the benchmark's min-of-reps never shows: a gen-2 collection that lands in
every other build moves the median, not the minimum.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import functools
import gc
import os
import pstats
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Unprofiled reps in the GC table: enough for a gen-2 collection that lands
#: in every other build to show twice.
GC_REPS = 4


@contextlib.contextmanager
def only_inside(methods, start, stop):
    """Call ``start`` / ``stop`` around the outermost call of any of ``methods``.

    ``methods`` is ``(owner, attribute)`` pairs; each is rebound to a wrapper
    for the duration of the block and restored after it.
    """
    depth = 0

    def bracketed(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            nonlocal depth
            depth += 1
            if depth == 1:
                start()
            try:
                return original(*args, **kwargs)
            finally:
                depth -= 1
                if depth == 0:
                    stop()

        return wrapper

    originals = [(owner, name, getattr(owner, name)) for owner, name in methods]
    for owner, name, original in originals:
        setattr(owner, name, bracketed(original))
    try:
        yield
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


class GCPauses:
    """Collections and wall time per (rep, phase, generation), from ``gc.callbacks``."""

    def __init__(self):
        self.rep, self.phase = 0, "other"
        #: (rep, phase) -> ([collections per generation], [seconds per generation])
        self.table: dict[tuple[int, str], tuple[list[int], list[float]]] = {}
        self._started = 0.0

    def __call__(self, event, info):
        if event == "start":
            self._started = time.perf_counter()
            return
        collections, seconds = self.table.setdefault(
            (self.rep, self.phase), ([0, 0, 0], [0.0, 0.0, 0.0])
        )
        collections[info["generation"]] += 1
        seconds[info["generation"]] += time.perf_counter() - self._started

    def entering(self, phase):
        """``(start, stop)`` for :func:`only_inside`: attribute pauses to ``phase``."""

        def start():
            self.phase = phase

        def stop():
            self.phase = "other"

        return start, stop

    def print_table(self, reps):
        print("\n## GC pauses per rep and phase (gc.callbacks, no profiler)")
        print(
            "| rep | setup_s | run_s | phase "
            "| gen0 n / ms | gen1 n / ms | gen2 n / ms |"
        )
        print("|---|---|---|---|---|---|---|")
        for rep, (setup_s, run_s) in enumerate(reps):
            for phase in ("setup", "run", "other"):
                if phase == "other" and (rep, phase) not in self.table:
                    continue
                collections, seconds = self.table.get(
                    (rep, phase), ([0, 0, 0], [0.0, 0.0, 0.0])
                )
                cells = " | ".join(
                    f"{n} / {1e3 * s:.1f}" for n, s in zip(collections, seconds)
                )
                print(f"| {rep} | {setup_s:.4f} | {run_s:.4f} | {phase} | {cells} |")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--phase", choices=("setup", "run", "both"), default="both")
    parser.add_argument("--top", type=int, default=30, help="rows per table")
    options = parser.parse_args()

    # As benchmarks/e2e/run.py: one BLAS thread, set before numpy is imported.
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    for entry in (str(ROOT), str(ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from benchmarks.e2e import harness
    from benchmarks.e2e.workloads import WORKLOADS
    from repro.core.trainer import SNAPTrainer
    from repro.runtime import TestbedRuntime

    if options.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {options.workload!r}; one of {', '.join(WORKLOADS)}"
        )
    harness.pin_to_one_cpu()
    workload = WORKLOADS[options.workload]
    inputs = workload.generate(options.seed)
    harness.run_rep(inputs, workload.rounds)

    # cProfile hooks one thread; the fleet workload also runs heartbeat and
    # HTTP threads, so every thread started during the rep gets a profiler of
    # its own (its first profile event swaps the Python hook for the C one).
    profilers = [cProfile.Profile()]

    def profile_this_thread(frame, event, arg):
        profilers.append(cProfile.Profile())
        profilers[-1].enable()

    def start():
        threading.setprofile(profile_this_thread)
        profilers[0].enable()

    def stop():
        profilers[0].disable()
        threading.setprofile(None)

    profiled = {
        "both": [(harness, "run_rep")],
        "setup": [(SNAPTrainer, "__init__"), (TestbedRuntime, "__init__")],
        "run": [(SNAPTrainer, "run"), (TestbedRuntime, "run")],
    }[options.phase]
    with only_inside(profiled, start, stop):
        rep = harness.run_rep(inputs, workload.rounds)

    print(
        f"# {workload.name} seed={options.seed} phase={options.phase} "
        f"rounds={rep.n_rounds}: "
        f"setup_s={rep.setup_s:.4f} run_s={rep.run_s:.4f} (under cProfile) "
        f"bytes_total={rep.bytes_total} failed_ops={rep.failed_ops}"
    )
    stats = pstats.Stats(*profilers).strip_dirs()
    for key in ("tottime", "cumtime"):
        print(f"\n## top {options.top} by {key}")
        stats.sort_stats(key).print_stats(options.top)

    pauses = GCPauses()
    phases = [
        ((SNAPTrainer, "__init__"), (TestbedRuntime, "__init__"), "setup"),
        ((SNAPTrainer, "run"), (TestbedRuntime, "run"), "run"),
    ]
    reps = []
    gc.callbacks.append(pauses)
    try:
        with contextlib.ExitStack() as stack:
            for *methods, phase in phases:
                stack.enter_context(only_inside(methods, *pauses.entering(phase)))
            for rep_index in range(GC_REPS):
                pauses.rep = rep_index
                rep = harness.run_rep(inputs, workload.rounds)
                reps.append((rep.setup_s, rep.run_s))
    finally:
        gc.callbacks.remove(pauses)
    pauses.print_table(reps)
    return 0


if __name__ == "__main__":
    sys.exit(main())

# Development entry points. All targets assume the repo's src layout
# (PYTHONPATH=src) so no editable install is required.

PYTHON ?= python
PYTEST := PYTHONPATH=src $(PYTHON) -m pytest

.PHONY: test chaos perf differential verify-invariants coverage test-all \
	bench bench-async bench-compression bench-figures bench-scale bench-scale-check \
	bench-topology bench-topology-check bench-e2e-quick bench-pairs profile \
	orchestrate-smoke scenario-smoke flake reachability

## The default (tier-1) suite: the addopts in pyproject.toml deselect the
## chaos, perf, and differential markers, so a bare pytest run is tier-1.
test:
	$(PYTEST)

## The fault suite: chaos-injection tests only (link outages, crashes,
## corruption, partitions — simulator and TCP testbed).
chaos:
	$(PYTEST) -m chaos

## Flake gate (ROADMAP item 5): the socket and orchestrator suites, chaos
## included, RUNS times over in fresh processes; prints failures / runs and
## exits non-zero on any failure. `make flake RUNS=20`.
RUNS ?= 20
flake:
	@failures=0; for run in $$(seq 1 $(RUNS)); do \
		out=$$($(PYTEST) tests/runtime tests/orchestrator -o addopts="" -q -x \
			-p no:cacheprovider 2>&1) \
			|| { failures=$$((failures + 1)); echo "run $$run FAILED"; echo "$$out" | tail -30; }; \
	done; echo "flake: $$failures failures / $(RUNS) runs"; test $$failures -eq 0

## The performance smoke tests (the fast path's memory bound; its speed is
## guarded by tier-1 call counts).
perf:
	$(PYTEST) -m perf

## The generated-scenario oracle suite: reference vs. vectorized engines
## must agree bit-for-bit with the invariant monitors armed.
differential:
	$(PYTEST) -m differential

## The push-button acceptance gate: a seeded differential sweep plus the
## monitor self-test (deliberate faults must be caught by name).
verify-invariants:
	PYTHONPATH=src $(PYTHON) -m repro verify --scenarios 25

## The workload scenario pack: byzantine / drifting / hierarchical runs,
## each certified by the differential harness (cross-engine digests +
## golden pins + the three workload-axis monitor injections), plus the
## byzantine chaos tests (N=32 defended accuracy, testbed ledger parity).
scenario-smoke:
	$(PYTEST) tests/differential/test_workload_differential.py -q -m differential
	$(PYTEST) tests/runtime/test_chaos_byzantine.py -q -m chaos
	$(PYTEST) tests/properties/test_robust_properties.py -q

## Line-coverage floor over the compression and network packages
## (measured with a stdlib sys.settrace hook, the same on CI and locally).
coverage:
	PYTHONPATH=src $(PYTHON) scripts/check_coverage.py

## Which functions of src/repro no entry point enters: runs every CI entry
## point, example and figure bench under a call hook and prints the
## never-entered functions per module, with line counts and totals
## (several minutes; no CI job). See docs/TESTING.md.
reachability:
	$(PYTHON) scripts/reachability.py

## Everything — every marker included.
test-all:
	$(PYTEST) -m ""

## Control-plane smoke: bring up the orchestrator HTTP service, run an
## elastic fleet (one join + one leave mid-training over the API), and
## check the run finishes with warm topology re-solves instead of aborting.
orchestrate-smoke:
	PYTHONPATH=src $(PYTHON) -m repro orchestrate --slots 6 --devices 5 \
		--rounds 20 --join-at 7 --leave-at 12 --heartbeat-s 0.25 \
		--evict-after-misses 3 --jobs 2 --n-train 600 --n-test 300

## Engine scaling benchmark: rounds/sec + peak RSS for both engines across
## N x model; writes the committed BENCH_engine.json baseline.
bench:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_engine_scaling.py --out BENCH_engine.json

## Straggler tolerance: semi-sync vs synchronous virtual makespan under a
## 10x straggler at N=32; writes the committed BENCH_async.json baseline
## and exits non-zero if the >=3x / 2-point acceptance bar is missed.
bench-async:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_async.py --out BENCH_async.json

## Compression frontier: total bytes vs final loss/accuracy for every
## compressor spec; writes the committed BENCH_compression.json baseline.
bench-compression:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_compression.py --out BENCH_compression.json

## The pytest-benchmark figure-reproduction suite (previous `make bench`).
bench-figures:
	$(PYTEST) benchmarks --benchmark-only

## Large-N scaling sweep: vectorized engine with sparse weights, retention
## off, and columnar telemetry at N in {512, 1024, 4096} (+ reference at 512);
## writes the committed BENCH_scale.json baseline and enforces the >=30x /
## <2 GiB / sub-linear-per-node acceptance bars.
bench-scale:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_scale.py --out BENCH_scale.json

## CI smoke gate: re-measure the N=512 vectorized cell and fail on a >20%
## throughput regression against the committed BENCH_scale.json, an RSS
## ceiling breach, or a wall-clock budget overrun.
bench-scale-check:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_scale.py --check

## Adaptive topology frontier: the joint (topology, compressor) controller
## re-run on the bench_compression workload plus the N=64 warm-vs-cold
## re-solve measurement; writes the committed BENCH_topology.json and
## enforces the >=2-dominated-points / >=5x warm-start acceptance bars.
bench-topology:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_topology.py --out BENCH_topology.json

## CI smoke gate: re-measure the joint cell and the warm-start ratio and
## fail if either acceptance bar regressed (writes nothing).
bench-topology-check:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_topology.py --check

## End-to-end benchmark smoke (< 1 min): every benchmarks/e2e workload on a
## tenth of its round budget with the layer wrappers installed, then the
## harness self-tests — tier-1 does not collect them, so this is what keeps
## the harness and the public names it wraps from rotting.
bench-e2e-quick:
	PYTHONPATH=src $(PYTHON) -m benchmarks.e2e --seed 7 --quick --out /tmp/quick.json
	$(PYTEST) benchmarks/e2e/test_harness.py -q

## Alternating base/head pairs of the driver's command on one workload, with
## per-metric medians, quartiles, win counts, a verdict and a markdown table
## for docs/perf-log/: `make bench-pairs BASE=HEAD~1 WORKLOAD=ref_credit_n60`
## (optional PAIRS=10 SEED=7 WINDOW_S=<BENCHMARK.json run_seconds>). Both sides
## run from exports in a temporary directory; head is the working tree on disk.
PAIRS ?= 10
SEED ?= 7
bench-pairs:
	$(PYTHON) scripts/bench_pairs.py --base $(BASE) --workload $(WORKLOAD) \
		--pairs $(PAIRS) --seed $(SEED) $(if $(WINDOW_S),--seconds $(WINDOW_S))

## Function-level view of one benchmarks/e2e workload: one warm-up and one
## cProfile'd untraced rep, top 30 by tottime and by cumtime, then four
## unprofiled reps and a table of their GC pauses per phase. The external
## tracer names the slow layer, this names the slow function inside it:
## `make profile WORKLOAD=ref_credit_n60` (optional SEED=7, and
## PHASE=setup|run to profile only construction or only `.run`).
PHASE ?= both
profile:
	$(PYTHON) scripts/profile_rep.py --workload $(WORKLOAD) --seed $(SEED) \
		--phase $(PHASE)

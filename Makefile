PYTHON ?= python
PYTHONPATH := src

.PHONY: test test-deep lint smoke-obs smoke-faults smoke-runner smoke-timeline smoke-rolling smoke-serve bench bench-smoke bench-smoke-baseline bench-baseline bench-pytest

test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q
	$(MAKE) bench-smoke
	$(MAKE) smoke-rolling
	$(MAKE) smoke-serve

# Nightly-style deep sweep of the hypothesis batteries: the ``deep``
# profile raises the per-test example budgets (see tests/conftest.py),
# and the selection runs everything tagged ``properties`` or ``slow``.
test-deep:
	REPRO_HYPOTHESIS_PROFILE=deep PYTHONPATH=$(PYTHONPATH) \
		$(PYTHON) -m pytest -q -m "properties or slow"

# Static checks.  Uses ruff (configured in pyproject.toml) when it is on
# PATH; otherwise falls back to the zero-dependency checker in
# tools/lint_fallback.py (syntax + unused/duplicate imports) so the
# target works in minimal containers too.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples tools; \
	else \
		echo "ruff not found; running tools/lint_fallback.py"; \
		$(PYTHON) tools/lint_fallback.py src tests benchmarks examples tools; \
	fi
	$(PYTHON) tools/check_docs.py

# Observability smoke: the obs-marked battery (trace replays, tracer /
# metrics / export units, tracing-purity properties) plus one CLI
# trace invocation end to end.
smoke-obs:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q -m obs
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro trace --example min-min

# Fault-injection smoke: the fault plan/executor/study test batteries,
# the static-vs-rolling executor differential tests, plus one
# end-to-end CLI run that injects failures and recovers (see
# docs/robustness.md).
smoke-faults:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q \
		tests/sim/test_faults.py tests/analysis/test_fault_study.py \
		tests/core/test_iterative_edges.py \
		tests/sim/test_executor_differential.py
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro simulate --faults \
		--tasks 20 --machines 4 --failures 3 --recovery remap

# Resumable-runner smoke: the runner test batteries (including the
# kill-and-resume round trip) plus a tiny end-to-end CLI grid run that
# populates a throwaway cell cache and then resumes fully from it
# (see docs/runner.md).
smoke-runner:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q \
		tests/analysis/test_runner.py tests/integration/test_runner_resume.py
	rm -rf .smoke-runner-cells
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro run-grid \
		--heuristics min-min,mct --tasks 10 --machines 4 --instances 2 \
		--heterogeneities hihi,lolo --cache-dir .smoke-runner-cells
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro run-grid \
		--heuristics min-min,mct --tasks 10 --machines 4 --instances 2 \
		--heterogeneities hihi,lolo --cache-dir .smoke-runner-cells \
		--resume | grep "2 cached"
	rm -rf .smoke-runner-cells

# Timeline smoke: the span/time-series/timeline test batteries, then a
# tiny sharded store-backed grid run that must produce one merged trace
# tree plus a repro-timeseries/1 log, the timeline renderer over that
# trace, and the tracing-overhead bench workload (its overhead budget
# gate lives inside the workload itself, so no baseline file is needed;
# see docs/observability.md).
smoke-timeline:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q \
		tests/obs/test_spans.py tests/obs/test_timeseries.py \
		tests/obs/test_timeline.py
	rm -rf .smoke-timeline
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro run-grid \
		--heuristics min-min,mct --tasks 10 --machines 4 --instances 2 \
		--heterogeneities hihi,lolo --cache-dir .smoke-timeline/cells \
		--store .smoke-timeline/store \
		--trace-out .smoke-timeline/trace.jsonl \
		--timeseries .smoke-timeline/ts.jsonl
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro obs timeline \
		.smoke-timeline/trace.jsonl | grep "runner.grid"
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro bench --smoke --repeats 1 \
		--workloads tracing-overhead
	rm -rf .smoke-timeline

# Rolling-horizon smoke: the arrival/rolling/dynamic-batch test
# batteries, the engine's queue-order units and its decision-identity
# goldens (so a change to event order fails here, not only in the full
# suite), the executor differential tests, the differential test of the
# technique's index-space commit order that each horizon dispatches from,
# plus one small fault-injected CLI serving run that must
# account for every task (completed + dropped == total) and publish a
# tasks_scheduled_per_s metric in the run ledger (see docs/rolling.md).
smoke-rolling:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q \
		tests/sim/test_rolling.py tests/sim/test_dynamic_batch.py \
		tests/sim/test_events_engine.py tests/sim/test_engine_golden.py \
		tests/sim/test_executor_differential.py \
		tests/properties/test_iterative_commit_order.py
	rm -rf .smoke-rolling
	mkdir -p .smoke-rolling
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro run-rolling \
		--tasks 400 --machines 4 --chunk-tasks 32 --batch-target 16 \
		--faults --failures 3 --recovery remap \
		--append-ledger --ledger-path .smoke-rolling/ledger.jsonl \
		| grep "tasks accounted   : 400/400"
	grep -q "tasks_scheduled_per_s" .smoke-rolling/ledger.jsonl
	rm -rf .smoke-rolling

# Scheduling-service smoke: the serve test batteries and the end-to-end
# subprocess driver (start `repro serve`, issue a mapped + a cached
# request, assert the cache-hit counter / ledger row / single
# serve.compute span, clean SIGTERM shutdown, then a serve-load run
# that writes SERVE_load_smoke.json — uploaded as a CI artifact).
# Hit-vs-miss latency is timed by perfbench's serve-mixed workload.
# See docs/serving.md.
smoke-serve:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q tests/serve
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) tools/smoke_serve.py

# Full benchmark harness: times the tracked 512x32 kernel workloads
# (optimised and retained reference kernels) and the tracing-overhead
# gate, writes BENCH_current.json, and fails
# if any tracked workload regressed beyond tolerance vs the checked-in
# baseline.  Regenerate the baseline with `make bench-baseline`.
bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro bench \
		-o BENCH_current.json --baseline BENCH_baseline.json

bench-baseline:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro bench -o BENCH_baseline.json

# Shrunken smoke pass: proves the harness end to end in under a
# minute; wired into the default `make test` flow and run by CI, which
# uploads the written BENCH_current.json as a build artifact.  The gate
# compares *speedup ratios* (optimised vs reference), not wall-clock —
# ratios are self-normalising across machine speeds, so the checked-in
# smoke baseline stays meaningful on any host.  Regenerate it with
# `make bench-smoke-baseline` after a deliberate perf change.
bench-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro bench --smoke --repeats 2 \
		-o BENCH_current.json \
		--speedup-baseline BENCH_baseline_smoke.json \
		--speedup-tolerance 0.25

bench-smoke-baseline:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro bench --smoke --repeats 3 \
		-o BENCH_baseline_smoke.json

# The original pytest-benchmark suite (micro-benchmarks).
bench-pytest:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/ --benchmark-only -q

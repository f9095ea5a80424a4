# Convenience targets for the reproduction.

PYTHON ?= python
SMOKE_DIR := .campaign-smoke
OBS_SMOKE_DIR := .obs-smoke
RESUME_SMOKE_DIR := .resume-smoke
ANALYZE_SMOKE_DIR := .analyze-obs-smoke
BENCH_CHECK_DIR := .bench-check
PERF_SMOKE_DIR := .perf-smoke
SERVE_SMOKE_DIR := .serve-smoke
BENCH_SERVE_DIR := .bench-serve
TRACE_SMOKE_DIR := .trace-smoke
BENCH_TABLES_DIR := .bench-tables

.PHONY: install test test-fast campaign-smoke obs-smoke resume-smoke \
	analyze-obs-smoke bench-check perf-smoke serve-smoke bench-serve \
	trace-smoke vector-parity analyze-parity bench-tables e2e-smoke lint \
	bench bench-full bench-obs bench-perf examples clean

install:
	$(PYTHON) setup.py develop

test: lint campaign-smoke obs-smoke resume-smoke analyze-obs-smoke bench-check \
		perf-smoke serve-smoke bench-serve trace-smoke vector-parity \
		analyze-parity bench-tables e2e-smoke
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow"

# Fast end-to-end check: a 2-path x 2-trace x 10-epoch parallel campaign
# through the CLI, twice — the cache must hold exactly one .npz entry and
# no CSV, and the second run must be served from it and produce a
# byte-identical dataset.  Then one byte inside the entry's stored
# dataset.csv is flipped: the third run must re-simulate, quarantine the
# entry as *.corrupt and still write the same bytes.
campaign-smoke:
	rm -rf $(SMOKE_DIR)
	PYTHONPATH=src REPRO_CACHE_DIR=$(SMOKE_DIR)/cache \
		REPRO_CHECKPOINT_DIR=$(SMOKE_DIR)/ckpt $(PYTHON) -m repro.cli.campaign \
		--paths 2 --traces 2 --epochs 10 --workers 2 -o $(SMOKE_DIR)/smoke.csv
	test "$$(find $(SMOKE_DIR)/cache -name '*.npz' | wc -l)" -eq 1
	test -z "$$(find $(SMOKE_DIR)/cache -name '*.csv')"
	PYTHONPATH=src REPRO_CACHE_DIR=$(SMOKE_DIR)/cache \
		REPRO_CHECKPOINT_DIR=$(SMOKE_DIR)/ckpt $(PYTHON) -m repro.cli.campaign \
		--paths 2 --traces 2 --epochs 10 --workers 2 -o $(SMOKE_DIR)/smoke-again.csv \
		| grep -q "cache hit"
	cmp $(SMOKE_DIR)/smoke.csv $(SMOKE_DIR)/smoke-again.csv
	$(PYTHON) -c "import sys; from pathlib import Path; \
		from tests.testbed.entry_damage import flip_csv_byte; \
		flip_csv_byte(Path(sys.argv[1]))" $$(find $(SMOKE_DIR)/cache -name '*.npz')
	PYTHONPATH=src REPRO_CACHE_DIR=$(SMOKE_DIR)/cache \
		REPRO_CHECKPOINT_DIR=$(SMOKE_DIR)/ckpt $(PYTHON) -m repro.cli.campaign \
		--paths 2 --traces 2 --epochs 10 --workers 2 -o $(SMOKE_DIR)/smoke-damaged.csv \
		> $(SMOKE_DIR)/damaged.out
	! grep -q "cache hit" $(SMOKE_DIR)/damaged.out
	test "$$(find $(SMOKE_DIR)/cache -name '*.corrupt' | wc -l)" -eq 1
	cmp $(SMOKE_DIR)/smoke.csv $(SMOKE_DIR)/smoke-damaged.csv
	@echo "campaign smoke OK (parallel run + cache hit + damaged entry re-simulated)"

# Telemetry end-to-end check: a tiny campaign must write its run
# manifest sidecars with one `trace` event per fluid trace (4 here) and
# no per-epoch events, `repro-obs summary` must render them, and
# `repro-obs slowest` must rank at least one trace.
obs-smoke:
	rm -rf $(OBS_SMOKE_DIR)
	PYTHONPATH=src REPRO_CACHE_DIR=$(OBS_SMOKE_DIR)/cache \
		REPRO_CHECKPOINT_DIR=$(OBS_SMOKE_DIR)/ckpt $(PYTHON) -m repro.cli.campaign \
		--paths 4 --traces 1 --epochs 5 --quiet -o $(OBS_SMOKE_DIR)/smoke.csv
	test -f $(OBS_SMOKE_DIR)/smoke.manifest.json
	test -f $(OBS_SMOKE_DIR)/smoke.events.jsonl
	test "$$(grep -c '"kind": "trace"' $(OBS_SMOKE_DIR)/smoke.events.jsonl)" -eq 4
	! grep -q '"kind": "epoch"' $(OBS_SMOKE_DIR)/smoke.events.jsonl
	PYTHONPATH=src $(PYTHON) -m repro.cli.obs summary $(OBS_SMOKE_DIR)/smoke.csv > /dev/null
	PYTHONPATH=src $(PYTHON) -m repro.cli.obs slowest $(OBS_SMOKE_DIR)/smoke.csv \
		| tail -n +2 | grep -q .
	@echo "obs smoke OK (4 trace events + summary rendered + slowest ranked)"

# Fault-tolerance end-to-end check: run a tiny campaign that an injected
# fault hard-kills (os._exit) mid-flight, give one of its checkpoints a
# first member header naming an unsupported compression method, then
# `--resume` it; the resumed dataset must be byte-identical to an
# uninterrupted run's, and its manifest must count the damaged
# checkpoint once (`checkpoint.corrupt` 1).
resume-smoke:
	rm -rf $(RESUME_SMOKE_DIR)
	PYTHONPATH=src REPRO_CHECKPOINT_DIR=$(RESUME_SMOKE_DIR)/ckpt-ref $(PYTHON) -m repro.cli.campaign \
		--paths 2 --traces 2 --epochs 8 --no-cache --quiet -o $(RESUME_SMOKE_DIR)/ref.csv
	PYTHONPATH=src REPRO_CHECKPOINT_DIR=$(RESUME_SMOKE_DIR)/ckpt \
		REPRO_FAULT_SPEC="p18/1:exit" $(PYTHON) -m repro.cli.campaign \
		--paths 2 --traces 2 --epochs 8 --no-cache --quiet -o $(RESUME_SMOKE_DIR)/resumed.csv; \
		test $$? -ne 0
	test ! -f $(RESUME_SMOKE_DIR)/resumed.csv
	ls $(RESUME_SMOKE_DIR)/ckpt/*/*.npz > /dev/null
	$(PYTHON) -c "import sys; from pathlib import Path; \
		from tests.testbed.entry_damage import unsupported_method; \
		unsupported_method(Path(sys.argv[1]))" $$(ls $(RESUME_SMOKE_DIR)/ckpt/*/*.npz | head -n 1)
	PYTHONPATH=src REPRO_CHECKPOINT_DIR=$(RESUME_SMOKE_DIR)/ckpt $(PYTHON) -m repro.cli.campaign \
		--paths 2 --traces 2 --epochs 8 --no-cache --quiet --resume -o $(RESUME_SMOKE_DIR)/resumed.csv
	cmp $(RESUME_SMOKE_DIR)/ref.csv $(RESUME_SMOKE_DIR)/resumed.csv
	test "$$($(PYTHON) -c "import json, sys; \
		print(sum(c['value'] for c in json.load(open(sys.argv[1]))['counters'] \
		if c['name'] == 'checkpoint.corrupt'))" $(RESUME_SMOKE_DIR)/resumed.manifest.json)" -eq 1
	@echo "resume smoke OK (killed mid-flight + damaged checkpoint + --resume == uninterrupted run)"

# Prediction-pipeline telemetry end-to-end check: a tiny repro-analyze
# run must write analysis sidecars, `repro-obs summary` must render
# them, and a `bench record` + `bench check` round-trip on the fresh
# manifest must pass the regression gate.
analyze-obs-smoke:
	rm -rf $(ANALYZE_SMOKE_DIR)
	PYTHONPATH=src REPRO_CACHE_DIR=$(ANALYZE_SMOKE_DIR)/cache \
		REPRO_CHECKPOINT_DIR=$(ANALYZE_SMOKE_DIR)/ckpt $(PYTHON) -m repro.cli.campaign \
		--paths 3 --traces 1 --epochs 12 --quiet --no-cache -o $(ANALYZE_SMOKE_DIR)/smoke.csv
	PYTHONPATH=src REPRO_EVAL_CACHE_DIR=$(ANALYZE_SMOKE_DIR)/evals \
		$(PYTHON) -m repro.cli.analyze $(ANALYZE_SMOKE_DIR)/smoke.csv \
		--figures 2 16 > /dev/null
	test -f $(ANALYZE_SMOKE_DIR)/smoke.analysis.manifest.json
	test -f $(ANALYZE_SMOKE_DIR)/smoke.analysis.events.jsonl
	PYTHONPATH=src $(PYTHON) -m repro.cli.obs summary \
		$(ANALYZE_SMOKE_DIR)/smoke.analysis.manifest.json | grep -q "kind=analysis"
	PYTHONPATH=src $(PYTHON) -m repro.cli.obs bench record \
		$(ANALYZE_SMOKE_DIR)/smoke.analysis.manifest.json \
		--name smoke --baselines-dir $(ANALYZE_SMOKE_DIR)/baselines
	PYTHONPATH=src $(PYTHON) -m repro.cli.obs bench check \
		$(ANALYZE_SMOKE_DIR)/smoke.analysis.manifest.json \
		--name smoke --baselines-dir $(ANALYZE_SMOKE_DIR)/baselines > /dev/null
	@echo "analyze obs smoke OK (analysis sidecars + summary + bench gate)"

# The perf-regression gate against the committed baseline: re-measure the
# benchmark fixtures and require the timings to stay within tolerance of
# benchmarks/baselines/obs_baseline.json.  The wide tolerance absorbs
# machine-to-machine wall-clock noise; counters must match exactly.
bench-check:
	rm -rf $(BENCH_CHECK_DIR)
	mkdir -p $(BENCH_CHECK_DIR)
	PYTHONPATH=src $(PYTHON) benchmarks/obs_baseline.py \
		--output $(BENCH_CHECK_DIR)/BENCH_obs.json
	PYTHONPATH=src $(PYTHON) -m repro.cli.obs bench check \
		$(BENCH_CHECK_DIR)/BENCH_obs.json --tolerance 0.6
	@echo "bench check OK (fixture timings within tolerance of committed baseline)"

# The hot-path perf gate: re-measure the packet-engine/campaign perf
# fixtures and require the timings to stay within a loose tolerance of
# benchmarks/baselines/perf_baseline.json.  The ±90% tolerance only
# catches order-of-magnitude regressions — shared CI runners are far
# too noisy for tight wall-clock budgets — while the event/epoch
# counters must match exactly (they are deterministic given the seed).
perf-smoke:
	rm -rf $(PERF_SMOKE_DIR)
	mkdir -p $(PERF_SMOKE_DIR)
	PYTHONPATH=src $(PYTHON) benchmarks/perf_bench.py \
		--output $(PERF_SMOKE_DIR)/BENCH_perf.json
	PYTHONPATH=src $(PYTHON) -m repro.cli.obs bench check \
		$(PERF_SMOKE_DIR)/BENCH_perf.json --name perf_baseline --tolerance 0.9
	@echo "perf smoke OK (hot-path timings within tolerance of committed baseline)"

# Online-serving end-to-end check: boot the real repro-serve CLI as a
# subprocess, ingest over HTTP, require the forecast to be bit-identical
# to an offline StreamingPredictorState, then SIGTERM and verify the
# shutdown snapshot + manifest and a bit-identical restore on restart.
serve-smoke:
	rm -rf $(SERVE_SMOKE_DIR)
	$(PYTHON) tools/serve_smoke.py --workdir $(SERVE_SMOKE_DIR)

# The serving-throughput gate: re-measure the streaming-ingest, state
# store, and HTTP fixtures and require the timings to stay within a
# loose tolerance of benchmarks/baselines/serve_baseline.json; the
# sample/request counters must match exactly.  After an intentional
# serving-perf change, re-record with:
#   repro-obs bench record BENCH_serve.json --name serve_baseline
bench-serve:
	rm -rf $(BENCH_SERVE_DIR)
	mkdir -p $(BENCH_SERVE_DIR)
	PYTHONPATH=src $(PYTHON) benchmarks/serve_bench.py \
		--output $(BENCH_SERVE_DIR)/BENCH_serve.json
	PYTHONPATH=src $(PYTHON) -m repro.cli.obs bench check \
		$(BENCH_SERVE_DIR)/BENCH_serve.json --name serve_baseline --tolerance 0.9
	@echo "serve bench OK (serving throughput within tolerance of committed baseline)"

# Span-tracing end-to-end check: a tiny campaign and a live repro-serve
# round trip, both rendered by `repro-obs trace`; the Chrome trace-event
# exports must pass validate_chrome_trace and the campaign's critical
# path must be non-empty (see docs/observability.md, "Tracing").
trace-smoke:
	rm -rf $(TRACE_SMOKE_DIR)
	$(PYTHON) tools/trace_smoke.py --workdir $(TRACE_SMOKE_DIR)

# The fluid engine's bit-identity gate: the default-catalog campaign CSV
# must hash to the sha256 pinned in tools/vector_parity.py at workers
# 1, 2 and 4 (see docs/performance.md, "The fluid engine").  Shrink for
# quick iteration with e.g. (no pin: workers 2/4 must match workers 1):
#   python tools/vector_parity.py --paths 4 --traces 2 --epochs 20
vector-parity:
	PYTHONPATH=src $(PYTHON) tools/vector_parity.py
	@echo "vector parity OK (default-catalog CSV matches the pinned sha256 at every worker count)"

# The HB-analysis bit-identity gate: repro-analyze stdout must match the
# digest pinned in tools/analyze_parity.py, hash identically at workers
# 1/2/4 (each cold run parsing the CSV and leaving one evaluation-cache
# pack, one columns entry and one report) and at workers 2 with a
# crash-injected worker (REPRO_FAULT_SPEC=<path>/0:exit:1, the manifest
# reporting a pool rebuild), a rerun against the populated cache must
# match while served from the stored report with zero walks computed,
# a warm rerun without the report must match while reading the columns
# entry, computing zero walks and counting no LSO detection
# (hb.level_shifts, hb.outliers_discarded), a rerun over a garbage pack
# and columns entry, and one over a pack and a columns entry whose first
# member header no zip reader can read, must each match while parsing
# the CSV, recomputing every walk and quarantining both files, a rerun
# over a garbage report and one over a report cut off mid-document must
# each match while reading the columns entry, quarantining the report
# and writing it again, a rerun by a copy of the source with an edited
# CSV parser must miss the report and parse the CSV again, and a CSV
# that fails to load must be refused twice, storing nothing (see
# docs/performance.md, "The evaluation cache" and "A warm analysis
# reads columns", and docs/robustness.md).  The reduced grid keeps
# `make test` quick; the tool's default invocation (no flags) covers the
# full default catalog.
analyze-parity:
	PYTHONPATH=src $(PYTHON) tools/analyze_parity.py --paths 6 --traces 2 --epochs 60
	@echo "analyze parity OK (pinned, parallel, crash-recovered, report-served, cached, damaged, damaged-report and edited-parser outputs byte-identical; the report and cached runs walked and segmented nothing; a failed load stored nothing)"

# The reduced-scale figure tables: regenerate every table of the
# benchmark suite from freshly simulated campaigns (2 x 80-epoch May-2004
# and 1 x 40-epoch March-2006 sets, REPRO_FULL_CAMPAIGN unset) and
# require them byte-identical to the tracked benchmarks/output/.  No CLI
# digest pin reaches Figs. 4, 5, 9, 10, 13 and 14, Section 4.2.4 or the
# model ablation; this gate does.  A change that moves a table on
# purpose commits the regenerated file with it.
bench-tables:
	rm -rf $(BENCH_TABLES_DIR)
	env -u REPRO_FULL_CAMPAIGN REPRO_CACHE_DIR=$(BENCH_TABLES_DIR)/cache \
		REPRO_CHECKPOINT_DIR=$(BENCH_TABLES_DIR)/ckpt \
		REPRO_EVAL_CACHE_DIR=$(BENCH_TABLES_DIR)/evals \
		$(PYTHON) -m pytest benchmarks/ --benchmark-only -q -p no:cacheprovider
	git diff --exit-code -- benchmarks/output
	@echo "bench tables OK (every reduced-scale table byte-identical to benchmarks/output/)"

# The end-to-end benchmark's self-test (benchmarks/e2e/test_e2e.py):
# `run.py --smoke` over all four workloads on a tiny catalog, untraced
# and traced, checked against BENCHMARK.json and the smoke catalog's
# pinned digests.  The traced run wraps repro functions by module path
# (benchmarks/e2e/shim.py), so renaming a probed function, or moving the
# HB walks off `repro.hb.vector_eval.vector_walk`, fails it here.
e2e-smoke:
	$(PYTHON) -m pytest benchmarks/e2e -q

# Library code must report through repro.obs, not print().
lint:
	$(PYTHON) tools/no_print_lint.py

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-full:
	REPRO_FULL_CAMPAIGN=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Refresh BENCH_obs.json: wall time + per-phase timings of the
# benchmark fixture campaigns, for tracking the perf trajectory.
bench-obs:
	PYTHONPATH=src $(PYTHON) benchmarks/obs_baseline.py

# Refresh BENCH_perf.json: event-throughput and campaign wall-time
# measurements of the hot-path fixtures, for tracking the perf
# trajectory.  After an intentional perf change, re-record the gate's
# baseline with:
#   repro-obs bench record BENCH_perf.json --name perf_baseline
bench-perf:
	PYTHONPATH=src $(PYTHON) benchmarks/perf_bench.py

examples:
	for script in examples/*.py; do echo "== $$script"; $(PYTHON) $$script; done

clean:
	rm -rf build dist src/repro.egg-info .pytest_cache $(SMOKE_DIR) $(OBS_SMOKE_DIR) \
		$(RESUME_SMOKE_DIR) $(ANALYZE_SMOKE_DIR) $(BENCH_CHECK_DIR) \
		$(PERF_SMOKE_DIR) $(SERVE_SMOKE_DIR) $(BENCH_SERVE_DIR) $(TRACE_SMOKE_DIR) \
		$(BENCH_TABLES_DIR)
	find . -name __pycache__ -type d -exec rm -rf {} +

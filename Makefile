# Developer / CI entry points.
#
#   make tier1        - full test suite (the CI gate)
#   make lint         - ruff check with the repo config (skips gracefully
#                       when ruff is not installed; CI always installs it)
#   make smoke-batch  - fast correctness gate for the hot path: batch/scalar
#                       equivalence (1-D and 2-D, including the flat
#                       cell-directory property tests), the certified-view
#                       protocol conformance table, sharding/codec
#                       round-trips, streaming, serving, fleet and
#                       observability tests, and the durability fault tests
#                       (WAL crash-point sweep, degraded fleet reads, fsck,
#                       serve resilience); run before merging changes that
#                       touch the query hot path
#
# The bench-* targets are standalone systems benchmarks with timing gates.
# Each writes its BENCH_*.json under the git-ignored benchmarks/out/ and
# exits non-zero when a gate fails; their correctness checks also live in
# tests/. End-to-end performance is measured by perfbench/ (BENCHMARK.json).
#
#   make bench-batch  - full scalar-vs-batch throughput sweep (1-D methods
#                       and the 2-D linearized-directory section), writes
#                       BENCH_batch_throughput.json
#   make bench-shards - full thread-pool shard-scaling protocol (1M-query
#                       COUNT workload), writes BENCH_shard_scaling.json
#   make bench-build  - full construction-time protocol (incremental/remez/
#                       early-accept GS vs the LP-per-probe baseline up to
#                       10^6 keys, serial vs parallel quadtree build), writes
#                       BENCH_build_time.json
#   make bench-update - full streaming-ingestion protocol (inserts/s, query
#                       latency vs delta-buffer fill, compaction pause vs a
#                       from-scratch rebuild), writes
#                       BENCH_update_throughput.json
#   make bench-serve  - full serving protocol (request coalescing vs one
#                       engine call per request: idle round-trip, open-loop
#                       latency percentiles by offered QPS, saturation
#                       throughput), writes BENCH_serve_latency.json
#   make bench-fleet  - full fleet-scaling protocol (scatter-gather vs the
#                       monolithic index: bit-identity across aggregates,
#                       throughput vs partition count, straddle/bound
#                       profile, routed inserts), writes
#                       BENCH_fleet_scaling.json
#   make bench-durability - full durability protocol (WAL'd vs plain insert
#                       throughput, recovery time vs log length, degraded
#                       fleet-read overhead), writes BENCH_durability.json
#   make fsck-smoke   - the `repro fsck` CLI against a freshly corrupted
#                       fixture: clean artifacts must exit 0, a bit-flipped
#                       codec file must exit 1 with a typed report
#   make metrics-smoke - stand up a live server over a WAL-backed updatable
#                       index, drive traffic through every layer, and
#                       require GET /metrics to be valid Prometheus text
#                       covering serve, cache, shard, WAL and compaction
#   make perfbench-selftest - the benchmark's own self-test: a tiny run of
#                       every perfbench workload, untraced and traced, must
#                       emit every metric BENCHMARK.json names (so a renamed
#                       method the tracer wraps, or a per-layer metric that
#                       stops being produced, fails here), and the answer
#                       gate must trip on a perturbed answer (~1 min)
#   make reproduce    - the paper reproduction itself: every figure, table
#                       and ablation driver under benchmarks/ (pytest, ~1 min;
#                       REPRO_BENCH_SCALE shrinks the datasets)
#   make docs-lint    - README/docs link + anchor checker, every
#                       BENCH_*.json named in the docs must be emitted by a
#                       benchmark (and vice versa), and every metric name
#                       documented in docs/OBSERVABILITY.md must be
#                       registered in the code (and vice versa)

PYTHON ?= python
export PYTHONPATH := src

.PHONY: tier1 lint docs-lint smoke-batch fsck-smoke metrics-smoke perfbench-selftest reproduce bench-batch bench-shards bench-build bench-update bench-serve bench-fleet bench-durability

tier1:
	$(PYTHON) -m pytest -x -q

lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check .; \
	else \
		echo "ruff not installed; skipping lint (CI runs it)"; \
	fi

smoke-batch:
	$(PYTHON) -m pytest -x -q tests/test_batch_equivalence.py tests/test_batch_smoke.py \
		tests/test_view_protocol.py tests/test_directory.py tests/test_sharding.py \
		tests/test_codec.py tests/test_codec_compat.py tests/test_fitting_incremental.py \
		tests/test_stream_updatable.py tests/test_stream_2d.py \
		tests/test_serve_coalescer.py tests/test_serve_http.py \
		tests/test_fleet.py \
		tests/test_wal.py tests/test_degrade.py tests/test_fsck.py \
		tests/test_serve_resilience.py \
		tests/test_obs_metrics.py tests/test_obs_tracing.py tests/test_obs_serve.py

fsck-smoke:
	@$(PYTHON) tools/fsck_smoke.py

metrics-smoke:
	@$(PYTHON) tools/metrics_smoke.py

perfbench-selftest:
	$(PYTHON) -m pytest perfbench/selftest.py -q

reproduce:
	$(PYTHON) -m pytest benchmarks/bench_fig*.py benchmarks/bench_table*.py benchmarks/bench_ablation*.py -q

bench-batch:
	$(PYTHON) benchmarks/bench_batch_throughput.py

bench-shards:
	$(PYTHON) benchmarks/bench_shard_scaling.py

bench-build:
	$(PYTHON) benchmarks/bench_build_time.py

bench-update:
	$(PYTHON) benchmarks/bench_update_throughput.py

bench-serve:
	$(PYTHON) benchmarks/bench_serve_latency.py

bench-fleet:
	$(PYTHON) benchmarks/bench_fleet_scaling.py

bench-durability:
	$(PYTHON) benchmarks/bench_durability.py

docs-lint:
	$(PYTHON) tools/check_docs.py

# Developer / CI entry points.
#
#   make tier1        - full test suite (the CI gate)
#   make lint         - ruff check with the repo config (skips gracefully
#                       when ruff is not installed; CI always installs it)
#   make smoke-batch  - fast perf gate: batch/scalar equivalence (1-D and
#                       2-D, including the flat cell-directory property
#                       tests), sharding/codec round-trips, the durability
#                       fault tests (WAL crash-point sweep, degraded fleet
#                       reads, fsck, serve resilience) and the scaled-down
#                       systems benches (their artifacts land in the
#                       git-ignored benchmarks/out/, never over the
#                       committed BENCH_*.json); run before merging
#                       changes that touch the query hot path
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
#   make bench-obs    - full observability-overhead protocol (instrumented
#                       vs uninstrumented serve p50 and batch throughput,
#                       trace-sampling cost at 0%/1%/100%, exposition
#                       validity, bit-identity), writes
#                       BENCH_observability.json
#   make fsck-smoke   - the `repro fsck` CLI against a freshly corrupted
#                       fixture: clean artifacts must exit 0, a bit-flipped
#                       codec file must exit 1 with a typed report
#   make metrics-smoke - stand up a live server over a WAL-backed updatable
#                       index, drive traffic through every layer, and
#                       require GET /metrics to be valid Prometheus text
#                       covering serve, cache, shard, WAL and compaction
#   make docs-lint    - README/docs link + anchor checker, every
#                       BENCH_*.json named in the docs must be emitted by a
#                       benchmark (and vice versa), and every metric name
#                       documented in docs/OBSERVABILITY.md must be
#                       registered in the code (and vice versa)

PYTHON ?= python
export PYTHONPATH := src

.PHONY: tier1 lint docs-lint smoke-batch fsck-smoke metrics-smoke bench-batch bench-shards bench-build bench-update bench-serve bench-fleet bench-durability bench-obs

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
		tests/test_directory.py tests/test_sharding.py tests/test_codec.py \
		tests/test_codec_compat.py tests/test_fitting_incremental.py \
		tests/test_stream_updatable.py tests/test_stream_2d.py \
		tests/test_serve_coalescer.py tests/test_serve_http.py \
		tests/test_fleet.py \
		tests/test_wal.py tests/test_degrade.py tests/test_fsck.py \
		tests/test_serve_resilience.py \
		tests/test_obs_metrics.py tests/test_obs_tracing.py tests/test_obs_serve.py \
		benchmarks/bench_shard_scaling.py benchmarks/bench_build_time.py \
		benchmarks/bench_update_throughput.py benchmarks/bench_serve_latency.py \
		benchmarks/bench_fleet_scaling.py benchmarks/bench_durability.py \
		benchmarks/bench_observability.py

fsck-smoke:
	@$(PYTHON) tools/fsck_smoke.py

metrics-smoke:
	@$(PYTHON) tools/metrics_smoke.py

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

bench-obs:
	$(PYTHON) benchmarks/bench_observability.py

docs-lint:
	$(PYTHON) tools/check_docs.py

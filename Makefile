# Developer entry points.  Tier-1 is the correctness suite the repo
# gates every change on; tier-2 adds the performance gates (benchmark
# smoke runs), which are slower and hardware-sensitive.

PYTHON ?= python
export PYTHONPATH := src

# Every registered benchmark (repro.perf.harness.REGISTRY).
BENCHES := $(shell PYTHONPATH=src $(PYTHON) -c "from repro.perf.harness import REGISTRY; print(*REGISTRY)")

.PHONY: test test-tier2 test-all chaos chaos-serve obs-smoke \
	serve-smoke cluster-smoke update-smoke estimate-smoke \
	test-backends semantic-smoke bench-e2e bench-e2e-smoke bench-check \
	$(addprefix bench-,$(BENCHES)) $(addsuffix -smoke,$(addprefix bench-,$(BENCHES)))

test:
	$(PYTHON) -m pytest -x -q

test-tier2:
	$(PYTHON) -m pytest -q -m tier2 tests

# Solver precision alone (tier-1 float64/float32 agreement sweep +
# tier-2 bench gate).
test-backends:
	$(PYTHON) -m pytest -q -m "backends" tests/perf tests/pagerank

# Chaos suite: deterministic fault injection against the parallel
# pipeline (SIGKILLed workers, hung chunks, vanished shm segments,
# checkpoint truncation at every journal length), then the serve-path
# matrix.
chaos: chaos-serve
	$(PYTHON) -m pytest -q -m chaos tests/resilience

# Serve-path chaos matrix: every ranked route x kill/slow/flaky shards
# behind the router; every response must be bit-identical fresh,
# flagged-stale within budget, or an honest 503 — never silently wrong.
chaos-serve:
	$(PYTHON) -m pytest -q -m chaos_serve tests/serve

test-all: test test-tier2 chaos

# Observability smoke: the obs test suite (registry, tracing, export,
# bit-identical-scores pin), then an end-to-end --obs run on a toy
# dataset rendered through obs-report.
obs-smoke:
	$(PYTHON) -m pytest -q -m "obs and not chaos" tests/obs
	$(PYTHON) -m repro table4 --fast --obs --obs-out /tmp/obs_smoke.json > /dev/null
	$(PYTHON) -m repro obs-report /tmp/obs_smoke.json

# Serving smoke: the serve test suite (score store, micro-batching,
# HTTP endpoints on an ephemeral port, graceful shutdown, the
# bit-identical-to-offline pin).
serve-smoke:
	$(PYTHON) -m pytest -q -m "serve and not tier2 and not chaos_serve" tests/serve

# Sharded-cluster smoke: the tier-1 cluster suite (routing,
# failover, degraded serving, cluster-wide updates, client retries).
cluster-smoke:
	$(PYTHON) -m pytest -q tests/serve/test_cluster.py

# Incremental re-ranking smoke: the updates test suite (region
# detection, warm starts, staleness certificates, metrics), then the
# stale-but-bounded serving contract pins in the serve suite.
update-smoke:
	$(PYTHON) -m pytest -q -m updates tests/updates
	$(PYTHON) -m pytest -q tests/serve/test_server.py -k Update

# Estimation smoke: the tier-1 accuracy-request suite (spec parsing,
# the bit-identity pin, the certified bound against a tight baseline,
# the r_max refusal, serve and routed integration, and the composed
# bound-plus-update-charges certificate in the score store).
estimate-smoke:
	$(PYTHON) -m pytest -q -m "estimation and not tier2" tests/estimation tests/serve/test_estimator_serve.py tests/serve/test_store.py

# Full benchmark run: `make bench-NAME` writes its BENCH_*.json record
# at the repo root (see `python -m repro bench NAME`).
$(addprefix bench-,$(BENCHES)): bench-%:
	$(PYTHON) -m repro bench $*

# CI tier-2 gate: the smoke workload; non-zero exit when a clause
# neither passes nor is waived (the failing clauses are named).
$(addsuffix -smoke,$(addprefix bench-,$(BENCHES))): bench-%-smoke:
	$(PYTHON) -m repro bench $* --fast --output /tmp/BENCH_$*_smoke.json

# Semantic smoke: the tier-1 semantic suite (embeddings determinism
# and persistence, retrieval, dedup, pipeline), the family contract
# test, and the /semantic-search serving pins.
semantic-smoke:
	$(PYTHON) -m pytest -q -m "semantic and not tier2" tests/semantic tests/subgraphs/test_family_contract.py tests/serve/test_semantic_serve.py

# End-to-end serving benchmark: boots the real server as a separate
# process and drives every workload over HTTP; prints each metric and
# a JSON result line.  The smoke run is short and adds a traced boot,
# so every layer shim must still resolve.
bench-e2e:
	$(PYTHON) benchmarks/e2e/run.py

bench-e2e-smoke:
	$(PYTHON) benchmarks/e2e/run.py --smoke --trace 1

# Regenerate every benchmark record into /tmp and diff it against the
# committed one; --strict turns regressions above the noise threshold
# into a non-zero exit.
bench-check:
	@set -e; for bench in $(BENCHES); do \
		record=$$($(PYTHON) -c "from repro.perf.harness import load_bench; print(load_bench('$$bench').record)"); \
		$(PYTHON) -m repro bench $$bench --output /tmp/$$record > /dev/null; \
		$(PYTHON) -m repro bench-diff $$record /tmp/$$record --strict; \
	done

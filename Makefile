# Developer entry points.  Tier-1 is the correctness suite the repo
# gates every change on; tier-2 adds the performance gates (benchmark
# smoke runs), which are slower and hardware-sensitive.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-tier2 test-all chaos chaos-serve obs-smoke \
	serve-smoke cluster-smoke update-smoke estimate-smoke \
	bench-kernels bench-kernels-smoke bench-parallel \
	bench-parallel-smoke bench-serve bench-serve-smoke \
	bench-backends bench-backends-smoke test-backends \
	bench-updates bench-updates-smoke bench-shard \
	bench-shard-smoke bench-estimation bench-estimation-smoke \
	semantic-smoke bench-semantic bench-semantic-smoke \
	bench-e2e bench-e2e-smoke bench-check

test:
	$(PYTHON) -m pytest -x -q

test-tier2:
	$(PYTHON) -m pytest -q -m tier2 tests/perf tests/parallel

# Backend matrix alone (tier-1 agreement sweep + tier-2 bench gate).
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

# Estimation smoke: the tier-1 estimator suite (protocol, exact
# bit-identity pin, Monte Carlo certificates + determinism matrix,
# push invariants, serve/store integration).
estimate-smoke:
	$(PYTHON) -m pytest -q -m "estimation and not tier2" tests/estimation tests/serve/test_estimator_serve.py

# Full benchmark; writes BENCH_solver.json at the repo root.
bench-kernels:
	$(PYTHON) benchmarks/bench_solver_kernels.py

# CI tier-2 gate: small workload, non-zero exit when the batched
# solver is not faster than K sequential single solves.
bench-kernels-smoke:
	$(PYTHON) benchmarks/bench_solver_kernels.py --smoke --output /tmp/BENCH_solver_smoke.json

# Full scaling benchmark; writes BENCH_parallel.json at the repo root.
bench-parallel:
	$(PYTHON) benchmarks/bench_parallel.py

# CI tier-2 gate: small workload; requires exact serial/parallel score
# agreement always, and a wall-clock win when the machine has cores.
bench-parallel-smoke:
	$(PYTHON) benchmarks/bench_parallel.py --smoke --output /tmp/BENCH_parallel_smoke.json

# Full serving benchmark; writes BENCH_serve.json at the repo root.
bench-serve:
	$(PYTHON) benchmarks/bench_serve.py

# CI tier-2 gate: small workload; always requires batched-vs-offline
# agreement and singleton bit-identity; the speedup clause is waived
# on single-core machines only.
bench-serve-smoke:
	$(PYTHON) benchmarks/bench_serve.py --smoke --output /tmp/BENCH_serve_smoke.json

# Full backend benchmark; writes BENCH_backend.json at the repo root.
bench-backends:
	$(PYTHON) benchmarks/bench_backends.py

# CI tier-2 gate: small workload; accuracy clauses (numba/f64 <= 1e-12
# L1, float32 within its documented bound) always apply; speedup
# clauses the box cannot exercise are waived and recorded in the JSON.
bench-backends-smoke:
	$(PYTHON) benchmarks/bench_backends.py --smoke --output /tmp/BENCH_backend_smoke.json

# Full update-stream benchmark; writes BENCH_update.json at the repo
# root.
bench-updates:
	$(PYTHON) benchmarks/bench_updates.py

# CI tier-2 gate: small churn stream; the warm/cold accuracy clause
# and the Theorem-2 staleness clause are never waived; the
# iterations-saved ratio clause is waived (and recorded) only when
# cold solves have no burn-in worth skipping.
bench-updates-smoke:
	$(PYTHON) benchmarks/bench_updates.py --smoke --output /tmp/BENCH_update_smoke.json

# Full shard-sweep benchmark; writes BENCH_shard.json at the repo
# root.
bench-shard:
	$(PYTHON) benchmarks/bench_shard.py

# CI tier-2 gate: small fleet sweep; the routed-vs-offline
# bit-identity clause is never waived; the speedup clause is waived
# (and recorded) on single-core machines only.
bench-shard-smoke:
	$(PYTHON) benchmarks/bench_shard.py --smoke --output /tmp/BENCH_shard_smoke.json

# Semantic smoke: the tier-1 semantic suite (embeddings determinism
# and persistence, retrieval, dedup, pipeline), the family contract
# test, and the /semantic-search serving pins.
semantic-smoke:
	$(PYTHON) -m pytest -q -m "semantic and not tier2" tests/semantic tests/subgraphs/test_family_contract.py tests/serve/test_semantic_serve.py

# Full semantic diversity benchmark; writes BENCH_semantic.json at
# the repo root.
bench-semantic:
	$(PYTHON) benchmarks/bench_semantic.py

# CI tier-2 gate: small workload; the determinism clause (same
# seed+query -> identical answer set) and push certificate honesty
# are never waived.
bench-semantic-smoke:
	$(PYTHON) benchmarks/bench_semantic.py --smoke --output /tmp/BENCH_semantic_smoke.json

# Full estimation Pareto benchmark; writes BENCH_estimate.json at the
# repo root.
bench-estimation:
	$(PYTHON) benchmarks/bench_estimation.py

# CI tier-2 gate: small workload; the certificate-accuracy clause and
# the sublinearity clause are never waived.
bench-estimation-smoke:
	$(PYTHON) benchmarks/bench_estimation.py --smoke --output /tmp/BENCH_estimate_smoke.json

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
	$(PYTHON) benchmarks/bench_solver_kernels.py --output /tmp/BENCH_solver_check.json > /dev/null
	$(PYTHON) -m repro bench-diff BENCH_solver.json /tmp/BENCH_solver_check.json --strict
	$(PYTHON) benchmarks/bench_parallel.py --output /tmp/BENCH_parallel_check.json > /dev/null
	$(PYTHON) -m repro bench-diff BENCH_parallel.json /tmp/BENCH_parallel_check.json --strict
	$(PYTHON) benchmarks/bench_serve.py --output /tmp/BENCH_serve_check.json > /dev/null
	$(PYTHON) -m repro bench-diff BENCH_serve.json /tmp/BENCH_serve_check.json --strict
	$(PYTHON) benchmarks/bench_backends.py --output /tmp/BENCH_backend_check.json > /dev/null
	$(PYTHON) -m repro bench-diff BENCH_backend.json /tmp/BENCH_backend_check.json --strict
	$(PYTHON) benchmarks/bench_updates.py --output /tmp/BENCH_update_check.json > /dev/null
	$(PYTHON) -m repro bench-diff BENCH_update.json /tmp/BENCH_update_check.json --strict
	$(PYTHON) benchmarks/bench_shard.py --output /tmp/BENCH_shard_check.json > /dev/null
	$(PYTHON) -m repro bench-diff BENCH_shard.json /tmp/BENCH_shard_check.json --strict
	$(PYTHON) benchmarks/bench_estimation.py --output /tmp/BENCH_estimate_check.json > /dev/null
	$(PYTHON) -m repro bench-diff BENCH_estimate.json /tmp/BENCH_estimate_check.json --strict
	$(PYTHON) benchmarks/bench_semantic.py --output /tmp/BENCH_semantic_check.json > /dev/null
	$(PYTHON) -m repro bench-diff BENCH_semantic.json /tmp/BENCH_semantic_check.json --strict

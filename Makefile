PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint cov bench bench-pytest bench-e2e-quick chaos serve-smoke chaos-serve-smoke soak-smoke tenant-smoke

test:
	$(PYTHON) -m pytest -x -q

## Static checks, same invocation as the CI lint job.
lint:
	ruff check src tests benchmarks
	ruff format --check src tests benchmarks

## Tier-1 suite with line coverage, same floor as the CI tests job.
cov:
	$(PYTHON) -m pytest -x -q --cov=repro --cov-report=term-missing --cov-fail-under=80

## The fault-tolerance chaos experiment (docs/ROBUSTNESS.md): replay a
## compressed B2W day under a deterministic fault plan and report the
## controller's recovery behaviour.
chaos:
	$(PYTHON) -m repro.cli run ext-faults --fast

## Serving-layer smoke (docs/SERVING.md): virtual-clock server under a
## spike profile, probed over HTTP; fails unless admission sheds load
## and at least one reconfiguration completes.
serve-smoke:
	./scripts/serve_smoke.sh

## Serving-path fault-tolerance smoke (docs/ROBUSTNESS.md): node crash
## + recovery mid-serve under breakers/retries, exact request
## conservation, and a bit-identical checkpoint restore.
chaos-serve-smoke:
	./scripts/serve_smoke.sh --faults

## Distributed soak smoke (docs/SERVING.md § Distributed serving):
## `repro serve --workers 3` — an edge process drives spawned worker
## shards over pipes for 60 s of virtual time, gated on p99 latency, shed
## rate and exact request conservation; writes out/soak-report.json + a
## debug bundle.  Then restore, pipe vs tcp, and the fleet behind HTTP
## against the same fleet under --no-http.
soak-smoke:
	./scripts/soak_smoke.sh

## Multi-tenant serving smoke (docs/SERVING.md § Multi-tenant serving):
## a three-tenant spec end to end — composite workload, token-bucket
## quota enforcement, exact per-tenant conservation, per-tenant explain
## sections; then the same schedule through a 2-worker fleet with the
## policy at the edge (same quota sheds); writes out/tenant-smoke-bundle.
tenant-smoke:
	./scripts/tenant_smoke.sh

## Median-ns kernel baseline, written to BENCH_<date>.json (see
## docs/PERFORMANCE.md).
bench:
	$(PYTHON) benchmarks/run_bench.py

## The serving-path benchmark (benchmarks/e2e, the reference for serving
## performance claims) at smoke sizes: all four workloads, one short
## round each.  Timings mean nothing at this size; the exit code fails on
## any conservation, digest-across-rounds or liveness check.
bench-e2e-quick:
	python3 benchmarks/e2e/run.py --quick --seconds 0.1

## Full pytest-benchmark statistics for the same kernels.
bench-pytest:
	$(PYTHON) -m pytest benchmarks/test_kernels.py

# Tier-1 verification lives behind `make check`: vet, a full build, and
# the test suite under the race detector with a shuffled test order (the
# cycle-level simulator, the shared platform cache and the parallel
# experiment engine are the concurrency-sensitive parts).
#
#   make test        - quick gate: build + tests (the ROADMAP tier-1 command)
#   make check       - full gate: vet + staticcheck (if installed) + build
#                      + race-enabled shuffled tests + HTTP serve smoke
#                      test + perfbench vet/tests (~3 min)
#   make perfbench-test - vet and test the perfbench module, which the
#                      root ./... never compiles (it is its own module)
#   make chaos       - crash harness: build the real binary, SIGKILL it
#                      mid-job, restart, assert byte-identical recovery
#                      (forks processes; kept out of `make check`)
#   make serve-smoke - boot `cryowire serve` on a random port, probe
#                      /healthz and /metrics, and diff the experiment
#                      endpoint's JSON against the CLI's -json output
#   make shard-smoke - distributed DSE gate: run one quick grid search
#                      single-node, as two local shards, and across two
#                      real `cryowire serve` replicas; the merged
#                      frontier and journal must be byte-identical
#   make surrogate-smoke - screen-then-verify gate: grid the quick
#                      space, screen it against that journal as prior;
#                      screen must simulate >=3x fewer candidates, its
#                      journal entries must be a byte-identical subset
#                      of the grid's, and the frontiers must match
#   make bench       - Go benchmarks. The end-to-end and per-layer
#                      benchmark is `bash perfbench/run.sh` (see
#                      BENCHMARK.json and perfbench/README.md).

GO ?= go

.PHONY: all build test vet staticcheck race check chaos bench perfbench-test serve-smoke shard-smoke surrogate-smoke

all: check

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

# staticcheck is optional tooling: run it when present, skip (loudly)
# when not, so `make check` works on a bare Go toolchain.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

race:
	$(GO) test -race -shuffle=on ./...

serve-smoke: build
	sh scripts/serve_smoke.sh

shard-smoke: build
	sh scripts/shard_smoke.sh

surrogate-smoke: build
	sh scripts/surrogate_smoke.sh

# The chaos tests fork real `cryowire serve` processes and SIGKILL them
# mid-job, so they live behind a build tag and out of the -race gate.
chaos:
	$(GO) test -tags chaos -run TestChaos -v ./internal/jobs/

# perfbench is its own Go module, so the root ./... never builds it
# against the API it drives; vet and test it here.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

check: vet staticcheck build race serve-smoke perfbench-test

bench:
	$(GO) test -bench=. -benchmem ./...

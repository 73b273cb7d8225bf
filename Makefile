GO ?= go
GOFMT ?= gofmt

.PHONY: check build vet test race bench-test bench-e2e bench bench-smoke cover \
	fuzz-smoke accuracy accuracy-sync accuracy-parallel accuracy-stream

# check is the tier-1 gate: build, vet, the full test suite, the test
# suite again under the race detector (the supervisor's parallel validation
# runs cloned machines on separate goroutines, so every PR must stay
# race-clean), and the benchmark module's own tests.
check: build vet test race bench-test

build:
	$(GO) build ./...

# vet also covers the benchmark: bench/ is a module of its own, so
# `./...` never builds it, yet it calls replay, core and fleet directly.
# It then fails if gofmt would reformat any tracked Go file; listing the
# tracked files keeps the module caches under .bench_build/ out of it.
vet:
	$(GO) vet ./...
	$(GO) -C bench vet .
	@files="$$(git ls-files '*.go')" && test -n "$$files" && \
	unformatted="$$($(GOFMT) -l $$files)" && \
	if [ -n "$$unformatted" ]; then echo "not gofmt-clean:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench-test runs the benchmark module's tests: a smoke run of every
# workload against a freshly built firstaid-serve, and
# TestDrainLoopMirrorsSupervisor, which fails when bench/layers.go's copy
# of the supervisor's drain loop drifts from core, replay or fleet.
bench-test:
	$(GO) -C bench test .

# bench-e2e runs the benchmark the way BENCHMARK.json declares it: every
# workload at full size, end-to-end and traced passes, with every served
# outcome checked against an in-process replay (~2-3 min on 2 CPUs). It
# exits non-zero on any correctness error. Run it on the final tree of any
# change to a package bench/ imports. It stays out of check and CI because
# apache-recover's generator-lag check depends on the host's load.
bench-e2e:
	bash bench/run.sh

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# bench-smoke is the CI step: every benchmark runs once, repo-wide, so a
# perf regression or a bit-rotted benchmark fails the build without paying
# for full -benchtime. Every *Guard benchmark (overhead budgets, speedup
# floors, flat-clone bounds) checks its own bound and reports its metrics
# here. The performance record across changes is the end-to-end benchmark
# BENCHMARK.json declares (bench/, run with bash bench/run.sh).
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run '^$$' ./...

# cover is the coverage ratchet: the whole internal tree runs with a
# coverage profile, the HTML render is kept as a CI artifact, and the
# recovery path's packages (core, the diagnosis engine with its
# speculative prober, and the replay log under the batched ingest path),
# the copy-on-write tables under every checkpoint and clone (vmem's page
# table, allocext's object table, with its scan registry and validation
# watch index), the process's access checking (proc), the canary check
# every diagnosis scan runs and the serving path (fleet: dispatch, the
# batch wire format, the HTTP front-end) must not drop below the floors
# recorded when each landed. Raise the floors when coverage rises; never
# lower them.
cover:
	$(GO) test -coverprofile=coverage.out ./internal/...
	$(GO) tool cover -html=coverage.out -o coverage.html
	$(GO) run ./cmd/coverfloor -profile coverage.out \
		-floor firstaid/internal/core=80 \
		-floor firstaid/internal/diagnosis=89 \
		-floor firstaid/internal/replay=85 \
		-floor firstaid/internal/vmem=97 \
		-floor firstaid/internal/allocext=77 \
		-floor firstaid/internal/proc=77 \
		-floor firstaid/internal/canary=100 \
		-floor firstaid/internal/fleet=91

# fuzz-smoke gives the fuzzers a bounded budget in CI on top of their
# seed corpora (which plain `go test` already replays). The chaos corpus
# spans both wire versions: the PR-4 v1 single-bug seeds plus v2 seeds for
# the multi-bug combos, churn, actors and protected-region scenarios, so
# the mutator starts from every scenario axis. The minimization budget is
# capped separately: shrinking an interesting chaos program re-runs a whole
# supervised machine per attempt, and an uncapped minimizer can eat the
# entire fuzz window. The batch-frame decoder is cheap per input, so ten
# seconds covers a great many frames.
fuzz-smoke:
	$(GO) test -fuzz=FuzzChaosProgram -fuzztime=30s -fuzzminimizetime=5s ./internal/chaos
	$(GO) test -fuzz=FuzzBatchDecode -fuzztime=10s -run '^$$' ./internal/fleet

# accuracy is the diagnosis-accuracy gate: the exhaustive matrix (scenario
# kind × bug class(es) × protected/unprotected, over the full seed set)
# must hold 100% class accuracy and exact-site attribution. Sharded by
# execution mode so CI parallelizes the shards and a red run names the mode
# that broke; each shard stays well under two minutes.
accuracy: accuracy-sync accuracy-parallel accuracy-stream

accuracy-sync accuracy-parallel accuracy-stream: accuracy-%:
	$(GO) test -count=1 -run 'TestDiagnosisAccuracyMatrix/$*$$' ./internal/chaos

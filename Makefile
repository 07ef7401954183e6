# Verification entry points. `make verify` is the PR gate: the tier-1
# suite (build, vet, test) plus a race-detector pass with GOMAXPROCS
# forced to 4, so the incremental checkpoint store AND the streaming
# parallel grid engine (package mpic: Runner.RunGrid / Sweep workers
# sharing one arena) get real concurrency coverage even on single-CPU
# boxes (where the worker pools would otherwise stay at width 1 and
# races could hide), plus an explicit build/vet/test pass over examples/
# so the public Scenario/Runner API cannot drift from its documented
# usage, plus cross-GOARCH and purego builds so the arch-gated hash
# kernels cannot silently break platforms this box does not run, plus a
# vet and short self-test of the perfbench/ benchmark module, which
# tier-1 never compiles because it is a module of its own.

GO ?= go

# Worker-pool width for `make sweep` (0 = GOMAXPROCS, 1 = sequential).
# Grid results are bit-identical at any setting.
SWEEP_PARALLEL ?= 0

# Incremental JSON checkpoint for `make sweep`: every completed cell is
# persisted, and re-running the same grid resumes instead of restarting.
SWEEP_CHECKPOINT ?= SWEEP.ckpt.json

.PHONY: verify tier1 race examples perfbench-test bench bench-epoch bench-kernel compare sweep cover chaos lint serve-e2e crossbuild fuzz

verify: tier1 lint race examples crossbuild perfbench-test

tier1:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...

race:
	GOMAXPROCS=4 $(GO) test -race -count=1 . ./internal/...

# The examples are the public API's living documentation (including
# examples/progress, the durable-session + progress-sink loop); their
# example tests (external registration through the open registries) must
# keep passing.
examples:
	$(GO) build ./examples/...
	$(GO) vet ./examples/...
	$(GO) test -count=1 ./examples/...

# perfbench/ builds against the library's public API (and a few internal
# packages) from its own module, so `go test ./...` at the root never
# compiles it. Vet it and run its self-tests at reduced sizes here; the
# module has no dependencies beyond the library, so no network is needed.
perfbench-test:
	cd perfbench && GOWORK=off GOPROXY=off $(GO) vet ./...
	cd perfbench && GOWORK=off GOPROXY=off $(GO) test -short -count=1 ./...

# Every GOARCH with a hand-written hash kernel, plus the purego escape
# hatch, must keep compiling and vetting no matter which box edits the
# dispatch layer. `go vet` assembles the .s files, so a broken NEON or
# AVX2 kernel fails here even though only one arch can *run* natively.
crossbuild:
	GOARCH=amd64 $(GO) build ./...
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/hashing/
	$(GO) build -tags purego ./...
	$(GO) vet -tags purego ./internal/hashing/
	$(GO) test -tags purego -count=1 ./internal/hashing/

# Static analysis beyond `go vet`: staticcheck when installed, with a
# loud fallback to a second vet pass so `make verify` never silently
# skips the lint gate on boxes without it.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "staticcheck not installed; falling back to go vet"; \
		$(GO) vet ./...; \
	fi

# Statement coverage across every package. The recorded PR 5 baseline
# lives in PERF.md ("Coverage baseline"); compare against it before
# trusting a refactor that "didn't lose any tests".
cover:
	$(GO) test -cover ./...

# Amortized per-iteration cost and the budget-scaling sweep (PERF.md).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkMicro|BenchmarkScaling' -benchmem .

# The epoch-refresh R-axis sweep behind core.DefaultEpochRefresh: ns per
# iteration as the seed-refresh interval grows from every-iteration
# (≈ quadratic) to once-per-run (≈ the never-refreshed incremental
# path). PERF.md records the trajectory.
bench-epoch:
	$(GO) test -run '^$$' -bench 'BenchmarkEpochRefresh' -benchmem .

# The τ-row sweep kernels head to head (reference vs batched vs the
# arch vector path) across τ and transcript sizes — the PERF.md kernel
# micro table.
bench-kernel:
	$(GO) test -run '^$$' -bench 'BenchmarkKernelSweep' -benchmem ./internal/hashing/

# Regenerate the experiment artefact and gate it against the previous
# PR's (fails on >10% regression in wall clock or heap allocations).
# -repeat 3 stamps the artefact with median-of-three timings so a single
# preempted run cannot flap the gate (the PR 9 BENCH_PR8 regeneration).
compare:
	$(GO) run ./cmd/mpicbench -quick -repeat 3 -json BENCH_PR14.json -compare BENCH_PR10.json

# Native fuzzing of the parsers that read untrusted input (fault
# schedules and delay specs reach the library from mpicserve's POST
# body), each for a bounded time. Their seed corpora run on every
# `go test`; this target searches beyond them.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParseNetFaults$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzParseDelay$$' -fuzztime $(FUZZTIME) .

# The grid service end to end: submit over HTTP, shard across workers,
# stream progress over SSE, survive a restart mid-grid, and release
# every lease on graceful shutdown — under the race detector.
serve-e2e:
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestService' -v ./internal/service/

# The chaos soaks under the race detector: the registry-cartesian grid as
# a durable parallel session with deterministic injected store faults,
# torn checkpoint writes, cell panics, and a mid-flight cancellation —
# plus the network soak, where every cell runs on the virtual-time
# engine under jitter, outages, stragglers, and a crash-restart. Both
# must stay bit-identical to a clean sequential run. The soaks run the
# library defaults, so since PR 9 every cell exercises the epoch-refresh
# hash path.
chaos:
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestChaos' -v .

# Exercise the streaming grid engine on a small n × scheme × rate grid;
# rows print as cells complete and land in the resumable checkpoint.
# Tune concurrency with SWEEP_PARALLEL=k.
sweep:
	$(GO) run ./cmd/mpicbench -sweep -parallel $(SWEEP_PARALLEL) \
		-sweep-checkpoint $(SWEEP_CHECKPOINT) \
		-sweep-n 4,6 -sweep-schemes A,B \
		-sweep-rates 0,0.001 -trials 2 -sweep-iterfactor 20

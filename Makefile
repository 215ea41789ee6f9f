# Development targets. `make check` is the pre-commit gate: formatting,
# vet, build, the cplint static-analysis suite, the reach test (no
# production code only tests reach), the full test suite, the
# benchmark module's own vet and tests, the race detector over every
# package that runs its own goroutine pools, and the steady-state
# allocation regression gate. cplint runs before
# the slow race/alloc stages so invariant violations fail fast.

GO ?= go

RACE_PKGS = ./internal/par/ ./internal/trace/ ./internal/core/ ./internal/world/ ./internal/eval/ ./internal/experiments/ ./internal/mcn/ ./internal/scenario/ ./cmd/stormsim/

# Per-target fuzzing time for fuzz-smoke (five targets, so the total
# fuzzing wall clock is five times this). CI sets the same 15s per target.
FUZZTIME ?= 15s

.PHONY: check fmt vet build lint deadcode fix test bench-check race allocs fuzz-smoke scenarios shardcheck evalcheck audit bench experiments

check: fmt vet build lint deadcode test bench-check race allocs fuzz-smoke scenarios shardcheck evalcheck

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# The repo's own analyzers: determinism (detmap, detsource), enum
# coverage (exhaustive), float-fold ordering (floatfold), model
# immutability (frozen) and allocation in //cplint:hotpath functions
# (hotalloc) — six, each held by TestAnalyzersBiteOnRealTree to a
# violation seeded into the real sources. Allocation in a hot function's
# callees is the allocs target's, a par worker's shared write is the race
# target's, and a batch kept past its callback is the test target's
# (TestBatchConsumersCopy).
lint:
	$(GO) run ./cmd/cplint ./...

# Every package-level declaration must be reachable from a program: a
# main under cmd/, examples/ or bench/, an init, or the facade's exported
# API. The test loads the module without its _test.go files, so what only
# tests reach fails it unless reachAllow (internal/lint/reach_test.go)
# names it with a reason. About 3 s.
deadcode:
	$(GO) test -run '^(TestNothingOnlyTestsReach|TestReachFixture)$$' ./internal/lint/

# Apply every suggested fix (gofmt-clean, idempotent), then report what
# still needs a human.
fix:
	$(GO) run ./cmd/cplint -fix ./...

# The batchdebug pass checks trace.Batch's reuse contract at run time:
# Batch.Reset poisons its columns, the gated tests prove a retaining
# consumer observes it (while the default build does not), and every
# trace test that streams a source runs once more over poisoned batches.
test:
	$(GO) test ./...
	$(GO) test -tags batchdebug ./internal/trace/

# bench/ is a module of its own, so `go build ./... && go test ./...`
# at the root neither builds nor tests it: a signature change in core,
# stats or trace could break the benchmark the perf gate runs without
# any root-module test noticing. About 5 s.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The fitting, generation, simulation, and pass-rate pipelines all fan
# out over worker pools; any change to them must stay race-clean. The
# lint loader/analyzer fan-out is covered in -short mode (the full
# fixture matrix is slow under the race detector). GOMAXPROCS=4 makes a
# pool left at its default worker count (0: GOMAXPROCS) run four
# goroutines on any runner: on one CPU it would run inline, and the
# detector would have nothing to see.
race:
	GOMAXPROCS=4 $(GO) test -race $(RACE_PKGS)
	GOMAXPROCS=4 $(GO) test -race -short ./internal/lint/

# The allocation gates, which the race build disables itself, so they
# need a non-race run: the compiled generator's and the world simulator's
# steady-state drainUntil — the loop production runs — allocates nothing;
# both Generates stay within 0.02 allocations per assembled event and
# within 24 allocated bytes per event with one worker, 48 with two; one
# ScanBatches of the generator's Source stays within 360 allocated bytes
# per UE and one of the world's within 640; a streamed window holds at
# most 1.25 times its key target where the rate steps up fourfold after
# a quiet stretch (TestWindowKeysBounded), since every window buffer is
# sized by the largest window; ModelSet.Save allocates its buffer and
# nothing that grows with the model; the model decoder allocates each slice
# and pointer of the model once and nothing per number, and core.Load adds
# one compile of the model and nothing else; both trace writers' Write and
# WriteBatch allocate nothing; the generator's per-UE state (ueGen)
# stays within the 192 B that budget counts; a decided sm.Walk — the
# per-UE extraction fit and eval share — allocates nothing per event;
# sm.Replay — the conformance check, one sm.Cursor step an event —
# allocates nothing over a 1 000-event UE (TestReplayAllocs); and
# an exact PartialFit retains at most 6 B of sample logs and hour bytes a
# sample, none of which, nor any tally row, outlives Build
# (TestPartialFitBytesPerSample), its sparse tally rows at most 11 B a
# count taken (TestPartialFitBytesPerTally), and the live heap it adds at
# most 10 % above what its sinks account for, so a partial that kept its
# events fails (TestPartialFitHeldMatchesSinks); and an exact Build
# allocates at most 65 objects and 56 000 B a fitted model, which
# map-keyed accumulators or per-hour slices of pool lists exceed
# (TestPartialFitBuildAllocsPerModel).
allocs:
	$(GO) test -run 'SteadyStateAllocs|ReplayAllocs|ModelLoadAllocs|AllocsPerEvent|AllocsPerModel|BytesPerEvent|BytesPerUE|UEGenSize|BytesPerSample|BytesPerTally|HeldMatchesSinks|WindowKeysBounded' ./internal/core/ ./internal/world/ ./internal/trace/ ./internal/sm/

# Coverage-guided fuzzing over every decoder of external input: the
# scenario JSON parser (seeded from scenarios/*.json), the partialfit/1
# binary decoder (seeded from fresh encodings), the model file loader
# (seeded from tiny fits and hand-built edge models), and the trace
# reader. The first three assert decode→encode round-trip byte stability.
# The model target is differential besides: core.Load's decoder must
# accept nothing encoding/json refuses and build the same model; Load,
# which compiles the model, must accept exactly what validateOracle's
# independent walk accepts, and NewSource on a decoded model must return
# Load's error; a model Load accepts must be loadOracle's too, Save must
# write encoding/json's bytes, and the model must generate (20 UEs, 2 h
# from hour 23). There is one trace reader (trace.Scanner behind
# ReadAuto), so the two trace targets share one body and differ in their
# seeds — text for FuzzReadTrace; multi-chunk binary, a chunk behind the
# terminator (refused), a 33-bit UE id and a refused version-1 file for
# FuzzReadBinaryTrace: nothing panics, Scan and ScanBatch deliver the same
# events and error, and an accepted trace, sorted, goes through both
# writers and reads back equal.
fuzz-smoke:
	$(GO) test -run '^FuzzParseScenario$$' -fuzz '^FuzzParseScenario$$' -fuzztime $(FUZZTIME) ./internal/scenario/
	$(GO) test -run '^FuzzDecodePartial$$' -fuzz '^FuzzDecodePartial$$' -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^FuzzLoadModel$$' -fuzz '^FuzzLoadModel$$' -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^FuzzReadTrace$$' -fuzz '^FuzzReadTrace$$' -fuzztime $(FUZZTIME) ./internal/trace/
	$(GO) test -run '^FuzzReadBinaryTrace$$' -fuzz '^FuzzReadBinaryTrace$$' -fuzztime $(FUZZTIME) ./internal/trace/

# Smoke-run every starter scenario through stormsim at reduced scale:
# validation, world simulation, storm replay, and the byte-identity
# selftest (1 vs 8 workers) for each file in scenarios/.
scenarios:
	$(GO) run ./cmd/stormsim -selftest -scale 0.05 scenarios/*.json

# fitmodel's one driver through the real binaries: a small world trace
# from stdin, as four hash shards merged in a shuffled order, checkpointed
# and resumed, and all of it again from a text copy with three ties out
# of canonical order — every model must be byte-identical to the plain
# fit, and the in-memory-refit note on stderr for the permuted copy only.
shardcheck:
	scripts/shardcheck.sh

# The eval commands' one collection path through the real binaries:
# evalfit table8/table9/table10/fig3/fig4 and evalgen on a small world
# trace as a binary file, a text file, stdin, and a text copy with three
# ties out of canonical order — every stdout identical, and the in-memory
# note on stderr for the permuted copy only — and evalfit fig3 on a copy
# shifted by +18 h, identical too.
evalcheck:
	scripts/evalcheck.sh

# Third-party audits (staticcheck + govulncheck) at pinned versions;
# skipped with a warning when the tools are absent and cannot be
# installed (offline builds).
audit:
	scripts/audit.sh

# Record the perf ledger: BENCH_<date>.txt + BENCH_<date>.json.
# Compare two recordings with scripts/benchcmp.sh.
bench:
	scripts/bench.sh

experiments:
	$(GO) run ./cmd/experiments

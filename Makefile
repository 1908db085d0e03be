GO ?= go

.PHONY: check fmt build test vet race bench bench-check bench-module fleet-soak service-soak fuzz fuzz-smoke cover cover-flow

check: fmt vet build race bench-check bench-module fuzz-smoke service-soak

# Formatting gate: fails, listing the files, when any Go file in the
# tree is not gofmt-clean, and fails when gofmt itself fails (missing,
# or a file it cannot parse). Runs the gofmt of the toolchain $(GO) uses.
fmt:
	@out=$$("$$($(GO) env GOROOT)/bin/gofmt" -l .) || exit 1; \
	if [ -n "$$out" ]; then echo "not gofmt-clean:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Full benchmark pass: Go benchmarks plus the trace-cache artifact
# (BENCH_7.json: cold decode vs replay, ns/op informational,
# virtual cycles exact) and the fpvmd serving artifact (BENCH_8.json:
# 1000 concurrent HTTP jobs at nominal load plus 2x overload with
# shedding).
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...
	$(GO) run ./cmd/fpvm-bench -fig trace -json BENCH_7.json
	$(GO) run ./cmd/fpvm-bench -fig service -json BENCH_8.json

# Bounded race-enabled fleet soak: the concurrency surface (worker
# pool, many VMs adopting from one frozen shared cache, concurrent jobs
# of one image spending equal cycles, boxed-trained steps serving every
# other configuration concurrently, forks inside a fleet, preemption
# and migration of live VMs between workers, a panicking job failing
# alone, a store refusing a second image) under the race detector.
# Wired into CI alongside make check.
fleet-soak:
	$(GO) test -race -count=2 -run 'TestFleetSoak|TestFleetMatchesSerial|TestFleetPreemptionMatchesWholeJobs|TestFleetPanicIsolation|TestResidentJobMigratesBitIdentical|TestForkInsideFleet|TestSharedCacheSameCyclesAnyOrder|TestSharedStepsServeEveryConfig|TestSharedBindRejectsSecondImage|TestSharedConcurrentTorture' ./internal/fleet/ ./internal/fpvm/ ./internal/dcache/ .

# Race-enabled chaos soak of the fpvmd serving stack: mixed tenants
# with quotas, priorities and deadlines, async submissions racing the
# blocking path, faults injected at every service site plus per-job VM
# fault storms, a mid-flight SIGKILL with bit-identical recovery,
# drain/restart resume (async jobs and deadline twins across the
# restart, a recovered deadline counted from the restored clock, job
# IDs that stay unique across it, the journal compacted at every boot),
# the snapshot cadence (one write per persist interval, one at drain),
# a fault-injected job recovered as its live twin, the shedding ladder
# under queue pressure, and the job table (live heap per settled job,
# allocations per job, settled waiters woken by eviction, outcomes handed
# out as copies). Every response must carry a deliberate status and the
# fault ledgers must reconcile. Wired into `make check`, which CI runs.
service-soak:
	$(GO) test -race -run 'TestServiceChaosSoak|TestServiceKillRecover|TestDrainSuspendsAndJournals|TestWorkerPanicIsContainedAndQuarantines|TestAsyncJobsAcrossDrainRestart|TestDeadlineTwinAcrossRecovery|TestRecoveredDeadlineCountsFromRestoredClock|TestConcurrentDrainsAgreeUnderEviction|TestJournalCompactedAtBoot|TestSheddingLadderUnderPressure|TestPersistCadence|TestJobIDsUniqueAcrossRestart|TestInjectedJobRecoversAsLiveTwin|TestSettledJobHeapBounded|TestJobBookkeepingAllocs|TestSettledWaitersWakeOnEviction|TestReturnedOutcomesAreCopies|TestSettledAnswersSurviveRestart|TestSettledAnswersSurviveKill|TestJournalReadsLongRecords|TestRegistrationBuildsOnce|TestLookupChecksTheWholeID' ./internal/service/

# Fast smoke of the benchmark code paths: every benchmark compiles and
# survives one iteration, so a benchmark whose run fails fails
# `make check`.
bench-check:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The benchmark in fpvmbench/ is its own Go module (it imports this one
# through a replace), so the root `go build ./...` never compiles it.
# Vet and test it against the current tree, so an API change it depends
# on fails here rather than only when the benchmark runs. Part of
# `make check`.
bench-module:
	cd fpvmbench && GOWORK=off $(GO) vet ./... && GOWORK=off $(GO) test ./...

# Coverage-guided differential fuzzing: generated guests run under the
# oracle's config matrix, diffing trap streams and exit state against
# the native IEEE baseline. The checked-in corpus seeds the search.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDifferential -fuzztime 60s ./internal/fpfuzz/

# Bounded race-enabled fuzz pass for CI and `make check`: long enough
# to replay the corpus and mutate past it, short enough for every push.
fuzz-smoke:
	$(GO) test -race -run '^$$' -fuzz FuzzDifferential -fuzztime 30s ./internal/fpfuzz/

# Aggregate statement coverage across all packages, gated at the floor:
# the run fails if total statement coverage drops below COVER_MIN.
COVER_MIN ?= 80.0

cover:
	$(GO) test -coverprofile=coverage.out -coverpkg=./... ./...
	$(GO) tool cover -func=coverage.out | tail -1
	@pct=$$($(GO) tool cover -func=coverage.out | tail -1 | sed 's/.*[[:space:]]//; s/%//'); \
	awk -v pct="$$pct" -v min="$(COVER_MIN)" 'BEGIN { \
		if (pct + 0 < min + 0) { printf "coverage %.1f%% is below the %.1f%% floor\n", pct, min; exit 1 } \
		printf "coverage %.1f%% meets the %.1f%% floor\n", pct, min }'

# Exception-flow coverage artifact: every (exception class x operand
# shape x alt system) cell, covered iff the biased program delivered a
# trap carrying the class's MXCSR bit. FLOWCOV.json is the CI artifact;
# TestFlowCoverageNonRegression holds every run to the checked-in
# baseline (internal/experiments/testdata/flowcov_baseline.json).
cover-flow:
	$(GO) run ./cmd/fpvm-bench -fig coverflow -json FLOWCOV.json

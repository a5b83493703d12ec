# Developer entry points. `make check` is exactly what CI runs.

GO ?= go

.PHONY: build test vet fmt-check f2tree-vet vet-audit race stress check chaos-smoke detect-smoke bench bench-campaign bench-hotpath serve bench-serve

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; fi

# The determinism and contract gate: stock go vet plus the analyzers from
# internal/analysis — mapiter, simclock, lockcheck, poolcheck, hotpathalloc,
# epochcheck and handlecheck — in one sequential, uncached pass in
# dependency order with cross-package fact propagation (see README
# "Determinism and contract gate").
f2tree-vet:
	$(GO) run ./cmd/f2tree-vet ./...

# Suppression audit: inventory every //f2tree: directive and fail on stale
# suppressions, unknown verbs and missing justifications. Runs through the
# same fact-propagating driver, so a directive kept live only by an
# interprocedural finding (a transitive wall-clock read) is not stale.
vet-audit:
	$(GO) run ./cmd/f2tree-vet -novet -audit ./...

race:
	$(GO) test -race ./...

# Concurrency stress: the tests that drive live goroutines and locks —
# serve coalescing, panic isolation, timeouts and HTTP streaming, the
# campaign worker pool, and testutil's leak checker — under the race
# detector at 1, 2 and 4 Ps, many times over, so an interleaving-dependent
# failure shows up here instead of as a rare flake. This dynamic check
# stands in for static concurrency analyzers (DESIGN.md §14).
# STRESS_SLOW runs at -count=10 instead of 50: each of its tests waits on
# real time (a per-attempt or per-query timeout, the leak checker's grace
# period, its deliberate 50 ms straggler), so the sleeps, not the
# scheduler, set its run time. The whole target takes well under a minute
# on a 2-core host; -timeout turns a deadlock into a failure with a
# goroutine dump instead of a ten-minute hang.
STRESS_FAST = TestAnswerCoalescesConcurrentIdenticalQueries|TestPanicIsolation|TestHTTPStream|TestHTTPQueryAndMetrics|TestWorkerPoolRunsJobsConcurrently|TestWorkerPoolPanicIsolation|TestWorkerPoolRetriesThenSucceeds|TestWorkerPoolClosedRejectsSubmit|TestRunPanicIsolated|TestVerifyNoLeaksPassesWhenClean|TestBenignGoroutineFilters
STRESS_SLOW = TestQueryTimeoutFailsAlone|TestWorkerPoolTimeoutAbandonsAttempt|TestRunTimeoutRetriesThenSucceeds|TestRunTimeoutExhaustsRetries|TestVerifyNoLeaksToleratesLateExit|TestVerifyNoLeaksCatchesLeak
stress:
	$(GO) test -race -timeout 3m -count=50 -cpu 1,2,4 -run '^($(STRESS_FAST))$$' ./internal/serve ./internal/campaign ./internal/testutil
	$(GO) test -race -timeout 3m -count=10 -cpu 1,2,4 -run '^($(STRESS_SLOW))$$' ./internal/serve ./internal/campaign ./internal/testutil

check: build fmt-check f2tree-vet vet-audit race

# Fixed-seed chaos fuzz across all three control planes, checked by the
# invariant oracles (internal/chaos). Any violation is shrunk to a minimal
# replayable scenario under chaos-artifacts/ and fails the target.
chaos-smoke:
	mkdir -p chaos-artifacts
	$(GO) run ./cmd/f2tree-chaos -n 10 -schemes f2tree -ports 8 \
		-controls ospf,bgp,centralized -seed 42 -j 4 -artifacts chaos-artifacts

# Detector study smoke: F²Tree fast reroute vs BGP graceful restart vs
# plain reconvergence under both detector models on the dual-ToR fabric,
# double-run (byte-identical traces required), all four oracles checked.
# Any oracle violation or trace divergence fails the target; the result
# list lands in detect-smoke.json (DESIGN.md §15).
detect-smoke:
	$(GO) run ./cmd/f2tree-detect -ports 6 \
		-conditions C1,C4,flap-storm,ctrl-crash,false-detect,rand \
		-double -out detect-smoke.json

bench:
	$(GO) test -bench=. -benchmem

# Campaign orchestrator speedup: fig4 matrix serial vs parallel, emitting
# BENCH_campaign.json. Fails if the two aggregates differ (determinism gate)
# or if the host cannot actually run the arms in parallel (override with
# `f2tree-campaign -bench-allow-serial` to record a flagged serial run).
bench-campaign:
	$(GO) run ./cmd/f2tree-campaign -bench -j 4 -bench-out BENCH_campaign.json

# Hot-path microbenchmarks (event scheduling, packet forwarding, FIB lookup,
# fig4 end-to-end), emitting BENCH_hotpath.json and enforcing the committed
# allocs/op budgets. See DESIGN.md §9.
bench-hotpath:
	$(GO) run ./cmd/f2tree-bench -check -out BENCH_hotpath.json

# Run the what-if query service on localhost (see DESIGN.md §13).
serve:
	$(GO) run ./cmd/f2tree-serve -addr 127.0.0.1:8080 -j 4

# What-if service benchmark over real HTTP: cold vs repeated (cached)
# queries plus a concurrent burst, emitting BENCH_serve.json. Fails if the
# repeated query is not a measured memoization hit.
bench-serve:
	$(GO) run ./cmd/f2tree-serve -bench -j 4 -bench-out BENCH_serve.json

# CI entry points. `make ci` is the gate: formatting, vet, the static
# verification layer (lint), build, the race detector over the parallel
# executor, and the full test suite.

GO ?= go

.PHONY: ci lint fmt-check vet dwslint dwsverify build test race fuzz bench bench-check bench-baseline profile profile-diff report metrics trace update-goldens serve

ci: fmt-check vet lint build race test bench-check

# Static verification layer: the determinism linter over the simulator
# packages and the ISA program verifier over every benchmark kernel.
lint: fmt-check vet dwslint dwsverify

dwslint:
	$(GO) run ./cmd/dwslint ./internal

dwsverify:
	$(GO) run ./cmd/dwsverify -divergence -memaccess -costmodel

# Regenerate every golden file in one pass (all golden-pinned tests take
# the same -update flag): obs exports, report run-doc and exhibit
# goldens, and the workloads analysis reports (divergence, memory access,
# cost model).
update-goldens:
	$(GO) test ./internal/obs/... ./internal/report/... ./internal/workloads/... ./internal/serve/... -update

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race run exercises concurrent Session use (singleflight, worker
# pool, sharded disk store), the observability exports
# (golden/determinism tests), and the daemon's end-to-end paths
# (concurrent submissions, SSE subscribers racing the publisher).
race:
	$(GO) test -race ./internal/report/... ./internal/obs/... ./internal/serve/...

# Run every fuzz target, one at a time, for FUZZTIME each (not part of
# ci: `go test` replays only the seed corpora). Failing inputs land in
# the package's testdata/fuzz directory.
FUZZTIME ?= 30s
FUZZ_TARGETS = \
	./internal/program:FuzzVerify \
	./internal/program:FuzzDivergence \
	./internal/program:FuzzMemAccess \
	./internal/program:FuzzCostModel \
	./internal/mem:FuzzStoreIndex \
	./internal/mem:FuzzCoherence \
	./internal/serve:FuzzJobDecode
fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; name=$${t##*:}; \
		echo "== $$name ($$pkg, $(FUZZTIME))"; \
		$(GO) test $$pkg -run '^$$' -fuzz "^$$name$$" -fuzztime $(FUZZTIME); \
	done

# Baseline perf snapshot: the full exhibit set at -j 1 vs -j GOMAXPROCS
# (see EXPERIMENTS.md for recorded numbers).
bench:
	$(GO) test -bench FullReport -benchtime 1x -run '^$$' .

# CI benchmark gate: run the event-engine micro-benchmarks and fail on
# >10% ns/op regression or any allocs/op increase vs BENCH_baseline.json.
bench-check:
	$(GO) run ./cmd/dwsbench

# Re-measure and rewrite BENCH_baseline.json (run on an idle machine).
bench-baseline:
	$(GO) run ./cmd/dwsbench -update

# Profile one live simulation (cpu.pprof + mem.pprof); inspect with e.g.
#   go tool pprof -top cpu.pprof
#   go tool pprof -top -sample_index=alloc_objects mem.pprof
profile:
	$(GO) run ./cmd/dwsim -bench $(BENCH) -scheme DWS.ReviveSplit -nocache \
		-cpuprofile cpu.pprof -memprofile mem.pprof

# Compare two CPU profiles (before/after an optimisation): every sample in
# BASE is subtracted from AFTER, so improvements show as negative flat time.
# Typical loop (see README "Finding the next hot path"):
#   make profile && mv cpu.pprof cpu.before.pprof
#   ... edit ...
#   make profile && make profile-diff BASE=cpu.before.pprof AFTER=cpu.pprof
BASE  ?= cpu.before.pprof
AFTER ?= cpu.pprof
profile-diff:
	$(GO) tool pprof -top -nodecount 25 -diff_base $(BASE) $(AFTER)

# Run the simulation-as-a-service daemon (see README "Running the
# server"): POST /v1/jobs, GET /v1/results/{key}, SSE streaming,
# /metrics. ADDR overrides the listen address.
ADDR ?= :8091
serve:
	$(GO) run ./cmd/dwsimd -addr $(ADDR)

# Regenerate the paper's exhibits with the parallel executor.
report:
	$(GO) run ./cmd/dwsreport

# Headless cycle accounting: the stall-breakdown exhibit (top-down
# taxonomy per scheme) plus its CSV under metrics/.
metrics:
	$(GO) run ./cmd/dwsreport -only stalls -csv metrics

# One instrumented run: Chrome trace (load trace.json in
# https://ui.perfetto.dev), interval timeline CSV, and run-metrics JSON.
BENCH ?= KMeans
trace:
	$(GO) run ./cmd/dwsim -bench $(BENCH) -scheme DWS.ReviveSplit \
		-trace trace.json -timeline timeline.csv -stats stats.json

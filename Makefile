# Developer / CI entry points. `make check` is the full gate:
# formatting, vet, the simlint static-analysis suite, build, the
# unit/integration suite, the whole suite again under the race detector,
# the METRICS.md schema freshness, one iteration of three root benchmarks
# and of the per-layer microbenchmarks (`make bench-smoke`), a run of
# every example program (`make examples-smoke`), an end-to-end smoke of
# the simulation service (`make serve-smoke`), a sharded-execution smoke
# (`make shard-smoke`), a jittered barrier stress under the race detector
# (`make shard-stress`), a checkpoint/restore smoke (`make
# snapshot-smoke`), and the repository benchmark's own tests (`make
# perfbench-test`).
# Performance is measured by perfbench (BENCHMARK.json), not by this file.

GO ?= go

.PHONY: all build test vet fmt test-race lint lint-fix-list metrics-schema metrics-schema-check bench-smoke examples-smoke serve-smoke shard-smoke shard-stress snapshot-smoke perfbench-test check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The runner fans simulations out across goroutines; the whole suite runs
# under the race detector so nothing escapes the gate. The simulator is
# ~10x slower under race and CI hosts may be single-core, so the default
# 10m per-package timeout is far too tight.
test-race:
	$(GO) test -race -timeout 60m ./...

# Static-analysis gate: determinism, map-order safety, metric-name grammar,
# API hygiene, hot-path allocations and shard ownership (see DESIGN.md
# "Determinism rules" and "Shard-ownership rules"). Zero findings or the
# build fails.
lint:
	$(GO) run ./cmd/simlint

# Machine-readable findings for editors and scripted triage.
lint-fix-list:
	$(GO) run ./cmd/simlint -json

# gofmt as a failing check (CI-style: lists offending files and exits 1).
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Quick sanity of the benchmarks for `make check`: three small root ones
# and every per-layer microbenchmark, one iteration each, so they keep
# compiling and running. The repository benchmark of record is perfbench
# (BENCHMARK.json, perfbench/README.md).
bench-smoke:
	$(GO) test -run '^$$' -bench 'Fig2|AblationBitOps|ExtensionRevive' -benchtime 1x .
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/addrmap/ ./internal/cache/ ./internal/coherence/ ./internal/memctrl/ ./internal/network/ ./internal/pipeline/ ./internal/sim/ ./internal/workload/

# Run every program under examples/ to completion. Examples check
# themselves (revive exits non-zero if its two protocol runs diverge), so a
# non-zero exit fails the target; their stdout is discarded.
examples-smoke:
	@for e in examples/*/; do \
		echo "$(GO) run ./$$e"; \
		$(GO) run ./$$e >/dev/null || exit 1; \
	done

# End-to-end smoke of sharded execution (DESIGN.md §13): one 16-node
# config split across 4 OS threads must run to completion through the
# real CLI. Byte-identity with -shards 1 is pinned by the test suite
# (TestShardDifferential); this gate proves the flag works end to end.
shard-smoke:
	$(GO) run ./cmd/smtpsim -model SMTp -app fft -nodes 16 -way 2 -scale 0.25 -shards 4 >/dev/null

# Jittered barrier stress under the race detector: the adaptive-quantum
# tree-barrier handshake (DESIGN.md §13) across shard counts and
# scheduling-jitter seeds, every run required byte-identical. This is the
# gate for the lock-free release/park fast paths; it reruns the same test
# the plain suite runs, but -race turns any missed happens-before edge in
# the barrier into a hard failure instead of a silent coincidence.
shard-stress:
	$(GO) test -race -timeout 30m -count 1 -run TestShardQuantumBarrierStress ./internal/machine/

# End-to-end smoke of checkpoint/restore (DESIGN.md §14): capture a
# checkpoint mid-run through the real CLI, restore it at a different shard
# count, and require the resumed run's metrics JSON to be byte-identical
# to the uninterrupted run's. The files go to a private temporary
# directory (one recipe line, so the variable survives), which is removed
# whether or not the check passes.
snapshot-smoke:
	d="$$(mktemp -d)" && trap 'rm -rf "$$d"' EXIT && \
	$(GO) run ./cmd/smtpsim -model SMTp -app fft -nodes 4 -scale 0.25 -snapshot-at 1000 -snapshot-out "$$d/ck.bin" -metrics "$$d/full.json" >/dev/null && \
	$(GO) run ./cmd/smtpsim -model SMTp -app fft -nodes 4 -scale 0.25 -shards 2 -restore "$$d/ck.bin" -metrics "$$d/resumed.json" >/dev/null && \
	cmp "$$d/full.json" "$$d/resumed.json"

# The repository benchmark (perfbench/, its own Go module, so `go test ./...`
# at the root skips it) imports the simulator's internals: run its tests so
# a simulator change that breaks the benchmark driver fails here.
perfbench-test:
	cd perfbench && $(GO) test ./...

# End-to-end smoke of the simulation service: boot simserver on a loopback
# port, submit the same spec twice, require the second response to be a
# byte-identical cache hit (the content-address contract of DESIGN.md §12).
serve-smoke:
	$(GO) run ./cmd/simserver -selftest

# Regenerate the metric-name table of METRICS.md from the registry.
metrics-schema:
	$(GO) run ./cmd/metricsdoc

# Fail if METRICS.md has drifted from the registered metric names.
metrics-schema-check:
	$(GO) run ./cmd/metricsdoc -check

check: fmt vet lint build test test-race metrics-schema-check bench-smoke examples-smoke serve-smoke shard-smoke shard-stress snapshot-smoke perfbench-test

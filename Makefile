# Heracles reproduction — build, verify and performance-trajectory targets.

GO ?= go

.PHONY: all build vet test test-race chaos churn fuzz-smoke fidelity bench bench-smoke bench-baseline bench-check bench-e2e fmt-check docs-check loc slo ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# -shuffle=on randomises test order within each package, surfacing
# order-dependent tests before they calcify.
test:
	$(GO) test -shuffle=on ./...

# Documentation gate: intra-repo markdown links resolve, every internal/
# package carries a package comment, and docs/API.md covers every
# registered control-plane route.
docs-check:
	$(GO) run ./cmd/docscheck

# Size ledger: non-test and test Go lines per package (wc -l, comments
# and blanks included). A PR that claims a deletion quotes it.
loc:
	@git ls-files '*.go' | xargs wc -l | awk '$$2 != "total" { d = $$2; if (!sub("/[^/]*$$", "", d)) d = "."; \
		if ($$2 ~ /_test\.go$$/) t[d] += $$1; else n[d] += $$1; seen[d] = 1 } \
		END { for (d in seen) { printf "%-28s %8d %8d\n", d, n[d], t[d]; N += n[d]; T += t[d] } \
		printf "%-28s %8d %8d\n", "total", N, T }' | sort | (printf '%-28s %8s %8s\n' package non-test test; cat)

# Race-detector pass over the short suite: the parallel sweeps, the
# cluster/fleet fan-outs and the worker pools all run under -race.
test-race:
	$(GO) test -race -short ./...

# Chaos soak under -race: >= 20 injected faults (driver panics, leaf
# crashes, telemetry blackouts, slowdowns) against a live control plane
# with jobs in flight — every instance must restart from checkpoint and
# the scheduler's goodput ledger must balance. The fault determinism
# and supervisor unit tests ride along.
chaos:
	$(GO) test -race -run 'Chaos|Quarantine|DriverPanic|Fault|Stale|Kill|Generate|Validate|KindNames' \
		./internal/fault/ ./internal/core/ ./internal/sched/ \
		./internal/engine/ ./internal/serve/

# Registry churn and leak detection under -race: concurrent
# create/crash/delete churn against the shared epoch scheduler —
# goroutines, heap and the scheduler queue must return to baseline.
churn:
	$(GO) test -race -run 'RegistryChurnNoLeaks|EpochScheduler|HundredThousand' ./internal/serve/

# Short fuzz pass over the boundaries that accept a checkpoint's bytes
# from outside the process. The envelope decoder: truncated, bit-flipped
# and CRC-mismatched inputs must error — never panic — and the
# rotated-generation fallback must always recover; the committed seed
# corpus under internal/serve/testdata/fuzz rides along. The create
# route: any body answers 201 or 4xx and leaves the pool empty. The HRCB
# decoder under the envelope's CRC (the codec.Coder walk): an error or a
# checkpoint that re-encodes to a fixed point. The minimise cap keeps a
# newly interesting 40 KB input from eating the whole ten seconds.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeCheckpointFile$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzCreateInstanceBody$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeCheckpointBinary$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/engine/

# Paper-fidelity scorecard: every checkable statement of the paper
# (docs/FIDELITY.md) holds inside its tolerance, and the committed table
# is the one the code produces. After an intended move:
# go test -run TestFidelity -update .
fidelity:
	$(GO) test -run '^TestFidelity$$' -count=1 -v .

# Error-budget acceptance: the burn-rate admission gate must beat the
# instantaneous controller on monthly budget spent at equal-or-better
# goodput under the flash-crowd scenario, and the alert ladders must stay
# bit-identical across worker counts, shards, migration and
# checkpoint/restore.
slo:
	$(GO) test -run 'SLO|Budget|AlertHysteresis|BudgetSpendMonotone|WindowRollOff' \
		./internal/slo/ ./internal/engine/ ./internal/cluster/ ./internal/serve/

# Full benchmark suite (prints every figure/table on the first iteration).
bench:
	$(GO) test -run='^$$' -bench=. -benchmem .

# One-iteration smoke used by CI: exercises every artefact generator once.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -benchmem .

# Emit BENCH_baseline.json (ns/op, allocs/op per figure) to track the
# performance trajectory across PRs.
bench-baseline:
	$(GO) run ./cmd/benchbaseline -out BENCH_baseline.json

# Compare a fresh quick run against the newest committed per-PR record;
# fails on regressions beyond the tolerance band (see cmd/benchbaseline
# -check). The wide ns/op band absorbs hardware differences from the
# machine that recorded it; allocs are held tight everywhere. A PR that
# commits a newer BENCH_<pr>.json names it here and in ci.yml: against
# the original BENCH_baseline.json (MachineStep 21.5 us, EngineStep
# 210 us) losing every gain since would still pass.
bench-check:
	$(GO) run ./cmd/benchbaseline -quick -check BENCH_23.json -tol 1.5

# End-to-end benchmark (BENCHMARK.json): the four heraclesbench workloads
# driven from outside the binaries, ~25 s each; the last stdout line of
# every workload is its result object. Everything it writes stays under
# .bench_build/.
bench-e2e:
	bash cmd/heraclesbench/bench.sh --workload all --seed 1

ci: build vet fmt-check docs-check test test-race chaos churn fuzz-smoke fidelity bench-smoke bench-check

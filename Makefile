# Heracles reproduction — build, verify and performance-trajectory targets.

GO ?= go

.PHONY: all build vet test test-race chaos churn fuzz-smoke fidelity bench bench-smoke bench-e2e bench-pair fmt-check docs-check loc loc-check slo ci

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
# and blanks included). A PR that claims a deletion quotes it. With
# REV=<rev> (any git revision), two more columns give each package's
# non-test and test line deltas against that revision.
# bench-pair's REV default (HEAD) is not a loc request: only a REV given
# on the command line or in the environment is.
locrev = $(if $(filter file,$(origin REV)),,$(REV))
loc:
	@{ git ls-files '*.go' | xargs wc -l | awk '$$2 != "total" { print "now", $$1, $$2 }'; \
		[ -z '$(locrev)' ] || git grep -c '' '$(locrev)' -- '*.go' | awk -F: '{ print "rev", $$NF, $$(NF-1) }'; } | \
		awk -v rev='$(locrev)' '{ d = $$3; if (!sub("/[^/]*$$", "", d)) d = "."; k = $$3 ~ /_test\.go$$/ ? "t" : "n"; \
			c[$$1 k, d] += $$2; c[$$1 k, "total"] += $$2; seen[d] = 1 } \
		END { seen["total"] = 1; for (d in seen) { printf "%-28s %8d %8d", d, c["nown", d], c["nowt", d]; \
			if (rev != "") printf " %+9d %+9d", c["nown", d] - c["revn", d], c["nowt", d] - c["revt", d]; printf "\n" } }' | \
		sort | (printf '%-28s %8s %8s' package non-test test; [ -z '$(locrev)' ] || printf ' %9s %9s' delta-nt delta-t; printf '\n'; cat)

# Line budget: each package's non-test lines at or below its ceiling in
# scripts/loc-budget.txt; the check names every package above it.
# UPDATE=1 lowers the ceilings to the current counts, never raising one.
loc-check:
	UPDATE='$(UPDATE)' bash scripts/loc-check.sh

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
# goroutines, heap and the scheduler queue must return to baseline —
# the one job scheduler dispatching across a sharded registry,
# /metrics scrapes racing create/migrate/delete churn, scrapes held to a
# cold render while the status writers and block membership move (the
# scrape's block cache is state the server's scrapes share), and a
# seeded create/migrate/delete sequence held to a model of the registry
# index.
# Named instances: racing creates of one name, a name held while its
# instance migrates, and a name kept across shard and peer moves. The
# federation router: a restart over the same members keeps every id and
# mints past them, and nothing it passes through names a member-local id.
# /metrics and the job API answer while a dispatch tick waits on an
# instance mailbox held by a slice. The router's member transport: a
# connection the member closed (idle timeout, restart) is redialed, not
# answered 502; a dropped SSE stream closes its member connection and
# leaves no goroutine; a burst pools at most two per member; an https
# member goes through http.DefaultTransport; a reply with no body pools
# its connection. Every daemon route is proxied, answered by the router
# or listed as refused. The restart point as the instance's one
# encoding: what a shard move ships equals a fresh encode after each way
# the engine changes, a pruned copy does not ship its pruned task, a
# copy's adopted wire bytes restart it, and the disk pass writes them.
churn:
	$(GO) test -race -run 'RegistryChurnNoLeaks|EpochScheduler|HundredThousand|ShardedServerRunsEveryJob|ConcurrentScrapesDuringChurn|ScrapeMatchesColdRender|RerenderLeavesOldRowsIntact|RegistryOrderAndRemove|CreatesOfOneName|MigratingNameIsHeld|KeepsItsName|RouterRestartKeepsNamespace|RouterKeepsFederatedNames|TickWaitsOnAMailbox|MemberTransport|RouterCoversDaemonRoutes|ShippedEncoding|SecondMoveCarriesNoPrunedTask|CopyCrashRestarts|CheckpointerWritesTheSharedEncoding' ./internal/serve/ ./internal/fed/

# Short fuzz pass over the boundaries that accept bytes from outside the
# process. The HRCF checkpoint file decoder: truncated, bit-flipped and
# CRC-mismatched inputs and JSON of any shape must error — never panic —
# and the rotated-generation fallback must always recover; the committed
# seed corpus under internal/serve/testdata/fuzz rides along. The create
# route: any body and ?id= answer 201 or 4xx and leave the pool empty; an
# accepted id is the one asked for, and a second create of it is a 409;
# i<digits> and path-unsafe ids are a 400. The HRCB
# decoder's codec.Coder walk, each input's own CRC resealed so that the
# mutation reaches it: an error or a checkpoint that re-encodes to a
# fixed point. The scenario JSON codec:
# an error or a scenario a one-node engine installs and steps. The job
# submit route: any body answers 201 or 4xx, and an accepted job
# cancels, leaving the queue empty. The mutation routes (PUT load, slo,
# degrade; POST bes, faults): any body answers 2xx or 4xx, and the
# instance keeps stepping. The router's membership and migration routes
# (POST/DELETE members, rebalance, migrate), over two daemons it may dial
# and no other host: any body answers 2xx, 4xx or 502, and the member
# list stays sorted, duplicate-free and non-empty. The router's proxy
# route: any method, sub-resource path, query and body, each under a
# short deadline, answers below 500, 502 or the daemon's 503 crash gate,
# carries as many bytes as its Content-Length says, and leaves the
# instance listed. The minimise cap
# keeps a newly interesting 40 KB input from eating the whole ten
# seconds.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeCheckpointFile$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzCreateInstanceBody$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeCheckpointBinary$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/engine/
	$(GO) test -run '^$$' -fuzz '^FuzzScenarioSpec$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzJobSubmission$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzInstanceMutation$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzRouterBodies$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/fed/
	$(GO) test -run '^$$' -fuzz '^FuzzRouterProxy$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/fed/

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

# One-iteration smoke used by CI: exercises every artefact generator and
# every BenchmarkMicro table entry once. Allocation counts are held by
# TestMicroAllocCeilings in the tier-1 suite, not here.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -benchmem .

# End-to-end benchmark (BENCHMARK.json): the four heraclesbench workloads
# driven from outside the binaries, ~25 s each; the last stdout line of
# every workload is its result object. Everything it writes stays under
# .bench_build/.
bench-e2e:
	bash cmd/heraclesbench/bench.sh --workload all --seed 1

# Paired micro-benchmarks on this host: the working tree against REV, N
# ABBA-ordered pairs of BenchmarkMicro/<BENCH> (go test's per-level -bench
# regex below BenchmarkMicro), medians, quartiles, ratio and wins k/N.
# CPUS is -test.cpu's comma list; unless it is 1, rows name their count.
# make bench-pair REV=HEAD~1 BENCH='^(CacheSolver|EngineStep)$' N=10 CPUS=1,2
REV ?= HEAD
BENCH ?= .
N ?= 10
CPUS ?= 1
bench-pair:
	CPUS='$(CPUS)' bash scripts/bench-pair.sh $(REV) '$(value BENCH)' $(N)

ci: build vet fmt-check docs-check loc-check test test-race chaos churn fuzz-smoke fidelity bench-smoke

//go:build linux

// Command heraclesbench is the repository's benchmark: it builds the
// shipped binaries once, drives them from outside — child processes,
// real loopback sockets, /proc for memory and CPU — over four named
// workloads, verifies every reply, and prints seven end-to-end metrics
// per workload by name with their units. With -trace 1 it also records
// spans around every client request, measures a ladder of per-layer
// costs by calling into each package directly, and reconciles the
// ladder with what the external client saw. README.md in this
// directory explains the workloads, the metrics and the design rules;
// BENCHMARK.json at the repository root is the machine-readable
// contract.
//
// Usage:
//
//	go run ./cmd/heraclesbench -workload <name|all> -seed <n> [-seconds 20]
//	       [-trace 0|1] [-out <dir>] [-tiny]
//	go run ./cmd/heraclesbench -selfcheck [-runs 3] [-seed <n>] [-out <dir>]
//
// A run of one workload ends with one JSON line on standard output:
// {"correct":…,"attempted":…,"failed":…,"metrics":{…}} — the end-to-end
// metrics with -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// workloads is the workload table, in the order `-workload all` runs
// them. BENCHMARK.json carries the same names and reasons.
var workloads = []workloadDef{
	{
		name:    "batch-repro",
		why:     "offline CLIs only: all time is in experiment/machine/core (op) and fleet/cluster/engine/sched/parallel (heavy); a control-plane change must not move it",
		opShare: 0.52, opFloor: 150, heavyFloor: 20,
		newWorkload: func(tiny bool) workload { return newBatchRepro(tiny) },
	},
	{
		name:    "api-steady",
		why:     "small live pool, read/write mix direct and through heraclesfed: mailbox, HTTP handlers and the fed proxy do the work; checkpoint code and /metrics rendering do none",
		opShare: 4.0 / 7, opFloor: 1000, heavyFloor: 30,
		paced:       true,
		newWorkload: func(tiny bool) workload { return newAPISteady(tiny) },
	},
	{
		name:    "state-move",
		why:     "the same instance state moved by binary shard migration (op) and by a JSON checkpoint/restore/delete cycle (heavy): engine snapshot/restore and both codecs; sched, fed and metrics idle",
		opShare: 3.0 / 7, opFloor: 1000, heavyFloor: 30,
		paced:       true,
		newWorkload: func(tiny bool) workload { return newStateMove(tiny) },
	},
	{
		name:    "fleet-scrape",
		why:     "1000 slow-paced instances, status reads and full /metrics scrapes: cost grows with pool size (registry, Statuses, exposition writer, scheduler heap, memory per instance); read-only",
		opShare: 0.5, opFloor: 1000, heavyFloor: 30,
		paced:       true,
		newWorkload: func(tiny bool) workload { return newFleetScrape(tiny) },
	},
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func workloadByName(name string) (workloadDef, bool) {
	for _, d := range workloads {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

func main() {
	// Exit through one place so deferred cleanup always runs first.
	os.Exit(realMain())
}

func realMain() int {
	workloadFlag := flag.String("workload", "all", "workload to run: batch-repro, api-steady, state-move, fleet-scrape or all")
	seed := flag.Uint64("seed", 1, "seed of every generated op list, id draw and value")
	seconds := flag.Float64("seconds", defaultSeconds, "measured time of an untraced run, split into five rounds")
	trace := flag.Int("trace", 0, "1 = traced run: spans, the per-layer ladder and the reconcile table")
	out := flag.String("out", "", "directory for report.json and trace.json (default .bench_build/out under the module root)")
	tiny := flag.Bool("tiny", false, "smoke sizes: pools of 2-8, two short rounds, no sample floors")
	selfcheck := flag.Bool("selfcheck", false, "run two interleaved sets of the suite and compare their medians against the bounds")
	runs := flag.Int("runs", 3, "with -selfcheck: runs per set")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) || *runs < 1 {
		fmt.Fprintln(os.Stderr, "heraclesbench: bad arguments")
		flag.Usage()
		return 2
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	defer stopAll() // no orphan daemon on any exit path

	root, err := moduleRoot(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	buildDir := filepath.Join(root, ".bench_build")
	if *out == "" {
		*out = filepath.Join(buildDir, "out")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "heraclesbench:", err)
		return 1
	}
	bins, err := buildBinaries(root, filepath.Join(buildDir, "bin"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "heraclesbench:", err)
		return 1
	}
	s := &suite{
		ctx: ctx, bins: bins, seconds: *seconds, tiny: *tiny, outDir: *out,
		host: hostInfo(),
	}
	s.host.print(os.Stdout)

	if *selfcheck {
		ok, err := s.selfcheck(*seed, *runs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "heraclesbench:", err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	}

	defs := workloads
	if *workloadFlag != "all" {
		d, ok := workloadByName(*workloadFlag)
		if !ok {
			fmt.Fprintf(os.Stderr, "heraclesbench: unknown workload %q\n", *workloadFlag)
			return 2
		}
		defs = []workloadDef{d}
	}
	rep, err := s.run(defs, *seed, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "heraclesbench:", err)
		return 1
	}
	if err := rep.write(*out); err != nil {
		fmt.Fprintln(os.Stderr, "heraclesbench:", err)
		return 1
	}
	// The contract's result line, last on standard output: one per
	// workload run, so a single-workload run ends with exactly one. A
	// run that printed its result exits 0 even when a check failed: the
	// line says so in "correct", and the problems are listed above it.
	for _, line := range rep.resultLines() {
		data, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(os.Stderr, "heraclesbench:", err)
			return 1
		}
		fmt.Println(string(data))
	}
	return 0
}

//go:build linux

package main

import (
	"strconv"

	"heracles/internal/sim"
)

// The generators below are the only source of what the programs under
// test receive. Each (workload, round, phase, worker) draws from its own
// stream derived from -seed, so the same seed yields the same op lists
// whatever the timing of the run, and two workers never share generator
// state.

// Phase indices of a round, used to derive streams.
const (
	phaseWarm = iota
	phaseWarmHeavy
	phaseOp
	phaseHeavy
)

// Workload indices, used to derive streams.
const (
	wlBatchRepro = iota
	wlAPISteady
	wlStateMove
	wlFleetScrape
)

// stream derives the generator for one worker of one phase.
func stream(seed uint64, workload, round, phase, worker int) *sim.RNG {
	idx := uint64(workload)<<48 | uint64(round)<<32 | uint64(phase)<<16 | uint64(worker)
	return sim.DeriveRNG(seed, idx)
}

// beWorkloads are the six best-effort workloads of the paper's
// colocation figures, in the order cmd/colocate sweeps them.
var beWorkloads = []string{"stream-LLC", "stream-DRAM", "cpu_pwr", "brain", "streetview", "iperf"}

// round4 keeps four decimals, so a generated value prints, parses and
// compares exactly.
func round4(v float64) float64 { return float64(int64(v*1e4+0.5)) / 1e4 }

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// apiMix generates api-steady's request mix over the instances whose
// index is congruent to worker modulo workers (each instance belongs to
// one connection, so the order of writes to it is the order generated):
// 50% PUT load, 10% PUT slo, 30% GET status, 10% GET slo. ids[i] is the
// id of pool instance i as the target knows it.
func apiMix(rng *sim.RNG, ids []string, worker, workers int) func() op {
	own := (len(ids) - worker + workers - 1) / workers
	return func() op {
		inst := rng.Intn(own)*workers + worker
		base := "/api/v1/instances/" + ids[inst]
		o := op{Inst: inst, ID: rng.Uint64()}
		switch u := rng.Float64(); {
		case u < 0.5:
			o.Value = round4(0.30 + 0.31*rng.Float64())
			o.Kind, o.Method, o.Path = "put-load", "PUT", base+"/load"
			o.Body = `{"load":` + fmtFloat(o.Value) + `}`
		case u < 0.6:
			o.Value = round4(0.85 + 0.15*rng.Float64())
			o.Kind, o.Method, o.Path = "put-slo", "PUT", base+"/slo"
			o.Body = `{"scale":` + fmtFloat(o.Value) + `}`
		case u < 0.9:
			o.Kind, o.Method, o.Path = "get", "GET", base
		default:
			o.Kind, o.Method, o.Path = "get-slo", "GET", base+"/slo"
		}
		return o
	}
}

// statusReads generates fleet-scrape's op: GET of one instance drawn
// uniformly from the pool.
func statusReads(rng *sim.RNG, ids []string) func() op {
	return func() op {
		inst := rng.Intn(len(ids))
		return op{Kind: "get", Method: "GET", Path: "/api/v1/instances/" + ids[inst], Inst: inst, ID: rng.Uint64()}
	}
}

// scrapes generates fleet-scrape's heavy op: the same GET /metrics every
// time; only the request id is drawn.
func scrapes(rng *sim.RNG) func() op {
	return func() op {
		return op{Kind: "scrape", Method: "GET", Path: "/metrics", Inst: -1, ID: rng.Uint64()}
	}
}

// poolDraws generates state-move's ops: which pool instance moves next.
// The id to address is whatever the daemon last assigned that instance;
// the workload resolves it when the op is sent.
func poolDraws(rng *sim.RNG, kind string, pool int) func() op {
	return func() op {
		return op{Kind: kind, Inst: rng.Intn(pool), ID: rng.Uint64()}
	}
}

// colocateArgs is batch-repro's op for one best-effort workload.
func colocateArgs(be string, workers int) []string {
	argv := []string{"-lc", "websearch", "-be", be, "-loads", "6", "-minutes", "4"}
	if workers > 0 {
		argv = append(argv, "-workers", strconv.Itoa(workers))
	}
	return argv
}

// colocateSets generates batch-repro's op list for a round: sets of the
// six best-effort workloads, each set in an order shuffled by the seed.
// Every workload runs exactly sets times, so the mix of a round — and
// with it the round's median — does not depend on the seed; the seed
// decides only the order.
func colocateSets(rng *sim.RNG, sets int) func() op {
	list := make([]op, 0, sets*len(beWorkloads))
	for s := 0; s < sets; s++ {
		perm := append([]string(nil), beWorkloads...)
		for i := len(perm) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		for _, be := range perm {
			list = append(list, op{Kind: "colocate", Argv: colocateArgs(be, 1), Inst: -1, ID: rng.Uint64()})
		}
	}
	return cycle(list)
}

// fleetArgs is batch-repro's heavy op for one fleet seed.
func fleetArgs(fleetSeed uint64, minutes, workers int) []string {
	argv := []string{"-std", "2", "-compact", "1", "-leaves", "8",
		"-minutes", strconv.Itoa(minutes), "-policy", "slack-greedy",
		"-seed", strconv.FormatUint(fleetSeed, 10)}
	if workers > 0 {
		argv = append(argv, "-workers", strconv.Itoa(workers))
	}
	return argv
}

// fleetRuns generates batch-repro's heavy ops: the same n seed-derived
// fleet seeds every round (the stream does not depend on the round).
func fleetRuns(rng *sim.RNG, n, minutes int) func() op {
	list := make([]op, n)
	for i := range list {
		fleetSeed := 1 + rng.Uint64()%1_000_000
		list[i] = op{Kind: "fleet", Argv: fleetArgs(fleetSeed, minutes, 0), Inst: -1, ID: rng.Uint64()}
	}
	return cycle(list)
}

// cycle replays a fixed list forever.
func cycle(list []op) func() op {
	i := 0
	return func() op {
		o := list[i%len(list)]
		i++
		return o
	}
}

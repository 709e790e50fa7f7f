// Command benchbaseline measures the cost of regenerating each artefact of
// the paper's evaluation and writes the results as JSON, so CI and future
// optimisation PRs can track the performance trajectory (ns/op, allocs/op
// per figure) against a committed baseline.
//
// Usage:
//
//	benchbaseline [-out BENCH_baseline.json] [-quick]
//	benchbaseline -check BENCH_<pr>.json [-quick] [-tol 0.5] [-alloc-tol 0.25]
//
// -quick restricts the run to the microbenchmarks and a reduced sweep,
// which is what the CI smoke uses. -check compares a fresh run against a
// committed record (CI and make bench-check pass the newest per-PR
// BENCH_<pr>.json) instead of writing: ns/op may regress by at most
// -tol (fractional; CI passes a wide band because its hardware differs
// from the reference machine), allocs/op by at most -alloc-tol plus a
// small absolute slack (allocation counts are near-deterministic, so the
// tight band catches accidental allocation regressions on any hardware).
// Entries only in one of the two runs are reported but do not fail the
// check. Exit status 1 on any regression. Passing an explicit -out along
// with -check also writes the fresh measurements (one run serves both
// the gate and the artifact); without it, -check never writes.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"heracles/internal/engine"
	"heracles/internal/experiment"
	"heracles/internal/expo"
	"heracles/internal/fault"
	"heracles/internal/hw"
	"heracles/internal/lat"
	"heracles/internal/machine"
	"heracles/internal/scenario"
	"heracles/internal/sched"
	"heracles/internal/serve"
	"heracles/internal/sim"
	"heracles/internal/slo"
	"heracles/internal/workload"
)

// Entry is one benchmark result.
type Entry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	N           int     `json:"n"`
}

// Baseline is the whole emitted file.
type Baseline struct {
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Entries    []Entry   `json:"entries"`
	CreatedAt  time.Time `json:"created_at"`
}

func main() {
	out := flag.String("out", "BENCH_baseline.json", "output file")
	quick := flag.Bool("quick", false, "microbenchmarks and a reduced sweep only")
	check := flag.String("check", "", "compare against this baseline instead of writing")
	tol := flag.Float64("tol", 0.5, "allowed fractional ns/op regression (0.5 = +50%)")
	allocTol := flag.Float64("alloc-tol", 0.25, "allowed fractional allocs/op regression")
	flag.Parse()

	lab := experiment.DefaultLab()
	loads := []float64{0.2, 0.5, 0.8}
	opts := experiment.RunOpts{
		Duration:     4 * time.Minute,
		Warmup:       time.Minute,
		UseDRAMModel: true,
	}
	// Warm every calibration and the DRAM model outside the timers.
	for _, lc := range []string{"websearch", "ml_cluster", "memkeyval"} {
		lab.LC(lc)
	}
	lab.DRAMModel("websearch")
	lab.BE("brain")

	benches := []struct {
		name  string
		quick bool
		fn    func(b *testing.B)
	}{
		{"MachineStep", true, machineStep(lab, false)},
		{"MachineStep/changing", true, machineStep(lab, true)},
		{"FrequencyResolution", true, func(b *testing.B) {
			// One socket's frequency/power bisection on the input the root
			// BenchmarkFrequencyResolution and the harness rung
			// hw.resolve_freq_us use: 18 busy cores, every third capped at
			// 1.8 GHz, power-limited so the search runs.
			cfg := hw.DefaultConfig()
			cores := make([]hw.CoreLoad, cfg.CoresPerSocket)
			for i := range cores {
				cores[i] = hw.CoreLoad{Activity: 0.9}
				if i%3 == 0 {
					cores[i].CapGHz = 1.8
				}
			}
			freqs := make([]float64, len(cores))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg.ResolveFrequenciesInto(freqs, cores)
			}
		}},
		{"LabSetup", true, func(b *testing.B) {
			// What every process pays before its first experiment epoch: a
			// fresh lab calibrating websearch (42 probes) and profiling its
			// DRAM model (180 cells).
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l := experiment.DefaultLab()
				l.LC("websearch")
				l.DRAMModel("websearch")
			}
		}},
		{"SchedTick", true, func(b *testing.B) {
			// The scheduler's hot path: one dispatch-loop tick over a
			// 64-node fleet with ~500 live jobs (the jobs never complete,
			// so steady-state ticks scan every running job and re-place
			// around churning BE enablement).
			const nNodes = 64
			jobs := make([]sched.JobSpec, 512)
			for i := range jobs {
				jobs[i] = sched.JobSpec{
					Name: "j", Workload: "brain",
					Demand: 1 + i%3, Work: 1e6 * time.Second, Retries: 1 << 20,
				}
			}
			s := sched.New(sched.Config{Policy: sched.SlackGreedy{}, Jobs: jobs, EvictGrace: time.Second})
			nodes := make([]sched.NodeState, nNodes)
			progress := func(j *sched.Job) float64 { return j.CPUSec + 1 }
			tick := func(i int) {
				now := time.Duration(i) * time.Second
				for n := range nodes {
					r := sim.DeriveRNG(uint64(i), uint64(n))
					nodes[n] = sched.NodeState{
						ID: n, BEAllowed: r.Float64() > 0.2,
						Slack: r.Float64() * 0.4, MaxBECores: 24,
					}
				}
				s.Tick(now, nodes, progress)
			}
			for i := 0; i < 64; i++ {
				tick(i) // reach steady state before timing
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tick(64 + i)
			}
		}},
		{"EngineStep", true, func(b *testing.B) {
			// The unified epoch loop's hot path: one Step of an 8-node
			// Heracles engine with a fan-out root — scenario load
			// evaluation, eight machine steps and controller polls, the
			// node-order reduction and the root's fan-out integral. Every
			// node's poll ring reaches the depth its controller declared
			// (15 samples) in epoch 9; the long warmup settles the
			// controllers.
			eng := engine.New(benchEngineConfig(lab))
			defer eng.Close()
			eng.InstallScenario(benchScenario())
			for i := 0; i < 650; i++ {
				eng.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Step()
			}
		}},
		// One epoch of the root's fan-out latency at the cluster/fleet
		// default size — the mean of the slowest of 8 leaves, by quadrature:
		// the part of an engine epoch that does not scale with the machine
		// model. The leaves are websearch machines spread over 30-65% load
		// (eight distinct lognormals, the Heracles arm of a cluster run) or
		// eight copies of one (the baseline arm: evaluated once and raised
		// to its count).
		{"RootMean", true, rootMean(lab, false)},
		{"RootMean/identical", true, rootMean(lab, true)},
		{"SnapshotRestore/json", true, func(b *testing.B) {
			// Checkpoint round trip of a warmed 8-node engine whose poll
			// rings are full (15 samples/node), through the JSON
			// wire format: Snapshot's deep copy, Encode, Decode, Restore's
			// rebuild — the cost the interchange path pays per cycle.
			eng := engine.New(benchEngineConfig(lab))
			defer eng.Close()
			sc := benchScenario()
			eng.InstallScenario(sc)
			for i := 0; i < 620; i++ {
				eng.Step()
			}
			var buf bytes.Buffer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := eng.Snapshot().Encode(&buf); err != nil {
					b.Fatal(err)
				}
				cp, err := engine.DecodeCheckpoint(&buf)
				if err != nil {
					b.Fatal(err)
				}
				r, err := engine.Restore(benchEngineConfig(lab), cp, &sc)
				if err != nil {
					b.Fatal(err)
				}
				r.Close()
			}
		}},
		{"SnapshotRestore/binary", true, func(b *testing.B) {
			// The same round trip through the binary codec — the format the
			// periodic checkpointer, shard migration and supervisor restart
			// actually pay for.
			eng := engine.New(benchEngineConfig(lab))
			defer eng.Close()
			sc := benchScenario()
			eng.InstallScenario(sc)
			for i := 0; i < 620; i++ {
				eng.Step()
			}
			var scratch []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scratch = eng.Snapshot().AppendBinary(scratch[:0])
				cp, err := engine.DecodeCheckpointBinary(scratch)
				if err != nil {
					b.Fatal(err)
				}
				r, err := engine.Restore(benchEngineConfig(lab), cp, &sc)
				if err != nil {
					b.Fatal(err)
				}
				r.Close()
			}
		}},
		{"FaultInjectTick", true, func(b *testing.B) {
			// The fault path's per-epoch cost: each iteration injects one
			// leaf-crash into a warmed 8-node engine and resolves the epoch
			// that applies it — validation, schedule insertion, the
			// crash/restore bookkeeping and the down-node epoch itself.
			eng := engine.New(benchEngineConfig(lab))
			defer eng.Close()
			eng.InstallScenario(benchScenario())
			for i := 0; i < 120; i++ {
				eng.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.InjectFault(fault.Fault{
					Kind: fault.LeafCrash, Node: i % 8, Duration: time.Second,
				}); err != nil {
					b.Fatal(err)
				}
				eng.Step()
			}
		}},
		{"SLOWindowUpdate", true, func(b *testing.B) {
			// The error-budget engine's per-epoch cost: one Push into a
			// tracker whose bit ring is fully grown (the 3d window), with
			// the roll-off reads and burn-rate count updates for all four
			// windows. Alternating violation bits exercise both branches.
			tr := slo.NewTracker(slo.Config{}, time.Second)
			for i := 0; i < 260000; i++ {
				tr.Push(i%7 == 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Push(i%7 == 0)
			}
		}},
		{"HistogramObserve", true, func(b *testing.B) {
			// The latency histogram's record path: bucket selection by
			// bit-length plus two atomic adds — the cost every mailbox
			// command, epoch slice and checkpoint pays to be observable.
			var h expo.Histogram
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}},
		{"InstanceSchedule", true, func(b *testing.B) {
			// The serving core's dispatch overhead: schedule/pop/run cycles
			// through the shared epoch scheduler's heap and worker pool,
			// with 256 always-due tasks contending for 4 drivers — the
			// per-slice cost every live instance pays on top of its engine
			// step.
			b.ReportAllocs()
			serve.ScheduleBench(4, 256, b.N)
		}},
		{"InstanceMigrate", true, func(b *testing.B) {
			// The migration primitive's round trip: detach, snapshot the
			// engine, carry the checkpoint through the binary wire format,
			// restore into a fresh instance on the other shard's
			// pool, stop the origin — the per-move cost a federated
			// rebalance or drain pays per instance. The instance has run
			// its full 120-epoch scenario first, so the checkpoint carries
			// a full poll ring (15 samples) and the last epoch's telemetry.
			s := serve.New(serve.Config{Lab: lab, Shards: 2})
			defer s.Close()
			inst, err := s.CreateInstance(serve.InstanceSpec{
				Load: 0.5, Speed: serve.SpeedMax, MaxEpochs: 120,
			})
			if err != nil {
				b.Fatal(err)
			}
			for inst.Status().State != serve.StateDone {
				time.Sleep(time.Millisecond)
			}
			id, target := inst.ID(), 1-inst.Status().Shard
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := s.MigrateToShard(id, target)
				if err != nil {
					b.Fatal(err)
				}
				id, target = res.To, res.FromShard
			}
		}},
		{"ColocateSweep/sequential", true, func(b *testing.B) {
			o := opts
			o.Workers = 1
			for i := 0; i < b.N; i++ {
				lab.Colocate("websearch", "brain", loads, o)
			}
		}},
		{"ColocateSweep/parallel", true, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lab.Colocate("websearch", "brain", loads, opts)
			}
		}},
		{"Figure1/websearch", false, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lab.Figure1("websearch", loads)
			}
		}},
		{"Figure3/websearch", false, func(b *testing.B) {
			fracs := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
			for i := 0; i < b.N; i++ {
				lab.Figure3("websearch", fracs, fracs)
			}
		}},
	}

	base := Baseline{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CreatedAt:  time.Now().UTC(),
	}
	for _, bench := range benches {
		if *quick && !bench.quick {
			continue
		}
		res := testing.Benchmark(bench.fn)
		e := Entry{
			Name:        bench.name,
			NsPerOp:     float64(res.NsPerOp()),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			N:           res.N,
		}
		base.Entries = append(base.Entries, e)
		fmt.Printf("%-28s %14.0f ns/op %8d B/op %6d allocs/op\n",
			e.Name, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp)
	}

	if *check != "" {
		ok := checkAgainst(*check, base.Entries, *tol, *allocTol)
		// An explicit -out alongside -check also writes the fresh run, so
		// CI measures the quick set once instead of twice. The default
		// output path is suppressed here: it would clobber the committed
		// baseline the check just compared against.
		outSet := false
		flag.Visit(func(f *flag.Flag) { outSet = outSet || f.Name == "out" })
		if outSet {
			writeBaseline(*out, base)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	writeBaseline(*out, base)
}

// machineStep times one warmed control epoch. The steady form repeats
// the same epoch, for which the pure stages return their stored solutions;
// the changing form nudges the load every epoch on an uneven core split,
// so every stage runs its solver (the miss path, storing the new keys included).
func machineStep(lab *experiment.Lab, changing bool) func(b *testing.B) {
	return func(b *testing.B) {
		m := machine.New(lab.Cfg)
		m.SetLC(lab.LC("websearch"))
		m.AddBE(lab.BE("brain"), workload.PlaceDedicated)
		m.SetLoad(0.5)
		beCores := 12
		if changing {
			beCores = 11
		}
		m.Partition(beCores)
		for i := 0; i < 620; i++ {
			m.Step()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if changing {
				m.SetLoad(0.45 + 0.1*float64(i%997)/997)
			}
			m.Step()
		}
	}
}

// rootMean returns the RootMean body over eight websearch leaves spread
// over 30-65% load, or over eight copies of the middle one.
func rootMean(lab *experiment.Lab, identical bool) func(b *testing.B) {
	return func(b *testing.B) {
		stats := make([]lat.EpochStats, 8)
		for i := range stats {
			m := machine.New(lab.Cfg)
			m.SetLC(lab.LC("websearch"))
			m.SetLoad(0.3 + 0.05*float64(i))
			for k := 0; k < 8; k++ {
				stats[i] = m.Step().Lat
			}
		}
		if identical {
			stats = slices.Repeat(stats[4:5], 8)
		}
		var root engine.RootSampler
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			root.Mean(stats)
		}
	}
}

// benchEngineConfig is the 8-node Heracles fleet the engine benchmarks
// run on: brain/streetview split, a root, sequential stepping
// (the per-epoch cost, not the fan-out, is what the entry tracks).
func benchEngineConfig(lab *experiment.Lab) engine.Config {
	brain := lab.BE("brain")
	sview := lab.BE("streetview")
	return engine.Config{
		Nodes:       8,
		HW:          lab.Cfg,
		LC:          lab.LC("websearch"),
		Heracles:    true,
		Model:       lab.DRAMModel("websearch"),
		LookupBE:    lab.BE,
		SLOScale:    0.8,
		RootSamples: 1, // the on-switch; nothing is sampled
		Seed:        1,
		Workers:     1,
		InitialBEs: func(i int) []engine.BEAttach {
			if i%2 == 0 {
				return []engine.BEAttach{{WL: brain, Placement: workload.PlaceDedicated}}
			}
			return []engine.BEAttach{{WL: sview, Placement: workload.PlaceDedicated}}
		},
	}
}

// benchScenario is a long flat-load scenario (the horizon outlasts any
// b.N the runner picks).
func benchScenario() scenario.Scenario {
	return scenario.Scenario{Name: "bench", Duration: 1000 * time.Hour, Load: scenario.Flat(0.5)}
}

// writeBaseline marshals and writes the baseline file, exiting on error.
func writeBaseline(path string, base Baseline) {
	data, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchbaseline:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchbaseline:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}

// allocSlack is the absolute allocs/op headroom on top of the fractional
// band, absorbing scheduling jitter in the parallel sweeps (goroutine
// stacks, pool descriptors) without letting real regressions through.
// Zero-alloc baselines get no slack at all: a benchmark that measured 0
// allocs/op (steady-state machine stepping) is deterministic, and losing
// that property is precisely the regression the gate exists to catch.
const allocSlack = 64

// checkAgainst compares the fresh entries to the committed baseline and
// reports every regression beyond the tolerance band. It returns false
// if any entry regressed.
func checkAgainst(path string, entries []Entry, tol, allocTol float64) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchbaseline:", err)
		return false
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchbaseline: %s: %v\n", path, err)
		return false
	}
	ref := make(map[string]Entry, len(base.Entries))
	for _, e := range base.Entries {
		ref[e.Name] = e
	}

	ok := true
	seen := make(map[string]bool, len(entries))
	for _, e := range entries {
		seen[e.Name] = true
		b, found := ref[e.Name]
		if !found {
			fmt.Printf("%-28s NEW (not in %s)\n", e.Name, path)
			continue
		}
		nsLimit := b.NsPerOp * (1 + tol)
		allocLimit := int64(0)
		if b.AllocsPerOp > 0 {
			allocLimit = int64(float64(b.AllocsPerOp)*(1+allocTol)) + allocSlack
		}
		nsBad := e.NsPerOp > nsLimit
		allocBad := e.AllocsPerOp > allocLimit
		status := "ok"
		if nsBad || allocBad {
			status = "REGRESSION"
			ok = false
		}
		fmt.Printf("%-28s %-10s %12.0f -> %12.0f ns/op (limit %12.0f)  %8d -> %8d allocs/op (limit %8d)\n",
			e.Name, status, b.NsPerOp, e.NsPerOp, nsLimit, b.AllocsPerOp, e.AllocsPerOp, allocLimit)
	}
	for _, b := range base.Entries {
		if !seen[b.Name] {
			fmt.Printf("%-28s MISSING from this run (baseline-only entry)\n", b.Name)
		}
	}
	if ok {
		fmt.Printf("bench check passed against %s (ns/op +%.0f%%, allocs +%.0f%%+%d band)\n",
			path, 100*tol, 100*allocTol, allocSlack)
	}
	return ok
}

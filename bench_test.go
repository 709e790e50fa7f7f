// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark prints the rows/series the paper reports (on
// the first iteration) and measures the cost of regenerating the artefact.
//
//	go test -bench=. -benchmem
//
// Figure index (see DESIGN.md §4): Figure 1 (interference
// characterisation), Figure 3 (cores x LLC surface), Figure 4 (latency
// under Heracles), Figure 5 (EMU), Figure 6 (shared-resource utilisation),
// Figure 7 (memkeyval network bandwidth), Figure 8 (cluster diurnal run),
// and the §5.3 TCO analysis; plus ablations and the micro-benchmark table
// (BenchmarkMicro, DESIGN.md §5).
package heracles_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"heracles"
	"heracles/internal/cache"
	"heracles/internal/core"
	"heracles/internal/engine"
	"heracles/internal/experiment"
	"heracles/internal/expo"
	"heracles/internal/fault"
	"heracles/internal/fed"
	"heracles/internal/fleet"
	"heracles/internal/hw"
	"heracles/internal/lat"
	"heracles/internal/machine"
	"heracles/internal/scenario"
	"heracles/internal/sched"
	"heracles/internal/serve"
	"heracles/internal/sim"
	"heracles/internal/slo"
	"heracles/internal/trace"
	"heracles/internal/workload"
)

var (
	benchLabOnce sync.Once
	benchLab     *experiment.Lab
)

// lab is the shared lab. It does every calibration the micro-benchmark
// table reads up front, so no timed operation pays for one.
func lab() *experiment.Lab {
	benchLabOnce.Do(func() {
		benchLab = experiment.DefaultLab()
		benchLab.DRAMModel("websearch")
		benchLab.BE("brain")
		benchLab.BE("streetview")
	})
	return benchLab
}

// benchLoads is a reduced 10-point grid; pass -benchtime with the full
// experiment binaries (cmd/characterize, cmd/colocate) for the 19-point
// version.
func benchLoads() []float64 {
	return []float64{0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95}
}

func colocOpts() experiment.RunOpts {
	return experiment.RunOpts{
		Duration:     10 * time.Minute,
		Warmup:       2 * time.Minute,
		UseDRAMModel: true,
	}
}

// BenchmarkFigure1 regenerates the three interference characterisation
// tables (websearch, ml_cluster, memkeyval x 8 antagonists x load).
func BenchmarkFigure1(b *testing.B) {
	l := lab()
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"websearch", "ml_cluster", "memkeyval"} {
			t := l.Figure1(name, benchLoads())
			if i == 0 {
				fmt.Println(t)
			}
		}
	}
}

// BenchmarkFigure3 regenerates the websearch max-load-under-SLO surface
// over the cores x LLC plane, whose convexity justifies gradient descent.
func BenchmarkFigure3(b *testing.B) {
	l := lab()
	fracs := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	for i := 0; i < b.N; i++ {
		s := l.Figure3("websearch", fracs, fracs)
		if i == 0 {
			fmt.Println(s)
			fmt.Printf("convexity violations (tol 5%%): %d\n\n", s.ConvexViolations(0.05))
		}
	}
}

// BenchmarkFigure4 regenerates the latency series of Figure 4: each LC
// workload colocated with every BE job under Heracles, across load, with
// the baseline series for comparison. The assertion of the figure — no
// SLO violations anywhere — is checked.
func BenchmarkFigure4(b *testing.B) {
	l := lab()
	bes := []string{"stream-LLC", "stream-DRAM", "cpu_pwr", "brain", "streetview", "iperf"}
	for i := 0; i < b.N; i++ {
		for _, lc := range []string{"websearch", "ml_cluster", "memkeyval"} {
			if i == 0 {
				fmt.Println(l.Baseline(lc, benchLoads(), colocOpts()))
			}
			for _, be := range bes {
				s := l.Colocate(lc, be, benchLoads(), colocOpts())
				if i == 0 {
					fmt.Println(s)
					if v := s.Violations(); len(v) > 0 {
						fmt.Printf("!! SLO violations at %v\n", v)
					}
				}
			}
		}
	}
}

// BenchmarkFigure5 regenerates the EMU series of Figure 5 (production BE
// workloads brain and streetview against all three LC workloads).
func BenchmarkFigure5(b *testing.B) {
	l := lab()
	for i := 0; i < b.N; i++ {
		if i == 0 {
			fmt.Printf("Effective machine utilisation (Figure 5)\n%6s", "load")
			for _, lc := range []string{"websearch", "ml_cluster", "memkeyval"} {
				for _, be := range []string{"brain", "streetview"} {
					fmt.Printf(" %14s", lc[:4]+"+"+be[:5])
				}
			}
			fmt.Println()
		}
		series := make([]experiment.Series, 0, 6)
		for _, lc := range []string{"websearch", "ml_cluster", "memkeyval"} {
			for _, be := range []string{"brain", "streetview"} {
				series = append(series, l.Colocate(lc, be, benchLoads(), colocOpts()))
			}
		}
		if i == 0 {
			for pi, load := range benchLoads() {
				fmt.Printf("%5.0f%%", load*100)
				for _, s := range series {
					fmt.Printf(" %13.1f%%", 100*s.Points[pi].EMU)
				}
				fmt.Println()
			}
			fmt.Println()
		}
	}
}

// BenchmarkFigure6 regenerates the shared-resource utilisation grid of
// Figure 6: DRAM bandwidth, CPU utilisation and CPU power for each LC
// workload colocated with each BE job.
func BenchmarkFigure6(b *testing.B) {
	l := lab()
	bes := []string{"stream-LLC", "stream-DRAM", "cpu_pwr", "brain", "streetview"}
	loads := []float64{0.2, 0.4, 0.6, 0.8}
	for i := 0; i < b.N; i++ {
		for _, lc := range []string{"websearch", "ml_cluster", "memkeyval"} {
			for _, be := range bes {
				s := l.Colocate(lc, be, loads, colocOpts())
				if i == 0 {
					fmt.Printf("%s + %s (Figure 6 metrics)\n", lc, be)
					fmt.Printf("%6s %9s %9s %9s\n", "load", "DRAM BW", "CPU util", "CPU power")
					for _, p := range s.Points {
						fmt.Printf("%5.0f%% %8.1f%% %8.1f%% %8.1f%%\n",
							p.Load*100, 100*p.DRAMUtil, 100*p.CPUUtil, 100*p.PowerFrac)
					}
					fmt.Println()
				}
			}
		}
	}
}

// BenchmarkFigure7 regenerates the memkeyval network bandwidth series of
// Figure 7 (baseline vs colocated with iperf under HTB control).
func BenchmarkFigure7(b *testing.B) {
	l := lab()
	for i := 0; i < b.N; i++ {
		base := l.Baseline("memkeyval", benchLoads(), colocOpts())
		with := l.Colocate("memkeyval", "iperf", benchLoads(), colocOpts())
		if i == 0 {
			fmt.Printf("memkeyval network BW (Figure 7)\n%6s %16s %26s\n",
				"load", "baseline LC BW", "with iperf (LC + BE) BW")
			for pi := range base.Points {
				bp, wp := base.Points[pi], with.Points[pi]
				fmt.Printf("%5.0f%% %13.0f%% %12.0f%% + %6.0f%% of link\n",
					bp.Load*100, 100*bp.LCNetGBs/1.25, 100*wp.LCNetGBs/1.25, 100*wp.BENetGBs/1.25)
			}
			if v := with.Violations(); len(v) > 0 {
				fmt.Printf("!! SLO violations at %v\n", v)
			}
			fmt.Println()
		}
	}
}

// BenchmarkFigure8 regenerates the cluster experiment (latency and EMU
// over a diurnal trace, baseline vs Heracles). The benchmark uses a
// shortened trace; cmd/cluster runs the full 12 hours.
func BenchmarkFigure8(b *testing.B) {
	l := lab()
	tr := heracles.DiurnalTrace(heracles.DiurnalConfig{
		Duration: 90 * time.Minute,
		Step:     time.Second,
		Seed:     42,
	})
	for i := 0; i < b.N; i++ {
		for _, mode := range []bool{false, true} {
			cfg := heracles.ClusterConfig{
				Leaves: 8, Heracles: mode, HW: l.Cfg,
				LC: l.LC("websearch"), Brain: l.BE("brain"), SView: l.BE("streetview"),
				Seed: 42, Model: l.DRAMModel("websearch"),
			}
			res := heracles.RunCluster(cfg, tr)
			if i == 0 {
				s := res.Summarize()
				name := "baseline"
				if mode {
					name = "heracles"
				}
				fmt.Printf("Figure 8 %-8s: meanEMU=%5.1f%% latency mean/worst-window = %4.1f%%/%4.1f%% of SLO, violations=%d\n",
					name, 100*s.MeanEMU, 100*s.MeanRootFrac, 100*s.MaxRootFrac, s.Violations)
			}
		}
		if i == 0 {
			fmt.Println()
		}
	}
}

// BenchmarkTCO regenerates the §5.3 throughput/TCO analysis.
func BenchmarkTCO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cs := heracles.AnalyzeTCO(heracles.BarrosoTCO())
		if i == 0 {
			fmt.Println("Throughput/TCO analysis (§5.3)")
			for _, c := range cs {
				fmt.Printf("util %3.0f%% -> %2.0f%%: heracles %+7.1f%%  energy-proportionality %+6.1f%%\n",
					100*c.BaseUtil, 100*c.TargetUtil, 100*c.HeraclesGain, 100*c.EnergyGain)
			}
			fmt.Println()
		}
	}
}

// BenchmarkAblationNoDRAMModel measures the controller without the §4.2
// offline DRAM model (counter-subtraction fallback): the paper argues
// hardware bandwidth accounting would remove the offline requirement.
func BenchmarkAblationNoDRAMModel(b *testing.B) {
	l := lab()
	loads := []float64{0.2, 0.5, 0.7}
	for i := 0; i < b.N; i++ {
		opts := colocOpts()
		opts.UseDRAMModel = false
		s := l.Colocate("websearch", "streetview", loads, opts)
		if i == 0 {
			fmt.Printf("Ablation: no offline DRAM model -> violations=%d meanEMU=%.1f%%\n",
				len(s.Violations()), 100*s.MeanEMU())
		}
	}
}

// micro is one entry of the micro-benchmark table: setup builds and warms
// its state outside the timer and returns run, which performs n
// operations on that state. BenchmarkMicro times every entry under its
// name (the names the committed BENCH_*.json records use);
// TestMicroAllocCeilings holds the allocation counts no package test pins.
type micro struct {
	name  string
	setup func(tb testing.TB) (run func(n int))
}

var micros = []micro{
	// One control epoch of a warmed websearch+brain machine, its poll ring
	// (600 epochs: nothing declares a depth) full: 0 allocs/op. The plain
	// form repeats one epoch, answered whole by the epoch record
	// (DESIGN.md §5); stages alternates the BE egress ceiling between two
	// values above brain's demand, so the record misses every epoch and
	// every stage's record answers; changing nudges the load every epoch
	// on an uneven core split, so every stage misses and runs its solver.
	{"MachineStep", func(testing.TB) func(int) {
		m := benchMachine(12)
		return each(func(int) { m.Step() })
	}},
	{"MachineStep/stages", func(testing.TB) func(int) {
		m := benchMachine(12)
		return each(func(i int) {
			m.SetBENetCeil(float64(5 + i%2))
			m.Step()
		})
	}},
	{"MachineStep/changing", func(testing.TB) func(int) {
		m := benchMachine(11)
		return each(func(i int) {
			m.SetLoad(0.45 + 0.1*float64(i%997)/997)
			m.Step()
		})
	}},
	{"FrequencyResolution", func(testing.TB) func(int) {
		// One socket's frequency/power bisection on the input the harness
		// rung hw.resolve_freq_us uses: 18 busy cores, every third capped
		// at 1.8 GHz, power-limited so the search runs.
		cfg := hw.DefaultConfig()
		cores := make([]hw.CoreLoad, cfg.CoresPerSocket)
		for i := range cores {
			cores[i] = hw.CoreLoad{Activity: 0.9}
			if i%3 == 0 {
				cores[i].CapGHz = 1.8
			}
		}
		freqs := make([]float64, len(cores))
		return each(func(int) { cfg.ResolveFrequenciesInto(freqs, cores) })
	}},
	{"LabSetup", func(testing.TB) func(int) {
		// What every process pays before its first experiment epoch: a
		// fresh lab resolving websearch and its DRAM model, which the
		// offline table answers on the reference hardware.
		return each(func(int) {
			l := experiment.DefaultLab()
			l.LC("websearch")
			l.DRAMModel("websearch")
		})
	}},
	{"LabSetup/live", func(testing.TB) func(int) {
		// The same on hardware the table does not hold (a 25 Gb/s NIC):
		// websearch calibrates live (42 probes) and its DRAM model is
		// profiled (180 cells).
		cfg := hw.DefaultConfig()
		cfg.LinkGbps = 25
		return each(func(int) {
			l := experiment.NewLab(cfg)
			l.LC("websearch")
			l.DRAMModel("websearch")
		})
	}},
	{"SchedTick", func(testing.TB) func(int) {
		// One dispatch-loop tick over a 64-node fleet with ~500 jobs that
		// never complete: every tick scans every running job and re-places
		// around churning BE enablement.
		jobs := make([]sched.JobSpec, 512)
		for i := range jobs {
			jobs[i] = sched.JobSpec{
				Name: "j", Workload: "brain",
				Demand: 1 + i%3, Work: 1e6 * time.Second, Retries: 1 << 20,
			}
		}
		s := sched.New(sched.Config{Policy: sched.SlackGreedy{}, Jobs: jobs, EvictGrace: time.Second})
		nodes := make([]sched.NodeState, 64)
		progress := func(j *sched.Job) float64 { return j.CPUSec + 1 }
		tick := func(i int) {
			for n := range nodes {
				r := sim.DeriveRNG(uint64(i), uint64(n))
				nodes[n] = sched.NodeState{
					ID: n, BEAllowed: r.Float64() > 0.2,
					Slack: r.Float64() * 0.4, MaxBECores: 24,
				}
			}
			s.Tick(time.Duration(i)*time.Second, nodes, progress)
		}
		run := each(tick)
		run(64) // reach steady state before timing
		return run
	}},
	{"EngineStep", func(tb testing.TB) func(int) {
		// One Step of an 8-node Heracles engine with a fan-out root: the
		// scenario's load, eight machine steps and controller polls, the
		// reduction and the root's integral. The warmup settles the
		// controllers.
		eng, _ := benchEngine(tb, 650)
		return each(func(int) { eng.Step() })
	}},
	{"EngineStep/baseline", func(tb testing.TB) func(int) {
		// The baseline arm of a cluster run: eight LC-only leaves without
		// controllers, on one load that moves every epoch, with a root.
		// The leaves share their stage records, so one solve per stage
		// answers all eight.
		l := lab()
		eng := engine.New(engine.Config{Nodes: 8, HW: l.Cfg, LC: l.LC("websearch"), RootSamples: 1})
		eng.InstallScenario(scenario.Scenario{Name: "bench", Duration: 1000 * time.Hour,
			Load: scenario.Ramp{From: 0.3, To: 0.7, End: 1000 * time.Hour}})
		run := each(func(int) { eng.Step() })
		run(650) // past the poll rings' last growth
		return run
	}},
	{"EngineStep/moving", func(tb testing.TB) func(int) {
		// EngineStep's engine on EngineStep/baseline's moving load: no
		// leaf's own epoch record answers, and a leaf whose controller
		// left it where another leaf stands is answered by that leaf's.
		eng := engine.New(benchEngineConfig())
		tb.Cleanup(eng.Close)
		eng.InstallScenario(scenario.Scenario{Name: "bench", Duration: 1000 * time.Hour,
			Load: scenario.Ramp{From: 0.3, To: 0.7, End: 1000 * time.Hour}})
		run := each(func(int) { eng.Step() })
		run(650)
		return run
	}},
	// One epoch of the root's fan-out latency over 8 leaves, by
	// quadrature: websearch machines spread over 30-65% load (the Heracles
	// arm of a cluster run), or eight copies of one (the baseline arm,
	// evaluated once). Each call alternates between two such leaf sets, a
	// few points of load apart, so the sampler's memo of its last input
	// never answers; repeat hands it the same set every call, which the
	// memo does. 0 allocs/op on the sampler's own scratch.
	{"RootMean", rootMean("")},
	{"RootMean/identical", rootMean("identical")},
	{"RootMean/repeat", rootMean("repeat")},
	{"SnapshotRestore/json", func(tb testing.TB) func(int) {
		// Checkpoint round trip of a warmed 8-node engine with full poll
		// rings through the JSON wire format: Snapshot, Encode, Decode,
		// Restore.
		eng, sc := benchEngine(tb, 620)
		var buf bytes.Buffer
		return each(func(int) {
			buf.Reset()
			if err := eng.Snapshot().Encode(&buf); err != nil {
				tb.Fatal(err)
			}
			cp, err := engine.DecodeCheckpoint(&buf)
			if err != nil {
				tb.Fatal(err)
			}
			restoreAndClose(tb, cp, &sc)
		})
	}},
	{"SnapshotRestore/binary", func(tb testing.TB) func(int) {
		// The same round trip through the binary codec, the format the
		// checkpointer, shard migration and supervisor restart pay for.
		eng, sc := benchEngine(tb, 620)
		var scratch []byte
		return each(func(int) {
			scratch = eng.Snapshot().AppendBinary(scratch[:0])
			cp, err := engine.DecodeCheckpointBinary(scratch)
			if err != nil {
				tb.Fatal(err)
			}
			restoreAndClose(tb, cp, &sc)
		})
	}},
	{"FaultInjectTick", func(tb testing.TB) func(int) {
		// Inject one leaf crash into a warmed 8-node engine, on the next
		// node in turn, and resolve the epoch that applies it.
		eng, _ := benchEngine(tb, 120)
		return each(func(i int) {
			if err := eng.InjectFault(fault.Fault{Kind: fault.LeafCrash, Node: i % 8, Duration: time.Second}); err != nil {
				tb.Fatal(err)
			}
			eng.Step()
		})
	}},
	{"SLOWindowUpdate", func(testing.TB) func(int) {
		// One Push into a tracker whose bit ring is fully grown (the 3d
		// window); every seventh epoch violates, so both branches run.
		tr := slo.NewTracker(slo.Config{}, time.Second)
		push := each(func(i int) { tr.Push(i%7 == 0) })
		push(260000)
		return push
	}},
	{"HistogramObserve", func(testing.TB) func(int) {
		// The latency histogram's record path: bucket selection and two
		// atomic adds.
		var h expo.Histogram
		return each(func(i int) { h.Observe(time.Duration(i) * time.Microsecond) })
	}},
	{"InstanceSchedule", func(testing.TB) func(int) {
		// The epoch scheduler's per-slice overhead: 256 always-due no-op
		// tasks contending for 4 drivers. One call runs all n slices on a
		// fresh pool.
		return func(n int) { serve.ScheduleBench(4, 256, n) }
	}},
	// One epoch of a free-running instance, refresh of the restart point
	// on its cadence included, at age 300 and at age 30 000 (instanceStep).
	{"InstanceStep/young", instanceStep(300)},
	{"InstanceStep/aged", instanceStep(30_000)},
	{"InstanceMigrate", func(tb testing.TB) func(int) {
		// A shard migration round trip (detach, snapshot, binary wire
		// format, restore on the other shard, stop the origin) of an
		// instance that has run its full 120-epoch scenario.
		s := serve.New(serve.Config{Lab: lab(), Shards: 2})
		tb.Cleanup(s.Close)
		inst, err := s.CreateInstance(serve.InstanceSpec{Load: 0.5, Speed: serve.SpeedMax, MaxEpochs: 120})
		if err != nil {
			tb.Fatal(err)
		}
		for inst.Status().State != serve.StateDone {
			time.Sleep(time.Millisecond)
		}
		id, target := inst.ID(), 1-inst.Status().Shard
		migrate := each(func(int) {
			res, err := s.MigrateToShard(id, target)
			if err != nil {
				tb.Fatal(err)
			}
			id, target = res.To, res.FromShard
		})
		// Each move mints the next id with fmt.Sprintf("i%d"), and the
		// runtime boxes integers below 256 without allocating: move past
		// them, so every timed move pays the same.
		migrate(300)
		return migrate
	}},
	// One GET /metrics over a pool of 1 000 instances (half with a BE
	// task), answered into a ResponseWriter that keeps nothing. In idle
	// nothing moved since the last scrape; in moving every instance
	// stepped at least one epoch since, outside the timer.
	{"Scrape/idle", scrape(false)},
	{"Scrape/moving", scrape(true)},
	// One request through heraclesfed's router to a daemon over loopback,
	// all three ends in this process: a routed status read and a routed
	// load write of a parked instance. api-steady's heavy op is this hop.
	{"FedHop/get", fedHop("GET", "", "")},
	{"FedHop/put", fedHop("PUT", "/load", `{"load":0.4}`)},
	{"Fleet/policies", func(testing.TB) func(int) {
		// batch-repro's heavy op, cmd/fleet -std 2 -compact 1 -leaves 8
		// -policy slack-greedy, at a 4-minute horizon on one worker: six
		// units (two arms of three clusters), of which std/1's two repeat
		// std/0's and are answered by them.
		cfg := benchFleet(4 * time.Minute)
		return each(func(int) { fleet.RunPolicies(cfg, []string{"slack-greedy"}) })
	}},
	// A three-point Colocate sweep on the worker pool (workers 0) and on
	// the sequential reference (workers 1), whose outputs
	// TestParallelColocateMatchesSequential holds byte-identical.
	{"ColocateSweep/sequential", colocateSweep(1)},
	{"ColocateSweep/parallel", colocateSweep(0)},
	{"Figure1/websearch", func(testing.TB) func(int) {
		return each(func(int) { lab().Figure1("websearch", microLoads) })
	}},
	{"Figure3/websearch", func(testing.TB) func(int) {
		fracs := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
		return each(func(int) { lab().Figure3("websearch", fracs, fracs) })
	}},
	{"ControllerStep", func(testing.TB) func(int) {
		m := benchMachine(12)
		ctl := core.New(m, lab().DRAMModel("websearch"), core.DefaultConfig())
		return each(func(i int) { ctl.Step(time.Duration(i) * time.Second) })
	}},
	{"CacheSolver", func(testing.TB) func(int) {
		s := cache.Solver{WayMB: 2.25, Ways: 20}
		demands := []cache.Demand{
			{AccessRate: 1e9, Components: workload.Websearch().CacheComponents, WayMask: cache.MaskOfWays(2, 18), LoadScale: 1},
			{AccessRate: 2e9, Components: workload.Brain().CacheComponents, WayMask: cache.MaskOfWays(0, 2)},
		}
		var sc cache.Scratch
		s.ResolveScratch(&sc, demands) // grow scratch to its high-water mark
		return each(func(int) { s.ResolveScratch(&sc, demands) })
	}},
	{"DESEpoch", func(testing.TB) func(int) {
		d := lat.NewDES(1)
		p := lat.ServiceParams{Mean: 10 * time.Millisecond, Sigma: 0.5}
		return each(func(int) { d.Epoch(p, 2000, 36, time.Second) })
	}},
	{"AnalyticEpoch", func(testing.TB) func(int) {
		var e lat.Analytic
		p := lat.ServiceParams{Mean: 10 * time.Millisecond, Sigma: 0.5}
		return each(func(int) { e.Epoch(p, 2000, 36, time.Second) })
	}},
}

// each is the run of an entry whose operations are one call of step,
// numbered from 0 across every call of run.
func each(step func(i int)) func(n int) {
	next := 0
	return func(n int) {
		for range n {
			step(next)
			next++
		}
	}
}

// instanceStep times one epoch of a free-running instance (websearch at
// load 0.5 beside brain) stepped by the epoch scheduler, with the restart
// point refreshed every 30 epochs. So that every timed epoch runs near
// age, the instance is restored from its checkpoint at age for each
// window of min(age, 3 000) epochs, outside the timer. An epoch hook
// counts the window's epochs: it holds the first, so the timer starts
// with the instance waiting, and it costs each epoch a call.
func instanceStep(age int) func(testing.TB) func(int) {
	return func(tb testing.TB) func(int) {
		s := serve.New(serve.Config{Lab: lab()})
		tb.Cleanup(s.Close)
		inst, err := s.CreateInstance(serve.InstanceSpec{Load: 0.5, BEs: []serve.BEAttachment{{Workload: "brain"}},
			Speed: serve.SpeedMax, MaxEpochs: age})
		if err != nil {
			tb.Fatal(err)
		}
		<-s.AllDone()
		cp, err := inst.Checkpoint()
		if err != nil {
			tb.Fatal(err)
		}
		s.Registry().Remove(inst.ID())
		inst.Stop()
		b, _ := tb.(*testing.B)
		timer := func(on bool) {
			switch {
			case b == nil:
			case on:
				b.StartTimer()
			default:
				b.StopTimer()
			}
		}
		return func(n int) {
			for n > 0 {
				w := min(n, age, 3000)
				n -= w
				timer(false)
				left, start, done := w+1, make(chan struct{}), make(chan struct{})
				hook := func(*machine.Machine, machine.Telemetry) {
					if left == w+1 {
						<-start
					}
					if left--; left == 0 {
						close(done)
					}
				}
				win, err := s.CreateInstance(serve.InstanceSpec{Restore: cp, Speed: serve.SpeedMax, MaxEpochs: age + w + 1, EpochHook: hook})
				if err != nil {
					tb.Fatal(err)
				}
				timer(true)
				close(start)
				<-done
				timer(false)
				s.Registry().Remove(win.ID())
				win.Stop()
			}
			timer(true)
		}
	}
}

// microLoads is the reduced load grid of the sweep and Figure 1 entries.
var microLoads = []float64{0.2, 0.5, 0.8}

// benchMachine is a websearch+brain machine at half load with beCores
// BE cores, stepped until its poll ring is full.
func benchMachine(beCores int) *machine.Machine {
	l := lab()
	m := machine.New(l.Cfg)
	m.SetLC(l.LC("websearch"))
	m.AddBE(l.BE("brain"), workload.PlaceDedicated)
	m.SetLoad(0.5)
	m.Partition(beCores)
	for range 620 {
		m.Step()
	}
	return m
}

func rootMean(kind string) func(testing.TB) func(int) {
	return func(testing.TB) func(int) {
		l := lab()
		var sets [2][]lat.EpochStats
		for k := range sets {
			stats := make([]lat.EpochStats, 8)
			for i := range stats {
				m := machine.New(l.Cfg)
				m.SetLC(l.LC("websearch"))
				m.SetLoad(0.3 + 0.05*float64(i) + 0.02*float64(k))
				for range 8 {
					stats[i] = m.Step().Lat
				}
			}
			if kind == "identical" {
				stats = slices.Repeat(stats[4:5], 8)
			}
			sets[k] = stats
		}
		if kind == "repeat" {
			sets[1] = sets[0]
		}
		var root engine.RootSampler
		return each(func(i int) { root.Mean(sets[i%2]) })
	}
}

func colocateSweep(workers int) func(testing.TB) func(int) {
	return func(testing.TB) func(int) {
		opts := experiment.RunOpts{Duration: 4 * time.Minute, Warmup: time.Minute, UseDRAMModel: true, Workers: workers}
		return each(func(int) { lab().Colocate("websearch", "brain", microLoads, opts) })
	}
}

// benchEngineConfig is the 8-node Heracles fleet the engine entries run
// on: brain/streetview split and a root.
func benchEngineConfig() engine.Config {
	l := lab()
	brain := l.BE("brain")
	sview := l.BE("streetview")
	return engine.Config{
		Nodes:       8,
		HW:          l.Cfg,
		LC:          l.LC("websearch"),
		Heracles:    true,
		Model:       l.DRAMModel("websearch"),
		LookupBE:    l.BE,
		SLOScale:    0.8,
		RootSamples: 1, // the on-switch; nothing is sampled
		Seed:        1,
		InitialBEs: func(i int) []engine.BEAttach {
			if i%2 == 0 {
				return []engine.BEAttach{{WL: brain, Placement: workload.PlaceDedicated}}
			}
			return []engine.BEAttach{{WL: sview, Placement: workload.PlaceDedicated}}
		},
	}
}

// benchEngine builds the engine on a flat-load scenario that outlasts any
// n, steps it warm epochs and closes it when tb ends.
func benchEngine(tb testing.TB, warm int) (*engine.Engine, scenario.Scenario) {
	eng := engine.New(benchEngineConfig())
	tb.Cleanup(eng.Close)
	sc := scenario.Scenario{Name: "bench", Duration: 1000 * time.Hour, Load: scenario.Flat(0.5)}
	eng.InstallScenario(sc)
	for range warm {
		eng.Step()
	}
	return eng, sc
}

func restoreAndClose(tb testing.TB, cp *engine.Checkpoint, sc *scenario.Scenario) {
	r, err := engine.Restore(benchEngineConfig(), cp, sc)
	if err != nil {
		tb.Fatal(err)
	}
	r.Close()
}

// scrape builds the Scrape entries' pool and returns one scrape per
// operation. In idle the instances have finished, so nothing moves. In
// moving they run, paced at the scheduler's 100 µs floor so that each
// slice steps one epoch, and wait at their epoch hook while a scrape is
// timed; between scrapes, outside the timer, every instance steps at
// least one epoch, so every instance prints new values at every scrape.
func scrape(moving bool) func(testing.TB) func(int) {
	return func(tb testing.TB) func(int) {
		const pool = 1000
		s := serve.New(serve.Config{Lab: lab(), Shards: 2, MaxInstances: pool})
		tb.Cleanup(s.Close)
		var gate sync.RWMutex // write-held while no instance may step
		if moving {
			gate.Lock()
			tb.Cleanup(gate.Unlock) // before Close: Close waits out the slices
		}
		insts := make([]*serve.Instance, pool)
		for i := range insts {
			spec := serve.InstanceSpec{Load: 0.2 + 0.5*float64(i)/pool, Speed: serve.SpeedMax, MaxEpochs: 3}
			if moving {
				spec.Speed, spec.MaxEpochs = 1e6, 0
				spec.EpochHook = func(*machine.Machine, machine.Telemetry) { gate.RLock(); gate.RUnlock() }
			}
			if i%2 == 0 {
				spec.BEs = []serve.BEAttachment{{Workload: "brain"}}
			}
			inst, err := s.CreateInstance(spec)
			if err != nil {
				tb.Fatal(err)
			}
			insts[i] = inst
		}
		last := make([]uint64, pool)
		advance := func() { // every instance steps at least one epoch
			gate.Unlock()
			for k, inst := range insts {
				for inst.Status().Epoch <= last[k] {
					time.Sleep(50 * time.Microsecond)
				}
			}
			gate.Lock()
			for k, inst := range insts {
				last[k] = inst.Status().Epoch
			}
		}
		for _, inst := range insts {
			for !moving && inst.Status().State != serve.StateDone {
				time.Sleep(time.Millisecond)
			}
		}
		h := s.Handler()
		req := httptest.NewRequest("GET", "/metrics", nil)
		w := &discardResponse{header: http.Header{}}
		b, _ := tb.(*testing.B)
		run := each(func(int) {
			if moving && b != nil {
				b.StopTimer()
				advance()
				b.StartTimer()
			} else if moving {
				advance()
			}
			h.ServeHTTP(w, req)
		})
		run(2) // the first scrape renders every instance
		return run
	}
}

// fedHop is one client request, method on sub below a federated
// instance's path with body, sent to a router in front of one daemon.
// The instance is paced far below one epoch per run, so every reply
// reads the same state.
func fedHop(method, sub, body string) func(testing.TB) func(int) {
	return func(tb testing.TB) func(int) {
		s := serve.New(serve.Config{Lab: lab()})
		tb.Cleanup(s.Close)
		member := httptest.NewServer(s.Handler())
		tb.Cleanup(member.Close)
		rt, err := fed.NewRouter(fed.Config{Members: []string{member.URL}})
		if err != nil {
			tb.Fatal(err)
		}
		front := httptest.NewServer(rt.Handler())
		tb.Cleanup(front.Close)
		client := front.Client()
		send := func(method, path, body string, want int) []byte {
			req, err := http.NewRequest(method, front.URL+path, strings.NewReader(body))
			if err != nil {
				tb.Fatal(err)
			}
			resp, err := client.Do(req)
			if err != nil {
				tb.Fatal(err)
			}
			out, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != want {
				tb.Fatalf("%s %s = %d (%v): %s", method, path, resp.StatusCode, err, out)
			}
			return out
		}
		var info fed.InstanceInfo
		if err := json.Unmarshal(send("POST", "/api/v1/instances", `{"load":0.3,"speed":1e-6}`, http.StatusCreated), &info); err != nil {
			tb.Fatal(err)
		}
		path := "/api/v1/instances/" + info.ID + sub
		run := each(func(int) { send(method, path, body, http.StatusOK) })
		run(10) // open both connections and size their buffers
		return run
	}
}

// benchFleet is cmd/fleet's policy-mode fleet at seed 42 over horizon
// d: two clusters of the reference generation on a diurnal load with a
// flash crowd, one compact cluster on stepped load with a mid-run SLO
// tightening, eight leaves each and 32 synthetic jobs per generation.
func benchFleet(d time.Duration) fleet.Config {
	const seed = 42
	std := scenario.Scenario{Name: "diurnal+flashcrowd", Duration: d,
		Load: scenario.Clamp(scenario.Sum(
			scenario.Diurnal(trace.DiurnalConfig{Duration: d, Step: time.Second, MinLoad: 0.2, MaxLoad: 0.6, Seed: seed}),
			scenario.FlashCrowd{Start: d * 2 / 3, Rise: d / 12, Hold: d / 20, Fall: d / 15, Amp: 0.3},
		), 0, 0.88)}
	compact := scenario.Scenario{Name: "steps+retarget", Duration: d,
		Load: scenario.Steps{{At: 0, Load: 0.3}, {At: d / 3, Load: 0.45}, {At: d * 3 / 4, Load: 0.35}},
		Events: []scenario.Event{
			scenario.SLOScale(d/2, scenario.AllLeaves, 0.6),
			scenario.LoadScale(d*5/6, 1.1),
		}}
	cfg := fleet.Config{Seed: seed, Workers: 1, Clusters: []fleet.ClusterSpec{
		{Name: "std", Count: 2, HW: hw.DefaultConfig(), Leaves: 8, Warmup: d / 6, Scenario: std},
		{Name: "compact", Count: 1, HW: hw.CompactConfig(), Leaves: 8,
			LeafTargetFrac: 0.65, DynamicLeafTargets: true, Warmup: d / 6, Scenario: compact},
	}}
	for i := range cfg.Clusters {
		cfg.Clusters[i].Jobs = sched.SyntheticJobs(32, d, seed+uint64(i), []string{"brain", "streetview"})
	}
	return cfg
}

// discardResponse is a ResponseWriter that keeps nothing.
type discardResponse struct{ header http.Header }

func (d *discardResponse) Header() http.Header         { return d.header }
func (d *discardResponse) WriteHeader(int)             {}
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkMicro runs every entry of the table as a sub-benchmark.
func BenchmarkMicro(b *testing.B) {
	for _, m := range micros {
		b.Run(m.name, func(b *testing.B) {
			run := m.setup(b)
			b.ReportAllocs()
			b.ResetTimer()
			run(b.N)
		})
	}
}

// TestMicroAllocCeilings holds the allocation counts no package test pins
// at their BENCH_23.json values or below (SchedTick at zero since the
// scheduler stopped logging its decisions; InstanceMigrate, the
// SnapshotRestore pair, LabSetup and FedHop/get at what they measure
// since a warm lab lookup builds no spec, a move ships the restart
// point's encoding and a status read copies its error budget in place),
// measured as the benchmark reports them:
// per call, averaged over runs, truncated. One allocation more per
// operation fails. InstanceSchedule may allocate its pool's start-up and
// nothing per slice. LabSetup is a fresh lab the offline table answers:
// the lab, its memo entries, the spec builds and its copy of websearch.
// Scrape/idle reuses every instance's rows. Its ten allocations are the
// instance list, the rows list, the shard list, the writer's buffer and
// its family index, the write stage's family order and staging buffer,
// the Content-Type and Content-Length header values, and the
// Content-Length digits.
// FedHop counts every end of the hop, client, router and daemon alike.
func TestMicroAllocCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("warms engines, a served pool and 300 instance migrations")
	}
	for _, c := range []struct {
		name string
		ops  int     // operations per call
		runs int     // calls averaged over
		max  float64 // allocations per call
	}{
		{"SnapshotRestore/binary", 1, 100, 462},
		{"SnapshotRestore/json", 1, 100, 676},
		{"InstanceMigrate", 1, 100, 78},
		{"FaultInjectTick", 1, 100, 1},
		{"SchedTick", 1, 100, 0},
		{"SLOWindowUpdate", 1, 100, 0},
		{"HistogramObserve", 1, 100, 0},
		{"InstanceSchedule", 10000, 5, 530},
		{"LabSetup", 1, 100, 13},
		{"Scrape/idle", 1, 100, 10},
		{"FedHop/get", 1, 100, 143},
		{"FedHop/put", 1, 100, 167},
	} {
		t.Run(c.name, func(t *testing.T) {
			i := slices.IndexFunc(micros, func(m micro) bool { return m.name == c.name })
			run := micros[i].setup(t)
			if got := testing.AllocsPerRun(c.runs, func() { run(c.ops) }); got > c.max {
				t.Errorf("%v allocations per %d operations, want at most %v", got, c.ops, c.max)
			}
		})
	}
}

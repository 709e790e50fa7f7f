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
// and the §5.3 TCO analysis; plus ablations and component
// micro-benchmarks.
package heracles_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"heracles"
	"heracles/internal/cache"
	"heracles/internal/core"
	"heracles/internal/engine"
	"heracles/internal/experiment"
	"heracles/internal/hw"
	"heracles/internal/lat"
	"heracles/internal/machine"
	"heracles/internal/workload"
)

var (
	benchLabOnce sync.Once
	benchLab     *experiment.Lab
)

func lab() *experiment.Lab {
	benchLabOnce.Do(func() { benchLab = experiment.DefaultLab() })
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

// --- Component micro-benchmarks -----------------------------------------

// BenchmarkMachineStep measures one control epoch. The poll ring (600
// epochs: no controller declares for this machine) is filled before
// timing starts, so both variants report the true steady state: 0
// allocs/op.
//
// steady repeats one epoch: every pure stage is handed the arguments it
// solved an epoch ago and returns the stored solution (DESIGN.md §5).
// changing nudges the load every epoch on an uneven core split (the two
// sockets differ), so every stage misses and runs its solver: the miss
// path, storing the new keys included.
func BenchmarkMachineStep(b *testing.B) {
	for _, changing := range []bool{false, true} {
		name, beCores := "steady", 12
		if changing {
			name, beCores = "changing", 11
		}
		b.Run(name, func(b *testing.B) {
			l := lab()
			m := machine.New(l.Cfg)
			m.SetLC(l.LC("websearch"))
			m.AddBE(l.BE("brain"), workload.PlaceDedicated)
			m.SetLoad(0.5)
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
		})
	}
}

// BenchmarkRootMean measures one epoch of the cluster root's fan-out
// latency, E[slowest of 8 leaves], by quadrature: "spread" leaves are
// websearch machines over 30-65% load (eight distinct lognormals, the
// Heracles arm of a cluster run), "identical" eight copies of one (the
// baseline arm, evaluated once and raised to the eighth power). It is the
// part of an engine epoch that does not scale with the machine model:
// 0 allocs/op on the sampler's own scratch.
func BenchmarkRootMean(b *testing.B) {
	l := lab()
	spread := make([]lat.EpochStats, 8)
	for i := range spread {
		m := machine.New(l.Cfg)
		m.SetLC(l.LC("websearch"))
		m.SetLoad(0.3 + 0.05*float64(i))
		for k := 0; k < 8; k++ {
			spread[i] = m.Step().Lat
		}
	}
	identical := slices.Repeat(spread[4:5], 8)
	for _, bench := range []struct {
		name  string
		stats []lat.EpochStats
	}{{"spread", spread}, {"identical", identical}} {
		b.Run(bench.name, func(b *testing.B) {
			var root engine.RootSampler
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				root.Mean(bench.stats)
			}
		})
	}
}

// BenchmarkColocateSweep measures one full 10-point Colocate sweep with
// the worker pool (workers=0, GOMAXPROCS) against the forced-sequential
// reference (workers=1). On a multi-core host the parallel variant is
// expected to approach a min(points, cores)-fold speedup with byte-
// identical Series output (asserted by TestParallelColocateMatchesSequential).
func BenchmarkColocateSweep(b *testing.B) {
	l := lab()
	opts := colocOpts()
	l.Colocate("websearch", "brain", benchLoads(), opts) // warm calibration caches
	for _, bench := range []struct {
		name    string
		workers int
	}{{"sequential", 1}, {"parallel", 0}} {
		b.Run(bench.name, func(b *testing.B) {
			o := opts
			o.Workers = bench.workers
			for i := 0; i < b.N; i++ {
				l.Colocate("websearch", "brain", benchLoads(), o)
			}
		})
	}
}

func BenchmarkControllerStep(b *testing.B) {
	l := lab()
	m := machine.New(l.Cfg)
	m.SetLC(l.LC("websearch"))
	m.AddBE(l.BE("brain"), workload.PlaceDedicated)
	m.SetLoad(0.5)
	ctl := core.New(m, l.DRAMModel("websearch"), core.DefaultConfig())
	m.Step()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctl.Step(time.Duration(i) * time.Second)
	}
}

func BenchmarkCacheSolver(b *testing.B) {
	s := cache.Solver{WayMB: 2.25, Ways: 20}
	demands := []cache.Demand{
		{AccessRate: 1e9, Components: workload.Websearch().CacheComponents, WayMask: cache.MaskOfWays(2, 18), LoadScale: 1},
		{AccessRate: 2e9, Components: workload.Brain().CacheComponents, WayMask: cache.MaskOfWays(0, 2)},
	}
	var sc cache.Scratch
	s.ResolveScratch(&sc, demands) // grow scratch to its high-water mark
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ResolveScratch(&sc, demands)
	}
}

func BenchmarkFrequencyResolution(b *testing.B) {
	cfg := hw.DefaultConfig()
	loads := make([]hw.CoreLoad, cfg.CoresPerSocket)
	for i := range loads {
		loads[i] = hw.CoreLoad{Activity: 0.9}
		if i%3 == 0 {
			loads[i].CapGHz = 1.8
		}
	}
	freqs := make([]float64, len(loads))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.ResolveFrequenciesInto(freqs, loads)
	}
}

func BenchmarkDESEpoch(b *testing.B) {
	d := lat.NewDES(1)
	p := lat.ServiceParams{Mean: 10 * time.Millisecond, Sigma: 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Epoch(p, 2000, 36, time.Second)
	}
}

func BenchmarkAnalyticEpoch(b *testing.B) {
	var e lat.Analytic
	p := lat.ServiceParams{Mean: 10 * time.Millisecond, Sigma: 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Epoch(p, 2000, 36, time.Second)
	}
}
